import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from erjw import bss
from erjw.bss import (
    FreeModule,
    Page,
    PresentedModule,
    StandardSummand,
    TensoredPage,
    TruncatedOracle,
    admissible_differentials,
    apply_differential,
    closed_form_page,
    flat_base_change,
    homology_step,
    step_engine_page,
)
from erjw.errors import (
    EmptyBasisError,
    FlatnessCertificateError,
    InputError,
    MathInvariantError,
    PageShapeError,
)
from erjw.fgl import GroupLaw
from erjw.graded import GradedSeries, GradingSpec, degree_basis
from erjw.scalar2 import (
    ONE,
    LocalMatrix,
    ModuleStructure,
    TwoLocal,
    kernel_basis,
    preimage_rows,
    quotient_structure,
    row_basis,
    spans,
)


def mono(spec, coeff=1, **kw):
    return GradedSeries.monomial(spec, coeff=coeff, **kw)


# -- differential formulas ---------------------------------------------------


def test_d1_doubles_odd_exponents():
    spec = GradingSpec(2, alphabet="hat")
    assert apply_differential(mono(spec, vn=5), 1) == mono(spec, 2, y=1, vn=2)
    assert apply_differential(mono(spec, vn=4), 1).is_zero
    # module coefficients ride along
    s = mono(spec, 3, vn=1, vh=(2,))
    assert apply_differential(s, 1) == mono(spec, 6, y=1, vn=-2, vh=(2,))


def test_d3_frozen_values():
    ko = GradingSpec(1, alphabet="hat")
    # the classical first differential on the negative generator
    assert apply_differential(mono(ko, vn=-2), 3) == mono(ko, 1, y=3, vn=-4)
    spec = GradingSpec(2, alphabet="hat")
    assert apply_differential(mono(spec, vn=2), 3) == \
        mono(spec, -1, y=3, vn=-4, vh=(1,))


def test_top_differential_converts_periodicity():
    # k = n: the extra generator is v^(-P), folded into the vn slot
    spec = GradingSpec(2, alphabet="hat")
    assert apply_differential(mono(spec, vn=4), 7) == \
        mono(spec, -1, y=7, vn=-16)
    # generator check: b = -1 lands on +vhat_k y^r v^(-2^(n+k))
    assert apply_differential(mono(spec, vn=-4), 7) == \
        mono(spec, 1, y=7, vn=-24)
    spec3 = GradingSpec(3, alphabet="hat")
    assert apply_differential(mono(spec3, vn=-4), 7) == \
        mono(spec3, 1, y=7, vn=-32, vh=(0, 1))


def test_differential_degree_shift():
    rng = random.Random(11)
    for n in (1, 2, 3):
        spec = GradingSpec(n, alphabet="hat")
        for r in admissible_differentials(n):
            k = (r + 1).bit_length() - 2
            for _ in range(8):
                b = 2 * rng.randrange(-6, 6) + 1
                vh = tuple(rng.randrange(3) for _ in range(n - 1))
                s = mono(spec, vn=b * 2 ** k, vh=vh, y=rng.randrange(3))
                img = apply_differential(s, r)
                assert not img.is_zero
                assert img.internal_degree() - s.internal_degree() == \
                    1 + r * spec.lam


def test_differential_squares_to_zero():
    rng = random.Random(23)
    for n in (1, 2):
        spec = GradingSpec(n, alphabet="hat")
        for r in admissible_differentials(n):
            terms = {}
            for _ in range(12):
                key = (rng.randrange(4),
                       *(rng.randrange(4) for _ in range(n - 1)),
                       rng.randrange(-32, 32))
                terms[key] = rng.randrange(1, 9)
            s = GradedSeries(spec, terms)
            assert apply_differential(
                apply_differential(s, r, strict=False), r, strict=False).is_zero


def test_differential_rejections():
    spec = GradingSpec(2, alphabet="hat")
    with pytest.raises(InputError):
        apply_differential(mono(spec, vn=2), 7)  # 4 does not divide 2
    assert apply_differential(mono(spec, vn=2), 7, strict=False).is_zero
    with pytest.raises(InputError):
        apply_differential(mono(spec, vn=2), 5)  # not 2^(k+1)-1
    with pytest.raises(InputError):
        apply_differential(mono(spec, vn=2), 15)  # beyond the last page
    with pytest.raises(InputError):
        standard = GradingSpec(2, alphabet="standard")
        apply_differential(mono(standard, vn=2), 1)  # wrong alphabet


# -- standard blocks ---------------------------------------------------------


def test_summand_zero_rules():
    assert StandardSummand(2, 1, 1, 2, 0).is_zero
    assert StandardSummand(2, 2, 3, 2, 0).is_zero
    assert StandardSummand(2, 0, 3, 3, 0).is_zero  # j = n + 1
    assert not StandardSummand(2, 2, 1, 3, 4).is_zero
    assert not StandardSummand(2, 0, 0, 0, 0).is_zero


def test_summand_offset_normalization():
    s = StandardSummand(2, 1, 0, 2, 6)
    assert s.c == 2
    assert StandardSummand(2, 0, 0, 0, 5).c == 0


def test_summand_counting_n2():
    # full ring with period 8: at degree 0 the capped monomials are
    # vhat_1^0, vhat_1^3 v^8, vhat_1^6 v^16
    full = StandardSummand(2, 0, 0, 3, 0)
    assert full.structure_at(0, caps=6) == ModuleStructure(3, ())
    assert full.structure_at(0, caps=2) == ModuleStructure(1, ())
    # mod-2 rows count one Z/2 per monomial
    row1 = StandardSummand(2, 0, 1, 3, 0)
    assert row1.structure_at(16, caps=6) == ModuleStructure(0, (2, 2))
    # i > j >= 1 requires a positive vhat exponent in the window [j, i):
    # at degree 40 that leaves vhat_1 v^-4 and vhat_1^4 v^4
    tw = StandardSummand(2, 2, 1, 3, 4)
    assert tw.structure_at(40, caps=6).torsion == (2, 2)
    assert tw.structure_at(40, caps=3).torsion == (2,)
    assert tw.structure_at(16, caps=6).is_zero


def test_summand_counting_n1():
    half = StandardSummand(1, 1, 0, 2, 2)
    assert half.structure_at(-4, caps=0) == ModuleStructure(1, ())
    assert half.structure_at(-8, caps=0).is_zero
    shifted = StandardSummand(1, 1, 0, 2, 2, shift=-4)
    assert shifted.structure_at(-8, caps=0) == ModuleStructure(1, ())


# -- closed forms and the step engine ---------------------------------------


def test_ko_page_ladder():
    e1 = closed_form_page(1, 1, m_max=6)
    assert all(row == (StandardSummand(1, 0, 0, 0, 0),)
               for row in e1.rows.values())
    e2 = closed_form_page(1, 2, m_max=6)
    assert e2.rows[0] == (StandardSummand(1, 0, 0, 1, 0),)
    assert e2.rows[1] == (StandardSummand(1, 0, 1, 1, 0),)
    e4 = closed_form_page(1, 4, m_max=6)
    assert e4.rows[0] == (StandardSummand(1, 0, 0, 2, 0),
                          StandardSummand(1, 1, 0, 2, 2))
    assert e4.rows[1] == (StandardSummand(1, 0, 1, 2, 0),)
    assert e4.rows[2] == (StandardSummand(1, 0, 1, 2, 0),)
    assert e4.rows[3] == (StandardSummand(1, 0, 2, 2, 0),)
    assert e4.rows[3][0].is_zero
    # pages 4 and up coincide for n = 1
    assert closed_form_page(1, 4).rows == closed_form_page(1, 9000).rows


def test_einf_filtration_profile_n2():
    page = closed_form_page(2, 8, m_max=8)
    assert page.rows[0] == (StandardSummand(2, 0, 0, 3, 0),
                            StandardSummand(2, 1, 0, 2, 2),
                            StandardSummand(2, 2, 0, 3, 4))
    assert page.rows[1] == (StandardSummand(2, 0, 1, 3, 0),
                            StandardSummand(2, 2, 1, 3, 4))
    assert page.rows[2] == page.rows[1]
    for m in (3, 4, 5, 6):
        assert page.rows[m] == (StandardSummand(2, 0, 2, 3, 0),)
    assert page.rows[7] == (StandardSummand(2, 0, 3, 3, 0),)
    assert page.chart_structure(7, 7 - 7 * 17).is_zero


def test_step_engine_matches_closed_forms():
    # whole pages, rows in order, at the first and last index of every
    # page level and one level past the last; through the band `erjw page`
    # builds and through the oracle's rows
    for n in range(1, 7):
        for m_max in (2 ** (n + 1) - 1, 2 ** (n + 2)):
            for k in range(n + 3):
                for r in {2 ** k, 2 ** (k + 1) - 1}:
                    assert step_engine_page(n, r, m_max) == \
                        closed_form_page(n, r, m_max), (n, m_max, r)


def test_homology_step_shape_errors():
    page = closed_form_page(2, 4)
    with pytest.raises(PageShapeError):
        homology_step(page, 3)  # page 4 carries d_7
    final = closed_form_page(2, 8)
    with pytest.raises(PageShapeError):
        homology_step(final, 15)
    broken = Page(2, 4, {0: (StandardSummand(2, 1, 0, 2, 2),)}, 0)
    with pytest.raises(PageShapeError):
        homology_step(broken, 7)
    twisted = Page(2, 4, {0: (StandardSummand(2, 0, 0, 1, 0),)}, 0)
    with pytest.raises(PageShapeError):
        homology_step(twisted, 7)  # period 2 on a page-4 block


# -- the oracle --------------------------------------------------------------


def compare_with_page_engine(oracle, n, caps, engine=closed_form_page):
    for r in sorted(oracle.charts):
        chart = oracle.charts[r]
        closed = engine(n, r, m_max=oracle.m_max)
        for m in range(oracle.m_max + 1):
            for t in range(oracle.t_lo, oracle.t_hi + 1):
                if (m, t) in oracle.flags:
                    continue
                want = closed.chart_structure(m, t, caps)
                got = chart.get((m, t), ModuleStructure(0, ()))
                assert got == want, (r, m, t, str(got), str(want))


def test_oracle_reproduces_ko():
    oracle = TruncatedOracle(1, -20, 20, caps=0, m_max=8)
    oracle.run()
    assert oracle.level == 2
    compare_with_page_engine(oracle, 1, caps=0)
    # the classical pattern on the zero row: Z at t = -8k, doubled at -8k-4
    final = oracle.chart_at(4)
    assert final[(0, -8)] == ModuleStructure(1, ())
    assert final[(0, -4)] == ModuleStructure(1, ())
    assert final[(1, -1)] == ModuleStructure(0, (2,))
    assert final[(2, -2)] == ModuleStructure(0, (2,))
    assert (3, -3) not in final


def test_oracle_reproduces_n2_pages():
    oracle = TruncatedOracle(2, -30, 30, caps=6, m_max=12)
    oracle.run()
    assert oracle.level == 3
    compare_with_page_engine(oracle, 2, caps=6)
    assert any(m == 0 for m, _ in oracle.charts[8])


def test_oracle_window_flags():
    oracle = TruncatedOracle(1, -12, 12, caps=0, m_max=8)
    oracle.run()
    # pollution stays on the window boundary: the low-t edge (sources
    # out of view), the high-t edge (images out of view), and the top
    # rows (images past m_max), plus one step of fallout from each
    assert any(t == -12 for _, t in oracle.flags)
    for (m, t) in oracle.flags:
        assert t in (-12, -11, 11, 12) or m >= 5


def test_oracle_inadmissible_targets_empty():
    oracle = TruncatedOracle(2, -16, 16, caps=4, m_max=12)
    oracle.run()
    for r in range(2, 9):
        if r in admissible_differentials(2):
            continue
        assert oracle.inadmissible_pairs(r) == []
    assert oracle.inadmissible_pairs(3) != []


def test_oracle_trivial_window():
    with pytest.raises(EmptyBasisError):
        TruncatedOracle(1, 0, 0, caps=0, m_max=0)


def test_oracle_chart_before_advance():
    oracle = TruncatedOracle(1, -6, 6, caps=0, m_max=4)
    assert (0, 1) not in oracle.chart_at(1)  # odd parity, empty basis
    with pytest.raises(InputError, match="not advanced to page 2"):
        oracle.chart_at(2)
    oracle.advance()
    assert oracle.chart_at(3) is oracle.chart_at(2)


# -- the oracle against a reference that skips no work ------------------------


def reference_d(terms, r, n, P):
    """d_r on a terms dict with strict=False: the formulas of the module
    docstring written out on their own, independent of bss._d_key.  Keys
    are (y, vh_1..vh_(n-1), vn): pages carry no classes or roots."""
    k = (r + 1).bit_length() - 2
    out = {}
    for (y, *vh, vn), A in terms.items():
        if k == 0:
            if vn % 2 == 0:
                continue
            key = (y + 1, *vh, vn - (2 ** n - 1))
            coeff = 2 * A
        else:
            if vn % (2 ** k):
                continue
            b = vn // (2 ** k)
            if b % 2 == 0:
                continue
            new_vn = vn + 2 ** k - 2 ** (n + k)
            if k != n:
                vh[k - 1] += 1
            else:
                new_vn -= P
            key = (y + r, *vh, new_vn)
            coeff = A * (-b)
        tot = out.get(key, 0) + coeff
        if tot:
            out[key] = tot
        else:
            out.pop(key, None)
    return out


def reference_diff_data(oracle, cell, r):
    """The oracle's d_r map on a cell as a matrix reference lays it out,
    built through one series per basis key: (column, int coefficient) or
    None per key, the target basis width, the overflow keys in column
    order, and the target cell.  The first columns number the target
    cell's basis, the rest each image key it lacks."""
    m, t = cell
    tgt = (m + r, t + 1)
    cols = {key: i for i, key in enumerate(oracle.basis.get(tgt, ()))}
    width = len(cols)
    P = oracle.spec.hat_offset
    image = []
    for key in oracle.basis[cell]:
        img = GradedSeries(oracle.spec,
                           reference_d({key: ONE}, r, oracle.n, P))
        if reference_d(img.terms, r, oracle.n, P):
            raise MathInvariantError("d∘d is nonzero at the formula level")
        assert len(img.terms) <= 1  # d_r of a monomial is one term or zero
        entry = None
        for kk, cc in img.terms.items():
            assert cc.den == 1
            entry = (cols.setdefault(kk, len(cols)), cc.num)
        image.append(entry)
    return image, width, list(cols)[width:], tgt


def apply_map(M, image, width):
    """M's rows sent through a d_r map from `reference_diff_data`:
    the part in the first `width` columns, and whether any row has an
    entry on a key whose image lies past them."""
    rows, overflows = [], False
    for row, d in zip(M.rows, M.dens):
        out = [0] * width
        for a, entry in zip(row, image):
            if a and entry:
                col, coeff = entry
                if col < width:
                    out[col] += a * coeff
                else:
                    overflows = True
        rows.append((out, d))
    return LocalMatrix._of(rows, width), overflows


class MatrixOracle(TruncatedOracle):
    """The oracle with Z and B as LocalMatrix lattices, the reference the
    valuation bookkeeping is checked against: it moves them through d_r
    with preimage_rows, spans and row_basis and charts them with
    quotient_structure, never using that the lattices are monomial.

    Where d_r vanishes on the whole basis and nothing overflows, Z is
    kept as is, and a position whose Z and B were both kept reads its
    structure from the previous chart.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.Z = {cell: LocalMatrix([[int(i == j) for j in range(len(keys))]
                                     for i in range(len(keys))], len(keys))
                  for cell, keys in self.basis.items()}
        self.B = {cell: LocalMatrix([], len(keys))
                  for cell, keys in self.basis.items()}
        self.charts = {1: self._chart_now(self.basis, {})}

    def _diff_data(self, cell, r):
        return reference_diff_data(self, cell, r)

    def _chart_now(self, changed, previous):
        out = {}
        for cell in self.basis:
            st = quotient_structure(self.Z[cell], self.B[cell]) \
                if cell in changed else previous.get(cell)
            if st is not None and not st.is_zero:
                out[cell] = st
        return out

    def advance(self):
        if self.level > self.n:
            raise InputError("already at the final page")
        k = self.level
        r = 2 ** (k + 1) - 1
        new_flags = set(self.flags)
        new_Z = {}
        extra: dict = {}
        for cell, keys in self.basis.items():
            m, t = cell
            image, width, over, tgt = self._diff_data(cell, r)
            if tgt in self.flags:
                new_flags.add(cell)
            elif m - r >= 0:
                if t - 1 < self.t_lo:
                    if degree_basis(self.spec, t - 1 + (m - r) * self.spec.lam,
                                    self.caps):
                        new_flags.add(cell)
                elif (m - r, t - 1) in self.flags:
                    new_flags.add(cell)
            Z = self.Z[cell]
            if over or any(image):  # else d_r = 0 here: Z stays, B maps to 0
                images, overflows = apply_map(Z, image, width)
                if overflows:
                    new_flags.add(cell)
                if tgt in self.basis:
                    Btgt = self.B[tgt]
                    X = preimage_rows(images, Btgt)
                    dB, _ = apply_map(self.B[cell], image, width)
                    if cell not in new_flags and not spans(Btgt, dB):
                        raise MathInvariantError(
                            f"boundary at {cell} escapes under d_{r}")
                    for row, d in zip(images.rows, images.dens):
                        if any(row):
                            extra.setdefault(tgt, []).append((row, d))
                else:
                    X = kernel_basis(images)
                Z = new_Z[cell] = X @ Z
            if cell not in new_flags:
                odd_cols = [i for i, key in enumerate(keys) if key[self.n] % 2]
                if any(row[i] for row in Z.rows for i in odd_cols):
                    raise MathInvariantError(
                        f"odd-exponent cycle survived d_1 at {cell}")
        self.Z.update(new_Z)
        for cell, pairs in extra.items():
            B = self.B[cell]
            self.B[cell] = row_basis(LocalMatrix._of(
                [*zip(B.rows, B.dens), *pairs], B.ncols))
        self.flags = new_flags
        self.charts[2 ** (k + 1)] = self._chart_now(
            new_Z.keys() | extra.keys(), self.charts[2 ** k])
        self.level += 1
        return 2 ** self.level


class RecomputingOracle(MatrixOracle):
    """The matrix reference with no work skipped: a series-built d_r map,
    a phantom overflow key that no basis key hits on every cell so that
    no cell is carried forward, and every cell re-charted on every page."""

    def _diff_data(self, cell, r):
        image, width, over, tgt = super()._diff_data(cell, r)
        return image, width, over + [None], tgt

    def _chart_now(self, changed, previous):
        return super()._chart_now(self.basis, previous)


class ForgetfulOracle(MatrixOracle):
    """Planted fault: re-charts only the cells whose Z was replaced, so a
    cell whose boundary lattice grew keeps a stale structure."""

    def advance(self):
        self.old_Z = dict(self.Z)
        return super().advance()

    def _chart_now(self, changed, previous):
        old = getattr(self, "old_Z", None)
        if old is not None:
            changed = {cell for cell in changed
                       if self.Z[cell] is not old[cell]}
        return super()._chart_now(changed, previous)


def run_side_by_side(*oracles):
    """Advance the oracles to the last page in step.  Returns the pages
    whose charts or flags differ among them, and how many cells kept
    their Z object from one page to the next."""
    first = oracles[0]
    bad = [] if all(o.charts[1] == first.charts[1] for o in oracles) else [1]
    carried = 0
    while first.level <= first.n:
        for o in oracles:
            before = dict(o.Z)
            page = o.advance()
            carried += sum(o.Z[cell] is z for cell, z in before.items())
        if any(o.charts[page] != first.charts[page] or o.flags != first.flags
               for o in oracles):
            bad.append(page)
    return bad, carried


ORACLE_WINDOWS = [(1, -20, 20, 2), (2, -24, 24, 3), (3, -32, 32, 3)]


def test_apply_differential_matches_reference_formula():
    rng = random.Random(5)
    for n in (1, 2, 3):
        spec = GradingSpec(n, alphabet="hat")
        for r in admissible_differentials(n):
            for _ in range(20):
                terms = {}
                for _ in range(6):
                    key = (rng.randrange(4),
                           *(rng.randrange(4) for _ in range(n - 1)),
                           rng.randrange(-40, 40))
                    terms[key] = TwoLocal(rng.randrange(1, 10),
                                          rng.choice((1, 3, 5)))
                s = GradedSeries(spec, terms)
                want = reference_d(s.terms, r, n, spec.hat_offset)
                assert apply_differential(s, r, strict=False) == \
                    GradedSeries(spec, want)


@pytest.mark.parametrize("n, lo, hi, caps", ORACLE_WINDOWS)
def test_oracle_key_names_its_own_cell(n, lo, hi, caps):
    # what lets advance test an image against one key set: a key fixes
    # its row and column, so no key lies in two cells
    oracle = TruncatedOracle(n, lo, hi, caps)
    for (m, t), keys in oracle.basis.items():
        assert all(key[0] == m and oracle.spec.total_of(key) == t
                   for key in keys), (m, t)
    assert len(oracle.keys) == sum(map(len, oracle.basis.values()))
    assert oracle.keys == set().union(*oracle.basis.values())


@pytest.mark.parametrize("n, lo, hi, caps", ORACLE_WINDOWS)
def test_oracle_matrices_match_series_reference(n, lo, hi, caps):
    oracle = TruncatedOracle(n, lo, hi, caps)
    P = oracle.spec.hat_offset
    leaving = 0
    for r in admissible_differentials(n):
        for (m, t), keys in oracle.basis.items():
            images = oracle._images((m, t), r)
            for key in keys:
                want = reference_d({key: 1}, r, n, P)
                assert images.get(key) == next(iter(want.items()), None), \
                    ((m, t), r, key)
            # in the key set exactly when in the target cell's basis
            target = oracle.basis.get((m + r, t + 1), ())
            for image, _ in images.values():
                assert (image in oracle.keys) == (image in target)
                leaving += image not in target
    assert leaving


@pytest.mark.parametrize("n, lo, hi, caps", ORACLE_WINDOWS)
def test_oracle_pages_match_full_recompute(n, lo, hi, caps, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called apply_differential")

    monkeypatch.setattr(bss, "apply_differential", refuse)
    oracle = TruncatedOracle(n, lo, hi, caps)
    bad, carried = run_side_by_side(oracle, MatrixOracle(n, lo, hi, caps),
                                    RecomputingOracle(n, lo, hi, caps))
    assert bad == []
    # neither the flags nor the matrix reference's carry-forward is
    # vacuous here; the valuation oracle rebuilds every Z on every page
    assert carried and oracle.flags


@pytest.mark.parametrize("n, lo, hi, caps", ORACLE_WINDOWS)
def test_d_key_is_injective_on_each_cell_basis(n, lo, hi, caps):
    # the oracle flags a cycle with an entry on any key whose image leaves
    # the window; that is a nonzero image outside it only if no two keys
    # share an image, where entries could cancel
    oracle = TruncatedOracle(n, lo, hi, caps)
    P = oracle.spec.hat_offset
    shared = 0
    for r in admissible_differentials(n):
        for cell, keys in oracle.basis.items():
            images = [image for image, _ in filter(
                None, (bss._d_key(key, r, n, P) for key in keys))]
            assert len(set(images)) == len(images), (cell, r)
            shared += len(images) > 1
    assert shared or n == 1  # at n = 1 a cell holds one key


def test_boundary_escaping_under_d_r_is_caught():
    # plant every basis key as a boundary at an unflagged cell where d_1
    # lands inside the window: the targets' B is still empty, so those
    # boundaries are no next-page cycles
    oracle = TruncatedOracle(2, -24, 24, caps=3)
    for cell, keys in oracle.basis.items():
        images = oracle._images(cell, 1)
        if cell[1] > oracle.t_lo and images and all(
                image in oracle.keys for image, _ in images.values()):
            break
    else:
        raise AssertionError("no cell where d_1 stays in the window")
    oracle.B[cell] = dict.fromkeys(keys, 0)
    with pytest.raises(MathInvariantError, match="escapes under d_1"):
        oracle.advance()


def test_stale_structure_is_caught_by_recompute():
    n, lo, hi, caps = ORACLE_WINDOWS[1]
    bad, _ = run_side_by_side(ForgetfulOracle(n, lo, hi, caps),
                              RecomputingOracle(n, lo, hi, caps))
    assert bad


@pytest.mark.parametrize("r, shift", [(1, -1), (3, -2)])
def test_wrong_vn_shift_trips_d_squared(monkeypatch, r, shift):
    # d_1 shifting vn by 2^n, or d_3 by 2^(n+1) alone, leaves an odd
    # multiple of 2^k whose own image is nonzero
    true_d = bss._d_key

    def planted(key, rr, n, P):
        image = true_d(key, rr, n, P)
        if image is None or rr != r:
            return image
        (*head, vn), coeff = image  # vn is the last slot of a page key
        return (*head, vn + shift), coeff

    monkeypatch.setattr(bss, "_d_key", planted)
    oracle = TruncatedOracle(2, -24, 24, caps=3)
    with pytest.raises(MathInvariantError, match="d∘d"):
        oracle.run()
    assert oracle.level == (r + 1).bit_length() - 2


def test_colliding_d_key_trips_injectivity(monkeypatch):
    # d_1 sending every odd-vn key of a row to one monomial (y + 1 and
    # nothing else; its own d_1 is zero): two such keys in one cell
    # would leave a lattice that is no longer monomial
    true_d = bss._d_key

    def planted(key, r, n, P):
        image = true_d(key, r, n, P)
        if image is None or r != 1:
            return image
        return (key[0] + 1,) + (0,) * n, image[1]

    monkeypatch.setattr(bss, "_d_key", planted)
    oracle = TruncatedOracle(2, -24, 24, caps=3)
    with pytest.raises(MathInvariantError, match="two keys"):
        oracle.advance()


def test_odd_cycle_surviving_d_1_is_caught(monkeypatch):
    # d_1 planted as zero: every odd-vn key stays a cycle
    true_d = bss._d_key
    monkeypatch.setattr(bss, "_d_key", lambda key, r, n, P:
                        None if r == 1 else true_d(key, r, n, P))
    oracle = TruncatedOracle(2, -24, 24, caps=3)
    with pytest.raises(MathInvariantError, match="odd-exponent cycle"):
        oracle.advance()


@pytest.mark.parametrize("where", ["outside", "below"])
def test_boundary_off_the_cycles_trips_containment(where):
    # plant a boundary on a key that d_1 sends to zero, so no escape
    # check reads it: off Z altogether, or at a lower valuation than Z's
    oracle = TruncatedOracle(2, -24, 24, caps=3)
    cell, key = next((cell, key) for cell, keys in oracle.basis.items()
                     for key in keys if key not in oracle._images(cell, 1))
    if where == "outside":
        del oracle.Z[cell][key]
        oracle.B[cell][key] = 0
    else:
        oracle.B[cell][key] = -1
    with pytest.raises(MathInvariantError, match="outside the cycles"):
        oracle.advance()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), lo=st.integers(-40, 8), width=st.integers(0, 40),
       caps=st.integers(0, 4))
def test_oracle_matches_matrix_reference_on_drawn_windows(n, lo, width, caps):
    try:
        oracle = TruncatedOracle(n, lo, lo + width, caps)
    except EmptyBasisError:
        assume(False)
    bad, _ = run_side_by_side(oracle, MatrixOracle(n, lo, lo + width, caps))
    assert bad == []
    for engine in (closed_form_page, step_engine_page):
        compare_with_page_engine(oracle, n, caps, engine)


# -- flat base change --------------------------------------------------------


def test_free_base_change_shifts_chart():
    base = closed_form_page(2, 8, m_max=4)
    doubled = flat_base_change(
        base, FreeModule((0, -6), "free on two generators"))
    for m in (0, 1, 3):
        for t in range(-20, 21):
            merged = [base.chart_structure(m, t, 4),
                      base.chart_structure(m, t + 6, 4)]
            want = ModuleStructure(
                sum(p.free_rank for p in merged),
                tuple(sorted(sum((list(p.torsion) for p in merged), []))))
            assert doubled.chart_structure(m, t, 4) == want


def test_base_change_needs_certificate():
    base = closed_form_page(1, 1, m_max=2)
    with pytest.raises(FlatnessCertificateError):
        flat_base_change(base, FreeModule((0,), ""))

    class Certified:
        flat_certificate = "claimed"

    with pytest.raises(InputError):
        flat_base_change(base, Certified())


def _line_module(weight, relation_of):
    """Rank-one projective space module from a relation recipe."""
    law = GroupLaw(1, precision=8)
    spec = GradingSpec(1, q=1, alphabet="hat")
    c1 = GradedSeries.gen(spec, "c1", trunc=weight)
    return PresentedModule(
        spec, weight, (relation_of(law, c1),),
        flat_certificate="free over the coefficients on the class monomials")


def test_presented_module_classic_quotient():
    mod = _line_module(
        6, lambda law, c1: law.hat_k_series(2).evaluate_at(c1))
    assert mod.twisted_structure_at(0, 0, 0) == ModuleStructure(1, (64,))
    assert not mod.incomplete_degrees


def test_two_presentations_agree():
    # the doubling series and the fixed-point difference generate the
    # same ideal, so every chart of the tensored pages must match
    by_double = _line_module(
        6, lambda law, c1: law.hat_k_series(2).evaluate_at(c1))
    by_fixed = _line_module(
        6, lambda law, c1: c1 - law.hat_iota().evaluate_at(c1))
    for r in (1, 2, 4, 8):
        page = closed_form_page(1, r, m_max=4)
        a = TensoredPage(page, by_double).chart(range(-10, 11))
        b = TensoredPage(page, by_fixed).chart(range(-10, 11))
        assert a == b
        assert a  # nondegenerate comparison


def test_trivial_module_recovers_coefficients():
    for n, caps in ((1, 0), (2, 5)):
        spec = GradingSpec(n, alphabet="hat")
        triv = PresentedModule(spec, 0, (), "rank one free", caps=caps)
        for r in (1, 4):
            page = closed_form_page(n, r, m_max=4)
            tens = TensoredPage(page, triv)
            for m in range(5):
                for t in range(-12, 13):
                    assert tens.chart_structure(m, t) == \
                        page.chart_structure(m, t, caps), (n, r, m, t)


def test_presented_module_flags_cap_overflow():
    spec = GradingSpec(2, q=1, alphabet="hat")
    rel = GradedSeries.monomial(spec, coeff=2, c=(1,), trunc=4) - \
        GradedSeries.monomial(spec, vh=(1,), c=(2,), trunc=4)
    mod = PresentedModule(spec, 4, (rel,),
                          flat_certificate="window probe", caps=1)
    mod.twisted_structure_at(-16, 0, 0)
    assert -16 in mod.incomplete_degrees
    # the tensored chart reports the cells whose answer read that degree
    tens = TensoredPage(closed_form_page(2, 1, m_max=2), mod)
    assert not tens.flags
    tens.chart(range(-20, 21))
    assert (0, -16) in tens.flags


def test_presented_module_keeps_overflow_columns():
    # 2 = vh1*c1 and vh1*c1 = 0, with vh1 capped away: both relations
    # leave the basis {1} through the same overflow monomial vh1*c1, so
    # only together they show 2 = 0.  Dropping them would leave Z.
    spec = GradingSpec(2, q=1, alphabet="hat")
    vc = GradedSeries.monomial(spec, vh=(1,), c=(1,), trunc=2)
    two = GradedSeries.unit(spec, TwoLocal(2), trunc=2)
    mod = PresentedModule(spec, 2, (two - vc, vc),
                          flat_certificate="overflow probe", caps=0)
    assert mod.twisted_structure_at(0, 0, 0) == ModuleStructure(0, (2,))
    assert mod.incomplete_degrees == {0}


@pytest.mark.parametrize("n, caps, r", [(2, 2, 8), (3, 1, 16), (3, 2, 16)])
def test_trivial_module_matches_blocks_past_the_cap(n, caps, r):
    # blocks I_i(R/I_j) with i >= 2 multiply by vh_l, which overflows at
    # the cap; the answer keeps the capped part, as the blocks count it
    triv = PresentedModule(GradingSpec(n, alphabet="hat"), 0, (),
                           "rank one free", caps=caps)
    page = closed_form_page(n, r, m_max=3)
    tens = TensoredPage(page, triv)
    for m in range(4):
        for t in range(-100, 101):
            assert tens.chart_structure(m, t) == \
                page.chart_structure(m, t, caps), (m, t)
    assert not tens.flags

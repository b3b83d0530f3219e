"""Class-ring lattice rows go from a series' ints straight to the kernel.

`DegreeColumns.lattice_rows` builds each relation or ideal multiple as a
shift of a stencil compiled once from the factor's int numerators over
its denominator, and `DegreeColumns.row` reads any other series the same
way; `DegreeColumns.matrix` hands the rows to the kernel with no TwoLocal
between.  The stencil route is checked against a reference kept here,
`_reference_lattice_rows`, which builds every row as
`cols.row(factor.times_key(mono, deep))`: rows, denominators and column
order must all come out equal.  Two more tests check what
else reaches the kernel: the TwoLocal reference rebuilds every lattice
matrix from its rows' values through the public `LocalMatrix`
constructor, and the one-term product in place of `times_key` must give
the same matrices.  Neither sees how a lattice row is built, since
`lattice_rows` calls neither `row` nor `times_key`.

Window checks at stages k >= 1 read the rows mod 2 instead, as bitmasks
(`bit_preimage_within`), and stage 0 reads the parities of the capped
part of one lattice (`_torsion_free`).  `_reference_window_check` keeps
the Z_(2) route both replaced, `preimage_rows` then `spans` on
`DegreeColumns.matrix`, and the verdicts of every stage are checked
against it.

`DegreeColumns.capped_part`, the part of a span on the capped columns,
is the one route by which stage 0 and the flat base change
(`PresentedModule.twisted_structure_at`) read a lattice.
`_reference_twisted_structure` keeps the base-change route it replaced,
`row_basis` of the stacked rows cut by `preimage_rows`, with its own
per-row test of an incomplete degree; structures and incomplete degrees
are checked against it, and `capped_part` against the `preimage_rows`
intersection.
"""

import copy
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erjw import boring
from erjw.boring import in_ideal, landweber_window_check, present
from erjw.bss import DegreeColumns, PresentedModule
from erjw.errors import InputError, MathInvariantError, NonUnitDivisionError
from erjw.fgl import UniSeries
from erjw.graded import GradedSeries, GradingSpec, degree_basis
from erjw.scalar2 import (LocalMatrix, ModuleStructure, TwoLocal,
                          bit_preimage_within, preimage_rows,
                          quotient_structure, row_basis, spans, stack_rows)


def _lattice_work():
    """Run the three lattice consumers on small inputs, with overflow
    columns, doubling rows and odd denominators above 1 among their rows.
    The window checks build no image or target matrix, so they are also
    asked of the Z_(2) reference, whose matrices the spies see."""
    p = present(2, 1, 6)
    c1 = GradedSeries.gen(p.spec, "c1", trunc=6)
    r1 = p.relations[0]
    assert in_ideal((c1 * r1 - r1).truncated(6), p)
    assert not in_ideal(c1, p)
    for k in (0, 1, 2):
        cert = landweber_window_check(2, 1, k, (-32, 32), weight=4, caps=2)
        assert cert.ok
        assert _reference_window_check(2, 1, k, (-32, 32), 4, 2) == (
            cert.checked, cert.failures)
    module = PresentedModule(p.spec, 4, present(2, 1, 4).relations,
                             flat_certificate="conjugation quotient", caps=2)
    for D in (0, *p.generator_degrees):
        for i, j in ((0, 0), (1, 0), (2, 1), (0, 2)):
            module.twisted_structure_at(D, i, j)


def test_lattice_matrices_match_the_two_local_route(monkeypatch):
    read, built = {}, []
    row, matrix = DegreeColumns.row, DegreeColumns.matrix

    def reading_row(cols, series):
        out = row(cols, series)
        read[id(out[0])] = out[0], series  # holding the row keeps its id
        return out

    def checked_matrix(cols, rows):
        rows = list(rows)
        width = len(cols.index)
        values = []
        for nums, d in rows:
            seen = read.get(id(nums))
            if seen is not None and seen[0] is nums:
                values.append({cols.index[key]: c
                               for key, c in seen[1].terms.items()})
            else:
                values.append({c: TwoLocal(x, d) for c, x in nums.items()})
        got = matrix(cols, rows)
        built.append((cols, rows, got, LocalMatrix(
            [[v.get(c, TwoLocal(0)) for c in range(width)] for v in values],
            width)))
        return got

    monkeypatch.setattr(DegreeColumns, "row", reading_row)
    monkeypatch.setattr(DegreeColumns, "matrix", checked_matrix)
    _lattice_work()
    assert len(built) > 50
    for _, _, got, want in built:
        assert got == want
    rows = [row for _, rows, _, _ in built for row in rows]
    assert any(d > 1 for _, d in rows)
    assert ({0: 2}, 1) in rows  # a doubling row of I_k
    assert any(got.ncols > len(cols.basis) for cols, _, got, _ in built)


def test_lattice_rows_skip_the_public_constructor(monkeypatch):
    def refused(self, *args, **kwargs):
        raise AssertionError("LocalMatrix(...) built a lattice matrix")

    monkeypatch.setattr(LocalMatrix, "__init__", refused)
    _lattice_work()


def test_key_shifts_build_the_one_term_product_matrices(monkeypatch):
    _lattice_work()  # the presentations are built and cached first
    matrix, routes = DegreeColumns.matrix, []
    for patch in (False, True):
        built = []

        def recorded(cols, rows):
            built.append(matrix(cols, rows))
            return built[-1]

        with monkeypatch.context() as m:
            m.setattr(DegreeColumns, "matrix", recorded)
            if patch:
                m.setattr(GradedSeries, "times_key", lambda s, key, trunc=None:
                          GradedSeries(s.spec, {key: 1}, trunc) * s)
            _lattice_work()
        routes.append(built)
    shifted, product = routes
    assert len(shifted) == len(product) > 50
    assert all(a == b for a, b in zip(shifted, product))


def test_columns_do_not_follow_a_series_term_order():
    spec = GradingSpec(2, q=1)
    # vh1 past caps 0: every key but the unit is an overflow column
    terms = {(0, 3, 0, 0): 1, (0, 0, 0, 0): 2, (0, 1, -8, 1): 3,
             (0, 2, 0, 0): 4}
    got = []
    for order in (list(terms), list(terms)[::-1]):
        series = GradedSeries(spec, {k: terms[k] for k in order})
        assert list(series.keys()) == order
        cols = DegreeColumns(spec, 0, 0, 1)
        got.append((cols.row(series), cols.index))
    assert got[0] == got[1]
    assert list(got[0][1]) == sorted(terms)  # the unit is the one basis key


def test_window_check_has_one_image_row_per_source_monomial(monkeypatch):
    spec = GradingSpec(2, q=1)
    rows = []
    torsion_free = boring._torsion_free

    def capped(cols, lattice):  # stage 0: A is 2 [I | 0] on these columns
        rows.append([key for key, c in cols.index.items()
                     if c < len(cols.basis)])
        return torsion_free(cols, lattice)

    def counted_bits(A, den, num):  # stages k >= 1, over GF(2)
        rows.append(len(A))
        return bit_preimage_within(A, den, num)

    monkeypatch.setattr(boring, "_torsion_free", capped)
    monkeypatch.setattr(boring, "bit_preimage_within", counted_bits)
    # one pair per window, so one reduction per call
    for k, wk in ((0, 0), (1, 16), (2, 48)):
        for D in (-32, -16, 0, 16):
            cert = landweber_window_check(2, 1, k, (D, D + wk), weight=4,
                                          caps=2)
            assert cert.ok and cert.checked == ((D, D + wk),)
            basis = degree_basis(spec, D, 2, 4, True)
            if k:
                assert rows.pop() == len(basis) > 0
            else:
                assert rows.pop() == list(basis) and basis
    assert not rows


def test_even_denominator_row_is_refused():
    spec = GradingSpec(2, q=1)
    cols = DegreeColumns(spec, 0, 2, 4)
    with pytest.raises(NonUnitDivisionError):
        cols.row(GradedSeries.unit(spec, Fraction(1, 2)))
    unit = cols.index[spec.unit_key()]
    assert cols.row(GradedSeries.unit(spec, Fraction(3, 5))) == ({unit: 3}, 5)


def _reference_lattice_rows(cols, relations, k, deep):
    """`DegreeColumns.lattice_rows` with every multiple a times_key series
    read through `DegreeColumns.row`, empty rows skipped."""
    spec = cols.spec
    factors = [rel for rel in relations if rel]
    factors += [GradedSeries.gen(spec, f"vh{l}", trunc=deep)
                for l in range(1, k)]
    rows = []
    for factor in factors:
        for mono in degree_basis(spec, cols.D - factor.internal_degree(),
                                 cols.caps, cols.weight, hat_lattice=True):
            row = cols.row(factor.times_key(mono, deep))
            if row[0]:
                rows.append(row)
    if k >= 1:
        rows += [({col: 2}, 1) for col in range(len(cols.index))]
    return rows


def _twin(cols):
    """A copy of cols whose column registrations are its own."""
    twin = copy.copy(cols)
    twin.index = dict(cols.index)
    return twin


def test_lattice_rows_match_the_times_key_reference(monkeypatch):
    # in_ideal keeps each presentation's lattices: start them all cold, so
    # its lattice_rows calls are compared whatever ran before
    for shape in ((2, 1, 6), (1, 2, 4), (3, 1, 4)):
        present(*shape).lattice.cache_clear()
    compared = []
    lattice_rows = DegreeColumns.lattice_rows

    def checked(cols, relations, k, deep):
        twin = _twin(cols)  # the same column state before either route
        got = lattice_rows(cols, relations, k, deep)
        assert got == _reference_lattice_rows(twin, relations, k, deep)
        assert list(cols.index.items()) == list(twin.index.items())
        compared.append(got)
        return got

    monkeypatch.setattr(DegreeColumns, "lattice_rows", checked)
    _lattice_work()
    for n, q, k, window in ((1, 2, 1, (0, 0)), (3, 1, 2, (0, 288))):
        p = present(n, q, 4)
        c1 = GradedSeries.gen(p.spec, "c1", trunc=4)
        r1 = p.relations[0]
        assert in_ideal((c1 * r1 - r1).truncated(4), p)
        assert not in_ideal(c1, p)
        assert landweber_window_check(n, 1, k, window, weight=4, caps=2).ok
    rows = [row for got in compared for row in got]
    assert len(compared) > 40 and len(rows) > 500
    assert any(d > 1 for _, d in rows)


def test_stencil_denominator_edges():
    spec = GradingSpec(2, q=1)  # keys (y, vh1, vn, c1)
    # vh1*c1^2 / 2 (weight 2) + c1 (weight 1): one degree, denominator 2
    factor = GradedSeries(spec, {(0, 1, 0, 2): Fraction(1, 2),
                                 (0, 0, 0, 1): 1})
    D = factor.internal_degree()
    # at deep 2 the unit multiple keeps the weight-2 term over 2
    for build in (DegreeColumns.lattice_rows, _reference_lattice_rows):
        with pytest.raises(NonUnitDivisionError):
            build(DegreeColumns(spec, D, 2, 2), [factor], 0, 2)
    # at deep 1 every kept numerator is even, and the rows are integral
    cols = DegreeColumns(spec, D, 2, 2)
    twin = _twin(cols)
    got = cols.lattice_rows([factor], 0, 1)
    assert got == _reference_lattice_rows(twin, [factor], 0, 1)
    assert list(cols.index.items()) == list(twin.index.items())
    assert ({cols.index[(0, 0, 0, 1)]: 1}, 1) in got
    assert all(d == 1 for _, d in got)


# -- every stage against the Z_(2) route -------------------------------------


def _reference_window_check(n, q, k, window, weight, caps, iota=None):
    """(checked, failures) of `landweber_window_check` over Z_(2) at any
    stage: every pair's preimage by `preimage_rows`, then `spans`, on the
    matrices of `DegreeColumns.matrix`, with no verdict reused."""
    deep = 2 * weight
    pres = present(n, q, deep, iota=iota)
    spec = pres.spec
    mult = boring._stage_multiplier(spec, k, deep)
    wk = mult.internal_degree()
    checked, failures = [], []
    for D in spec.hat_degrees(window[0], window[1] - wk):
        src_cols = DegreeColumns(spec, D, caps, weight)
        tgt_cols = DegreeColumns(spec, D + wk, caps, weight)
        img = [tgt_cols.row(mult.times_key(mono, deep))
               for mono in src_cols.basis]
        den = tgt_cols.matrix(tgt_cols.lattice_rows(pres.relations, k, deep))
        A = tgt_cols.matrix(img)
        num = src_cols.matrix(src_cols.lattice_rows(pres.relations, k, deep))
        pre = preimage_rows(A, den)
        if spans(num, src_cols.matrix((dict(enumerate(row)), d)
                                      for row, d in zip(pre.rows, pre.dens))):
            checked.append((D, D + wk))
        else:
            failures.append(D)
    return tuple(checked), tuple(failures)


def _iota(kind, n, weight):
    """None (the law), the additive law's negation, or the toy law
    [-1](u) = -u + vh1 u^2, at the precision a check at `weight` uses."""
    if kind == "law":
        return None
    bare = GradingSpec(n, alphabet="hat")
    terms = {1: GradedSeries.unit(bare, -1)}
    if kind == "toy":
        terms[2] = GradedSeries.gen(bare, "vh1")
    return UniSeries.from_terms(bare, terms, precision=2 * weight + 1)


@st.composite
def _window_questions(draw):
    n = draw(st.sampled_from((2, 3, 1)))
    q = draw(st.sampled_from((1, 2)))
    k = draw(st.integers(0, n))
    # two classes at weight 5 or more cost the reference seconds a degree
    weight = draw(st.integers(1, 6 if q == 1 else 4))
    caps = draw(st.integers(0, 5 if q == 1 else 3))
    # the toy law needs vh1, which height one lacks
    kinds = ("law", "additive", "toy") if n > 1 else ("law", "additive")
    kind = draw(st.sampled_from(kinds))
    # |vh1| is the hat-lattice step, and |stage k| = (2^k - 1) |vh1|; at
    # height one every class sits in degree 0, and 16 is as good a step
    step = {1: 16, 2: 16, 3: 96}[n]
    lo = step * draw(st.integers(-3, 2)) - draw(st.integers(0, step - 1))
    hi = (lo + (2 ** k - 1) * step + step * draw(st.integers(0, 1))
          + draw(st.integers(0, step - 1)))
    return n, q, k, (lo, hi), weight, caps, kind


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_window_questions())
# stage 0 with mixed verdicts: the additive and toy laws, one class or two
@example((2, 1, 0, (-48, 48), 1, 0, "additive"))
@example((2, 1, 0, (-48, 48), 1, 2, "toy"))
@example((2, 2, 0, (-48, 48), 3, 3, "toy"))
@example((3, 1, 0, (-96, 96), 1, 2, "toy"))
@example((1, 1, 0, (-48, 48), 1, 0, "law"))
@example((2, 1, 1, (-48, 48), 2, 1, "toy"))
@example((2, 1, 1, (-48, 48), 4, 2, "toy"))
@example((2, 1, 1, (-48, 48), 6, 3, "toy"))
# the largest weight and caps drawn, where draws seldom go
@example((2, 1, 1, (-48, 48), 6, 5, "law"))
@example((2, 1, 2, (-48, 48), 6, 5, "law"))
@example((2, 2, 2, (-48, 48), 4, 3, "law"))
@example((3, 1, 1, (-96, 96), 6, 5, "law"))
def test_gf2_window_verdicts_match_the_two_local_route(question):
    n, q, k, window, weight, caps, kind = question
    iota = _iota(kind, n, weight)
    want = _reference_window_check(n, q, k, window, weight, caps, iota)
    if not want[0] and not want[1]:
        with pytest.raises(InputError):
            landweber_window_check(n, q, k, window, weight, caps, iota)
        return
    cert = landweber_window_check(n, q, k, window, weight, caps, iota)
    assert (cert.checked, cert.failures) == want
    assert cert.ok == (not want[1])


def test_the_toy_law_fails_stage_one_where_pinned():
    """The examples above mix verdicts, and fail every degree."""
    for weight, caps, failures in ((2, 1, (-32, 16)),
                                   (4, 2, (-48, -32, -16, 0, 16, 32))):
        cert = landweber_window_check(2, 1, 1, (-48, 48), weight, caps,
                                      _iota("toy", 2, weight))
        assert cert.failures == failures
        assert len(cert.checked) + len(failures) == 6


@pytest.mark.parametrize("q, weight, caps, failures", [
    (1, 1, 2, (-48, -16, 0, 32, 48)),
    (2, 3, 3, (-32, 16)),
])
def test_the_toy_law_mixes_stage_zero_verdicts_where_pinned(q, weight, caps,
                                                            failures):
    """The stage-0 toy-law examples above pass some degrees and fail
    others (the additive one is pinned in test_boring.py)."""
    cert = landweber_window_check(2, q, 0, (-48, 48), weight, caps,
                                  _iota("toy", 2, weight))
    assert cert.failures == failures
    assert cert.checked and len(cert.checked) + len(failures) == 7


@pytest.mark.parametrize("dropped", [0, -1])
def test_a_missing_doubling_row_is_refused(monkeypatch, dropped):
    # at stage 1 the only rows of one entry are the doubling rows; at
    # stage 2 a vh1 multiple of one term may stand in for one
    lattice_rows = DegreeColumns.lattice_rows

    def one_short(cols, relations, k, deep):
        rows = lattice_rows(cols, relations, k, deep)
        col = range(len(cols.index))[dropped]
        rows.remove(({col: 2}, 1))
        return rows

    monkeypatch.setattr(DegreeColumns, "lattice_rows", one_short)
    with pytest.raises(MathInvariantError, match="doubling row"):
        landweber_window_check(2, 1, 1, (0, 16), weight=4, caps=2)


# -- the flat base change against the route it replaced ----------------------


def _reference_twisted_structure(module, D, i, j):
    """(structure, whether D is incomplete) of
    `PresentedModule.twisted_structure_at` by the Z_(2) route it replaced:
    the row basis of the numerator and denominator rows, cut by
    `preimage_rows` to its part in the span of the capped columns and the
    denominator when i > 0, modulo the denominator.  A degree is
    incomplete when a row placed in the columns meets both a capped and an
    overflow column."""
    n = module.spec.n
    if (0 < i <= j) or j == n + 1:
        return ModuleStructure(0, ()), False
    if i == n + 1:
        i = 0
    cols = DegreeColumns(module.spec, D, module.caps, module.weight)
    nb = len(cols.basis)
    if nb == 0:
        return ModuleStructure(0, ()), False
    capped = [({c: 1}, 1) for c in range(nb)]
    den_rows = cols.lattice_rows(module.relations, j, module.weight)
    num_rows = cols.lattice_rows((), i, module.weight) if i else capped
    placed = den_rows + (num_rows if i else [])
    mixed = any(min(row, default=nb) < nb <= max(row, default=0)
                for row, _ in placed)
    den = cols.matrix(den_rows)
    K = row_basis(stack_rows([cols.matrix(num_rows), den]))
    if i:
        K = preimage_rows(K, stack_rows([cols.matrix(capped), den])) @ K
    return quotient_structure(K, den), mixed


def _module(n, q, weight, caps, kind):
    """A presented module: the conjugation quotient ("law"), the free one
    ("free"), or one of the overflow plants of tests/test_bss.py at n = 2,
    q = 1 ("cap overflow": 2 c1 = vh1 c1^2; "overflow columns":
    2 = vh1 c1 and vh1 c1 = 0)."""
    if kind in ("law", "free"):
        pres = present(n, q, weight)
        relations = pres.relations if kind == "law" else ()
        return PresentedModule(pres.spec, weight, relations, "cross-check",
                               caps)
    spec = GradingSpec(2, q=1, alphabet="hat")
    if kind == "cap overflow":
        relations = (GradedSeries.monomial(spec, 2, c=(1,), trunc=weight)
                     - GradedSeries.monomial(spec, vh=(1,), c=(2,),
                                             trunc=weight),)
    else:
        vc = GradedSeries.monomial(spec, vh=(1,), c=(1,), trunc=weight)
        relations = (GradedSeries.unit(spec, 2, trunc=weight) - vc, vc)
    return PresentedModule(spec, weight, relations, "overflow plant", caps)


@st.composite
def _base_change_questions(draw):
    n = draw(st.sampled_from((2, 3, 1)))
    q = draw(st.sampled_from((1, 2)))
    weight = draw(st.integers(q, 4 if q == 1 else 3))  # a class needs q
    caps = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(("law", "free")))
    step = {1: 16, 2: 16, 3: 96}[n]
    spec = GradingSpec(n, alphabet="hat")
    D = draw(st.sampled_from(spec.hat_degrees(-3 * step, 3 * step)))
    return n, q, weight, caps, D, kind


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_base_change_questions())
# the overflow plants: incomplete at degree -16, and at {0}
@example((2, 1, 4, 1, -16, "cap overflow"))
@example((2, 1, 2, 0, 0, "overflow columns"))
def test_base_change_matches_the_preimage_route(question):
    n, q, weight, caps, D, kind = question
    module = _module(n, q, weight, caps, kind)
    incomplete = False
    for i in range(n + 2):
        for j in range(n + 2):
            want, mixed = _reference_twisted_structure(module, D, i, j)
            assert module.twisted_structure_at(D, i, j) == want, (i, j)
            incomplete |= mixed
    assert module.incomplete_degrees == ({D} if incomplete else set())


@pytest.mark.parametrize("n, q, weight, caps, kind", [
    (2, 1, 4, 1, "cap overflow"),
    (2, 1, 2, 0, "overflow columns"),
    (2, 1, 4, 2, "law"),
    (2, 2, 3, 1, "law"),
    (3, 1, 3, 1, "law"),
])
def test_capped_part_spans_the_preimage_intersection(n, q, weight, caps,
                                                     kind):
    # L ∩ Z^nb two ways: capped_part's echelon rows, and the x with
    # x @ [I | 0] in L that preimage_rows finds; each spans the other
    module = _module(n, q, weight, caps, kind)
    spec, step = module.spec, {2: 16, 3: 96}[n]
    seen = []
    for D in spec.hat_degrees(-3 * step, 3 * step):
        for k in range(n + 1):
            cols = DegreeColumns(spec, D, caps, weight)
            rows = cols.lattice_rows(module.relations, k, weight)
            nb = len(cols.basis)
            got = cols.capped_part(rows)
            capped = cols.matrix(({c: 1}, 1) for c in range(nb))
            want = preimage_rows(capped, cols.matrix(rows))
            assert got.ncols == want.ncols == nb
            assert spans(got, want) and spans(want, got), (D, k)
            seen.append((len(cols.index) > nb, got.nrows))
    # some lattice overflows the cap and still meets the capped columns
    assert any(over and rank for over, rank in seen)

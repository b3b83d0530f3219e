"""Acceptance gate: one timed test per release criterion.

Each test re-derives its expected values from scratch inside the stated
budget, so `pytest -v tests/test_acceptance.py` prints one pass/fail
line per criterion.  Everything here is exact equality; no tolerances.
"""

import random
import time

from erjw import (
    GradedSeries,
    GradingSpec,
    GroupLaw,
    SymmetricContext,
    TruncatedOracle,
    TwoLocal,
    UniSeries,
    additive_law,
    admissible_differentials,
    apply_differential,
    closed_form_page,
    hat_decompose,
    in_ideal,
    landweber_window_check,
    named_generators,
    obstruction_residue,
    orientability_scan,
    present,
    reduce,
    relation_check,
    residue_certificate,
    step_engine_page,
    thom_ratio,
)


class _budget:
    """Context manager asserting the block beat its time budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"budget {self.seconds}s exceeded: {self.elapsed:.1f}s")
        return False


def _substitute(law, a, b):
    # F(a, b) for two graded series, straight off the law table
    spec = a.spec
    out = GradedSeries.zero(spec, a.trunc)
    apow = {0: GradedSeries.unit(spec, 1, a.trunc)}
    bpow = {0: GradedSeries.unit(spec, 1, b.trunc)}

    def power(cache, base, e):
        while e not in cache:
            top = max(cache)
            cache[top + 1] = cache[top] * base
        return cache[e]

    for (i, j), c in sorted(law.law_table().items()):
        if i + j > a.trunc:
            continue
        out = out + c.extended_to(spec) * power(apow, a, i) * power(bpow, b, j)
    return out


def test_criterion_1_formal_law_axioms():
    """Unit, commutativity, associativity, inverses, doubling identity
    and 2-local integrality at precision 16 for n = 1, 2, 3."""
    with _budget(6):
        for n in (1, 2, 3):
            law = GroupLaw(n, precision=16)
            table = law.law_table()

            # F(x, 0) = x and symmetry of the table
            assert table[(1, 0)] == GradedSeries.unit(law.spec, 1)
            assert all(j > 0 for (i, j) in table if i != 1)
            for (i, j), c in table.items():
                assert table[(j, i)] == c

            # every coefficient is a 2-local integer
            for c in table.values():
                for val in dict(c.items_sorted()).values():
                    assert getattr(val, "den", 1) % 2 == 1

            # associativity on three independent roots at full precision
            spec3 = GradingSpec(n, q=0, roots=3, alphabet="standard")
            x1 = GradedSeries.gen(spec3, "x1", trunc=16)
            x2 = GradedSeries.gen(spec3, "x2", trunc=16)
            x3 = GradedSeries.gen(spec3, "x3", trunc=16)
            left = _substitute(law, _substitute(law, x1, x2), x3)
            right = _substitute(law, x1, _substitute(law, x2, x3))
            assert not left.is_zero and left == right

            # F(x, iota(x)) = 0 and the doubling identity, dual route
            ident = UniSeries.identity(law.spec, 16)
            assert law.apply2(ident, law.iota()).is_zero()
            assert law.araki_identity_holds()
            assert law.k_series(2) == law.two_series_via_formal_sum()


def test_criterion_2_height_one_reproduction():
    """Oracle pages at n = 1 match the closed form in |t| <= 48, with the
    stated second page, connecting differential and limit page."""
    with _budget(2):
        window = range(-48, 49)
        oracle = TruncatedOracle(1, -48, 48, caps=6)
        oracle.run()
        for r in (1, 2, 3, 4):
            closed = closed_form_page(1, r).chart(window)
            left = {c: s for c, s in closed.items() if c not in oracle.flags}
            right = {c: s for c, s in oracle.chart_at(r).items()
                     if c not in oracle.flags}
            assert left == right, f"engine mismatch on page {r}"

        # second page: a free row, then one exponent-two row per filtration
        e2 = closed_form_page(1, 2)
        assert [s.notation() for s in e2.rows[0]] == ["R[v^±2]"]
        assert [s.notation() for s in e2.rows[1]] == ["R/I_1[v^±2]"]
        chart2 = e2.chart(window)
        assert {t % 4 for (m, t) in chart2 if m == 0} == {0}
        assert all(st.free_rank == 1 and st.torsion == ()
                   for (m, t), st in chart2.items() if m == 0)
        assert {t % 4 for (m, t) in chart2 if m == 1} == {3}

        # the connecting differential on the doubled-period generator
        spec = GradingSpec(1, alphabet="hat")
        image = apply_differential(GradedSeries.monomial(spec, vn=-2), 3)
        assert image == GradedSeries.monomial(spec, y=3, vn=-4)

        # limit page: two free blocks on the base row, two torsion rows
        einf = closed_form_page(1, 4)
        assert ([s.notation() for s in einf.rows[0]]
                == ["R[v^±4]", "I_1R[v^±4]v^2"])
        assert [s.notation() for s in einf.rows[1]] == ["R/I_1[v^±4]"]
        assert [s.notation() for s in einf.rows[2]] == ["R/I_1[v^±4]"]
        assert all(s.is_zero for s in einf.rows[3])
        chart = einf.chart(window)
        assert sorted({m for (m, t) in chart}) == [0, 1, 2]
        assert {t % 4 for (m, t) in chart if m == 0} == {0}
        assert {t % 8 for (m, t) in chart if m == 1} == {7}
        assert {t % 8 for (m, t) in chart if m == 2} == {6}
        assert all(str(st) == "Z/2" for (m, t), st in chart.items() if m > 0)


def test_criterion_3_height_two_structure():
    """Triple engine agreement at n = 2 in |t| <= 96, named generators in
    their degree classes mod 48, and the alpha chain relation."""
    with _budget(2):
        window = range(-96, 97)
        oracle = TruncatedOracle(2, -96, 96, caps=6)
        oracle.run()
        for r in (1, 2, 4, 8):
            closed = closed_form_page(2, r).chart(window)
            stepped = step_engine_page(2, r).chart(window)
            assert closed == stepped, f"closed vs step mismatch on page {r}"
            left = {c: s for c, s in closed.items() if c not in oracle.flags}
            right = {c: s for c, s in oracle.chart_at(r).items()
                     if c not in oracle.flags}
            assert left == right, f"closed vs oracle mismatch on page {r}"

        limit = closed_form_page(2, 8).chart(window)
        expected_classes = {"x": -17, "alpha": 16, "alpha_1": -36,
                            "alpha_2": -24, "alpha_3": -12, "w": -8}
        gens = named_generators(2)
        assert {name: g.total_degree for name, g in gens.items()} \
            == expected_classes
        for name, g in gens.items():
            columns = [t for t in window if t % 48 == g.total_degree % 48]
            assert columns, name
            assert all((g.row, t) in limit for t in columns), name

        assert relation_check(2, "alpha*alpha_2 = 2*w").holds


def test_criterion_4_height_three_relations():
    """The four multiplicative relations among the height-three
    generators hold at the module level."""
    with _budget(2):
        for text in ("vh1*A = 2*B",
                     "vh2*A = 2*C",
                     "vh2*B = vh1*C",
                     "vh1*vh2*A = 2*vh2*B"):
            report = relation_check(3, text)
            assert report.holds, (text, report.witness)


def test_criterion_5_differential_vanishing():
    """Off the admissible page indices no differential can act anywhere
    in the window, and the square of every differential is zero."""
    with _budget(2):
        for n, caps in ((1, 6), (2, 6), (3, 4)):
            oracle = TruncatedOracle(n, -48, 48, caps=caps)
            # advance() re-derives d∘d = 0 on every basis monomial, and
            # checks that the boundaries stay boundaries on every cell
            # whose d_r is nonzero; any failure raises out of run()
            oracle.run()
            admissible = set(admissible_differentials(n))
            acting = 0
            for r in range(1, 2 ** (n + 1) + 2):
                pairs = oracle.inadmissible_pairs(r)
                if r in admissible:
                    acting += len(pairs)
                else:
                    assert pairs == [], f"d_{r} has targets at n={n}"
            assert acting > 0  # the vanishing statement is not vacuous

            spec = GradingSpec(n, alphabet="hat")
            moved = 0
            for r in admissible:
                for b in range(-8, 9):
                    for y in (0, 2):
                        z = GradedSeries.monomial(spec, y=y, vn=b)
                        dz = apply_differential(z, r, strict=False)
                        moved += not dz.is_zero
                        assert apply_differential(dz, r, strict=False).is_zero
            assert moved > 0


def test_criterion_6_rank_one_class_ring():
    """The doubling series of the first class reduces to zero in the
    rank-one presentation, and reduction is idempotent."""
    with _budget(2):
        for n in (1, 2, 3):
            law = GroupLaw(n, precision=9)
            pres = present(n, 1, 8)
            c1 = GradedSeries.gen(pres.spec, "c1", trunc=8)
            doubled = law.hat_k_series(2).evaluate_at(c1)
            assert not doubled.is_zero
            assert reduce(doubled, pres).is_zero

        rng = random.Random(8161211)
        presentations = {n: present(n, 1, 8) for n in (1, 2, 3)}
        for case in range(100):
            pres = presentations[case % 3 + 1]
            z = GradedSeries.zero(pres.spec, 8)
            for _ in range(rng.randrange(1, 5)):
                z = z + GradedSeries.gen(
                    pres.spec, "c1", exp=rng.randrange(1, 9),
                    coeff=TwoLocal(rng.randrange(-15, 16),
                                   rng.choice((1, 3, 5, 7))))
            once = reduce(z, pres)
            assert reduce(once, pres) == once


def test_criterion_7_conjugate_class_properties():
    """Additive specialization signs, conjugation as an involution, and
    the ratio of conjugate to plain top class acting as the identity
    once the conjugation relations are imposed."""
    with _budget(2):
        for n in (1, 2):
            std = GradingSpec(n, alphabet="standard")
            add = additive_law(std, 8)
            law = GroupLaw(n, precision=10)
            for q in (1, 2, 3):
                flat = SymmetricContext(add.iota(), q, 6)
                for k in range(1, q + 1):
                    signed = flat.chern_class(k) * (-1) ** k
                    assert flat.conjugate_chern(k) == signed
                ctx = SymmetricContext(law.hat_iota(), q, 6)
                for k in range(1, q + 1):
                    back = ctx.conjugation_on_classes(ctx.conjugate_chern(k))
                    assert back == ctx.chern_class(k)

        # the ratio differs from 1 in the class ring, but the Thom class
        # only ever multiplies it into the top class, and there it is
        # exactly the conjugation relation
        for n in (1, 2, 3):
            weight = 6
            iota = GroupLaw(n, precision=weight + 4).hat_iota()
            ratio = thom_ratio(iota, 1, weight)
            pres = present(n, 2, weight)
            assert ratio.spec == pres.spec
            delta = ratio - GradedSeries.unit(pres.spec, 1, weight)
            top = GradedSeries.gen(pres.spec, "c2", trunc=weight)
            defect = (delta * top).truncated(weight)
            assert (defect + pres.relations[1]).is_zero
            assert reduce(defect, pres).is_zero
            assert in_ideal(defect, pres)
            assert not in_ideal(delta, pres)  # the division step is real


def test_criterion_8_orientation_certificates():
    """Scans certify the doubled tower at n = 1, 2, 3; the obstruction
    degree arithmetic holds; arithmetically-empty degree classes are
    re-read as empty from the computed pages."""
    with _budget(2):
        for n in (1, 2, 3):
            scan = orientability_scan(n)
            assert scan.bundle == f"MO[{2 ** (n + 1)}]"
            assert scan.certified
            assert all(step.verdict for step in scan.steps)

            for k in range(1, n + 2):
                for r in range(2 ** k - 1):
                    assert obstruction_residue(n, k, r) \
                        == (2 ** k + r + 1) % 2 ** (k + 1)

            lam = GradingSpec(n, alphabet="hat").lam
            gaps = [s for s in scan.steps if s.method == "degree-gap"]
            assert len(gaps) == 2 ** (n + 2) - n - 3
            for step in gaps:
                assert step.rechecked
                assert all(D % step.modulus == step.residue
                           for D in step.rechecked)
                page = closed_form_page(n, step.page)
                for D in step.rechecked:
                    st = page.chart_structure(step.page, D - step.page * lam,
                                              caps=4)
                    assert st.is_zero, (n, step.page, D)


def test_criterion_9_decomposition_and_flatness():
    """Periodicity residue bases with pairwise distinct degree classes at
    n = 2, 3, and window-scale flatness at n = 2 through stage two."""
    with _budget(2):
        for n in (2, 3):
            basis_size = 2 ** (n + 1) * (2 ** (n - 1) - 1)
            cert = residue_certificate(n)
            assert sorted(cert) == list(range(basis_size))
            assert len(set(cert.values())) == basis_size
            assert set(cert.values()) == set(range(0, 2 * basis_size, 2))

        std2 = GradingSpec(2, alphabet="standard")
        dec = hat_decompose(GradedSeries.gen(std2, "v2", exp=9))
        assert dec.residues == tuple(range(8))
        assert set(dec.components) == {1}
        assert dec.recombine() == GradedSeries.gen(std2, "v2", exp=9)
        std3 = GradingSpec(3, alphabet="standard")
        dec3 = hat_decompose(GradedSeries.gen(std3, "v3", exp=49))
        assert dec3.residues == tuple(range(48))
        assert set(dec3.components) == {1}

        iota6 = GroupLaw(2, precision=13).hat_iota()
        iota4 = GroupLaw(2, precision=9).hat_iota()
        for k in (0, 1, 2):
            one = landweber_window_check(2, 1, k, (-48, 48), weight=6,
                                         caps=5, iota=iota6)
            assert one.ok and one.checked and not one.failures
            two = landweber_window_check(2, 2, k, (-48, 48), weight=4,
                                         caps=4, iota=iota4)
            assert two.ok and two.checked and not two.failures

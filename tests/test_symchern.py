from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from erjw import symchern
from erjw.boring import present
from erjw.errors import (
    InputError,
    PrecisionError,
    ReductionError,
    SymmetryError,
)
from erjw.fgl import GroupLaw, ToyLaw, additive_law
from erjw.graded import GradedSeries, GradingSpec
from erjw.scalar2 import TwoLocal
from erjw.symchern import SymmetricContext, thom_ratio

STD1 = GradingSpec(1, alphabet="standard")
ADD = additive_law(STD1, 12)
LAW2 = GroupLaw(2, precision=12)


def _ctx(q, weight, iota=None):
    return SymmetricContext(iota if iota is not None else ADD.iota(), q, weight)


@pytest.mark.parametrize("message, ask", [
    ("q must be an int", lambda iota: SymmetricContext(iota, 2.0, 4)),
    ("weight must be an int", lambda iota: SymmetricContext(iota, 1, 4.0)),
    ("q must be an int", lambda iota: SymmetricContext(iota, True, 4)),
    ("k must be an int", lambda iota: thom_ratio(iota, 1.0, 4)),
    ("weight must be an int", lambda iota: thom_ratio(iota, 1, 2.5)),
    ("k must be an int", lambda iota: thom_ratio(iota, True, 4)),
])
def test_non_int_ranks_and_weights_are_refused(monkeypatch, message, ask):
    # SymmetricContext(iota, True, 4) used to run as if q were 1
    iota = ADD.iota()

    def unbuilt(*args, **kwargs):
        raise AssertionError("a context was built for refused inputs")

    monkeypatch.setattr(symchern, "GradingSpec", unbuilt)
    with pytest.raises(InputError, match=f"^{message}"):
        ask(iota)


@pytest.mark.parametrize("message, ask", [
    ("i must be an int", lambda ctx: ctx.root(1.0)),
    ("i must be an int", lambda ctx: ctx.root(True)),
    ("k must be an int", lambda ctx: ctx.chern_class(True)),
    ("k must be an int", lambda ctx: ctx.chern_class(1.0)),
    ("k must be an int", lambda ctx: ctx.elementary(1.0)),
    ("k must be an int", lambda ctx: ctx.elementary(False)),
    ("k must be an int", lambda ctx: ctx.conjugate_chern(1.0)),
    ("k must be an int", lambda ctx: ctx.conjugate_chern(True)),
])
def test_non_int_indices_are_refused(message, ask):
    # elementary(1.0) used to raise a raw TypeError and chern_class(True)
    # a plain ValueError about the variable 'cTrue'
    with pytest.raises(InputError, match=f"^{message}"):
        ask(_ctx(2, 4))


def test_elementary_polynomials():
    ctx = _ctx(3, 4)
    e1, e2, e3 = ctx.elementary(1), ctx.elementary(2), ctx.elementary(3)
    assert len(e1.terms) == 3 and len(e2.terms) == 3 and len(e3.terms) == 1
    assert ctx.is_symmetric(e2)
    assert ctx.elementary(0) == GradedSeries.unit(ctx.root_spec, 1)
    with pytest.raises(InputError):
        ctx.elementary(4)


def test_newton_reductions():
    ctx = _ctx(2, 4)
    x1, x2 = ctx.root(1), ctx.root(2)
    p2 = x1 * x1 + x2 * x2
    got = ctx.elementary_reduce(p2)
    c1, c2 = ctx.chern_class(1), ctx.chern_class(2)
    assert got == c1 * c1 - 2 * c2

    ctx3 = _ctx(3, 4)
    p3 = sum((ctx3.root(i) ** 3 for i in (1, 2, 3)),
             GradedSeries.zero(ctx3.root_spec, 4))
    d1, d2, d3 = (ctx3.chern_class(k) for k in (1, 2, 3))
    assert ctx3.elementary_reduce(p3) == d1 ** 3 - 3 * d1 * d2 + 3 * d3


def test_reduce_rejects_asymmetric_and_classes():
    ctx = _ctx(2, 3)
    with pytest.raises(SymmetryError):
        ctx.elementary_reduce(ctx.root(1))
    with pytest.raises(InputError):
        ctx.elementary_reduce(ctx.chern_class(1))


def test_reduce_round_trips_on_random_symmetric_inputs():
    import random
    rng = random.Random(99)
    ctx = _ctx(3, 5)
    for _ in range(10):
        s = GradedSeries.zero(ctx.root_spec, 5)
        for _ in range(rng.randrange(1, 4)):
            coeff = rng.randrange(-3, 4)
            exps = [rng.randrange(0, 3) for _ in range(3)]
            prod = GradedSeries.unit(ctx.root_spec, coeff, 5)
            for k, e in enumerate(exps, start=1):
                if e:
                    prod = prod * ctx.elementary(k) ** e
            s = s + prod
        reduced = ctx.elementary_reduce(s)
        # substituting the elementary polynomials back recovers the input
        assert reduced.spec == ctx.spec
        back = GradedSeries.zero(ctx.root_spec, 5)
        for key, coeff in reduced.terms.items():
            # y, vh and vn, then three classes
            head, c = key[:-3], key[-3:]
            term = GradedSeries(ctx.root_spec, {head + (0,) * 3: coeff}, 5)
            for k, e in enumerate(c, start=1):
                if e:
                    term = term * ctx.elementary(k) ** e
            back = back + term
        assert back == s


def test_conjugate_chern_additive_law():
    for q, k in [(2, 1), (2, 2), (3, 2), (3, 3)]:
        ctx = _ctx(q, 5)
        expect = ctx.chern_class(k) * ((-1) ** k)
        assert ctx.conjugate_chern(k) == expect


def test_conjugate_chern_leading_term_and_sign():
    ctx = SymmetricContext(LAW2.hat_iota(), 2, 4)
    for k in (1, 2):
        star = ctx.conjugate_chern(k)
        lead_key = next(iter(ctx.chern_class(k).terms))
        assert star.coefficient(lead_key) == TwoLocal((-1) ** k)
        assert min(w for w in star.weight_parts()) == k


def test_conjugate_chern_rank_one_is_iota_of_class():
    ctx = SymmetricContext(LAW2.hat_iota(), 1, 6)
    c1 = ctx.chern_class(1)
    assert ctx.conjugate_chern(1) == LAW2.hat_iota().evaluate_at(c1)


def test_conjugate_chern_weight_guard():
    ctx = SymmetricContext(LAW2.hat_iota(), 2, 1)
    with pytest.raises(PrecisionError):
        ctx.conjugate_chern(2)
    with pytest.raises(InputError):
        _ctx(2, 4).conjugate_chern(3)


def test_conjugate_chern_rank_stability():
    w = 3
    small = SymmetricContext(LAW2.hat_iota(), 2, w)
    large = SymmetricContext(LAW2.hat_iota(), 3, w)
    got2 = small.conjugate_chern(1)
    got3 = large.conjugate_chern(1)
    specialized = {}
    for key, coeff in got3.terms.items():
        head, c = key[:3], key[3:]  # (y, vh1, vn), then the classes
        if c[2]:
            continue  # top class of the larger rank killed
        specialized[head + c[:2]] = coeff
    assert specialized == got2.terms


def test_conjugation_is_involution():
    ctx = SymmetricContext(LAW2.hat_iota(), 2, 4)
    for k in (1, 2):
        back = ctx.conjugation_on_classes(ctx.conjugate_chern(k))
        assert back == ctx.chern_class(k)


def test_conjugation_defect_mod2():
    ctx = SymmetricContext(LAW2.hat_iota(), 2, 3)
    profile = ctx.conjugation_defect_mod2(1)
    assert 1 not in profile  # weight-1 defect is -2*c1, even
    vh1c1sq = GradedSeries.monomial(ctx.spec, coeff=TwoLocal(1), vh=(1,),
                                    c=(2, 0), trunc=3)
    assert profile[2] == vh1c1sq


def test_thom_ratio_weight_one():
    got = thom_ratio(LAW2.hat_iota(), 1, 1)
    spec = got.spec
    assert spec.q == 2 and spec.roots == 0
    expect = (GradedSeries.unit(spec, 1)
              - GradedSeries.monomial(spec, vh=(1,), c=(1, 0)))
    assert got == expect


def test_thom_ratio_multiplicative_toy():
    mul = ToyLaw(STD1, {(1, 0): 1, (0, 1): 1, (1, 1): 1}, 12)
    got = thom_ratio(mul.iota(), 1, 2)
    spec = got.spec
    one = GradedSeries.unit(spec, 1)
    c1 = GradedSeries.gen(spec, "c1")
    c2 = GradedSeries.gen(spec, "c2")
    # 1/((1+x1)(1+x2)) = 1 - e1 + e1^2 - e2 + ...
    assert got == one - c1 + c1 * c1 - c2


def test_thom_ratio_respects_precision():
    with pytest.raises(PrecisionError):
        thom_ratio(GroupLaw(2, precision=4).hat_iota(), 1, 4)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_class_polynomials_live_in_the_class_ring(n):
    w = 4
    ratio = thom_ratio(GroupLaw.of(n, w + 4).hat_iota(), 1, w)
    assert ratio.spec == present(n, 2, w).spec
    for q in (1, 2, 3):
        ctx = SymmetricContext(GroupLaw.of(n, w + 1).hat_iota(), q, w)
        pres = present(n, q, w)
        for k in range(1, q + 1):
            assert pres.relations[k - 1] == \
                ctx.chern_class(k) - ctx.conjugate_chern(k)
        # a class polynomial is no root polynomial, and the other way round
        with pytest.raises(InputError, match="different context"):
            ctx.elementary_reduce(ctx.chern_class(1))
        with pytest.raises(InputError, match="different context"):
            ctx.conjugation_on_classes(ctx.elementary(1))


def test_thom_ratio_refuses_a_negative_weight(monkeypatch):
    iota = GroupLaw(2, 10).hat_iota()
    one = thom_ratio(iota, 1, 0)
    assert one == GradedSeries.unit(one.spec, 1)

    def no_context(*args):
        raise AssertionError("a context was built for a negative weight")

    monkeypatch.setattr(symchern, "SymmetricContext", no_context)
    for weight in range(-1, -6, -1):
        with pytest.raises(InputError, match="^negative weight bound$"):
            thom_ratio(iota, 1, weight)


# -- reference routes: the per-k DP and the full Gauss descent ----------------


def _per_k_conjugate_elementary(ctx, k):
    """e_k of the conjugated roots by a DP cut at k, roots substituted
    afresh: the route conjugate_elementary took for each k."""
    P = [GradedSeries.unit(ctx.root_spec, 1, ctx.weight)]
    P += [GradedSeries.zero(ctx.root_spec, ctx.weight)] * k
    for i in range(1, ctx.q + 1):
        xb = ctx.iota.evaluate_at(ctx.root(i))
        for j in range(min(i, k), 0, -1):
            P[j] = P[j] + xb * P[j - 1]
    return P[k]


def _full_descent(ctx, series):
    """elementary_reduce over every root exponent, expanding each product
    of elementary polynomials in full."""
    if not ctx.is_symmetric(series):
        raise SymmetryError("input is not symmetric in the roots")
    cut = ctx.root_spec.n + 1
    zero_x = (0,) * ctx.q
    residual = series
    out = GradedSeries.zero(ctx.spec, series.trunc)
    prev = None
    while residual:
        alpha = max(key[cut:] for key in residual.keys())
        if any(alpha[i] < alpha[i + 1] for i in range(ctx.q - 1)):
            raise SymmetryError(f"leading exponent {alpha} not dominant")
        if prev is not None and not alpha < prev:
            raise ReductionError("descent stalled")
        prev = alpha
        C = residual._mapped(lambda key: (key[:cut] + zero_x, 1)
                             if key[cut:] == alpha else None)
        cexp = tuple(alpha[i] - (alpha[i + 1] if i + 1 < ctx.q else 0)
                     for i in range(ctx.q))
        P = GradedSeries.unit(ctx.root_spec, 1, residual.trunc)
        for i, e in enumerate(cexp, start=1):
            if e:
                P = P * ctx.elementary(i) ** e
        out = out + C._mapped(lambda key: (key[:cut] + cexp, 1), ctx.spec)
        residual = residual - C * P
    return out


def _reference_thom_ratio(iota, k, weight):
    big = SymmetricContext(iota, 2 * k, weight + 2 * k + 1)
    ratio = GradedSeries.unit(big.root_spec, 1, big.weight - 1)
    for i in range(1, 2 * k + 1):
        xi_key = next(iter(big.root(i).keys()))
        ratio = ratio * iota.evaluate_at(big.root(i)).divide_by_key(xi_key)
    return _full_descent(big, ratio).truncated(weight)


def _assert_same_series(got, want):
    assert got == want and str(got) == str(want)
    assert got.trunc == want.trunc
    assert list(got.keys()) == list(want.keys())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugate_classes_match_the_reference_routes(n):
    for q in (1, 2, 3):
        for w in range(1, 9):
            ctx = SymmetricContext(GroupLaw.of(n, w + 1).hat_iota(), q, w)
            for k in range(1, min(q, w) + 1):
                want = _per_k_conjugate_elementary(ctx, k)
                _assert_same_series(ctx.conjugate_elementary(k), want)
                _assert_same_series(ctx.conjugate_chern(k),
                                    _full_descent(ctx, want))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_thom_ratio_matches_the_reference_routes(n):
    # k = 2 runs q = 4 roots at weight + 5; its reference is the slow one,
    # so it stops at weight 6 past n = 1
    for k, top in ((1, 8), (2, 8 if n == 1 else 6)):
        for w in range(0, top + 1):
            iota = GroupLaw.of(n, w + 2 * k + 1).hat_iota()
            _assert_same_series(thom_ratio(iota, k, w),
                                _reference_thom_ratio(iota, k, w))


def test_dominant_products_follow_the_pieri_rule():
    # each cached dominant part equals the dominant part of the full
    # product of elementary polynomials
    for q in (1, 2, 3, 4):
        ctx = _ctx(q, 7)
        for cexp in product(range(4), repeat=q):
            if sum(i * a for i, a in enumerate(cexp, start=1)) > 7:
                continue
            full = GradedSeries.unit(ctx.root_spec, 1)
            for i, a in enumerate(cexp, start=1):
                full = full * ctx.elementary(i) ** a
            assert ctx._dominant_product(cexp) == ctx._dominant(full)


_ORBITS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(-3, 3),
              st.lists(st.integers(0, 2), min_size=4, max_size=4),
              st.integers(-6, 6).filter(bool), st.sampled_from([1, 3, 5])),
    min_size=1, max_size=4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), q=st.integers(1, 4), orbits=_ORBITS)
def test_dominant_descent_matches_the_full_descent(n, q, orbits):
    """Orbit sums of random monomials with 2-local coefficients, all under
    the weight bound, reduce alike on both routes; one monomial off its
    orbit is refused by both."""
    ctx = SymmetricContext(GroupLaw.of(n, 8).hat_iota(), q, 8)
    vh = (0,) * (n - 1)
    s = GradedSeries.zero(ctx.root_spec, 8)
    for top, vn, exps, num, den in orbits:
        head = (0, top, *vh[1:], vn) if n > 1 else (0, vn)
        terms = {head + perm: TwoLocal(num, den)
                 for perm in set(permutations(exps[:q]))}
        s = s + GradedSeries(ctx.root_spec, terms, 8)
    reduced = ctx.elementary_reduce(s)
    _assert_same_series(reduced, _full_descent(ctx, s))
    assert reduced.spec == ctx.spec
    top, vn, exps, num, den = orbits[0]
    exps = tuple(exps[:q])
    if q > 1 and len(set(exps)) > 1:
        head = (0, top, *vh[1:], vn) if n > 1 else (0, vn)
        lone = s + GradedSeries(ctx.root_spec, {head + exps: TwoLocal(1)}, 8)
        with pytest.raises(SymmetryError):
            ctx.elementary_reduce(lone)
        with pytest.raises(SymmetryError):
            _full_descent(ctx, lone)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chern_law_at_weight_plus_one_matches_the_deeper_law(n):
    # erjw chern builds its law at precision weight + 1; the weight + 4
    # law gives the same classes and defects
    for q in (1, 2, 3):
        for w in range(1, 9):
            new = SymmetricContext(GroupLaw.of(n, w + 1).hat_iota(), q, w)
            old = SymmetricContext(GroupLaw.of(n, w + 4).hat_iota(), q, w)
            for k in range(1, min(q, w) + 1):
                _assert_same_series(new.conjugate_chern(k),
                                    old.conjugate_chern(k))
                assert new.conjugation_defect_mod2(k) == \
                    old.conjugation_defect_mod2(k)

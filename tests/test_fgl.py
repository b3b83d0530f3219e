from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from erjw import fgl
from erjw.errors import (
    ConstantTermError,
    InputError,
    IntegralityError,
    MathInvariantError,
    PrecisionError,
)
from erjw.cli import SERIES_COST_BOUND, series_cost
from erjw.fgl import (
    GroupLaw,
    ToyLaw,
    UniSeries,
    _check_k_series,
    _LawBase,
    _to_two_local,
    additive_law,
)
from erjw.graded import GradedSeries, GradingSpec
from erjw.scalar2 import TwoLocal

SPEC1 = GradingSpec(1, alphabet="standard")
SPEC2 = GradingSpec(2, alphabet="standard")

LAW1 = GroupLaw(1, precision=8)
LAW2 = GroupLaw(2, precision=8)


@pytest.fixture(autouse=True)
def empty_height_store():
    # every test starts with no stored build, so none depends on which
    # heights an earlier test built
    fgl._height_store.cache_clear()


def _v(spec, i, exp=1, coeff=None):
    return GradedSeries.gen(spec, f"v{i}", exp=exp,
                            coeff=coeff if coeff is not None else TwoLocal(1))


def test_group_law_rejects_bad_input():
    with pytest.raises(InputError):
        GroupLaw(0)
    with pytest.raises(InputError):
        GroupLaw(1, precision=1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shared_law_matches_a_fresh_one(n):
    # two precisions at one height: a factory keyed on n alone fails here
    # whichever of them it happened to store first
    for precision in (5, 7, None):
        # the fresh law builds with an empty store, before the shared law
        # can leave a record for it to read
        fgl._height_store.cache_clear()
        fresh = GroupLaw(n, precision=precision)
        fresh.exp_series()
        assert fresh._stored is None
        law = GroupLaw.of(n, precision)
        assert law is not fresh and law.precision == fresh.precision
        assert law.hat_iota() == fresh.hat_iota()
        assert law.hat_k_series(2) == fresh.hat_k_series(2)
        assert GroupLaw.of(n, precision) is law


def test_shared_law_refuses_on_every_ask():
    for _ in range(3):
        with pytest.raises(InputError, match="n must be at least 1"):
            GroupLaw.of(0)
        with pytest.raises(InputError, match="n must be at least 1"):
            GroupLaw.of(0, 8)
        with pytest.raises(InputError, match="precision below 2"):
            GroupLaw.of(1, 1)
        # the default precision is resolved for n >= 1 only: 2 ** -3 is a
        # float, which would be refused as a precision instead
        with pytest.raises(InputError, match="n must be at least 1"):
            GroupLaw.of(-5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shared_law_resolves_the_default_precision_first(n):
    # GroupLaw.of(n) and GroupLaw.of(n, 2^(n+2)) used to be two cache
    # entries, each with its own k-series and table
    assert GroupLaw.of(n) is GroupLaw.of(n, 2 ** (n + 2))


@pytest.mark.parametrize("message, ask", [
    ("n must be an int", lambda: GroupLaw(2.0)),
    ("precision must be an int", lambda: GroupLaw(2, 8.0)),
    ("n must be an int", lambda: GroupLaw.of(True, 4)),
    ("n must be an int", lambda: GroupLaw.of(1.0, 8)),
    ("precision must be an int", lambda: GroupLaw.of(1, 8.0)),
    ("k must be an int", lambda: LAW1.k_series(2.0)),
    ("k must be an int", lambda: LAW1.k_series(True)),
    ("k must be an int", lambda: LAW1.hat_k_series(-1.0)),
    ("exponent must be an int", lambda: UniSeries.from_terms(
        SPEC1, {1.5: 1}, 4)),
    ("precision must be an int", lambda: UniSeries.from_terms(
        SPEC1, {1: 1}, 4.0)),
    ("precision must be an int", lambda: LAW1.log_series().prefix(2.0)),
    ("precision must be an int", lambda: LAW1.log_series().prefix(True)),
])
def test_non_int_law_inputs_are_refused_before_any_cache(monkeypatch,
                                                         message, ask):
    # True and 2.0 equal and hash like 1 and 2: read before the check, the
    # shared laws and the k-series caches answer them with the int entry
    GroupLaw.of(1, 8), LAW1.k_series(1), LAW1.k_series(2), LAW1.hat_iota()

    def unbuilt(*args, **kwargs):
        raise AssertionError("a law was built for refused inputs")

    monkeypatch.setattr(fgl, "GradingSpec", unbuilt)
    with pytest.raises(InputError, match=f"^{message}"):
        ask()


def test_a_refused_shared_law_leaves_the_int_law_alone():
    # a bool used to be cached as n, so GroupLaw.of(1, 4) handed back a
    # law whose spec printed GradingSpec(n=True, ...)
    with pytest.raises(InputError, match="^n must be an int, not True"):
        GroupLaw.of(True, 4)
    law = GroupLaw.of(1, 4)
    assert type(law.n) is int and type(law.spec.n) is int


def test_uniseries_arithmetic():
    u = UniSeries.identity(SPEC1, 6)
    s = u + u * u
    assert s[1] == GradedSeries.unit(SPEC1, 2) - 1
    sq = s * s
    assert sq[2] == GradedSeries.unit(SPEC1, 1)
    assert sq[3] == GradedSeries.unit(SPEC1, 2)
    assert sq[4] == GradedSeries.unit(SPEC1, 1)
    assert (u ** 3)[3] == GradedSeries.unit(SPEC1, 1)
    assert (u ** 3).order() == 3
    assert UniSeries.zero(SPEC1, 4).is_zero()


def test_uniseries_equality_keeps_precision_and_spec():
    assert UniSeries.identity(SPEC1, 6) != UniSeries.identity(SPEC1, 7)
    assert UniSeries.zero(SPEC1, 3) != UniSeries.zero(SPEC1, 4)
    assert UniSeries.identity(SPEC1, 6).prefix(4) == \
        UniSeries.identity(SPEC1, 4)
    assert UniSeries.zero(SPEC1, 4) != UniSeries.zero(SPEC2, 4)
    for op in ("__add__", "__mul__", "compose"):
        with pytest.raises(ValueError):
            getattr(UniSeries.zero(SPEC1, 4), op)(UniSeries.identity(SPEC2, 4))


def test_uniseries_refuses_classes_and_roots():
    for spec in (GradingSpec(1, q=1, alphabet="standard"),
                 GradingSpec(2, roots=1, alphabet="standard"),
                 GradingSpec(1, q=2, roots=2)):
        with pytest.raises(InputError):
            UniSeries.identity(spec, 4)
        with pytest.raises(InputError):
            UniSeries(spec, [GradedSeries.zero(spec)])


@pytest.mark.parametrize("ask", [
    lambda: UniSeries.zero(SPEC1, -3),
    lambda: UniSeries.identity(SPEC1, -1),
    lambda: UniSeries.from_terms(SPEC1, {}, -1),
    lambda: UniSeries.from_terms(SPEC1, {0: 1}, -2),
    lambda: LAW1.log_series().prefix(-1),
])
def test_a_negative_precision_is_refused(ask):
    # zero(spec, -3) used to build a series of precision -1, from_terms
    # one with no coefficients, and prefix(-1) a precision -1 too
    with pytest.raises(InputError, match="negative precision"):
        ask()


def test_precision_zero_is_the_constant_term():
    assert UniSeries.zero(SPEC1, 0).precision == 0
    assert UniSeries.from_terms(SPEC1, {0: 3, 1: 1}, 0) == \
        UniSeries.from_terms(SPEC1, {0: 3}, 0)
    assert LAW1.log_series().prefix(0) == UniSeries.zero(SPEC1, 0)


def test_an_empty_coefficient_list_is_refused():
    with pytest.raises(ValueError, match="one or more series"):
        UniSeries(SPEC1, [])


def test_from_terms_refuses_a_negative_exponent():
    # the exponent used to index the coefficient list, so -1 landed on
    # u^4 and -5 on the constant term
    for m in (-1, -5):
        with pytest.raises(InputError, match="negative exponent"):
            UniSeries.from_terms(SPEC1, {m: 1}, 4)
    assert UniSeries.from_terms(SPEC1, {4: 1, 5: 1}, 4) == \
        UniSeries.from_terms(SPEC1, {4: 1}, 4)


def test_apply2_stops_at_the_table_precision():
    u = UniSeries.identity(SPEC1, 8)
    short = GroupLaw(1, precision=4).apply2(u, u)
    assert short.precision == 4
    assert short == GroupLaw(1, precision=8).apply2(u, u).prefix(4)
    assert GroupLaw(1, precision=8).apply2(u, u)[5] == _v(
        SPEC1, 1, exp=4, coeff=TwoLocal(62, 7))


# -- the coefficient-list product and substitution, kept as the reference ----


def _ref_mul(a: list, b: list) -> list:
    n = min(len(a), len(b))
    out = [GradedSeries.zero(a[0].spec)] * n
    for i, x in enumerate(a[:n]):
        if not x:
            continue
        for j in range(n - i):
            if b[j]:
                out[i + j] = out[i + j] + x * b[j]
    return out


def _ref_compose(outer: list, inner: list) -> list:
    n = min(len(outer), len(inner))
    spec = outer[0].spec
    out = [GradedSeries.zero(spec)] * n
    p = [GradedSeries.unit(spec, 1)] + [GradedSeries.zero(spec)] * (n - 1)
    for k in range(n):
        if outer[k]:
            out = [o + x * outer[k] for o, x in zip(out, p)]
        p = _ref_mul(p, inner[:n])
    return out


@st.composite
def _uni_pairs(draw):
    """Two series of unequal precision at one height; the inner one has
    no constant term, the outer one may have."""
    n = draw(st.integers(1, 3))
    spec = GradingSpec(n, alphabet="standard")
    kind, dens = draw(st.sampled_from([(Fraction, [1, 2, 3, 4]),
                                       (TwoLocal, [1, 3, 5])]))
    coeff = st.builds(kind, st.integers(-6, 6), st.sampled_from(dens))
    vh = st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1)
    key = st.builds(lambda y, vh, vn: (y, *vh, vn),
                    st.integers(0, 1), vh, st.integers(-1, 2))
    entry = st.dictionaries(key, coeff, max_size=3).map(
        lambda t: GradedSeries(spec, t))

    def series(constant):
        coeffs = draw(st.lists(entry, min_size=1, max_size=7))
        if not constant:
            coeffs[0] = GradedSeries.zero(spec)
        return UniSeries(spec, coeffs)
    return series(True), series(False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_uni_pairs())
def test_uniseries_matches_coefficient_lists(pair):
    a, b = pair
    n = min(len(a), len(b))
    la, lb = list(a.coeffs), list(b.coeffs)
    assert (a * b).coeffs == tuple(_ref_mul(la, lb))
    assert (a ** 2).coeffs == tuple(_ref_mul(la, la))
    assert (a + b).coeffs == tuple(x + y for x, y in zip(la, lb))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(la, lb))
    assert a.compose(b).coeffs == tuple(_ref_compose(la, lb))
    assert b.compose(b).coeffs == tuple(_ref_compose(lb, lb))
    assert len(a * b) == len(a.compose(b)) == n
    assert UniSeries(a.spec, la) == a and a.order() == next(
        (m for m, c in enumerate(la) if c), None)


def test_uniseries_compose():
    u = UniSeries.identity(SPEC1, 6)
    s = u + u * u          # u + u^2
    t = s.compose(s)       # (u+u^2) + (u+u^2)^2 = u + 2u^2 + 2u^3 + u^4
    expect = UniSeries.from_terms(SPEC1, {1: 1, 2: 2, 3: 2, 4: 1}, 6)
    assert t == expect
    const = UniSeries.from_terms(SPEC1, {0: 1, 1: 1}, 6)
    with pytest.raises(ConstantTermError):
        u.compose(const)
    assert const.compose(s)[0] == GradedSeries.unit(SPEC1, 1)


def test_araki_logarithm_frozen():
    log = LAW2.log_series()
    assert log[1] == GradedSeries.unit(SPEC2, Fraction(1))
    assert log[2] == _v(SPEC2, 1, coeff=Fraction(-1, 2))
    assert log[4] == (_v(SPEC2, 2, coeff=Fraction(-1, 14))
                      + _v(SPEC2, 1, exp=3, coeff=Fraction(1, 28)))
    assert log[3].is_zero and log[5].is_zero


def test_exp_frozen_and_inverts():
    exp = LAW1.exp_series()
    assert exp[1] == GradedSeries.unit(SPEC1, Fraction(1))
    assert exp[2] == _v(SPEC1, 1, coeff=Fraction(1, 2))
    assert exp[3] == _v(SPEC1, 1, exp=2, coeff=Fraction(1, 2))
    # log(exp(t)) = t as well, not only the direction asserted internally
    log = LAW1.log_series()
    assert log.compose(exp) == UniSeries.identity(SPEC1, 8)


def test_law_table_frozen():
    t1 = LAW1.law_table()
    assert t1[(1, 1)] == _v(SPEC1, 1)
    assert t1[(2, 1)] == _v(SPEC1, 1, exp=2)
    assert (1, 0) in t1 and t1[(1, 0)] == GradedSeries.unit(SPEC1, 1)
    assert (2, 0) not in t1
    t2 = LAW2.law_table()
    assert t2[(1, 1)] == _v(SPEC2, 1)
    for (i, j), c in t2.items():
        assert c.internal_degree() == 2 - 2 * (i + j)


def test_iota_frozen_and_dual_route():
    iota = LAW2.iota()
    assert iota[1] == GradedSeries.unit(SPEC2, -1)
    assert iota[2] == _v(SPEC2, 1)
    assert iota == LAW2.iota_by_inversion()
    assert LAW2.apply2(UniSeries.identity(SPEC2, 8), iota).is_zero()


def test_iota_is_involution():
    iota = LAW1.iota()
    assert iota.compose(iota) == UniSeries.identity(SPEC1, 8)


def test_k_series_basics():
    two = LAW2.k_series(2)
    assert two[1] == GradedSeries.unit(SPEC2, 2)
    assert two[2] == _v(SPEC2, 1)
    assert LAW2.k_series(1) == UniSeries.identity(SPEC2, 8)
    assert LAW2.k_series(0).is_zero()
    assert LAW2.k_series(-1) == LAW2.iota()
    for k in range(-3, 4):
        assert LAW2.k_series(k)[1] == GradedSeries.unit(SPEC2, k)


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 2), (2, 3), (1, 4), (3, 3)])
def test_k_series_additivity(a, b):
    lhs = LAW2.apply2(LAW2.k_series(a), LAW2.k_series(b))
    assert lhs == LAW2.k_series(a + b)


def test_k_series_negation():
    assert LAW1.apply2(LAW1.k_series(3), LAW1.k_series(-3)).is_zero()


def test_araki_identity_dual_route():
    assert LAW1.araki_identity_holds()
    assert LAW2.araki_identity_holds()
    direct = LAW2.k_series(2)
    formal = LAW2.two_series_via_formal_sum()
    assert direct == formal
    assert formal[4].coefficient((0, 0, 1)) == TwoLocal(1)  # v2


def _apply_series(law, a: GradedSeries, b: GradedSeries) -> GradedSeries:
    spec = a.spec
    out = GradedSeries.zero(spec, a.trunc)
    apow = {0: GradedSeries.unit(spec, 1, a.trunc)}
    bpow = {0: GradedSeries.unit(spec, 1, b.trunc)}

    def power(cache, base, e):
        while e not in cache:
            top = max(cache)
            cache[top + 1] = cache[top] * base
        return cache[e]

    bound = a.trunc if a.trunc is not None else law.precision
    for (i, j), c in sorted(law.law_table().items()):
        if i + j > bound:
            continue
        out = out + c.extended_to(spec) * power(apow, a, i) * power(bpow, b, j)
    return out


def test_law_is_associative_at_truncation():
    W = 5
    spec3 = GradingSpec(2, q=0, roots=3, alphabet="standard")
    x1 = GradedSeries.gen(spec3, "x1", trunc=W)
    x2 = GradedSeries.gen(spec3, "x2", trunc=W)
    x3 = GradedSeries.gen(spec3, "x3", trunc=W)
    left = _apply_series(LAW2, _apply_series(LAW2, x1, x2), x3)
    right = _apply_series(LAW2, x1, _apply_series(LAW2, x2, x3))
    assert not left.is_zero
    assert left == right


def test_evaluate_at():
    spec = GradingSpec(1, q=1, alphabet="standard")
    c1 = GradedSeries.gen(spec, "c1", trunc=2)
    got = LAW1.iota().evaluate_at(c1)
    v1 = GradedSeries.gen(spec, "v1")
    assert got == -c1 + v1 * c1 * c1
    with pytest.raises(PrecisionError):
        LAW1.iota().evaluate_at(GradedSeries.gen(spec, "c1", trunc=40))
    with pytest.raises(PrecisionError):
        LAW1.iota().evaluate_at(GradedSeries.gen(spec, "c1"))  # no bound
    with pytest.raises(ConstantTermError):
        LAW1.iota().evaluate_at(c1 + 1)
    deep = GradedSeries.gen(spec, "c1", exp=3, trunc=8)
    assert LAW1.iota().evaluate_at(deep).coefficient(
        (0, 0, 3)) == TwoLocal(-1)  # c1^3


def test_toy_law_validation():
    with pytest.raises(MathInvariantError):
        ToyLaw(SPEC1, {(1, 0): 1, (0, 1): 1, (2, 1): 1}, 6)
    with pytest.raises(MathInvariantError):
        ToyLaw(SPEC1, {(1, 0): 2, (0, 1): 2}, 6)
    with pytest.raises(MathInvariantError):
        ToyLaw(SPEC1, {(0, 0): 1, (1, 0): 1, (0, 1): 1}, 6)


def test_additive_toy_law():
    add = additive_law(SPEC1, 6)
    u = UniSeries.identity(SPEC1, 6)
    assert add.apply2(u, u) == u + u
    assert add.iota() == -u
    assert add.k_series(5)[1] == GradedSeries.unit(SPEC1, 5)


def test_multiplicative_toy_law():
    mul = ToyLaw(SPEC1, {(1, 0): 1, (0, 1): 1, (1, 1): -1}, 8)
    # x + y - xy: inverse is -x/(1-x) = -(x + x^2 + x^3 + ...)
    iota = mul.iota()
    for m in range(1, 9):
        assert iota[m] == GradedSeries.unit(SPEC1, -1)
    # [2](u) = 2u - u^2, and [2] of the inverse composes to [-2]
    two = mul.k_series(2)
    assert two == UniSeries.from_terms(SPEC1, {1: 2, 2: -1}, 8)


def test_integrality_error_path():
    bad = UniSeries.from_terms(SPEC1, {1: Fraction(1, 2)}, 4)
    from erjw.fgl import _to_two_local
    with pytest.raises(IntegralityError):
        _to_two_local(bad[1])


# -- cross-route checks of the one-variable k-series and the exponential ----


def _exp_by_powers(law):
    """exp as the seed computed it: every coefficient re-derived from the
    full powers partial ** 2^k of the series found so far."""
    spec, N = law.spec, law.precision
    log = law.log_series()
    z = GradedSeries.zero(spec)
    E = [z, GradedSeries.unit(spec, Fraction(1))]
    for m in range(2, N + 1):
        partial = UniSeries(spec, E + [z] * (m + 1 - len(E)))
        c = z
        k = 1
        while 2 ** k <= m:
            lc = log[2 ** k]
            if lc:
                c = c + lc * (partial ** (2 ** k))[m]
            k += 1
        E.append(-c)
    return UniSeries(spec, E)


@pytest.mark.parametrize("n,precision", [(1, 16), (2, 16), (3, 16), (3, 5)])
def test_exp_matches_power_recursion(n, precision):
    law = GroupLaw(n, precision=precision)
    assert law.exp_series() == _exp_by_powers(law)


@pytest.mark.parametrize("n,precision", [(1, 12), (2, 10), (3, 12)])
def test_k_series_routes_agree(n, precision):
    # exp(k log u) in one variable against repeated formal sums over the
    # two-variable law table; negative k also goes through iota, which is
    # checked against the inverse solved from the table
    law = GroupLaw(n, precision=precision)
    assert law.iota() == law.iota_by_inversion()
    for k in range(-3, 6):
        assert law.k_series(k) == _LawBase.k_series(law, k), k


def test_k_series_one_variable_route_skips_the_table():
    law = GroupLaw(2, precision=8)
    law.k_series(2)
    law.hat_k_series(3)
    law.hat_iota()
    assert "_table" not in vars(law)
    assert law.k_series(2) is law.k_series(2)
    assert law.hat_iota() is law.hat_iota()


def test_negation_is_the_cached_k_series():
    law = GroupLaw(2, precision=8)
    assert law.iota() is law.k_series(-1)
    assert law.hat_iota() is law.hat_k_series(-1)


def test_corrupted_k_series_trips_the_check():
    law = GroupLaw(2, precision=8)
    good = law.k_series(3)
    assert _check_k_series(good, 3) is good
    v1 = _v(SPEC2, 1)
    for m, bump in ((0, GradedSeries.unit(SPEC2, TwoLocal(1))),
                    (1, GradedSeries.unit(SPEC2, TwoLocal(2))),
                    (3, v1),                  # degree -2 where -4 belongs
                    (5, v1 * v1)):
        coeffs = list(good.coeffs)
        coeffs[m] = coeffs[m] + bump
        with pytest.raises(MathInvariantError):
            _check_k_series(UniSeries(SPEC2, coeffs), 3)


def test_corrupted_exponential_trips_the_k_series_check():
    # an integral but off-degree term planted in the cached exp terms
    # (2*v1*u^3 added to E_3 * log(u)^3) survives into [2](u)
    law = GroupLaw(1, precision=6)
    plant = UniSeries.from_terms(
        SPEC1, {3: _v(SPEC1, 1, coeff=Fraction(2))}, 6).series
    terms = dict(law._exp_terms)
    terms[3] = terms[3] + plant
    vars(law)["_exp_terms"] = tuple(terms.items())
    with pytest.raises(MathInvariantError, match="u\\^3 off-degree"):
        law.k_series(2)


@pytest.mark.parametrize("read", [lambda law: law.exp_series(),
                                  lambda law: law.k_series(2),
                                  lambda law: law.iota()])
def test_corrupted_exponential_fails_to_invert_log(read):
    # the plant goes in before exp is first read, so the exp-inverts-log
    # check over the cached terms sees it, whichever read comes first; the
    # store is empty, so the law builds its terms from the planted exp
    law = GroupLaw(1, precision=6)
    coeffs = list(GroupLaw(1, precision=6)._exp.coeffs)
    coeffs[3] = coeffs[3] + _v(SPEC1, 1, coeff=Fraction(2))
    vars(law)["_exp"] = UniSeries(SPEC1, coeffs)
    assert law._stored is None
    with pytest.raises(MathInvariantError, match="exp does not invert log"):
        read(law)
    # a build that fails its check stores nothing: the next law at the
    # height builds its own, passes, and is the one stored
    assert fgl._height_store(1) == [None]
    fresh = GroupLaw(1, precision=6)
    assert fresh._stored is None
    assert fresh.exp_series() == _exp_by_powers(fresh)
    assert fresh.araki_identity_holds()
    assert fgl._height_store(1)[0][0] == 6


@pytest.mark.parametrize("read", [lambda law: law.exp_series(),
                                  lambda law: law.k_series(2),
                                  lambda law: law.iota()])
def test_a_plant_in_the_stored_terms_trips_a_derived_law(read):
    # 2*v1*u^3 added to the stored T_3: a law that reads its terms off the
    # store runs the k = 1 check on them itself
    GroupLaw(1, precision=8).exp_series()
    slot = fgl._height_store(1)
    top, log, exp, terms = slot[0]
    plant = UniSeries.from_terms(
        SPEC1, {3: _v(SPEC1, 1, coeff=Fraction(2))}, top).series
    slot[0] = (top, log, exp,
               tuple((m, t + plant if m == 3 else t) for m, t in terms))
    law = GroupLaw(1, precision=6)
    assert law._stored is slot[0]
    with pytest.raises(MathInvariantError, match="exp does not invert log"):
        read(law)


def _law_fields(law, k):
    """What a law answers from its log, exp and terms, all read."""
    return ([law.log_series().series, law.exp_series().series]
            + [t for _, t in law._exp_terms]
            + [law.k_series(k).series, law.hat_k_series(k).series])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), precision=st.integers(2, 20),
       extra=st.integers(0, 18), k=st.integers(-6, 6))
@example(n=3, precision=20, extra=0, k=-1)
@example(n=2, precision=2, extra=18, k=3)
@example(n=1, precision=7, extra=0, k=0)
def test_a_law_below_the_stored_build_matches_its_own_build(n, precision,
                                                            extra, k):
    # p = precision <= P = top: the p-law read off the P-law's record
    # against the p-law built with an empty store, field by field
    top = min(precision + extra, 20)
    fgl._height_store.cache_clear()
    built = GroupLaw(n, precision)
    want = _law_fields(built, k)
    assert built._stored is None
    fgl._height_store.cache_clear()
    GroupLaw(n, top).exp_series()
    law = GroupLaw(n, precision)
    got = _law_fields(law, k)
    assert law._stored is not None and law._stored[0] == top
    assert [m for m, _ in law._exp_terms] == [m for m, _ in built._exp_terms]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _assert_same_series(g, w)
    for a, b in ((law.log_series(), built.log_series()),
                 (law.k_series(k), built.k_series(k)),
                 (law.hat_k_series(k), built.hat_k_series(k))):
        assert a.precision == b.precision == precision
        assert a.spec == b.spec


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), precision=st.integers(2, 16),
       k=st.integers(-6, 6))
@example(n=1, precision=2, k=0)
@example(n=2, precision=8, k=-1)
@example(n=3, precision=16, k=1)
def test_k_series_matches_the_compose_route(n, precision, k):
    # the sum of k^m * E_m * log(u)^m against exp(k * log(u)) substituted
    law = GroupLaw.of(n, precision)
    want = _to_two_local(law.exp_series().compose(
        law.log_series().scale(Fraction(k))))
    got = law.k_series(k)
    _assert_same_series(got.series, want.series)
    assert got.precision == want.precision == precision


def test_series_cost_grows_and_stays_cheap():
    assert series_cost(3, 32) < SERIES_COST_BOUND < series_cost(3, 48)
    assert series_cost(4, 64) > SERIES_COST_BOUND
    assert series_cost(1, 8) < series_cost(1, 16) < series_cost(2, 16)
    # huge requests are priced without building anything of their size
    assert series_cost(40, 2 ** 42) > SERIES_COST_BOUND
    assert series_cost(10 ** 9, 4) < SERIES_COST_BOUND


# -- one-term substitution against the power-sum route ------------------------


def _power_sum_evaluate_at(uni, at):
    """evaluate_at as it runs for every target: the sum over m of
    coefficient m times at^m.  The reference for the one-term key map."""
    if at.trunc is None:
        raise PrecisionError("no truncation bound")
    wof = at.spec.weight_of
    if any(wof(k) < 1 for k in at.keys()):
        raise ConstantTermError("weight-0 content")
    acc = GradedSeries.zero(at.spec, at.trunc)
    p = GradedSeries.unit(at.spec, 1, at.trunc)
    for c in uni.coeffs:
        if c:
            acc = acc + c.extended_to(at.spec) * p
        p = p * at
        if p.is_zero:
            return acc
    raise PrecisionError("powers survive the precision")


def _assert_same_series(got, want):
    # value, bound, kind, denominator and term order
    assert got == want
    assert got.trunc == want.trunc
    assert got._kind is want._kind
    assert got.numerators[1] == want.numerators[1]
    assert list(got.keys()) == list(want.keys())


def _one_term_targets(n, trunc):
    """Roots, a root times coefficient generators, classes including the
    weight-2 c2, and int multiples, each truncated at trunc."""
    roots = GradingSpec(n, roots=3, alphabet="hat")
    classes = GradingSpec(n, q=2, alphabet="hat")
    out = [GradedSeries.gen(roots, f"x{i}", trunc=trunc) for i in (1, 2, 3)]
    out.append(GradedSeries.monomial(roots, vn=-1, x=(0, 1, 0), trunc=trunc))
    out += [GradedSeries.gen(classes, c, trunc=trunc) for c in ("c1", "c2")]
    out.append(GradedSeries.gen(classes, "c2", coeff=-3, trunc=trunc))
    if n > 1:
        out.append(GradedSeries.monomial(roots, coeff=2, vh=(1,) + (0,) * (n - 2),
                                         x=(1, 0, 0), trunc=trunc))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_term_substitution_matches_the_power_sum(n, monkeypatch):
    law = GroupLaw.of(n, 9)
    calls = []
    key_map = GradedSeries._last_at_term

    def spy(self, *args):
        calls.append(args)
        return key_map(self, *args)

    monkeypatch.setattr(GradedSeries, "_last_at_term", spy)
    for uni in (law.hat_iota(), law.hat_k_series(2)):
        for trunc in range(0, 10):
            for at in _one_term_targets(n, trunc):
                if at.is_zero:
                    continue
                _assert_same_series(uni.evaluate_at(at),
                                    _power_sum_evaluate_at(uni, at))
    assert calls  # the key map, not the power sum, answered


def test_one_term_substitution_of_a_fraction_series():
    for n in (1, 2, 3):
        log = GroupLaw.of(n, 9).log_series()  # Fraction coefficients
        spec = GradingSpec(n, roots=2, alphabet="standard")
        for trunc in (1, 4, 9):
            for at in (GradedSeries.gen(spec, "x2", trunc=trunc),
                       GradedSeries.gen(spec, "x1", coeff=5, trunc=trunc)):
                got = log.evaluate_at(at)
                _assert_same_series(got, _power_sum_evaluate_at(log, at))
                assert got._kind is Fraction


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_term_substitution_refuses_at_the_precision_edge(n):
    iota = GroupLaw.of(n, 6).hat_iota()
    roots = GradingSpec(n, roots=1, alphabet="hat")
    classes = GradingSpec(n, q=2, alphabet="hat")
    # PrecisionError iff (precision + 1) * weight <= trunc
    for spec, name, weight in ((roots, "x1", 1), (classes, "c2", 2)):
        edge = 7 * weight
        for trunc in (edge - 1, edge):
            at = GradedSeries.gen(spec, name, trunc=trunc)
            if trunc < edge:
                _assert_same_series(iota.evaluate_at(at),
                                    _power_sum_evaluate_at(iota, at))
                continue
            with pytest.raises(PrecisionError):
                iota.evaluate_at(at)
            with pytest.raises(PrecisionError):
                _power_sum_evaluate_at(iota, at)

import operator
import re
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from erjw.boring import HatDecomposition
from erjw.bss import apply_differential
from erjw.errors import InputError, MathInvariantError, NonUnitDivisionError
from erjw.fgl import UniSeries
from erjw.graded import GradedSeries, GradingSpec, degree_basis, parse_series
from erjw.scalar2 import TwoLocal
from erjw.symchern import SymmetricContext

HAT2 = GradingSpec(n=2, q=2, roots=2, alphabet="hat")
STD2 = GradingSpec(n=2, q=2, roots=2, alphabet="standard")


def test_lambda_and_offset_values():
    assert GradingSpec(1).lam == 1
    assert GradingSpec(2).lam == 17
    assert GradingSpec(3).lam == 97
    assert GradingSpec(1).hat_offset == 0
    assert GradingSpec(2).hat_offset == 8
    assert GradingSpec(3).hat_offset == 48
    for n in range(1, 7):
        spec = GradingSpec(n)
        assert spec.lam - 1 == 2 * spec.hat_offset
        assert spec.lam + 1 == 2 * (2 ** n - 1) ** 2


def test_hat_lattice_members():
    # at n = 1 (P = lambda - 1 = 0) the lattice is the vn^0, degree-0 point
    one, two = GradingSpec(1), GradingSpec(2)
    assert list(two.hat_degrees(-20, 40)) == [-16, 0, 16, 32]
    assert list(one.hat_degrees(-8, 8)) == [0] and not one.hat_degrees(1, 8)
    assert two.hat_residue(-19) == 5 and not two.hat_residue(-16)
    assert one.hat_residue(-19) == -19 and not one.hat_residue(0)


def test_hat_degrees_n2():
    spec = GradingSpec(2, q=1, roots=1)
    vh1 = GradedSeries.gen(spec, "vh1")
    vn = GradedSeries.gen(spec, "vn")
    c1 = GradedSeries.gen(spec, "c1")
    x1 = GradedSeries.gen(spec, "x1")
    y = GradedSeries.gen(spec, "y")
    assert vh1.internal_degree() == 16
    assert vn.internal_degree() == -6
    assert (vn ** 8).internal_degree() == -48
    assert c1.internal_degree() == -16
    assert x1.internal_degree() == -16
    assert y.internal_degree() == 0
    mixed = GradedSeries.monomial(spec, y=1, vh=(1,), vn=-1)
    assert mixed.internal_degree() == 22
    key = next(iter((vh1 * y).terms))
    assert spec.total_of(key) == -1
    # the top hat generator is vn^-P and sits where the k = n formula says
    vhat_n = GradedSeries.monomial(spec, vn=-spec.hat_offset)
    assert vhat_n.internal_degree() == (2 ** 2 - 1) * (spec.lam - 1) == 48


def test_standard_degrees():
    spec = GradingSpec(3, q=2, roots=1, alphabet="standard")
    assert GradedSeries.gen(spec, "v1").internal_degree() == -2
    assert GradedSeries.gen(spec, "v2").internal_degree() == -6
    assert GradedSeries.gen(spec, "v3").internal_degree() == -14
    assert GradedSeries.gen(spec, "c2").internal_degree() == 4
    assert GradedSeries.gen(spec, "x1").internal_degree() == 2
    assert GradedSeries.gen(spec, "v3", exp=16).internal_degree() == -224


def test_periodicity_degrees():
    for n, period in [(1, -8), (2, -48), (3, -224)]:
        spec = GradingSpec(n)
        g = GradedSeries.monomial(spec, vn=2 ** (n + 1))
        assert g.internal_degree() == period


def test_weight_and_truncation():
    spec = GradingSpec(2, q=2, roots=1)
    c2 = GradedSeries.gen(spec, "c2")
    x1 = GradedSeries.gen(spec, "x1")
    s = c2 * c2 + x1 + 1
    assert spec.weight_of(next(iter((c2 * c2).terms))) == 4
    t = s.truncated(3)
    assert t == x1 + 1
    assert t.trunc == 3
    # products combine truncation bounds by min
    u = t * (c2.truncated(5))
    assert u.trunc == 3
    assert u == (x1 * c2 + c2).truncated(3)
    assert (c2 * c2).truncated(3).is_zero


def test_mul_respects_truncation_content():
    spec = GradingSpec(1, q=1, roots=0)
    c1 = GradedSeries.gen(spec, "c1")
    a = (1 + c1).truncated(4)
    b = sum((c1 ** k for k in range(5)), GradedSeries.zero(spec, 4))
    prod = a * b
    expect = (1 + 2 * c1 + 2 * c1 ** 2 + 2 * c1 ** 3 + 2 * c1 ** 4).truncated(4)
    assert prod == expect


def test_add_filters_against_combined_bound():
    spec = GradingSpec(1, q=1)
    c1 = GradedSeries.gen(spec, "c1")
    narrow = GradedSeries.unit(spec, 1, trunc=1)
    wide = (c1 ** 3).truncated(5)
    s = narrow + wide
    assert s.trunc == 1
    assert s == GradedSeries.unit(spec, 1)


def test_pow_and_monomial_inverse():
    spec = GradingSpec(2)
    vn = GradedSeries.gen(spec, "vn")
    assert (vn ** 0) == GradedSeries.unit(spec)
    assert vn ** -3 == GradedSeries.monomial(spec, vn=-3)
    two_vn = GradedSeries.monomial(spec, coeff=TwoLocal(2), vn=1)
    with pytest.raises(NonUnitDivisionError):
        two_vn.monomial_inverse()
    vh1 = GradedSeries.gen(spec, "vh1")
    with pytest.raises(MathInvariantError):
        vh1.monomial_inverse()
    with pytest.raises(MathInvariantError):
        (vn + vh1).monomial_inverse()


def test_conjugate():
    spec = GradingSpec(2, q=1)
    vn = GradedSeries.gen(spec, "vn")
    vh1 = GradedSeries.gen(spec, "vh1")
    c1 = GradedSeries.gen(spec, "c1")
    s = vn * c1 + vh1 + vn ** 2
    assert s.conjugate() == -vn * c1 + vh1 + vn ** 2
    assert s.conjugate().conjugate() == s
    std = GradingSpec(2, alphabet="standard")
    v1 = GradedSeries.gen(std, "v1")
    v2 = GradedSeries.gen(std, "v2")
    assert (v1 * v2).conjugate() == v1 * v2
    assert (v1 + v2).conjugate() == -(v1 + v2)
    # hat conjugation fixes the represented top hat generator (even offset)
    vhat2 = GradedSeries.monomial(spec, vn=-spec.hat_offset)
    assert vhat2.conjugate() == vhat2


def test_regrade_to_hat_degrees_scale():
    spec = GradingSpec(2, q=1, roots=1, alphabet="standard")
    hat = GradingSpec(2, q=1, roots=1, alphabet="hat")
    scale = (1 - spec.lam) // 2
    s = GradedSeries(spec, {
        (0, 1, 3, 0, 0): TwoLocal(3),  # (y, v1, v2, c1, x1)
        (2, 0, -1, 2, 1): TwoLocal(1, 5),
    })
    h = s.regrade_to_hat()
    assert h.spec == hat
    assert len(h.terms) == 2
    std_keys = sorted(s.terms)
    hat_keys = sorted(h.terms)
    for sk, hk in zip(std_keys, hat_keys):
        assert hat.degree_of(hk) == spec.degree_of(sk) * scale
        assert hk[0] == sk[0]  # filtration untouched


def test_regrade_n1_collapses():
    spec = GradingSpec(1, alphabet="standard")
    s = GradedSeries(spec, {  # (y, v1)
        (0, 2): TwoLocal(3),
        (0, 5): TwoLocal(5),
        (1, 1): TwoLocal(1),
    })
    h = s.regrade_to_hat()
    assert h == GradedSeries(GradingSpec(1), {
        (0, 0): TwoLocal(8),
        (1, 0): TwoLocal(1),
    })
    cancel = GradedSeries(spec, {
        (0, 2): TwoLocal(1),
        (0, 4): TwoLocal(-1),
    })
    assert cancel.regrade_to_hat().is_zero


def test_divide_by_key():
    spec = GradingSpec(2, roots=2)
    x1 = GradedSeries.gen(spec, "x1")
    x2 = GradedSeries.gen(spec, "x2")
    s = (x1 * x1 * x2 + 3 * x1 * x2).truncated(5)
    key = next(iter(x1.terms))
    d = s.divide_by_key(key)
    assert d == x1 * x2 + 3 * x2
    assert d.trunc == 4
    with pytest.raises(MathInvariantError):
        (x2 + x1).divide_by_key(key)


def test_times_key_validates_its_key():
    s = GradedSeries.gen(GradingSpec(2, 1), "c1", trunc=3)
    with pytest.raises(ValueError, match="negative exponent"):
        s.times_key((0, -1, 0, 0))
    with pytest.raises(ValueError, match="does not fit"):
        s.times_key((0, 0, 0))
    assert s.times_key((0, 0, -2, 1)) == \
        GradedSeries.monomial(s.spec, vn=-2, c=(2,))


def test_extended_to():
    small = GradingSpec(2, q=1)
    big = GradingSpec(2, q=2, roots=1)
    s = GradedSeries.gen(small, "c1") + 2
    e = s.extended_to(big)
    assert e.spec == big
    assert e == GradedSeries.gen(big, "c1") + 2
    with pytest.raises(ValueError):
        e.extended_to(small)


def test_homogeneous_parts():
    spec = GradingSpec(2)
    vn = GradedSeries.gen(spec, "vn")
    vh1 = GradedSeries.gen(spec, "vh1")
    s = vn + vh1
    assert not s.is_homogeneous()
    with pytest.raises(MathInvariantError):
        s.internal_degree()
    assert s.homogeneous_part(-6) == vn
    assert s.homogeneous_part(16) == vh1
    assert s.homogeneous_part(3).is_zero
    assert sorted(s.degrees()) == [-6, 16]


def test_grading_spec_rejects_bad_input():
    # InputError is also a ValueError, for callers that catch it that way
    assert issubclass(InputError, ValueError)
    # GradingSpec(2.0) used to build a spec of width 3.0
    for kwargs in ({"n": 0}, {"n": 2, "q": -1}, {"n": 2, "roots": -1},
                   {"n": 2, "alphabet": "greek"}, {"n": 2.0}, {"n": True},
                   {"n": 2, "q": 1.0}, {"n": 2, "roots": True}):
        with pytest.raises(InputError):
            GradingSpec(**kwargs)


def test_key_validation():
    spec = GradingSpec(2, q=1)  # keys (y, vh1, vn, c1)
    assert GradedSeries(spec, {(0, 1, -3, 2): 1}).terms == {(0, 1, -3, 2): 1}
    with pytest.raises(ValueError):
        GradedSeries(spec, {(-1, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        GradedSeries(spec, {(0, 0, 0, 0, 0): 1})  # one slot too many
    with pytest.raises(ValueError):
        GradedSeries(spec, {(0, -1, 0, 0): 1})
    with pytest.raises(ValueError):
        GradedSeries(spec, {(0, 0, 0, -1): 1})
    with pytest.raises(TypeError):
        GradedSeries(spec, {(0, (0,), 0, 0): 1})  # a nested slot group
    with pytest.raises(TypeError):
        GradedSeries(spec, {(0, 0, 0.5, 0): 1})
    with pytest.raises(ValueError):
        GradedSeries.gen(spec, "nope")
    # each slot group must have its own length, even when the total fits:
    # a short vh with a long c would shift a class exponent into vn
    wide = GradingSpec(3, q=1, roots=1)  # vh has 2 slots, c 1 and x 1
    for groups in ({"vh": (1,), "c": (0, 1)}, {"c": (), "x": (1, 0)},
                   {"vh": (0, 0, 1), "x": ()}, {"vh": (1,)}):
        with pytest.raises(ValueError, match="slot group"):
            GradedSeries.monomial(wide, **groups)
    assert GradedSeries.monomial(wide, vh=[1, 0], vn=-1, c=[2], x=[1]) \
        .terms == {(0, 1, 0, -1, 2, 1): 1}


def test_coefficient_validates_its_key():
    spec = GradingSpec(2, q=1)
    s = GradedSeries.gen(spec, "vn", coeff=TwoLocal(3))
    assert s.coefficient((0, 0, 1, 0)) == TwoLocal(3)
    assert s.coefficient((0, 0, 2, 0)) == 0
    # the nested five-field key of this monomial reads nothing: it raises
    with pytest.raises(ValueError):
        s.coefficient((0, (0,), 1, (0,), ()))
    with pytest.raises(ValueError):
        s.coefficient((0, 0, 1))


def test_str_and_parse_round_trip():
    spec = GradingSpec(2, q=2, roots=1)
    s = GradedSeries(spec, {  # (y, vh1, vn, c1, c2, x1)
        (0, 0, 0, 0, 0, 0): TwoLocal(3, 5),
        (1, 2, -3, 0, 0, 0): TwoLocal(-1),
        (0, 0, 0, 1, 0, 0): TwoLocal(1),
        (2, 0, 1, 0, 2, 1): TwoLocal(-7),
    })
    text = str(s)
    assert text == "3/5 + c1 + -vh1^2*vn^-3*y + -7*vn*y^2*c2^2*x1"
    back = parse_series(text, spec)
    assert back == s
    assert parse_series("0", spec).is_zero
    assert str(GradedSeries.zero(spec)) == "0"


def test_parse_fraction_coefficients():
    spec = GradingSpec(1, q=1, alphabet="standard")
    s = GradedSeries(spec, {(0, 1, 1): Fraction(-3, 7)})  # v1*c1
    assert parse_series(str(s), spec, coeff_type=Fraction) == s



def test_parse_series_reads_the_expression_grammar():
    spec = GradingSpec(2, q=2)
    c1, c2, vn = (GradedSeries.gen(spec, name, coeff=TwoLocal(1))
                  for name in ("c1", "c2", "vn"))
    assert parse_series("2^2*c1 - c2**2", spec) == c1 * 4 - c2 ** 2
    assert parse_series("3/5*c1 + -(vn^-2)", spec) == \
        c1 * TwoLocal(3, 5) - vn ** -2
    assert parse_series("(c1 + c2)*c1", spec, trunc=2) == c1 * c1
    # named series are looked up first; a zeroth power keeps the type
    names = {"a": c1 * 2, "c2": c1}
    assert parse_series("a*a^0 + c2", spec, names=names) == c1 * 3
    one = parse_series("a^0", spec, names=names)
    assert all(isinstance(c, TwoLocal) for c in one.terms.values())
    # the bit bound is on powers, not on literals
    big = "9" * 400
    assert parse_series(big, spec) == GradedSeries.unit(spec, TwoLocal(int(big)))


@pytest.mark.parametrize("text, message", [
    ("3^99999999*c1", "past the bound"),
    ("c1^1001", "past the bound"),
    ("c1^-1", "negative power of c1"),
    ("2^-1", "negative power of 2"),
    ("2 c1", "cannot parse"),
    ("c1/c2", "only +, -, *"),
    ("1/2*c1", "not 2-locally integral"),
    ("1/0", "division by zero"),
    ("True*c1", "expected a generator or an integer"),
    ("(c1 + c2)^2", "expected a generator or an integer"),
    ("c1^c2", "exponents must be integer literals"),
    ("c9", "'c9' is not a variable"),
    ("99999^1000*c1", "past 1000 bits"),
    ("__import__('os')", "unsupported syntax"),
    ("1+" * 3000 + "1", "nests too deeply"),
])
def test_parse_series_refuses_with_input_errors(text, message):
    with pytest.raises(InputError, match=re.escape(message)):
        parse_series(text, GradingSpec(2, q=2))


def test_parse_series_prices_integer_powers_by_their_true_size():
    spec = GradingSpec(1, q=2)
    # 2^600 has 601 bits and 2^999 has 1000: both are admitted
    assert parse_series("2^600*c1", spec) == \
        parse_series("c1", spec) * TwoLocal(2 ** 600)
    assert parse_series("(-2)^999", spec) == \
        GradedSeries.unit(spec, TwoLocal(-2 ** 999))
    # refused before the power is computed (3^1000 has at least 1001
    # bits) and after it, by its true size (3^700 has 1110 bits)
    for text in ("2^1000", "3^700", "3^1000", "99999^1000"):
        with pytest.raises(InputError, match=re.escape("past 1000 bits")):
            parse_series(text, spec)


small_exps = st.integers(0, 2)
# (y, vh1, vn, c1, c2, x1, x2)
keys2 = st.tuples(small_exps, small_exps, st.integers(-2, 2),
                  small_exps, small_exps, small_exps, small_exps)
series2 = st.dictionaries(keys2, st.integers(-4, 4), max_size=3).map(
    lambda t: GradedSeries(HAT2, t))


@settings(max_examples=60)
@given(series2, series2, series2)
def test_series_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == GradedSeries.zero(HAT2)


@settings(max_examples=40)
@given(series2, series2)
def test_conjugate_is_ring_map(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate() == a


@settings(max_examples=40)
@given(st.dictionaries(keys2, st.integers(-4, 4), max_size=3),
       st.dictionaries(keys2, st.integers(-4, 4), max_size=3))
def test_regrade_is_ring_map(ta, tb):
    a = GradedSeries(STD2, ta)
    b = GradedSeries(STD2, tb)
    assert (a * b).regrade_to_hat() == a.regrade_to_hat() * b.regrade_to_hat()
    assert (a + b).regrade_to_hat() == a.regrade_to_hat() + b.regrade_to_hat()


def test_mixing_coefficient_fields_raises():
    spec = GradingSpec(1)
    a = GradedSeries.unit(spec, TwoLocal(1, 3))
    b = GradedSeries.unit(spec, Fraction(1, 2))
    with pytest.raises(TypeError):
        _ = a + b
    with pytest.raises(TypeError):
        _ = a * b
    with pytest.raises(TypeError):
        _ = a - b
    with pytest.raises(TypeError):
        _ = b - a
    with pytest.raises(TypeError):
        _ = a * Fraction(1, 2)
    with pytest.raises(TypeError):
        _ = Fraction(1, 2) * a
    with pytest.raises(TypeError):
        _ = b * TwoLocal(3)
    with pytest.raises(TypeError):
        _ = TwoLocal(3) * b


# -- the int-numerator kernel against a dict-of-coefficients reference -------
#
# _ref_mul and _ref_add are the product and sum GradedSeries ran on
# {key: coefficient} dicts before it kept int numerators over one
# denominator; the kernel must give the same values, types and key order.


def _ref_mul(spec, a, b, tr):
    out = {}
    wof = spec.weight_of
    # the truncated product walks b by weight, stopping early
    right = list(b) if tr is None else sorted(b, key=wof)
    for k1, c1 in a.items():
        for k2 in right:
            if tr is not None and wof(k1) + wof(k2) > tr:
                break
            key = tuple(map(operator.add, k1, k2))
            s = out.get(key, 0) + c1 * b[k2]
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _ref_add(spec, a, ta, b, tb):
    tr = _ref_min_trunc(ta, tb)
    out = dict(a)
    for key, coeff in b.items():
        s = out.get(key, 0) + coeff
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    if tr is not None and (ta != tr or tb != tr):
        out = {k: v for k, v in out.items() if spec.weight_of(k) <= tr}
    return out


def _ref_scale(a, c):
    return {k: v * c for k, v in a.items() if v * c}


def _ref_min_trunc(ta, tb):
    return min((t for t in (ta, tb) if t is not None), default=None)


def _assert_matches(got, want, kind):
    """Same items in the same order; an int where the reference holds an
    int is widened to the series' kind; the stored form is reduced."""
    assert list(got.terms.items()) == list(want.items())
    assert [type(v) for v in got.terms.values()] == [
        kind if type(v) is int else type(v) for v in want.values()]
    nums, den = got._nums, got._den
    assert den > 0 and gcd(den, *nums.values()) == 1 and all(nums.values())
    assert got._kind is (kind if nums else int)
    assert (den == 1) if got._kind is int else \
        (den & 1 or got._kind is Fraction)
    for key, v in got.terms.items():
        value = Fraction(v.num, v.den) if isinstance(v, TwoLocal) else Fraction(v)
        assert Fraction(nums[key], den) == value
        assert got.coefficient(key) == v and type(got.coefficient(key)) is type(v)


_KIND_COEFFS = {
    int: st.integers(-4, 4),
    TwoLocal: st.builds(TwoLocal, st.integers(-6, 6),
                        st.sampled_from([1, -1, 3, -3, 5, 9, 15])),
    Fraction: st.builds(Fraction, st.integers(-6, 6),
                        st.sampled_from([1, -2, 2, 3, 4, 6, 8])),
}


@st.composite
def _kernel_cases(draw):
    spec = GradingSpec(draw(st.integers(1, 3)), draw(st.integers(0, 2)),
                       draw(st.integers(0, 1)))
    # same-kind pairs, and int beside either field, both ways round
    ka, kb = draw(st.sampled_from([(int, int), (TwoLocal, TwoLocal),
                                   (Fraction, Fraction), (int, TwoLocal),
                                   (TwoLocal, int), (int, Fraction),
                                   (Fraction, int)]))
    e = st.integers(0, 1)
    key = st.builds(lambda y, vh, vn, c, x: (y, *vh, vn, *c, *x), e,
                    st.tuples(*[e] * (spec.n - 1)), st.integers(-3, 3),
                    st.tuples(*[st.integers(0, 2)] * spec.q),
                    st.tuples(*[e] * spec.roots))
    ta = draw(st.dictionaries(key, _KIND_COEFFS[ka], max_size=5))
    tb = draw(st.dictionaries(key, _KIND_COEFFS[kb], max_size=5))
    if ka is kb and draw(st.booleans()):
        # b cancels some or all of a, in a sum and in products' collisions
        tb.update({k: -v for k, v in ta.items() if draw(st.booleans())})
    tra, trb = (draw(st.none() | st.integers(0, 4)) for _ in "ab")
    scalar = draw(_KIND_COEFFS[draw(st.sampled_from([int, ka]))])
    return spec, (ta, tra, ka), (tb, trb, kb), scalar


def _ref_map(terms, image):
    """Each term moved to image(key) = (key, factor) or dropped (None),
    summed on the coefficients in place; a zero sum leaves its key."""
    out = {}
    for key, v in terms.items():
        if (hit := image(key)) is not None:
            out[hit[0]] = out.get(hit[0], 0) + v * hit[1]
            if not out[hit[0]]:
                del out[hit[0]]
    return out


def _ref_d(key, r, n, P):
    """d_r of one hat key by the formulas of erjw.bss, written out anew."""
    k, vn = (r + 1).bit_length() - 2, key[n]
    if k == 0:
        if vn % 2 == 0:
            return None
        return (key[0] + 1, *key[1:n], vn - (2 ** n - 1), *key[n + 1:]), 2
    if vn % (2 ** (k + 1)) != 2 ** k:
        return None
    vh = list(key[1:n])
    if k < n:
        vh[k - 1] += 1
    top = vn + 2 ** k - 2 ** (n + k) - (P if k == n else 0)
    return (key[0] + r, *vh, top, *key[n + 1:]), -(vn // 2 ** k)


def _assert_key_maps(a, A, ka, shifts):
    """Every key map of the series kernel against _ref_map on A = a.terms:
    values, kinds, key order, the reduced stored form and trunc.  Each
    (key, trunc) of `shifts` is a monomial multiple, checked also against
    the one-term product it replaces."""
    spec, tra, n = a.spec, a.trunc, a.spec.n
    wof, dof = spec.weight_of, spec.degree_of
    for key, t in shifts:
        got, prod = a.times_key(key, t), GradedSeries(spec, {key: 1}, t) * a
        tr = _ref_min_trunc(tra, t)
        _assert_matches(got, _ref_map(A, lambda k: (
            tuple(map(operator.add, k, key)), 1)
            if tr is None or wof(k) + wof(key) <= tr else None), ka)
        assert got == prod and got._kind is prod._kind
        assert got.trunc == prod.trunc == tr
        assert (got._nums, got._den) == (prod._nums, prod._den)
    # one weight below the top: drops the top terms, or all of weight 0
    cut = a.max_weight() - 1
    tr = _ref_min_trunc(tra, cut)
    got = a.truncated(cut)
    _assert_matches(got, _ref_map(A, lambda k: (k, 1) if wof(k) <= tr
                                  else None), ka)
    assert got.trunc == tr
    d = dof(list(A)[-1]) if A else 0
    got = a.homogeneous_part(d)
    _assert_matches(got, _ref_map(A, lambda k: (k, 1) if dof(k) == d
                                  else None), ka)
    assert got.trunc == tra
    got = a.conjugate()
    _assert_matches(got, _ref_map(A, lambda k: (k, -1 if k[n] % 2 else 1)), ka)
    assert got.trunc == tra
    # the largest monomial dividing every key; one more y divides no key
    # of least y
    g = tuple(map(min, zip(*A))) if A else spec.unit_key()
    got = a.divide_by_key(g)
    _assert_matches(got, _ref_map(A, lambda k: (tuple(map(operator.sub, k, g)),
                                                 1)), ka)
    assert got.trunc == (None if tra is None else tra - wof(g))
    if A:
        with pytest.raises(MathInvariantError, match="does not divide"):
            a.divide_by_key((g[0] + 1, *g[1:]))
    P = spec.hat_offset
    std = GradedSeries(GradingSpec(n, spec.q, spec.roots, "standard"),
                       dict(A), tra)
    got = std.regrade_to_hat()
    _assert_matches(got, _ref_map(A, lambda k: ((*k[:n], -k[n] * P,
                                                 *k[n + 1:]), 1)), ka)
    assert got.spec == spec and got.trunc == tra
    for k in range(n + 1):
        r = 2 ** (k + 1) - 1
        got = apply_differential(a, r, strict=False)
        _assert_matches(got, _ref_map(A, lambda key: _ref_d(key, r, n, P)), ka)
        assert got.trunc == tra
        odd = [key[n] for key in A if key[n] % 2 ** k]
        if odd:
            # strict mode names the first offending vn exponent in term order
            message = f"vn exponent {odd[0]} is not a multiple of 2^{k}"
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                apply_differential(a, r)
    # components of distinct weight stay apart after the vn shift by it
    dec = HatDecomposition(n, std.spec, a.weight_parts(), (), True)
    want = {}
    for w in sorted({wof(k) for k in A}):
        want |= _ref_map(A, lambda k: ((*k[:n], k[n] + w, *k[n + 1:]), 1)
                         if wof(k) == w else None)
    got = dec.recombine()
    _assert_matches(got, want, ka)
    assert got.spec == std.spec and got.trunc is None
    # two roots: the series' own root (if any) then a padded one
    wide = GradingSpec(n, 2, 2)
    pad = (0,) * (2 - spec.q)
    roots_pad = (0,) * (2 - spec.roots)
    widened = _ref_map(A, lambda k: ((*k[:n + 1 + spec.q], *pad,
                                      *k[n + 1 + spec.q:], *roots_pad), 1))
    got = a.extended_to(wide)
    _assert_matches(got, widened, ka)
    assert got.spec == wide and got.trunc == tra
    # the root swap acts on the root side alone: A's classes dropped
    ctx = SymmetricContext(UniSeries.identity(GradingSpec(n), 1), 2, 4)
    rooted = _ref_map(A, lambda k: ((*k[:n + 1], *k[n + 1 + spec.q:],
                                     *roots_pad), 1))
    got = ctx._swap_roots(GradedSeries(ctx.root_spec, rooted, tra), 0)
    _assert_matches(got, _ref_map(rooted, lambda k: ((*k[:-2], k[-1], k[-2]),
                                                     1)), ka)
    assert got.spec == ctx.root_spec and got.trunc == tra


# vn^2 is reached three times in a*b: by 1, then -1, which cancels it, and
# then 5, which puts it back at the end of the product's key order
_N1 = GradingSpec(1)
_CANCEL_AND_RETURN = ({(0, 0): 1, (0, 1): 1, (0, 2): 1},
                      {(0, 2): 1, (0, 1): -1, (0, 0): 5})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_kernel_cases())
@example((_N1, (_CANCEL_AND_RETURN[0], None, int),
          (_CANCEL_AND_RETURN[1], None, int), 3))
@example((_N1, ({k: TwoLocal(v, 3) for k, v in _CANCEL_AND_RETURN[0].items()},
                4, TwoLocal),
          ({k: TwoLocal(v) for k, v in _CANCEL_AND_RETURN[1].items()},
           2, TwoLocal), TwoLocal(-5, 9)))
# at n = 1 regrading lands vn and vn^2 on one key, where they cancel
@example((_N1, ({(0, 1): 3, (0, 2): -3}, None, int), ({}, None, int), 1))
# even vn powers of weight 0: d_1 and truncation below 0 drop every term
@example((_N1, ({(0, 2): TwoLocal(1, 3), (0, -2): TwoLocal(5, 3)}, 2,
                TwoLocal), ({}, None, TwoLocal), TwoLocal(1, 3)))
# stored as 1 and 2 over 4: truncation keeps 2/4, which must become 1/2
@example((GradingSpec(1, 1), ({(0, 0, 1): Fraction(1, 4),
                               (0, 0, 0): Fraction(1, 2)}, None, Fraction),
          ({}, None, Fraction), 1))
# times_key at the exact weight bound: c1 * c1 reaches 2 = trunc and stays,
# c1 * c1^2 is cut, in each kind, once with a negative vn key
@example((GradingSpec(1, 1), ({(0, 0, 0): 1, (0, 0, 1): 2, (0, 1, 2): 3},
                              None, int), ({(0, 0, 1): 1}, 2, int), 1))
@example((GradingSpec(1, 1), ({(0, 1, 0): TwoLocal(1, 3),
                               (0, -2, 1): TwoLocal(2, 5)}, 3, TwoLocal),
          ({(0, -3, 1): TwoLocal(1)}, 1, TwoLocal), TwoLocal(1)))
@example((GradingSpec(1, 1), ({(0, 0, 0): Fraction(1, 2),
                               (0, 1, 1): Fraction(3, 4),
                               (0, 2, 2): Fraction(1, 6)}, None, Fraction),
          ({(0, -1, 2): Fraction(1, 3)}, 3, Fraction), Fraction(1, 2)))
def test_kernel_matches_the_coefficient_dict_reference(case):
    spec, (ta, tra, ka), (tb, trb, kb), scalar = case
    a, b = GradedSeries(spec, ta, tra), GradedSeries(spec, tb, trb)
    A, B = dict(a.terms), dict(b.terms)
    # a series with no terms has kind int, which widens to any other
    ka, kb = (ka if a else int), (kb if b else int)
    kind = kb if ka is int else ka
    _assert_matches(a, A, ka)
    _assert_matches(b, B, kb)
    tr = _ref_min_trunc(tra, trb)
    _assert_matches(a * b, _ref_mul(spec, A, B, tr), kind)
    _assert_matches(b * a, _ref_mul(spec, B, A, tr), kind)
    _assert_matches(a + b, _ref_add(spec, A, tra, B, trb), kind)
    _assert_matches(a - b, _ref_add(spec, A, tra, _ref_scale(B, -1), trb),
                    kind)
    _assert_matches(-a, _ref_scale(A, -1), ka)
    _assert_matches(a - a, {}, ka)
    skind = ka if type(scalar) is int else type(scalar)
    _assert_matches(a * scalar, _ref_scale(A, scalar), skind)
    _assert_matches(scalar * a, _ref_scale(A, scalar), skind)
    assert (a * b).trunc == tr and (a + b).trunc == tr
    assert (a * scalar).trunc == tra
    # a times each key of b at b's bound, and the other way round
    unit = (spec.unit_key(), None)
    _assert_key_maps(a, A, ka, [unit, *((k, trb) for k in B)])
    _assert_key_maps(b, B, kb, [unit, *((k, tra) for k in A)])


def _boxed_basis(spec, D, caps, weight, hat_lattice):
    # every y = 0 key of a box one step past caps and weight, filtered
    n, P, lam1 = spec.n, spec.hat_offset, spec.lam - 1
    step = 2 * (2 ** n - 1)  # |vn|
    top = (caps + 1) * sum((2 ** l - 1) * lam1 for l in range(1, n))
    bottom = (weight + 1) * lam1 * max(spec.q, 1)
    keys = []
    for a in product(range(caps + 2), repeat=n - 1):
        for e in product(range(weight + 2), repeat=spec.q):
            for b in range((-D - bottom) // step - 1, (top - D) // step + 2):
                key = (0, *a, b, *e)
                if (spec.degree_of(key) == D and max(a, default=0) <= caps
                        and spec.weight_of(key) <= weight
                        and not (hat_lattice and (b % P if P else b))):
                    keys.append(key)
    return tuple(sorted(keys))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.integers(0, 4),
       st.integers(0, 3), st.integers(-6, 6), st.integers(-1, 1),
       st.integers(0, 27), st.booleans())
@example(1, 1, 2, 3, 0, 0, 0, True)    # n = 1 on the hat lattice: b = 0
@example(1, 2, 0, 3, 0, 1, 6, True)    # ... so a nonzero D has no key
@example(2, 1, 3, 2, 1, 0, 5, False)   # an odd degree has no key
@example(3, 1, 4, 2, -2, -1, 12, True)
def test_degree_basis_matches_a_filtered_box(n, q, caps, weight, j, far,
                                             r, hat_lattice):
    spec = GradingSpec(n, q=q, alphabet="hat")
    # D on the hat lattice (j), moved far past the capped box (far) and
    # onto every residue modulo |vn| <= 14, odd ones included (r)
    D = (j + 40 * far) * (spec.lam - 1) + r
    got = degree_basis(spec, D, caps, weight, hat_lattice)
    assert got == _boxed_basis(spec, D, caps, weight, hat_lattice)
    if D % 2 or (n == 1 and hat_lattice and D):
        assert got == ()


@pytest.mark.parametrize("hat_lattice", [False, True])
@pytest.mark.parametrize("n, q, caps, weight",
                         [(1, 2, 3, 3), (2, 1, 4, 3), (2, 2, 2, 4),
                          (3, 1, 3, 2)])
def test_degree_basis_partitions_the_capped_box(n, q, caps, weight,
                                                hat_lattice):
    # every key of the capped box, over a few vn periods, lies in the basis
    # of its own degree and of no other, exactly once
    spec = GradingSpec(n, q=q, alphabet="hat")
    P = spec.hat_offset
    vn_range = range(-2 * P - 3, 2 * P + 4)
    box = Counter(
        (0, *a, b, *e)
        for a in product(range(caps + 1), repeat=n - 1)
        for e in product(range(weight + 1), repeat=q)
        if sum(k * ek for k, ek in enumerate(e, start=1)) <= weight
        for b in vn_range
        if not (hat_lattice and (b % P if P else b)))
    degrees = [spec.degree_of(key) for key in box]
    seen = Counter()
    for D in range(min(degrees), max(degrees) + 1):
        for key in degree_basis(spec, D, caps, weight, hat_lattice):
            assert spec.degree_of(key) == D
            if key[n] in vn_range:
                seen[key] += 1
    assert seen == box


def test_degree_basis_rejects_other_alphabets():
    with pytest.raises(InputError):
        degree_basis(GradingSpec(2, alphabet="standard"), 0, 2)
    with pytest.raises(InputError):
        degree_basis(GradingSpec(2, roots=1), 0, 2)


@pytest.mark.parametrize("n", [1, 2])
def test_degree_basis_refuses_negative_caps(n):
    # at n = 1 the box has no vhat slot, so caps -1 would let (0, 0) in
    spec = GradingSpec(n, q=1)
    for weight, hat in ((0, False), (4, True)):
        with pytest.raises(InputError, match="^negative caps$"):
            degree_basis(spec, 0, -1, weight, hat)
    assert degree_basis(spec, 0, 0) == (spec.unit_key(),)


# -- the flat key layout against a reference over named slot groups ---------


def _flat(groups):
    y, vh, vn, c, x = groups
    return (y, *vh, vn, *c, *x)


def _groups(spec, key):
    """A flat key as its named slot groups (y, vh, vn, c, x)."""
    n, q = spec.n, spec.q
    return key[0], key[1:n], key[n], key[n + 1:n + 1 + q], key[n + 1 + q:]


def _named(series):
    return {_groups(series.spec, k): v for k, v in series.terms.items()}


def _ref_weight(g):
    _, _, _, c, x = g
    return sum(k * e for k, e in enumerate(c, start=1)) + sum(x)


def _ref_degree(spec, g):
    _, vh, vn, c, x = g
    s = (1 - spec.lam) // 2 if spec.alphabet == "hat" else 1
    return (sum(-2 * (2 ** k - 1) * s * e for k, e in enumerate(vh, start=1))
            - 2 * (2 ** spec.n - 1) * vn
            + sum(2 * k * s * e for k, e in enumerate(c, start=1))
            + 2 * s * sum(x))


def _ref_sum(pairs, trunc):
    out = {}
    for g, v in pairs:
        if trunc is None or _ref_weight(g) <= trunc:
            out[g] = out.get(g, 0) + v
    return {g: v for g, v in out.items() if v}


def _ref_key_mul(g, h):
    def add(a, b):
        return tuple(p + q for p, q in zip(a, b))
    return (g[0] + h[0], add(g[1], h[1]), g[2] + h[2], add(g[3], h[3]),
            add(g[4], h[4]))


def _ref_quotient(g, d):
    """g / d, or None where a group other than vn would go negative."""
    parts = [g[0] - d[0], tuple(p - q for p, q in zip(g[1], d[1])),
             g[2] - d[2], tuple(p - q for p, q in zip(g[3], d[3])),
             tuple(p - q for p, q in zip(g[4], d[4]))]
    if parts[0] < 0 or min(parts[1] + parts[3] + parts[4], default=0) < 0:
        return None
    return tuple(parts)


def _ref_str(spec, terms):
    if spec.alphabet == "hat":
        gens = [f"vh{k}" for k in range(1, spec.n)] + ["vn"]
    else:
        gens = [f"v{k}" for k in range(1, spec.n + 1)]
    parts = []
    for g in sorted(terms):
        y, vh, vn, c, x = g
        named = [*zip(gens, (*vh, vn)), ("y", y),
                 *((f"c{k}", e) for k, e in enumerate(c, start=1)),
                 *((f"x{i}", e) for i, e in enumerate(x, start=1))]
        factors = [name if e == 1 else f"{name}^{e}" for name, e in named if e]
        cs = str(terms[g])
        if not factors:
            parts.append(cs)
        elif cs in ("1", "-1"):
            parts.append(cs[:-1] + "*".join(factors))  # only the sign
        else:
            parts.append("*".join([cs] + factors))
    return " + ".join(parts) or "0"


@st.composite
def _layout_cases(draw):
    spec = GradingSpec(draw(st.integers(1, 3)), draw(st.integers(0, 2)),
                       draw(st.integers(0, 2)),
                       draw(st.sampled_from(["hat", "standard"])))
    kind, dens = draw(st.sampled_from([(Fraction, [1, 2, 3]),
                                       (TwoLocal, [1, 3, 5])]))
    e = st.integers(0, 2)

    def groups(vn):
        return st.tuples(e, st.tuples(*[e] * (spec.n - 1)), vn,
                         st.tuples(*[e] * spec.q),
                         st.tuples(*[e] * spec.roots))
    coeff = st.builds(kind, st.integers(-4, 4), st.sampled_from(dens))
    terms = st.dictionaries(groups(st.integers(-3, 3)), coeff, max_size=4)
    trunc = st.none() | st.integers(0, 4)
    divisor = draw(groups(st.integers(-3, 3)).filter(
        lambda g: g[0] < 2 and max(g[1] + g[3] + g[4], default=0) < 2))
    return (spec, (draw(terms), draw(trunc)), (draw(terms), draw(trunc)),
            divisor)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_layout_cases())
def test_flat_keys_match_named_slot_groups(case):
    spec, (ta, tra), (tb, trb), d = case
    a = GradedSeries(spec, {_flat(g): v for g, v in ta.items()}, tra)
    b = GradedSeries(spec, {_flat(g): v for g, v in tb.items()}, trb)
    A, B = _ref_sum(ta.items(), tra), _ref_sum(tb.items(), trb)
    assert _named(a) == A and _named(b) == B
    tr = min((t for t in (tra, trb) if t is not None), default=None)
    assert _named(a * b) == _ref_sum(
        ((_ref_key_mul(g, h), u * v) for g, u in A.items()
         for h, v in B.items()), tr)
    assert _named(a + b) == _ref_sum([*A.items(), *B.items()], tr)
    for g in A:
        assert spec.degree_of(_flat(g)) == _ref_degree(spec, g)
        assert spec.weight_of(_flat(g)) == _ref_weight(g)
    assert str(a) == _ref_str(spec, A)
    # division by a monomial: exact, or refused if any term escapes
    quots = {g: _ref_quotient(g, d) for g in A}
    if None in quots.values():
        with pytest.raises(MathInvariantError):
            a.divide_by_key(_flat(d))
    else:
        quot = a.divide_by_key(_flat(d))
        assert _named(quot) == {quots[g]: v for g, v in A.items()}
        assert quot.trunc == (None if tra is None else tra - _ref_weight(d))
    wide = GradingSpec(spec.n, spec.q + 1, spec.roots + 2, spec.alphabet)
    assert _named(a.extended_to(wide)) == {
        (y, vh, vn, c + (0,), x + (0, 0)): v
        for (y, vh, vn, c, x), v in A.items()}
    hat = spec.alphabet == "hat"
    assert _named(a.conjugate()) == {
        g: -v if (g[2] + (0 if hat else sum(g[1]))) % 2 else v
        for g, v in A.items()}
    if not hat:
        P = GradingSpec(spec.n).hat_offset
        assert _named(a.regrade_to_hat()) == _ref_sum(
            (((y, vh, -vn * P, c, x), v) for (y, vh, vn, c, x), v
             in A.items()), None)

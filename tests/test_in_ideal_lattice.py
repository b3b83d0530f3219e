"""`in_ideal` against its per-call reference, and the lattice it keeps.

`in_ideal` tests z against the degree-D relation lattice that its
presentation builds and certifies once per (D, caps), before z is read,
and keeps in `RingPresentation.lattice`.  The route it replaced is kept
here as `_reference_in_ideal`: fresh columns with z's row registered
first, then the lattice rows, then `spans`.  The verdicts must agree on
call sequences that repeat and interleave degrees, caps and a law and a
toy presentation at one (n, q, weight), so a cache key that leaves out
caps or the presentation shows; the spy tests count what a call builds.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erjw import scalar2
from erjw.boring import in_ideal, present, reduce
from erjw.bss import DegreeColumns
from erjw.fgl import UniSeries
from erjw.graded import GradedSeries, GradingSpec
from erjw.scalar2 import TwoLocal, spans

WEIGHT = {1: 6, 2: 6, 3: 4}


def _reference_in_ideal(z, p, caps):
    """in_ideal as it was: every call builds its own lattice, with z's
    row registered in the columns first."""
    for D in z.degrees():
        cols = DegreeColumns(p.spec, D, caps, p.weight)
        vec = cols.row(z.homogeneous_part(D))
        num = cols.matrix(cols.lattice_rows(p.relations, 0, p.weight))
        if not spans(num, cols.matrix([vec])):
            return False
    return True


def _toy(n, q, weight):
    """The presentation under the additive law's negation, a fresh one
    at each call: its relations are 2*c1 and, for q = 2, zero."""
    bare = GradingSpec(n, alphabet="hat")
    iota = UniSeries.from_terms(bare, {1: GradedSeries.unit(bare, -1)},
                                precision=weight + 1)
    return present(n, q, weight, iota=iota)


def _element(p, terms, normal):
    """Sum of terms (vh, vn steps, c, numerator, relation index or None),
    each a monomial, times that relation if one is named; with `normal`,
    z - reduce(z), a member that the capped lattice may miss."""
    spec, w = p.spec, p.weight
    z = GradedSeries.zero(spec, w)
    for vh, steps, c, num, rel in terms:
        mono = GradedSeries.monomial(
            spec, TwoLocal(num), vh=vh[:spec.n - 1],
            vn=steps * spec.hat_offset, c=c[:spec.q], trunc=w)
        z = z + (mono if rel is None else mono * p.relations[rel % spec.q])
    z = z.truncated(w)
    if normal:
        z = (z - reduce(z, p)).truncated(w)
    return z


_terms = st.lists(st.tuples(
    st.tuples(st.integers(0, 10), st.integers(0, 10)),
    st.integers(-1, 1),
    st.tuples(st.integers(0, 2), st.integers(0, 1)),
    st.sampled_from((1, -1, 2, 3, -4, 6)),
    st.none() | st.integers(0, 1)), min_size=1, max_size=3)


@st.composite
def _sequences(draw):
    n = draw(st.sampled_from((1, 2, 3)))
    q = draw(st.sampled_from((1, 2)))
    calls = draw(st.lists(st.tuples(st.booleans(), _terms, st.booleans(),
                                    st.integers(0, 8)),
                          min_size=1, max_size=5))
    # each call again, in another order: degrees and caps repeat
    calls += draw(st.permutations(calls))
    return n, q, calls


# vh1^2*vn^-8*c1^2 + 2*vh1^2*vn^8*c1 of the caps test in test_boring.py:
# z - reduce(z) is a member that caps 8 finds
_PINNED = [((2, 0), -1, (2, 0), 1, None), ((2, 0), 1, (1, 0), 2, None)]
# 2*c1, and 2*c1 + vh1^9*vn^24*c1 (one degree, a key past small caps)
_TWICE_C1 = [((0, 0), 0, (1, 0), 2, None)]
_FAR = [((0, 0), 0, (1, 0), 2, None), ((9, 0), 3, (1, 0), 1, None)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_sequences())
@example((2, 1, [(False, _PINNED, True, 6), (False, _PINNED, True, 8)]))
@example((2, 1, [(False, _PINNED, True, 8), (False, _PINNED, True, 6)]))
@example((2, 1, [(False, _TWICE_C1, False, 2), (True, _TWICE_C1, False, 2),
                 (False, _FAR, False, 2), (True, _FAR, False, 2),
                 (True, _TWICE_C1, False, 2), (False, _TWICE_C1, False, 2)]))
@example((1, 2, [(True, _TWICE_C1, False, 6), (False, _TWICE_C1, False, 6),
                 (True, _TWICE_C1, False, 6)]))
def test_in_ideal_matches_the_per_call_reference(case):
    n, q, calls = case
    weight = WEIGHT[n]
    law, toy = present(n, q, weight), _toy(n, q, weight)
    for use_toy, terms, normal, caps in calls:
        p = toy if use_toy else law
        z = _element(p, terms, normal)
        assert in_ideal(z, p, caps) == _reference_in_ideal(z, p, caps)


def test_the_pinned_examples_tell_caps_and_presentations_apart():
    # the @examples above catch a wrong cache key only if the verdicts
    # they compare differ
    law, toy = present(2, 1, 6), _toy(2, 1, 6)
    z = _element(law, _PINNED, True)
    assert [_reference_in_ideal(z, law, caps) for caps in (6, 8)] == [
        False, True]
    two_c1 = _element(law, _TWICE_C1, False)
    assert not _reference_in_ideal(two_c1, law, 2)
    assert _reference_in_ideal(two_c1, toy, 2)


def test_a_key_outside_the_columns_is_outside_the_ideal():
    p = _toy(2, 1, 6)
    z = _element(p, _FAR, False)  # 2*c1, a member, plus vh1^9*vn^24*c1
    D, = z.degrees()
    columns, _ = p.lattice(D, 2)
    width = len(columns)
    assert (0, 9, 24, 1) not in columns
    assert in_ideal(_element(p, _TWICE_C1, False), p, 2)
    assert not in_ideal(z, p, 2)
    assert not _reference_in_ideal(z, p, 2)
    assert p.lattice(D, 2)[0] is columns and len(columns) == width


def test_a_lattice_is_built_and_certified_once_per_degree_and_caps(
        monkeypatch):
    built = {"lattice_rows": 0, "echelon": 0, "_certify_echelon": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def spy(*args):
            built[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, spy)

    counted(DegreeColumns, "lattice_rows")
    counted(scalar2, "echelon")
    counted(scalar2, "_certify_echelon")
    p = _toy(2, 1, 6)  # a fresh presentation: its cache starts empty
    z = _element(p, _TWICE_C1, False)
    assert in_ideal(z, p, 6)
    assert built == {"lattice_rows": 1, "echelon": 1, "_certify_echelon": 1}
    assert in_ideal(z, p, 6) and in_ideal(z + z, p, 6)
    assert built == {"lattice_rows": 1, "echelon": 1, "_certify_echelon": 1}
    assert in_ideal(z, p, 4)
    assert built == {"lattice_rows": 2, "echelon": 2, "_certify_echelon": 2}
    info = p.lattice.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 2)
    # one degree per vn power: more lattices than the bound holds
    c1 = GradedSeries.gen(p.spec, "c1", trunc=6)
    for k in range(-24, 24):
        vn = GradedSeries.monomial(p.spec, vn=k * p.spec.hat_offset, trunc=6)
        assert not in_ideal(vn * c1, p, 0)
        info = p.lattice.cache_info()
        assert info.currsize <= info.maxsize
    assert info.maxsize == 32 and info.currsize == 32
    assert built["lattice_rows"] == 2 + 48


@pytest.mark.parametrize("n, q", [(1, 1), (2, 2)])
def test_equal_presentations_keep_lattices_of_their_own(n, q):
    law = present(n, q, 4)
    twin = _toy(n, q, 4)
    again = _toy(n, q, 4)
    assert twin == again and twin.lattice is not again.lattice
    assert "lattice" not in repr(twin)
    assert law.lattice is present(n, q, 4).lattice

"""Presentation, normal forms, periodicity splitting, flatness windows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erjw import boring
from erjw.boring import (
    RingPresentation,
    _order_key,
    hat_decompose,
    in_ideal,
    landweber_window_check,
    present,
    reduce,
    residue_certificate,
)
from erjw.bss import (DegreeColumns, PresentedModule, closed_form_page,
                      flat_base_change)
from erjw.errors import InputError, MathInvariantError, ReductionError
from erjw.fgl import GroupLaw, UniSeries
from erjw.graded import GradedSeries, GradingSpec, degree_basis
from erjw.scalar2 import TwoLocal


@pytest.fixture(scope="module")
def pres21():
    return present(2, 1, 8)


@pytest.fixture(scope="module")
def pres21_small():
    return present(2, 1, 6)


def _class_gen(spec, k, trunc=None):
    return GradedSeries.gen(spec, f"c{k}", trunc=trunc)


def test_rewriting_order_reads_weight_classes_then_coefficients():
    spec = GradingSpec(2, q=2)  # keys (y, vh1, vn, c1, c2)
    keys = [(0, 0, 0, 0, 1), (0, 2, 0, 1, 0), (0, 0, 8, 2, 0),
            (0, 1, -8, 0, 1), (0, 0, 3, 1, 0)]
    assert sorted(keys, key=lambda k: _order_key(spec, k)) == [
        (0, 0, 3, 1, 0), (0, 2, 0, 1, 0),
        (0, 0, 0, 0, 1), (0, 1, -8, 0, 1), (0, 0, 8, 2, 0)]


def test_generator_degrees():
    assert present(2, 1, 6).generator_degrees == (-16,)
    assert present(3, 2, 4).generator_degrees == (-96, -192)
    # height one collapses the class degrees entirely
    assert present(1, 1, 4).generator_degrees == (0,)


def test_head_shapes():
    p = present(2, 2, 6)
    c1_key = next(iter(_class_gen(p.spec, 1).terms))
    head_key, head_coeff = p.heads[0]
    assert head_key == c1_key
    assert head_coeff == TwoLocal(2)
    r1_weight1 = {k: c for k, c in p.relations[0].terms.items()
                  if p.spec.weight_of(k) == 1}
    assert r1_weight1 == {c1_key: TwoLocal(2)}
    # the even relation loses its whole lowest-weight slice
    assert all(p.spec.weight_of(k) > 2 for k in p.relations[1].terms)


def test_toy_additive_law():
    bare = GradingSpec(2, alphabet="hat")
    minus = GradedSeries.unit(bare, -1)
    iota = UniSeries.from_terms(bare, {1: minus}, precision=7)
    p = present(2, 2, 6, iota=iota)
    c1 = _class_gen(p.spec, 1, trunc=6)
    assert p.relations[0] == c1 * 2
    assert p.relations[1].is_zero


def test_present_input_errors():
    with pytest.raises(InputError):
        present(2, 1, 0)
    with pytest.raises(InputError):
        present(2, 0, 6)
    with pytest.raises(InputError):
        present(2, 1, 6, iota=GroupLaw(1, precision=7).hat_iota())


# The classring benchmark shapes.  The shared presentation (and its shared
# law) must answer exactly what a fresh law passed as iota answers; no test
# here assumes a cold cache or clears one.
CLASSRING_SHAPES = [(n, q, w) for n in (1, 2, 3) for q in (1, 2)
                    for w in (4, 5, 6)]


@pytest.mark.parametrize("n, q, weight", CLASSRING_SHAPES)
def test_shared_presentation_matches_the_explicit_route(n, q, weight):
    shared = present(n, q, weight)
    fresh = present(n, q, weight,
                    iota=GroupLaw(n, precision=weight + 1).hat_iota())
    assert fresh is not shared
    assert shared.relations == fresh.relations
    assert shared.heads == fresh.heads
    assert shared.generator_degrees == fresh.generator_degrees
    assert shared == fresh
    assert present(n, q, weight) is shared


def test_refused_presentations_are_refused_on_every_ask():
    for _ in range(3):
        with pytest.raises(InputError, match="weight bound"):
            present(2, 1, 0)
        with pytest.raises(InputError, match="n must be at least 1"):
            present(0, 1, 4)


def test_relations_reduce_to_zero():
    for n, q, w in ((1, 1, 6), (2, 2, 6), (3, 1, 4)):
        p = present(n, q, w)
        for rel in p.relations:
            assert reduce(rel, p).is_zero


def test_doubling_series_reduces_to_zero(pres21):
    for n, p in ((1, present(1, 1, 8)), (2, pres21)):
        law = GroupLaw(n, precision=9)
        c1 = _class_gen(p.spec, 1, trunc=8)
        z = law.hat_k_series(2).evaluate_at(c1)
        assert reduce(z, p).is_zero


def test_scalar_valuation_barrier(pres21_small):
    p = pres21_small
    c1 = _class_gen(p.spec, 1, trunc=6)
    odd = c1 * 3
    assert reduce(odd, p) == odd
    doubled = c1 * 2
    nf = reduce(doubled, p)
    assert not nf.coefficient(next(iter(c1.terms)))
    assert reduce(doubled - p.relations[0], p) == nf
    assert reduce(GradedSeries.zero(p.spec, 6), p).is_zero


_terms = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),   # vhat exponent
        st.sampled_from((-8, 0, 8)),             # periodicity shift
        st.integers(min_value=0, max_value=4),   # class exponent
        st.integers(min_value=-9, max_value=9).filter(bool),
        st.sampled_from((1, 3, 7)),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=20, deadline=None)
@given(_terms)
def test_reduce_is_idempotent_and_scalar_linear(terms):
    p = present(2, 1, 6)
    spec = p.spec
    z = GradedSeries.zero(spec, 6)
    for a, v, e, num, den in terms:
        z = z + GradedSeries.monomial(spec, TwoLocal(num, den),
                                      vh=(a,), vn=v, c=(e,), trunc=6)
    nf = reduce(z, p)
    assert reduce(nf, p) == nf
    # scalars from the coefficient ring pass through the normal form
    for scalar in (GradedSeries.gen(spec, "vh1", trunc=6),
                   GradedSeries.monomial(spec, vn=8, trunc=6)):
        assert reduce(scalar * z, p) == scalar * nf
    odd = z * 5
    assert reduce(odd, p) == nf * 5
    # even rescaling re-opens eliminations and normal forms split; only
    # the ideal membership survives, so no assertion on that side


def test_reduce_rejects_foreign_elements(pres21_small):
    p = pres21_small
    other = present(2, 2, 6)
    with pytest.raises(InputError):
        reduce(_class_gen(other.spec, 1, trunc=6), p)
    with pytest.raises(InputError):
        reduce(GradedSeries.monomial(p.spec, y=1, c=(1,), trunc=6), p)
    with pytest.raises(InputError):
        reduce(GradedSeries.monomial(p.spec, vn=3, c=(1,), trunc=6), p)
    with pytest.raises(InputError):
        reduce(_class_gen(p.spec, 1, trunc=8) ** 7, p)


def test_ideal_membership_certificates(pres21_small):
    p = pres21_small
    r1 = p.relations[0]
    assert in_ideal(r1, p)
    c1 = _class_gen(p.spec, 1, trunc=p.weight)
    combo = (c1 * r1 - r1 - r1 - r1).truncated(p.weight)
    assert in_ideal(combo, p)
    assert in_ideal(GradedSeries.zero(p.spec, p.weight), p)
    # odd content never clears the doubled head
    assert not in_ideal(c1, p)
    assert not in_ideal(GradedSeries.unit(p.spec, trunc=p.weight), p)


def test_in_ideal_needs_the_caps_that_reach_a_member(pres21_small):
    # z - reduce(z) is a member by construction, which the capped lattice
    # sees at caps 8; a False at smaller caps is no proof of
    # non-membership, so only the True is pinned
    p = pres21_small
    z = GradedSeries(p.spec, {(0, 2, -8, 2): 1, (0, 2, 8, 1): 2},
                     trunc=p.weight)  # vh1^2*vn^-8*c1^2 + 2*vh1^2*vn^8*c1
    assert in_ideal((z - reduce(z, p)).truncated(p.weight), p, caps=8)


def test_ideal_membership_contract_errors(pres21_small):
    p = pres21_small
    other = present(2, 2, 6)
    with pytest.raises(InputError):
        in_ideal(_class_gen(other.spec, 1, trunc=6), p)
    with pytest.raises(InputError):
        in_ideal(_class_gen(p.spec, 1, trunc=8) ** 7, p)
    with pytest.raises(InputError):
        in_ideal(GradedSeries.monomial(p.spec, y=1, c=(1,), trunc=6), p)


@pytest.mark.parametrize("n", [1, 2])
def test_negative_caps_are_refused(n):
    # an empty capped basis would read a member as outside the ideal and
    # certify a window check over nothing
    p = present(n, 1, 6)
    r1 = p.relations[0]
    member = (_class_gen(p.spec, 1, trunc=6) * r1 - r1).truncated(6)
    assert in_ideal(member, p, caps=0) and in_ideal(member, p, caps=6)
    module = PresentedModule(p.spec, 4, present(n, 1, 4).relations,
                             flat_certificate="conjugation quotient", caps=-1)
    asks = [lambda: in_ideal(member, p, caps=-1),
            lambda: landweber_window_check(n, 1, 0, (-32, 32), weight=4,
                                           caps=-1),
            lambda: module.twisted_structure_at(0, 0, 0)]
    for ask in asks:
        with pytest.raises(InputError, match="^negative caps$"):
            ask()


def test_reduce_guard_stops_runaway_rule(pres21_small):
    spec = pres21_small.spec
    c1_key = next(iter(_class_gen(spec, 1).terms))
    away = GradedSeries.monomial(spec, -2, vn=8, c=(1,), trunc=6)
    rel = GradedSeries.monomial(spec, 2, c=(1,), trunc=6) + away
    bad = RingPresentation(2, 1, 6, spec, (-16,), (rel,),
                           ((c1_key, TwoLocal(2)),))
    with pytest.raises(ReductionError):
        reduce(GradedSeries.monomial(spec, 2, c=(1,), trunc=6), bad)


def test_reduce_certifies_its_rewriting(pres21_small, monkeypatch):
    # a subtraction that loses a term breaks nf + sum(quot * rel) == z
    p = pres21_small
    doubled = _class_gen(p.spec, 1, trunc=6) * 2
    honest, dropped = GradedSeries.__sub__, []

    def lossy(self, other):
        out = honest(self, other)
        if out:
            dropped.append(max(out.keys()))
            return out._mapped(lambda k: None if k == dropped[-1] else (k, 1))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(GradedSeries, "__sub__", lossy)
        with pytest.raises(MathInvariantError, match="eliminated multiples"):
            reduce(doubled, p)
    assert dropped
    nf = reduce(doubled, p)
    assert nf and not nf.coefficient(next(iter(doubled.keys())))


def test_hat_decompose_single_power():
    std = GradingSpec(2, alphabet="standard")
    el = GradedSeries.gen(std, "v2", exp=9)
    dec = hat_decompose(el)
    assert dec.residues == tuple(range(8))
    assert set(dec.components) == {1} and not dec.bounded
    hat = GradingSpec(2, alphabet="hat")
    assert dec.components[1] == GradedSeries.monomial(hat, vn=8)
    assert dec.components[1].internal_degree() % 16 == 0
    assert dec.recombine() == el


def test_hat_decompose_mixed_residues():
    std = GradingSpec(2, alphabet="standard")
    el = (GradedSeries.monomial(std, vh=(3,), vn=7)
          + GradedSeries.monomial(std, 5, vn=8))
    assert el.is_homogeneous()
    dec = hat_decompose(el)
    assert set(dec.components) == {0, 7}
    for comp in dec.components.values():
        assert comp.internal_degree() % 16 == 0
    assert dec.recombine() == el


def test_hat_decompose_contract_errors():
    std = GradingSpec(2, alphabet="standard")
    with pytest.raises(InputError):
        hat_decompose(GradedSeries.gen(GradingSpec(2, alphabet="hat"), "vn"))
    mixed = GradedSeries.gen(std, "v2") + GradedSeries.gen(std, "v2", exp=9)
    with pytest.raises(InputError):
        hat_decompose(mixed)
    one = GradingSpec(1, alphabet="standard")
    v5 = GradedSeries.gen(one, "v1", exp=5)
    with pytest.raises(InputError):
        hat_decompose(v5)
    dec = hat_decompose(v5, residue_bound=8)
    assert dec.residues == (5,) and dec.bounded
    assert dec.recombine() == v5
    with pytest.raises(InputError):
        hat_decompose(v5, residue_bound=4)


def test_residue_certificate_degrees():
    cert2 = residue_certificate(2)
    assert len(cert2) == 8
    assert cert2[1] == 10
    assert sorted(cert2.values()) == list(range(0, 16, 2))
    cert3 = residue_certificate(3)
    assert len(cert3) == 48
    assert len(set(cert3.values())) == 48
    with pytest.raises(InputError):
        residue_certificate(1)


def test_landweber_stage_checks():
    for k, pairs in ((0, 7), (1, 6), (2, 4)):
        cert = landweber_window_check(2, 1, k, (-48, 48), weight=6, caps=5)
        assert cert.ok and not cert.failures
        assert len(cert.checked) == pairs
        assert cert.n == 2 and cert.q == 1 and cert.k == k
    for k in (0, 1):
        cert = landweber_window_check(1, 1, k, (-48, 48), weight=6, caps=5)
        assert cert.ok and cert.checked == ((0, 0),)


def test_landweber_vacuous_and_errors():
    cert = landweber_window_check(2, 1, 0, (16, 16), weight=1, caps=0)
    assert cert.ok and cert.checked == ((16, 16),)
    with pytest.raises(InputError):
        landweber_window_check(2, 1, 0, (2, 14), weight=1, caps=0)
    with pytest.raises(InputError):
        landweber_window_check(2, 1, 3, (-48, 48))
    with pytest.raises(InputError):
        landweber_window_check(2, 1, 0, (48, -48))


@pytest.mark.parametrize("bad", [
    {"n": True}, {"n": 2.0}, {"q": True}, {"q": "1"}, {"k": True},
    {"k": 1.0}, {"window": (0.5, 16)}, {"window": (0, True)},
    {"window": (0, 16, 32)}, {"window": 16}, {"weight": True},
    {"weight": 4.0}, {"caps": True}, {"caps": 2.5},
])
def test_window_check_refuses_non_int_inputs(monkeypatch, bad):
    def unbuilt(*args, **kwargs):
        raise AssertionError("a law was built for refused inputs")

    monkeypatch.setattr(boring, "present", unbuilt)
    args = {"n": 2, "q": 1, "k": 1, "window": (0, 16), "weight": 4,
            "caps": 2, **bad}
    with pytest.raises(InputError):
        landweber_window_check(**args)


@pytest.mark.parametrize("ask", [
    lambda p, z: in_ideal(z, p, caps=2.5),
    lambda p, z: in_ideal(z, p, caps="3"),
    lambda p, z: in_ideal(z, p, caps=None),
    lambda p, z: in_ideal(z, p, caps=True),
    lambda p, z: present(2, 1, True),
    lambda p, z: present(2.0, 1, 4),
    lambda p, z: present(True, 1, 4),
    lambda p, z: present(2, "1", 4),
    lambda p, z: present(2, 1, 4.0),
    lambda p, z: residue_certificate(2.0),
    lambda p, z: residue_certificate(True),
])
def test_non_int_inputs_are_refused_before_any_build(pres21_small,
                                                     monkeypatch, ask):
    # a bool equals an int and a float hashes like one, so without the
    # check present(2.0, 1, 4) returned the cached n = 2 presentation
    z = _class_gen(pres21_small.spec, 1, trunc=6)

    def unbuilt(*args, **kwargs):
        raise AssertionError("built for refused inputs")

    for name in ("DegreeColumns", "_present", "_present_law", "GradingSpec"):
        monkeypatch.setattr(boring, name, unbuilt)
    with pytest.raises(InputError, match="must be an int"):
        ask(pres21_small, z)


def test_landweber_reports_failures():
    # under the additive law's negation the only relation is 2*c1 = 0, so
    # c1 is 2-torsion and doubling has a kernel in every window degree
    bare = GradingSpec(2, alphabet="hat")
    iota = UniSeries.from_terms(bare, {1: GradedSeries.unit(bare, -1)},
                                precision=9)
    cert = landweber_window_check(2, 1, 0, (-32, 0), weight=4, caps=2,
                                  iota=iota)
    assert not cert.ok and not cert.checked
    assert cert.failures == (-32, -16, 0)


def test_window_check_reuses_only_a_whole_lattice_question(monkeypatch):
    # under the additive law at weight 1 and caps 0 the verdicts mix, and
    # the degree classes 16 and 32 mod 48 share their lattice rows but not
    # their capped columns, so not the multiplication matrix 2 [I | 0]: a
    # verdict reused on the rows alone is wrong
    bare = GradingSpec(2, alphabet="hat")
    iota = UniSeries.from_terms(bare, {1: GradedSeries.unit(bare, -1)},
                                precision=9)
    reductions = []
    capped_part = DegreeColumns.capped_part

    def counted(cols, rows):
        reductions.append(rows)
        return capped_part(cols, rows)

    monkeypatch.setattr(DegreeColumns, "capped_part", counted)
    cert = landweber_window_check(2, 1, 0, (-48, 48), weight=1, caps=0,
                                  iota=iota)
    assert cert.failures == (-16, 32)
    # seven degree pairs, three vn-period classes, three reductions
    assert len(cert.checked) == 5 and len(reductions) == 3
    alone = [landweber_window_check(2, 1, 0, (D, D), weight=1, caps=0,
                                    iota=iota) for D in range(-48, 49, 16)]
    assert cert.checked == tuple(p for c in alone for p in c.checked)
    assert cert.failures == tuple(D for c in alone for D in c.failures)


def test_presentation_matches_tensored_chart():
    pres = present(2, 1, 4)
    module = PresentedModule(pres.spec, 4, pres.relations,
                             flat_certificate="conjugation quotient, weight 4",
                             caps=4)
    for k, degree in enumerate(pres.generator_degrees, start=1):
        key = next(iter(_class_gen(pres.spec, k).terms))
        assert key in degree_basis(module.spec, degree, module.caps,
                                   module.weight, hat_lattice=True)
    page = closed_form_page(2, 8)
    tensored = flat_base_change(page, module)
    for degree in pres.generator_degrees:
        assert not tensored.chart_structure(0, degree).is_zero
    for t in (-15, -9, 7):
        assert tensored.chart_structure(0, t).is_zero

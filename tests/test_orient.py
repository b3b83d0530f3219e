"""Orientation tower: residue arithmetic, scan steps, certificates."""

import pytest

import erjw.orient
from erjw.boring import in_ideal, present, reduce
from erjw.bss import StandardSummand, closed_form_page
from erjw.errors import InputError
from erjw.fgl import GroupLaw
from erjw.graded import GradedSeries, GradingSpec
from erjw.orient import obstruction_residue, orientability_scan
from erjw.symchern import thom_ratio


def test_lambda_values():
    assert GradingSpec(1).lam == 1
    assert GradingSpec(2).lam == 17
    assert GradingSpec(3).lam == 97
    for n in range(1, 6):
        assert GradingSpec(n).lam % 2 == 1
    for refused in (lambda: GradingSpec(0).lam, lambda: orientability_scan(0)):
        with pytest.raises(InputError, match="n must be at least 1"):
            refused()


def test_obstruction_residue_examples():
    assert obstruction_residue(2, 1, 0) == 3
    assert obstruction_residue(2, 2, 1) == 6


def test_obstruction_residue_matches_direct_arithmetic():
    for n in (1, 2, 3):
        lam = GradingSpec(n).lam
        for k in range(1, n + 2):
            for r in range(2 ** k - 1):
                direct = ((2 ** k + r) * lam + 1) % 2 ** (k + 1)
                assert obstruction_residue(n, k, r) == direct
                if r == 0:
                    assert direct == 2 ** k + 1


def test_obstruction_residue_range_errors():
    with pytest.raises(InputError):
        obstruction_residue(0, 1, 0)
    with pytest.raises(InputError):
        obstruction_residue(2, 0, 0)
    with pytest.raises(InputError):
        obstruction_residue(2, 4, 0)
    with pytest.raises(InputError):
        obstruction_residue(2, 2, 3)
    with pytest.raises(InputError):
        obstruction_residue(2, 2, -1)


def test_scan_certifies_low_heights():
    for n, bundle in ((1, "MO[4]"), (2, "MO[8]")):
        scan = orientability_scan(n)
        assert scan.bundle == bundle
        assert scan.certified
        assert all(step.verdict for step in scan.steps)
        methods = {step.method for step in scan.steps}
        assert methods == {"conjugation-fixed", "swap-doubling",
                           "degree-gap"}


def test_scan_step_inventory():
    scan = orientability_scan(2)
    # one fixedness step, stages 2..3 by swap, every in-between page by
    # degree gap: 1 + 2 + (1 + 3 + 7)
    assert len(scan.steps) == 14
    first = scan.steps[0]
    assert first.method == "conjugation-fixed"
    assert first.k == 1 and first.page == 1


def test_degree_gap_step_details():
    scan = orientability_scan(2)
    gap = [s for s in scan.steps if s.method == "degree-gap"]
    k1 = gap[0]
    assert (k1.k, k1.page) == (1, 2)
    assert k1.target_degree == 35
    assert k1.residue == 3
    assert k1.modulus == 4
    assert k1.target_degree in k1.rechecked
    assert len(k1.rechecked) == 17
    # every rechecked degree keeps the residue the arithmetic promised
    for D in k1.rechecked:
        assert D % k1.modulus == k1.residue


def test_rechecked_degrees_are_empty_on_the_chart():
    scan = orientability_scan(2, span=4)
    lam = GradingSpec(2).lam
    for step in scan.steps:
        if step.method != "degree-gap":
            continue
        page = closed_form_page(2, step.page)
        row = step.page
        for D in step.rechecked:
            assert page.chart_structure(row, D - row * lam, caps=4).is_zero


@pytest.mark.parametrize("span, caps", [(-1, 4), (8, -1), (-5, -5)])
def test_scan_refuses_negative_span_and_caps(span, caps):
    # span -1 would re-read no degree at all and still certify; caps -1
    # would re-read every degree from an empty basis
    with pytest.raises(InputError, match="non-negative"):
        orientability_scan(2, span=span, caps=caps)


def test_swap_steps_see_elementary_abelian_rows():
    scan = orientability_scan(3)
    swaps = [s for s in scan.steps if s.method == "swap-doubling"]
    assert [s.page for s in swaps] == [3, 7, 15]
    assert all(s.verdict for s in swaps)


def test_scan_notes_flag_printed_expansion():
    scan = orientability_scan(1)
    joined = " ".join(scan.notes)
    assert " 3;" in joined and "13" in joined
    scan2 = orientability_scan(2)
    joined2 = " ".join(scan2.notes)
    assert "35" in joined2 and "53" in joined2


def test_scan_quotes_half_tower_refutation_as_external():
    for n in (1, 2):
        scan = orientability_scan(n)
        assert any(f"MO[{2 ** n}]" in fact for fact in scan.external_facts)
        assert all("recomputed" in fact for fact in scan.external_facts)


def test_parity_split_of_degrees():
    # obstruction degrees are odd at even offsets, while class degrees
    # and coefficient degrees all stay even
    for n in (1, 2, 3):
        lam = GradingSpec(n).lam
        spec = GradingSpec(n, q=2, alphabet="hat")
        assert all(spec.degree_of(GradedSeries.gen(spec, f"c{k}")
                                  .items_sorted()[0][0]) % 2 == 0
                   for k in (1, 2))
        for k in range(1, n + 2):
            assert ((2 ** k) * lam + 1) % 2 == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_top_class_carries_the_fixedness_identity(n):
    weight = 6
    iota = GroupLaw(n, precision=weight + 4).hat_iota()
    ratio = thom_ratio(iota, 1, weight)
    pres = present(n, 2, weight)
    delta = ratio - GradedSeries.unit(pres.spec, trunc=weight)
    top = GradedSeries.gen(pres.spec, "c2", trunc=weight)
    defect = (delta * top).truncated(weight)
    # the product with the top class is exactly the even relation
    assert (defect + pres.relations[1]).is_zero
    assert reduce(defect, pres).is_zero
    assert in_ideal(defect, pres)
    # the ratio alone is a different unit: its defect survives the ideal
    assert not delta.is_zero
    assert not in_ideal(delta, pres)


def test_scan_reads_the_cached_presentation(monkeypatch):
    seen = []

    def spy(*args, **kwargs):
        seen.append((args, kwargs))
        return present(*args, **kwargs)

    monkeypatch.setattr(erjw.orient, "present", spy)
    assert orientability_scan(1, weight=4).certified
    assert seen == [((1, 2, 4), {})]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cached_presentation_matches_the_scan_law(n):
    # the scan's conjugation ratio reads a deeper law (precision w + 3)
    # than the cached presentation (w + 1); both give one presentation
    for w in range(2, 7):
        iota = GroupLaw.of(n, w + 3).hat_iota()
        assert present(n, 2, w, iota=iota) == present(n, 2, w)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scan_law_at_weight_plus_three_matches_the_deeper_law(n):
    # the conjugation-fixed step builds its law at precision weight + 3,
    # as deep as thom_ratio's context reads; the weight + 4 law gives the
    # same ratio and the same verdict
    for w in range(1, 6):
        new = thom_ratio(GroupLaw.of(n, w + 3).hat_iota(), 1, w)
        old = thom_ratio(GroupLaw.of(n, w + 4).hat_iota(), 1, w)
        assert new == old and str(new) == str(old) and new.trunc == old.trunc
        if w < 2:
            continue  # the rank-2 presentation needs weight 2
        pres = present(n, 2, w)
        top = GradedSeries.gen(pres.spec, "c2", trunc=w)
        defect = ((old - GradedSeries.unit(pres.spec, 1, w)) * top
                  ).truncated(w)
        step = erjw.orient._conjugation_fixed_step(n, w)
        assert step.verdict == (reduce(defect, pres).is_zero
                                and in_ideal(defect, pres))


def test_scan_builds_one_page_per_level(monkeypatch):
    want = orientability_scan(3)
    built = []
    calls = []
    structure_at = StandardSummand.structure_at

    def build(n, r, *args, **kwargs):
        built.append(closed_form_page(n, r, *args, **kwargs))
        return built[-1]

    def count(self, *args):
        calls.append(self)
        return structure_at(self, *args)

    monkeypatch.setattr(erjw.orient, "closed_form_page", build)
    monkeypatch.setattr(StandardSummand, "structure_at", count)
    # 3 swap-doubling and 26 degree-gap steps on the levels 1..4
    assert orientability_scan(3) == want
    assert len(built) == 4
    assert sorted(min(p.r.bit_length() - 1, 4) for p in built) == [1, 2, 3, 4]
    # the steps on a level share its structure memo: no summand structure
    # is computed twice on one page
    memo = sum(len(seen) for p in built for seen in p._known.values())
    assert calls and len(calls) == memo


@pytest.mark.parametrize("message, ask", [
    ("k must be an int", lambda: obstruction_residue(2, 1.0, 0)),
    ("n must be an int", lambda: obstruction_residue(2.0, 1, 0)),
    ("r must be an int", lambda: obstruction_residue(2, 1, True)),
    ("span must be an int", lambda: orientability_scan(1, span=2.0)),
    ("caps must be an int", lambda: orientability_scan(1, caps=1.5)),
    ("weight must be an int", lambda: orientability_scan(1, weight=4.0)),
    ("n must be an int", lambda: orientability_scan(True)),
])
def test_non_int_orientation_inputs_are_refused(monkeypatch, message, ask):
    # obstruction_residue(2, 1.0, 0) used to return the float 3.0
    def unbuilt(*args, **kwargs):
        raise AssertionError("built for refused inputs")

    for name in ("GradingSpec", "present", "closed_form_page"):
        monkeypatch.setattr(erjw.orient, name, unbuilt)
    with pytest.raises(InputError, match=f"^{message}"):
        ask()

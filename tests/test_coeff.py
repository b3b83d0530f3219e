import time

import pytest

from erjw import cli, coeff
from erjw.bss import closed_form_page
from erjw.coeff import (filtration_profile, limit_page, named_generators,
                        relation_check, total_period)
from erjw.errors import InputError
from erjw.graded import GradedSeries, GradingSpec
from erjw.scalar2 import TwoLocal


def test_period_values():
    assert total_period(1) == 8
    assert total_period(2) == 48
    assert total_period(3) == 224
    # the period is the (negated) total degree of the invertible class
    for n in (1, 2, 3):
        spec = GradingSpec(n, alphabet="hat")
        v = GradedSeries.gen(spec, "vn", exp=2 ** (n + 1))
        [(key, _)] = v.items_sorted()
        assert spec.total_of(key) == -total_period(n)


def test_named_degree_table():
    t1 = named_generators(1)
    assert set(t1) == {"x"}
    assert t1["x"].total_degree == -1 and t1["x"].row == 1

    t2 = named_generators(2)
    degs = {name: cls.total_degree for name, cls in t2.items()}
    assert degs == {"x": -17, "alpha": 16, "alpha_1": -36,
                    "alpha_2": -24, "alpha_3": -12, "w": -8}
    assert t2["x"].row == 1
    assert all(cls.row == 0 for name, cls in t2.items() if name != "x")

    t3 = named_generators(3)
    degs = {name: cls.total_degree for name, cls in t3.items()}
    assert degs == {"x": -97, "A": -112, "B": -16, "C": 176}


def test_named_series_forms():
    t2 = named_generators(2)
    spec = t2["w"].series.spec
    assert t2["w"].series == (GradedSeries.gen(spec, "vh1")
                              * GradedSeries.gen(spec, "vn", exp=4))
    assert t2["alpha_2"].series == GradedSeries.gen(
        spec, "vn", exp=4, coeff=TwoLocal(2))
    assert t2["x"].series == GradedSeries.gen(spec, "y")


def test_relation_alpha_chain_n2():
    ok = relation_check(2, "alpha*alpha_2 = 2*w")
    assert ok.holds
    assert "I_2R" in ok.summand

    bad = relation_check(2, "alpha*alpha_2 = w")
    assert not bad.holds
    assert bad.witness

    assert relation_check(2, "2*x = 0").holds
    assert not relation_check(2, "x*alpha = 0").holds


def test_relation_chain_n3():
    for text in ("vh1*A = 2*B",
                 "vh2*A = 2*C",
                 "vh2*B = vh1*C",
                 "vh1*vh2*A = 2*vh2*B = 2*vh1*C"):
        report = relation_check(3, text)
        assert report.holds, (text, report.witness)
    assert "I_3R" in relation_check(3, "vh1*A = 2*B").summand
    assert not relation_check(3, "B = C").holds
    assert relation_check(3, "2*x = 0").holds


def test_relation_zero_rows():
    # the row-one class cubes to zero only once the filtration runs out
    assert relation_check(1, "x^3 = 0").holds
    assert not relation_check(1, "x^2 = 0").holds
    assert relation_check(2, "x^7 = 0").holds
    assert relation_check(2, "x^3*alpha = 0").holds
    assert not relation_check(2, "x^3 = 0").holds

    cross = relation_check(2, "x = x^2")
    assert not cross.holds
    assert "different blocks" in cross.witness


def test_relation_error_paths():
    with pytest.raises(InputError):
        relation_check(2, "alpha*beta = 0")
    with pytest.raises(InputError):
        relation_check(2, "vn = vn")
    with pytest.raises(InputError):
        relation_check(2, "alpha*w")
    with pytest.raises(InputError):
        relation_check(2, "alpha @ w = 0")
    with pytest.raises(InputError):
        relation_check(2, "x^-1 = 0")
    with pytest.raises(InputError):
        relation_check(2, "vh1^-2 = 0")
    with pytest.raises(InputError):
        relation_check(2, "2 x = 0")
    with pytest.raises(InputError, match="past the bound"):
        relation_check(2, "3^99999999*x = 0")


def test_relation_sides_use_the_expression_reader():
    # sums, parentheses, unary minus and p/q constants, as in bo --reduce
    assert relation_check(2, "x + x = 0").holds
    assert relation_check(2, "-(-x) = (x)").holds
    assert relation_check(2, "1/3*x = x").holds
    assert relation_check(2, "2**2*w = 4*w").holds
    assert relation_check(2, "alpha^0*x = x").holds


def test_relation_cost_does_not_grow_with_its_rows():
    # rows from 2^(n+1) - 1 on vanish on the limit chart; locating a side
    # there, or many sides, reads the one limit page relation_check builds
    start = time.perf_counter()
    report = relation_check(2, "*".join(["x^1000"] * 500) + " = 0")
    assert report.holds and "vanish" in report.witness
    assert relation_check(8, "=".join(["x"] * 1000)).holds
    assert time.perf_counter() - start < 2


def test_relation_reads_the_ideals_of_the_block():
    # I_i R holds 2 and vh_l for l < i; R/I_j kills them for l < j
    assert relation_check(2, "vh1*vn^4 = vh1*vn^4").summand == "I_2R[v^±8]v^4"
    assert relation_check(3, "vh2*vn^8 = vh2*vn^8").holds
    assert relation_check(2, "2*vn^2 = 2*vn^2").holds
    for n, side in ((2, "vn^4"), (2, "vh1*vn^2"), (3, "vn^8")):
        with pytest.raises(InputError, match="misses the ideal"):
            relation_check(n, f"{side} = {side}")
    assert relation_check(2, "x^3*vh1 = 0").holds
    assert relation_check(3, "x^7*vh2 = 0").holds
    assert not relation_check(3, "x^3*vh2 = 0").holds


def test_relation_accepts_periodicity_units():
    # negative powers of the invertible generator are fine
    assert relation_check(2, "alpha*alpha_2*vn^-8 = 2*w*vn^-8").holds


def test_filtration_profile_n1():
    prof = filtration_profile(1)
    assert prof == [
        (0, ("R[v^±4]", "I_1R[v^±4]v^2")),
        (1, ("R/I_1[v^±4]",)),
        (2, ("R/I_1[v^±4]",)),
    ]


def test_filtration_profile_n2():
    prof = filtration_profile(2)
    assert len(prof) == 7
    assert prof[0][1] == ("R[v^±8]", "I_1R[v^±4]v^2", "I_2R[v^±8]v^4")
    assert prof[1][1] == ("R/I_1[v^±8]", "I_2R/I_1[v^±8]v^4")
    assert prof[2][1] == prof[1][1]
    for m in (3, 4, 5, 6):
        assert prof[m][1] == ("R/I_2[v^±8]",)


def test_filtration_profile_n3():
    prof = filtration_profile(3)
    assert len(prof) == 15
    assert len(prof[0][1]) == 4
    for m in range(7, 15):
        assert prof[m][1] == ("R/I_3[v^±16]",)



def test_coeff_command_builds_the_limit_page_once(monkeypatch, capsys):
    argv = ["coeff", "--n", "2", "--relation", "alpha*alpha_2 = 2*w"]
    assert cli.main(argv) == 0
    want = capsys.readouterr()
    built = []

    def spy(*args, **kwargs):
        built.append(args)
        return closed_form_page(*args, **kwargs)

    monkeypatch.setattr(coeff, "closed_form_page", spy)
    monkeypatch.setattr(cli, "closed_form_page", spy)
    assert cli.main(argv) == 0
    assert capsys.readouterr() == want
    assert built == [(2, 8)]


def test_a_passed_limit_page_gives_the_same_answers():
    for n in (1, 2, 3):
        page = limit_page(n)
        assert filtration_profile(n, page) == filtration_profile(n)
        for text in ("2*x = 0", "x^3 = 0", "x = x^2"):
            assert relation_check(n, text, page) == relation_check(n, text)


@pytest.mark.parametrize("message, ask", [
    ("n must be an int", lambda: total_period(2.5)),
    ("n must be an int", lambda: total_period(True)),
    ("n must be at least 1", lambda: total_period(-1)),
    ("n must be an int", lambda: named_generators(2.0)),
    ("n must be an int", lambda: relation_check(2.0, "x = 0")),
])
def test_non_int_heights_are_refused(monkeypatch, message, ask):
    # total_period(2.5) and total_period(-1) used to return floats
    def unbuilt(*args, **kwargs):
        raise AssertionError("built for refused inputs")

    for name in ("GradingSpec", "limit_page"):
        monkeypatch.setattr(coeff, name, unbuilt)
    with pytest.raises(InputError, match=f"^{message}"):
        ask()

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time

import pytest

import erjw
from erjw import cli
from erjw.bss import Page, StandardSummand, TruncatedOracle, closed_form_page
from erjw.cli import (PAGE_COST_BOUND, SERIES_COST_BOUND, page_cost,
                      series_cost)
from erjw.errors import InputError
from erjw.scalar2 import ModuleStructure


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _admit(argv):
    """Admission of a request, as main checks it before dispatch."""
    args = cli._build_parser().parse_args([str(a) for a in argv])
    return cli._admit(args)


def test_page_text_happy_path(capsys):
    code, out, err = run(["page", "--n", "1", "--r", "8",
                          "--window", "-8..8"], capsys)
    assert code == 0 and err == ""
    assert out.startswith("page 8, n=1, engine=all, t in -8..8, rows 0..3")
    assert "all engines agree on the window" in out
    assert "m=  0 t=" in out


def test_page_empty_window_is_an_input_error(capsys):
    code, out, err = run(["page", "--n", "5", "--r", "3",
                          "--window", "0..0", "--caps", "0"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")
    assert "nothing to chart" in err


@pytest.mark.parametrize("engine", ["all", "closed", "step", "oracle"])
@pytest.mark.parametrize("n, r, caps, want", [(2, 4, 6, "Z^3"),
                                              (3, 8, 4, "Z^4")])
def test_page_charts_free_rank_above_one_at_the_origin(n, r, caps, want,
                                                       engine, capsys):
    # (0, 0) alone is "nothing to chart" only when it holds the lone unit;
    # here more degree-0 monomials survive (vh1^3 vn^8, vh1^6 vn^16 at n=2)
    code, out, err = run(["page", "--n", str(n), "--r", str(r), "--window",
                          "0..0", "--caps", str(caps), "--engine", engine],
                         capsys)
    assert (code, err) == (0, "")
    assert f"m=  0 t=    0: {want}\n" in out


def test_page_rejects_nonpositive_page_index(capsys):
    code, _, err = run(["page", "--n", "1", "--r", "0",
                        "--window", "-8..8"], capsys)
    assert code == 2
    assert "page index" in err


@pytest.mark.parametrize("engine", ["all", "closed", "step", "oracle"])
@pytest.mark.parametrize("n", [1, 2])
def test_page_refuses_negative_caps_for_every_engine(n, engine, capsys):
    code, out, err = run(["page", "--n", str(n), "--r", "2", "--window",
                          "-8..8", "--caps", "-1", "--engine", engine], capsys)
    assert (code, out, err) == (2, "", "error: caps must be non-negative\n")


def test_usage_errors_exit_two(capsys):
    # malformed windows and missing subcommands die in the parser
    for argv in (["page", "--n", "1", "--r", "2", "--window", "0..x"],
                 ["page", "--n", "1", "--r", "2", "--window", "8..-8"],
                 ["page", "--n", "1", "--r", "2", "--window", "17"],
                 []):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_window_flag_accepts_leading_dash(capsys):
    # "-8..8" looks like an option to argparse until main glues it on
    code, out, _ = run(["page", "--n", "1", "--r", "8", "--engine", "closed",
                        "--window", "-8..8"], capsys)
    assert code == 0
    assert "t in -8..8" in out


def test_json_envelope_shape(capsys):
    code, out, err = run(["coeff", "--n", "1", "--format", "json"], capsys)
    assert code == 0 and err == ""
    envelope = json.loads(out)
    assert set(envelope) == {"version", "command", "config", "result"}
    assert envelope["command"] == "coeff"
    assert envelope["config"]["n"] == 1
    assert envelope["config"]["relation"] is None
    assert envelope["config"]["format"] == "json"
    assert envelope["version"] == erjw.__version__
    assert envelope["result"]["period"] == 8


def test_cli_import_leaves_package_metadata_unloaded():
    # the envelope's version is erjw.__version__; nothing on the import
    # path reads installed-package metadata (email, zipfile, csv)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys; sys.path.insert(0, %r); import erjw.cli; "
            "sys.exit('importlib.metadata' in sys.modules)" % src)
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_json_config_echoes_window_as_list(capsys):
    code, out, _ = run(["page", "--n", "1", "--r", "8", "--window", "-8..8",
                        "--engine", "closed", "--format", "json"], capsys)
    assert code == 0
    envelope = json.loads(out)
    assert envelope["config"]["window"] == [-8, 8]
    assert envelope["config"]["engine"] == "closed"
    assert envelope["result"]["rows_shown"] == 3
    assert all(cell["m"] <= 3 for cell in envelope["result"]["cells"])


def _skewed_step(row):
    """A step engine whose page has `row` in place of the closed form's
    row 1."""
    def engine(n, r, m_max=None):
        page = closed_form_page(n, r, m_max)
        return Page(n, r, {**page.rows, 1: row}, page.m_max)
    return engine


def test_engine_disagreement_trips_invariant_exit(monkeypatch, capsys):
    monkeypatch.setattr(cli, "step_engine_page",
                        _skewed_step((StandardSummand(1, 0, 0, 2, 0),)))
    code, out, err = run(["page", "--n", "1", "--r", "8",
                          "--window", "-8..8"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("invariant failure: engines disagree")
    assert "closed=" in err and "step=" in err


def test_block_engines_are_compared_page_to_page(monkeypatch, capsys):
    # R/I_1[v^±4] written as its two v^±8 halves: the chart is the same
    # on every degree, the page is not, and the page is what is compared
    halves = (StandardSummand(1, 0, 1, 3, 0), StandardSummand(1, 0, 1, 3, 4))
    closed = closed_form_page(1, 8, m_max=3)
    assert closed.rows[1] == (StandardSummand(1, 0, 1, 2, 0),)
    engine = _skewed_step(halves)
    skewed, window = engine(1, 8, 3), range(-8, 9)
    assert skewed != closed and skewed.chart(window) == closed.chart(window)
    monkeypatch.setattr(cli, "step_engine_page", engine)
    code, out, err = run(["page", "--n", "1", "--r", "8",
                          "--window", "-8..8"], capsys)
    assert (code, out) == (1, "")
    assert err == ("invariant failure: engines disagree: row 1"
                   " closed=R/I_1[v^±4] step=R/I_1[v^±8] + R/I_1[v^±8]v^4\n")


@pytest.mark.parametrize("engine", ["all", "closed", "step", "oracle"])
def test_page_charts_one_page_per_request(engine, monkeypatch, capsys):
    # the stepped page is compared with the closed form as a page, so no
    # engine draws a second block chart; the oracle alone draws none.  The
    # oracle runs every page, for its checks and flags, and charts only
    # the page the request reads, after the last page ran
    charts, oracle_charts = [], []
    chart, oracle_chart = Page.chart, TruncatedOracle._chart

    def counting(page, t_values, caps=6):
        charts.append(page.r)
        return chart(page, t_values, caps)

    def counting_oracle(oracle, Z, B):
        oracle_charts.append(oracle.level)
        return oracle_chart(oracle, Z, B)

    monkeypatch.setattr(Page, "chart", counting)
    monkeypatch.setattr(TruncatedOracle, "_chart", counting_oracle)
    code, _, _ = run(["page", "--n", "2", "--r", "3", "--window=-16..16",
                      "--engine", engine], capsys)
    assert code == 0 and charts == ([] if engine == "oracle" else [3])
    assert oracle_charts == ([3] if engine in ("all", "oracle") else [])


def test_svg_bytes_are_stable(capsys):
    argv = ["page", "--n", "1", "--r", "3", "--window", "-8..8",
            "--format", "svg", "--engine", "closed"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second
    assert first.startswith("<svg")
    assert "page 3, n=1" in first
    # a permanent-cycle chart on an acting page draws its arrows
    assert "marker-end" in first
    assert "<circle" in first and "<title>" in first


def test_svg_skips_arrows_off_acting_pages(capsys):
    _, out, _ = run(["page", "--n", "1", "--r", "2", "--window", "-8..8",
                     "--format", "svg", "--engine", "closed"], capsys)
    assert "marker-end" not in out.split("</defs>", 1)[1]


def test_closed_pipe_ends_quietly_with_exit_zero():
    """A reader that closes the pipe early (`erjw ... | head -1`) ends the
    run quietly.  The pipe's read end is closed before the run starts, so
    the write always fails."""
    r, w = os.pipe()
    os.close(r)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "erjw.cli", "page", "--n", "1", "--r", "8",
             "--window=-16..16", "--format", "svg"],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_page_oracle_reports_flags(capsys):
    code, out, _ = run(["page", "--n", "1", "--r", "4", "--window", "-8..8",
                        "--engine", "oracle"], capsys)
    assert code == 0
    assert "oracle flagged cells:" in out


def test_page_oracle_decides_emptiness_from_its_own_chart(capsys):
    # the block charts of this window are empty, while the oracle's band
    # chart holds cells that its flags then drop: "nothing to chart" is
    # read from the requested engine's chart before flags are dropped
    argv = ["page", "--n", "2", "--r", "4", "--window=98..99", "--caps", "0",
            "--engine"]
    for engine in ("all", "closed", "step"):
        code, out, err = run(argv + [engine], capsys)
        assert (code, out) == (2, "") and "nothing to chart" in err
    code, out, err = run(argv + ["oracle"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["  oracle flagged cells: 6"]
    # as the oracle already charted a window whose cells are all flagged
    code, out, _ = run(["page", "--n", "1", "--r", "1", "--window=5..5",
                        "--caps", "0", "--engine", "oracle"], capsys)
    assert code == 0 and out.splitlines()[1:] == ["  oracle flagged cells: 4"]


def test_page_engine_disagreement(capsys, monkeypatch):
    # a skewed oracle cell fails the three-engine check unless flagged
    cell = (0, 0)

    def skewed_oracle(flags):
        def engine(n, r, window, caps):
            page = closed_form_page(n, r, m_max=2 ** (n + 1) - 1)
            chart = page.chart(range(window[0], window[1] + 1), caps)
            chart[cell] = ModuleStructure(7, ())
            return chart, flags
        return engine

    argv = ["page", "--n", "1", "--r", "4", "--window", "-8..8"]
    monkeypatch.setattr(cli, "_oracle_chart", skewed_oracle(set()))
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert "engines disagree" in err and "oracle=Z^7" in err
    monkeypatch.setattr(cli, "_oracle_chart", skewed_oracle({cell}))
    code, out, _ = run(argv, capsys)
    assert code == 0 and "all engines agree on the window" in out


def test_page_engines_build_only_the_shown_band(capsys, monkeypatch):
    # block pages are built through row 2^(n+1) - 1 and no further; the
    # oracle runs past it, to flag truncation, but returns band cells only
    built = []

    def recording(build):
        def engine(n, r, m_max=None):
            built.append((build.__name__, n, m_max))
            return build(n, r, m_max)
        return engine

    for name in ("closed_form_page", "step_engine_page"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    for n in (1, 2):
        code, _, _ = run(["page", "--n", str(n), "--r", "4",
                          "--window=-16..16", "--caps", "3"], capsys)
        assert code == 0
        assert {(b, m) for b, k, m in built if k == n} == {
            ("closed_form_page", 2 ** (n + 1) - 1),
            ("step_engine_page", 2 ** (n + 1) - 1)}
        chart, flags = cli._oracle_chart(n, 4, (-16, 16), 3)
        assert chart and max(m for m, _ in chart) <= 2 ** (n + 1) - 1
        assert any(m > 2 ** (n + 1) - 1 for m, _ in flags)


def test_bo_reduce_normal_form(capsys):
    code, out, _ = run(["bo", "--n", "1", "--q", "2", "--weight", "4",
                        "--reduce", "2*c1 + c1^2"], capsys)
    assert code == 0
    assert "reduce(2*c1 + c1^2) =" in out
    assert "r1 = " in out and "r2 = " in out


def test_bo_expression_guardrails(capsys):
    base = ["bo", "--n", "1", "--q", "2", "--weight", "4", "--reduce"]
    for expr in ("c9", "c1/c2", "c1**c2", "__import__('os')", "(2*"):
        code, _, err = run(base + [expr], capsys)
        assert code == 2, expr
        assert err.startswith("error:")


# argparse takes a value with a space for a value anyway; without one, a
# leading "-" made it an option before main glued it to its flag
@pytest.mark.parametrize("expr", ["-2*c1", "-c1^2"])
def test_bo_reduce_accepts_leading_minus(expr, capsys):
    code, out, err = run(["bo", "--n", "2", "--q", "1", "--weight", "6",
                          "--reduce", expr], capsys)
    assert code == 0 and err == ""
    assert f"reduce({expr}) = " in out


def test_bo_q_defaults_to_weight(capsys):
    code, out, _ = run(["bo", "--n", "1", "--weight", "3",
                        "--format", "json"], capsys)
    assert code == 0
    envelope = json.loads(out)
    assert envelope["config"]["q"] is None
    assert envelope["result"]["q"] == 3
    assert len(envelope["result"]["generator_degrees"]) == 3


@pytest.mark.parametrize("argv", [
    ["bo", "--n", "1", "--weight", "2"],
    ["bo", "--n", "2", "--weight", "4"],
    ["bo", "--n", "2", "--weight", "4", "--format", "json"],
])
def test_bo_default_q_with_a_vanishing_relation(argv, capsys):
    # at q = weight the last (even) relation is zero and has no head
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    assert "Traceback" not in out
    if "json" in argv:
        result = json.loads(out)["result"]
        assert result["relations"][-1] == "0"
        assert result["heads"][-1] is None
        assert len(result["heads"]) == len(result["relations"])
    else:
        assert out.rstrip().endswith(" = 0")


def test_coeff_relation_line(capsys):
    code, out, _ = run(["coeff", "--n", "2", "--relation",
                        "alpha*alpha_2 = 2*w"], capsys)
    assert code == 0
    assert "'alpha*alpha_2 = 2*w' holds" in out

    code, _, err = run(["coeff", "--n", "2", "--relation", "alpha*beta = 0"],
                       capsys)
    assert code == 2
    assert err.startswith("error:")


def test_coeff_relation_accepts_leading_minus(capsys):
    code, out, err = run(["coeff", "--n", "2", "--relation", "-2*w=-2*w"],
                         capsys)
    assert code == 0 and err == ""
    assert "'-2*w=-2*w' holds" in out


def test_fgl_text_sections(capsys):
    code, out, _ = run(["fgl", "--n", "1", "--terms", "4"], capsys)
    assert code == 0
    assert "[-1](u):" in out and "[2](u):" in out
    assert "u^1: 2" in out  # doubling starts at 2u


# First 16 hex digits of the sha256 of stdout, recorded when [2](u) still
# came from the two-variable law table.  The JSON envelope's "version" value
# is blanked to "*" first, so a version bump does not move the digest.
FGL_GOLDEN = {
    (1, "text"): "304bb90eafcc731f",
    (1, "json"): "3eb44be03e9c3b72",
    (2, "text"): "c0512a12cf9ba1af",
    (2, "json"): "0dd65a1f8092b7db",
    (3, "text"): "6dc7317089531904",
    (3, "json"): "556b65442230b315",
}


@pytest.mark.parametrize("n, fmt", sorted(FGL_GOLDEN))
def test_fgl_golden_output(n, fmt, capsys):
    code, out, err = run(["fgl", "--n", str(n), "--format", fmt], capsys)
    assert code == 0 and err == ""
    out = out.replace(f'"version": {json.dumps(cli.__version__)}',
                      '"version": "*"')
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == FGL_GOLDEN[n, fmt]


# Digests in the style of FGL_GOLDEN for the page charts (the README window
# at caps 4, all three engines), the orientation scan and a class-ring
# normal form.  They pin the capped degree bases and the lattice rows.
CLI_GOLDEN = {
    ("page", "--n", "1", "--r", "8", "--window=-48..48", "--caps", "4",
     "--format", "text"): "d9526df002d633b7",
    ("page", "--n", "1", "--r", "8", "--window=-48..48", "--caps", "4",
     "--format", "json"): "bb5431ee0b477fa6",
    ("page", "--n", "1", "--r", "8", "--window=-48..48", "--caps", "4",
     "--format", "svg"): "23a1c53fca1d0bab",
    ("page", "--n", "2", "--r", "8", "--window=-48..48", "--caps", "4",
     "--format", "text"): "92aa1c806d7ec76a",
    ("page", "--n", "2", "--r", "8", "--window=-48..48", "--caps", "4",
     "--format", "json"): "e5913dc775327803",
    ("page", "--n", "2", "--r", "8", "--window=-48..48", "--caps", "4",
     "--format", "svg"): "27c8d51a767925f2",
    ("page", "--n", "3", "--r", "16", "--window=-48..48", "--caps", "4",
     "--format", "text"): "a0323411b7d7d61a",
    ("page", "--n", "3", "--r", "16", "--window=-48..48", "--caps", "4",
     "--format", "json"): "8bda92d987e31c5c",
    ("page", "--n", "3", "--r", "16", "--window=-48..48", "--caps", "4",
     "--format", "svg"): "5fba06a4ae0143a4",
    # an early page, each engine on its own; text digests name the engine
    ("page", "--n", "2", "--r", "3", "--window=-48..48", "--caps", "4",
     "--engine", "closed", "--format", "text"): "f686b1149d2dc92d",
    ("page", "--n", "2", "--r", "3", "--window=-48..48", "--caps", "4",
     "--engine", "step", "--format", "text"): "581e5486a8e3f47b",
    ("page", "--n", "2", "--r", "3", "--window=-48..48", "--caps", "4",
     "--engine", "oracle", "--format", "text"): "345e74fb70e83e4d",
    ("page", "--n", "2", "--r", "3", "--window=-48..48", "--caps", "4",
     "--engine", "all", "--format", "text"): "1eb1280f6d68abce",
    ("page", "--n", "3", "--r", "2", "--window=-24..24", "--caps", "3",
     "--format", "json"): "441a2236738bfbb9",
    ("orient", "--n", "2", "--format", "text"): "3a71de2b7548c8d8",
    ("orient", "--n", "2", "--format", "json"): "326ae169b0b0df4f",
    ("bo", "--n", "2", "--q", "2", "--weight", "4", "--reduce=2*c1",
     "--format", "text"): "11dc93dcb6ae0c56",
    ("bo", "--n", "2", "--q", "2", "--weight", "4", "--reduce=2*c1",
     "--format", "json"): "e8730d2c14520ad2",
}


@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN))
def test_cli_golden_output(argv, capsys):
    code, out, err = run(list(argv), capsys)
    assert code == 0 and err == ""
    out = out.replace(f'"version": {json.dumps(cli.__version__)}',
                      '"version": "*"')
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == CLI_GOLDEN[argv]


@pytest.mark.parametrize("argv, flag", [
    (["fgl", "--n", "4"], "--n"),
    (["fgl", "--n", "3", "--precision", "48"], "--precision"),
    (["fgl", "--n", "1", "--precision", "100000000000"], "--precision"),
    (["fgl", "--n", "40", "--format", "json"], "--n"),
])
def test_fgl_refuses_costly_requests_up_front(argv, flag, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"lower {flag}" in err and str(SERIES_COST_BOUND) in err


def test_fgl_cost_bound_admits_documented_inputs():
    # README and test inputs (n = 1, 2, 3 at their default precisions)
    # and the benchmark's fgl jobs all sit under the bound
    for n, precision in ((1, 8), (2, 16), (3, 32), (3, 20), (3, 12)):
        assert series_cost(n, precision) <= SERIES_COST_BOUND


@pytest.mark.parametrize("argv", [
    ["chern", "--n", "3", "--q", "1", "--weight", "60"],
    ["orient", "--n", "3", "--weight", "60"],
    ["orient", "--n", "1", "--weight", "1000", "--format", "json"],
])
def test_weight_bound_refuses_costly_laws_up_front(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "lower --weight" in err and str(SERIES_COST_BOUND) in err


def test_weight_bound_admits_documented_inputs():
    # chern builds the law at precision weight + 1 and orient at weight
    # + 3: the README (chern --n 2 --weight 6, orient at the default weight
    # 4), the tests and the benchmark's classring jobs (n = 1..3, weight
    # 4..6)
    for n in (1, 2, 3):
        for weight in (4, 5, 6):
            for precision in (weight + 1, weight + 3):
                assert series_cost(n, precision) <= SERIES_COST_BOUND


@pytest.mark.parametrize("argv, fragment", [
    (["coeff", "--n", "2", "--relation", "3^99999999*x = 0"],
     "past the bound 1000"),
    (["bo", "--n", "1", "--q", "2", "--weight", "4", "--reduce",
      "c1^99999999"], "past the bound 1000"),
    (["page", "--n", "5", "--r", "1", "--window", "0..4"],
     f"past the bound of {PAGE_COST_BOUND}; lower --caps"),
    (["page", "--n", "1", "--r", "8", "--window", "-5000..5000"],
     "narrow --window"),
    (["coeff", "--n", "20"], f"past the bound of {cli.COEFF_ROW_BOUND}"),
    (["coeff", "--n", "16", "--relation", "x = x"], "lower --n"),
    # two 3000-digit literals multiply past the 4300 printable digits
    (["bo", "--n", "1", "--q", "2", "--weight", "4", "--reduce",
      f"{'9' * 3000}*{'9' * 3000}*c1"], "past 1000 bits"),
    (["coeff", "--n", "2", "--relation", f"0x{'f' * 3000}*x = 0"],
     "past 1000 bits"),
    # a hex literal is read past the 4300 decimal digits it would print as
    (["bo", "--n", "1", "--q", "2", "--weight", "4", "--reduce",
      f"0x{'f' * 4000}"], "4300 digits"),
    (["bo", "--n", "1", "--q", "8", "--weight", "8"],
     f"past the bound of {cli.BO_COST_BOUND}; lower --q or --weight"),
    (["bo", "--n", "2", "--q", "6", "--weight", "12"],
     "lower --q or --weight"),
    # chern expands the same classes as bo, under a bound of its own
    (["chern", "--n", "1", "--q", "8", "--weight", "8"],
     f"past the bound of {cli.CHERN_COST_BOUND}; lower --q or --weight"),
    (["chern", "--n", "1", "--q", "2", "--weight", "100"],
     "lower --q or --weight"),
    (["chern", "--n", "1", "--q", "200", "--weight", "2"],
     "lower --q or --weight"),
    (["chern", "--n", "1", "--q", "2", "--weight", "50"],
     "lower --q or --weight"),
    # the orientation scan's degree-gap steps and its membership lattice
    (["orient", "--n", "1", "--span", "100000"],
     f"past the bound of {cli.ORIENT_SCAN_BOUND}; lower --span"),
    (["orient", "--n", "1", "--span", "1000000"], "lower --span"),
    (["orient", "--n", "3", "--caps", "300"], "--caps"),
    (["orient", "--n", "1", "--span", str(10 ** 999)],
     "more than 10^18 work units"),
    (["orient", "--n", "2", "--weight", "12", "--span", "0"],
     f"past the bound of {cli.ORIENT_WEIGHT_BOUND}; lower --weight"),
    (["orient", "--n", "1", "--weight", "40"], "lower --weight"),
    (["orient", "--n", "2", "--span", "-1"], "must be non-negative"),
    (["orient", "--n", "2", "--caps", "-1"], "must be non-negative"),
    # heights past the bound, and costs past the printable digits
    (["fgl", "--n", "5000"], "past the height bound of 64; lower --n"),
    (["bo", "--n", "10000", "--q", "1", "--weight", "2"], "height bound"),
    (["page", "--n", "32", "--r", "1", "--window", "0..0", "--caps",
      str(10 ** 999)], "more than 10^18 work units"),
    (["bo", "--n", "100000", "--q", "1", "--weight", "2"], "height bound"),
    (["chern", "--n", "100000", "--q", "1", "--weight", "2"],
     "height bound"),
    (["orient", "--n", "100000"], "height bound"),
    (["fgl", "--n", "20000", "--precision", "4"], "height bound"),
])
def test_unbounded_requests_exit_two_at_once(argv, fragment, capsys):
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert fragment in err


def test_bo_bound_admits_documented_inputs():
    # README (n = 1, q = 2, weight 4), the tests (q up to the weight, at
    # weight 6 or less), the benchmark's classring jobs (n = 1..3, q = 1..2,
    # weight 4..6) and the fuzz grid (n, q, weight at most 4)
    for n in (1, 2, 3):
        for weight in range(1, 7):
            for q in range(1, weight + 1):
                _admit(["bo", "--n", n, "--q", q, "--weight", weight])
    # the edges: q = 3 admits weight 14 only, weight 7 admits q = 5 only
    for q, weight, admitted in ((3, 14, True), (3, 15, False),
                                (5, 7, True), (6, 7, False)):
        cost = math.comb(weight + q, q) * weight
        assert (cost <= cli.BO_COST_BOUND) is admitted
        if not admitted:
            with pytest.raises(InputError, match="lower --q or --weight"):
                _admit(["bo", "--n", 1, "--q", q, "--weight", weight])


def test_coeff_row_bound_admits_documented_inputs():
    # README, test and benchmark coeff inputs use n = 1..3; the bound
    # admits up to n = 15
    for n in (1, 2, 3, 15):
        assert _admit(["coeff", "--n", n]) is None
    with pytest.raises(InputError, match="lower --n"):
        _admit(["coeff", "--n", 16])


def test_page_cost_bound_admits_documented_inputs():
    # README (n = 1 at the default caps 6), the tests (the goldens up to
    # n = 3 at caps 4; n = 5 over one degree at caps 0) and the
    # benchmark's pages jobs (n = 3, caps 4, 97 degrees; n = 2, caps 6,
    # 193 degrees), with their windows shifted by 16
    for n, window, caps in ((1, (-48, 48), 6), (1, (-16, 16), 6),
                            (1, (-8, 8), 6), (2, (-48, 48), 4),
                            (3, (-48, 48), 4), (5, (0, 0), 0),
                            (3, (-32, 64), 4), (2, (-80, 112), 6)):
        assert page_cost(n, window, caps) <= PAGE_COST_BOUND
    assert page_cost(5, (0, 4), 6) > PAGE_COST_BOUND
    # pricing a huge request is itself cheap
    assert page_cost(10 ** 9, (0, 0), 10 ** 9) > PAGE_COST_BOUND


# For every cost model, the last request it admits and the first it
# refuses: a bound or a unit moved either way flips one of the pair.
# orient's law model (precision weight + 3) is priced like chern's (weight
# + 1); its membership model refuses first.
@pytest.mark.parametrize("admitted, refused, fragment", [
    (["fgl", "--n", 64, "--precision", 4],
     ["fgl", "--n", 65, "--precision", 4],
     f"height bound of {cli.HEIGHT_BOUND}; lower --n"),
    (["fgl", "--n", 3, "--precision", 38],
     ["fgl", "--n", 3, "--precision", 39],
     f"bound of {SERIES_COST_BOUND}; lower --precision"),
    (["fgl", "--n", 1, "--precision", 118],
     ["fgl", "--n", 1, "--precision", 119],
     f"bound of {SERIES_COST_BOUND}; lower --precision"),
    (["fgl", "--n", 3], ["fgl", "--n", 4],
     f"bound of {SERIES_COST_BOUND}; lower --n (or pass"),
    (["chern", "--n", 3, "--q", 1, "--weight", 37],
     ["chern", "--n", 3, "--q", 1, "--weight", 38],
     f"bound of {SERIES_COST_BOUND}; lower --weight"),
    (["bo", "--n", 2, "--q", 1, "--weight", 48],
     ["bo", "--n", 2, "--q", 1, "--weight", 50],
     f"bound of {SERIES_COST_BOUND}; lower --weight"),
    (["chern", "--n", 1, "--q", 2, "--weight", 33],
     ["chern", "--n", 1, "--q", 2, "--weight", 34],
     f"bound of {cli.CHERN_COST_BOUND}; lower --q or --weight"),
    (["bo", "--n", 1, "--q", 3, "--weight", 14],
     ["bo", "--n", 1, "--q", 3, "--weight", 15],
     f"bound of {cli.BO_COST_BOUND}; lower --q or --weight"),
    (["bo", "--n", 1, "--q", 1, "--weight", 109],
     ["bo", "--n", 1, "--q", 1, "--weight", 110],
     f"bound of {cli.BO_COST_BOUND}; lower --q or --weight"),
    (["page", "--n", 4, "--r", 1, "--window", "0..7", "--caps", 6],
     ["page", "--n", 4, "--r", 1, "--window", "0..8", "--caps", 6],
     f"bound of {PAGE_COST_BOUND}; lower --caps or --n, or narrow --window"),
    (["page", "--n", 1, "--r", 1, "--window", "0..2468"],
     ["page", "--n", 1, "--r", 1, "--window", "0..2469"],
     f"bound of {PAGE_COST_BOUND}; lower --caps or --n, or narrow --window"),
    (["coeff", "--n", 15], ["coeff", "--n", 16],
     f"bound of {cli.COEFF_ROW_BOUND}; lower --n"),
    *[(["orient", "--n", n, "--weight", w, "--span", 0, "--caps", 0],
       ["orient", "--n", n, "--weight", w + 1, "--span", 0, "--caps", 0],
       f"bound of {cli.ORIENT_WEIGHT_BOUND}; lower --weight")
      for n, w in ((1, 17), (2, 10), (3, 8), (4, 6), (5, 3), (6, 2), (7, 1))],
    (["orient", "--n", 1, "--span", 24687],
     ["orient", "--n", 1, "--span", 24688],
     f"bound of {cli.ORIENT_SCAN_BOUND}; lower --span, --caps or --n"),
    (["orient", "--n", 3, "--caps", 83], ["orient", "--n", 3, "--caps", 84],
     f"bound of {cli.ORIENT_SCAN_BOUND}; lower --span, --caps or --n"),
    (["orient", "--n", 7, "--weight", 1, "--span", 0, "--caps", 0],
     ["orient", "--n", 8, "--weight", 0, "--span", 0, "--caps", 0],
     f"bound of {cli.ORIENT_SCAN_BOUND}; lower --span, --caps or --n"),
])
def test_admission_edges(admitted, refused, fragment):
    assert _admit(admitted) is None
    with pytest.raises(InputError, match=re.escape(fragment)):
        _admit(refused)


@pytest.mark.parametrize("argv", [
    ["chern", "--n", 2, "--q", 2, "--weight", 5],
    ["chern", "--n", 3, "--q", 1, "--weight", 1],
    ["orient", "--n", 1, "--weight", 4],
    ["orient", "--n", 2, "--weight", 6, "--span", 1],
])
def test_law_models_price_the_laws_that_are_built(argv, monkeypatch, capsys):
    # chern builds present's law (weight + 1), orient the law its
    # conjugation ratio reads (weight + 3, deeper than its presentation's);
    # the admission model prices the deepest law built
    args = cli._build_parser().parse_args([str(a) for a in argv])
    priced = [what for what, *_ in cli._models(args) if "precision" in what]
    asked = []
    of = erjw.fgl.GroupLaw.of

    def spy(n, precision=None):
        asked.append((precision, n))
        return of(n, precision)

    monkeypatch.setattr(erjw.fgl.GroupLaw, "of", spy)
    code, _, _ = run([str(a) for a in argv], capsys)
    assert code == 0
    precision, n = max(asked)
    assert priced == [f"n={n} at precision {precision}"]


@pytest.mark.parametrize("argv, message", [
    (["fgl", "--n", "1", "--precision", "1"], "precision below 2"),
    (["fgl", "--n", "0"], "n must be at least 1"),
    (["fgl", "--n", "2", "--terms", "-1"], "terms must be non-negative"),
])
def test_fgl_bad_arguments_exit_two(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("weight", range(-1, -6, -1))
@pytest.mark.parametrize("argv, message", [
    (["chern", "--n", "1", "--q", "1"], "negative weight bound"),
    (["orient", "--n", "1"], "weight bound must be positive"),
])
def test_negative_weight_is_refused_by_name(argv, message, weight, capsys):
    # the weight is refused before a law at precision weight + 1 is built,
    # whose own refusal would name a --precision flag never passed
    code, out, err = run(argv + ["--weight", str(weight)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["fgl"],
    ["chern", "--q", "2"],
    ["page", "--r", "1", "--window", "0..4"],
    ["coeff"],
    ["bo", "--weight", "4"],
    ["orient"],
])
def test_height_zero_is_refused_alike(argv, capsys):
    code, out, err = run(argv + ["--n", "0"], capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "n must be at least 1" in err


@pytest.mark.parametrize("argv", [
    ["fgl", "--n", "2", "--terms", "3"],
    ["chern", "--n", "2", "--q", "2", "--weight", "5", "--format", "json"],
    ["bo", "--n", "1", "--q", "2", "--weight", "4", "--reduce", "-2*c1"],
    ["bo", "--n", "2", "--weight", "4", "--format", "json"],
])
def test_repeated_main_prints_the_same_bytes(argv, capsys):
    # one parser serves every main call in a process: neither a usage
    # error nor another request in between may leave anything behind
    first = run(argv, capsys)
    assert first[0] == 0 and first[2] == ""
    with pytest.raises(SystemExit):
        cli.main([argv[0], "--n", "1", "--bogus"])
    capsys.readouterr()
    assert run(argv, capsys) == first
    run(["bo", "--n", "3", "--q", "1", "--weight", "5", "--format", "json"],
        capsys)
    assert run(argv, capsys) == first
    assert cli._build_parser() is cli._build_parser()


def test_chern_text_lists_conjugates(capsys):
    code, out, _ = run(["chern", "--n", "1", "--q", "2", "--weight", "4"],
                       capsys)
    assert code == 0
    assert "c1* =" in out and "c2* =" in out
    assert "mod-2 defect at weights" in out


def test_orient_text_certificate(capsys):
    code, out, _ = run(["orient", "--n", "1"], capsys)
    assert code == 0
    assert "\ncertified" in out
    assert "conjugation-fixed: ok" in out
    assert "degree-gap: ok" in out
    assert "external:" in out and "note:" in out


def test_orient_json_round_trip(capsys):
    code, out, _ = run(["orient", "--n", "2", "--format", "json"], capsys)
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"]["certified"] is True
    assert len(envelope["result"]["steps"]) == 14
    methods = {s["method"] for s in envelope["result"]["steps"]}
    assert methods == {"conjugation-fixed", "swap-doubling", "degree-gap"}

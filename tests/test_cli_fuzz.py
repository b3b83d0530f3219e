"""In-process fuzzing of the erjw command line over small argument grids.

Every run of every subcommand must exit 0, 1 or 2 without a traceback, and
exit 1 must come with an `invariant failure:` line.  `--reduce` and
`--relation` values are drawn from a small alphabet of the expression
syntax, so most are malformed on purpose, or are *-chains of long
literals.
"""

import contextlib
import io

from hypothesis import example, given, settings, strategies as st

from erjw import cli

_TOKENS = ("c1", "c2", "x", "alpha", "w", "vn", "2", "3",
           "+", "-", "*", "/", "^", "(", ")", "=", " ")

# *-chains of long literals: two 3000-digit factors, or the hex literal,
# print past 4300 digits
_LONG = ("9" * 3000, "0x" + "f" * 4000, "c1")

expressions = (st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join)
               | st.lists(st.sampled_from(_LONG), min_size=1,
                          max_size=3).map("*".join))


def _flags(**draws):
    """One strategy for a list of flag/value pairs; None leaves a flag out."""
    def pairs(values):
        return [a for flag, v in zip(draws, values) if v is not None
                for a in (f"--{flag}", str(v))]
    return st.tuples(*draws.values()).map(pairs)


def _maybe(strategy):
    return st.none() | strategy


_n = st.integers(0, 2)
_small = st.integers(-1, 4)
_windows = st.tuples(st.integers(-8, 8), st.integers(0, 8)).map(
    lambda p: f"{p[0]}..{p[0] + p[1]}")
_formats = st.sampled_from(("text", "json"))

argvs = st.one_of(
    _flags(n=_n, precision=_maybe(st.integers(-1, 10)),
           terms=st.integers(-1, 8), format=_formats).map(
        lambda a: ["fgl"] + a),
    _flags(n=_n, q=_small, weight=_small, format=_formats).map(
        lambda a: ["chern"] + a),
    _flags(n=_n, r=st.integers(-1, 9), window=_windows, caps=_small,
           engine=st.sampled_from(("all", "closed", "step", "oracle")),
           format=st.sampled_from(("text", "json", "svg"))).map(
        lambda a: ["page"] + a),
    _flags(n=st.integers(-1, 3), relation=_maybe(expressions),
           format=_formats).map(lambda a: ["coeff"] + a),
    _flags(n=_n, q=_maybe(_small), weight=_small,
           reduce=_maybe(expressions), format=_formats).map(
        lambda a: ["bo"] + a),
    _flags(n=_n, weight=_small, span=st.integers(-1, 8), caps=_small,
           format=_formats).map(lambda a: ["orient"] + a),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argvs)
@example(["bo", "--n", "1", "--q", "2", "--weight", "4",
          "--reduce", "*".join(_LONG)])
@example(["coeff", "--n", "2", "--relation", f"{_LONG[0]}*x = {_LONG[1]}"])
# the edges of the bo cost bound: admitted just below, refused just above
@example(["bo", "--n", "1", "--q", "3", "--weight", "14", "--reduce", "c3^4"])
@example(["bo", "--n", "1", "--q", "3", "--weight", "15"])
@example(["bo", "--n", "1", "--q", "5", "--weight", "7", "--reduce", "2*c5"])
@example(["bo", "--n", "1", "--q", "6", "--weight", "7"])
# the edges of the chern and orient models, and negative span and caps
@example(["chern", "--n", "1", "--q", "2", "--weight", "27"])
@example(["chern", "--n", "1", "--q", "2", "--weight", "28"])
@example(["orient", "--n", "6", "--weight", "2", "--span", "0", "--caps", "0"])
@example(["orient", "--n", "6", "--weight", "3", "--span", "0", "--caps", "0"])
@example(["orient", "--n", "1", "--span", "24687", "--format", "json"])
@example(["orient", "--n", "1", "--span", "24688"])
@example(["orient", "--n", "2", "--span", "-1"])
@example(["orient", "--n", "2", "--caps", "-1", "--format", "json"])
@example(["page", "--n", "1", "--r", "2", "--window", "0..4", "--caps", "-1",
          "--engine", "closed"])
def test_every_run_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    if code == 1:
        assert err.getvalue().startswith("invariant failure:"), argv

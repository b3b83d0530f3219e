"""Which src functions the program's entry points reach, against an allowlist.

Runs, under one `sys.setprofile` hook that records every Python function
entered in src/erjw:

  * the README's commands (its command block and its `$ erjw` examples)
    through `erjw.cli.main`, each with `--format text` and `--format
    json`, and `page` also with `--format svg`;
  * the seed-0 job list of each of the four benchmark workloads, run and
    checked by the benchmark's own worker (`bench/jobs.py`,
    `bench/worker.py`);
  * `tests/test_acceptance.py`, in this process.

Every `def` in src/erjw is named module.qualname (nested defs as
outer.inner).  The run fails when a function that never ran is not in
ALLOWED, when a function in ALLOWED ran after all (it leaves the list),
or when ALLOWED names a function that no longer exists.  Each entry
gives its reason, which starts with one of REASONS.

    python3 tools/reach.py          # from the repository root
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import shlex
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from rules import scoped  # noqa: E402  the scope walker of the design rules

REASONS = ("tracer", "reference", "api")
# tracer:    bench/tracer.py wraps it by name, so it stays until the bench
#            retires that metric (ROADMAP item 8);
# reference: tests check src against it as an independent route, or it
#            sits under one;
# api:       public API whose behaviour tests pin.
_BASE_CHANGE = "api: the flat base change, pinned by tests/test_bss.py"
_LOCAL = "api: TwoLocal arithmetic, pinned by tests/test_scalar2.py"
_MATRIX = "api: LocalMatrix entries, pinned by tests/test_scalar2.py"
_RECORD = "api: the records' repr and immutability, tests/test_records.py"
ALLOWED = {
    "bss.FreeModule.__init__": _BASE_CHANGE,
    "bss.PresentedModule.__init__": _BASE_CHANGE,
    "bss.PresentedModule.twisted_structure_at": _BASE_CHANGE,
    "bss.TensoredPage.__init__": _BASE_CHANGE,
    "bss.TensoredPage.chart": _BASE_CHANGE,
    "bss.TensoredPage.chart_structure": _BASE_CHANGE,
    "bss.TensoredPage.flags": _BASE_CHANGE,
    "bss.flat_base_change": _BASE_CHANGE,
    "cli._blocks": "api: the `page` engines-disagree message, pinned by"
                   " tests/test_cli.py",
    "errors.Record.__delattr__": _RECORD,
    "errors.Record.__init_subclass__":
        "api: runs as each record class is defined, at import, before the"
        " trace starts; tests/test_records.py",
    "errors.Record.__repr__": _RECORD,
    "errors.Record.__setattr__": _RECORD,
    "fgl.UniSeries.__neg__": "api: series arithmetic, tests/test_fgl.py",
    "fgl.UniSeries.__pow__": "api: series arithmetic, tests/test_fgl.py",
    "fgl.UniSeries.__repr__": "api: series repr",
    "fgl.UniSeries.compose": "tracer: fgl.compose",
    "fgl._LawBase._k_cache": "reference: under _LawBase.k_series",
    "fgl._LawBase.k_series": "reference: the apply2 route of [k](u)",
    "fgl._LawBase.law_table": "tracer: fgl.law_table",
    "graded.GradedSeries.__repr__": "api: series repr",
    "graded.GradedSeries.__rsub__":
        "api: series arithmetic, tests/test_graded.py",
    "graded.GradedSeries.monomial_inverse":
        "api: tests/test_graded.py::test_pow_and_monomial_inverse",
    "scalar2.LocalMatrix.__eq__": _MATRIX,
    "scalar2.LocalMatrix.__getitem__": _MATRIX,
    "scalar2.LocalMatrix.__init__":
        "reference: the TwoLocal route of tests/test_lattice_rows.py",
    "scalar2.LocalMatrix.__matmul__": "tracer: scalar2.matmul",
    "scalar2.LocalMatrix.__repr__": _MATRIX,
    "scalar2.LocalMatrix.data": _MATRIX,
    "scalar2.LocalMatrix.row": _MATRIX,
    "scalar2.LocalMatrix.transpose": "reference: under snf_with_transforms",
    "scalar2.TwoLocal.__add__": _LOCAL,
    "scalar2.TwoLocal.__bool__": _LOCAL,
    "scalar2.TwoLocal.__hash__": _LOCAL,
    "scalar2.TwoLocal.__mul__": _LOCAL,
    "scalar2.TwoLocal.__neg__": _LOCAL,
    "scalar2.TwoLocal.__pos__": _LOCAL,
    "scalar2.TwoLocal.__pow__": _LOCAL,
    "scalar2.TwoLocal.__repr__": _LOCAL,
    "scalar2.TwoLocal.__rsub__": _LOCAL,
    "scalar2.TwoLocal.__rtruediv__": _LOCAL,
    "scalar2.TwoLocal.__sub__": _LOCAL,
    "scalar2.TwoLocal.to_fraction": _LOCAL,
    "scalar2._over": "reference: under LocalMatrix.__init__",
    "scalar2._vec_mat": "reference: under LocalMatrix.__matmul__",
    "scalar2.cokernel_structure": "reference: under quotient_structure",
    "scalar2.kernel_basis": "reference: under preimage_rows",
    "scalar2.preimage_rows": "tracer: scalar2.preimage_rows",
    "scalar2.quotient_structure": "tracer: scalar2.quotient_structure",
    "scalar2.row_basis": "tracer: scalar2.row_basis",
    "scalar2.row_times_matrix": "api: erjw.scalar2, tests/test_scalar2.py",
    "scalar2.snf": "reference: the Smith invariants, tests/test_scalar2.py",
    "scalar2.snf_with_transforms": "tracer: scalar2.smith",
    "scalar2.solve_left": "tracer: scalar2.solve_left",
    "scalar2.spans": "reference: the window-check route of"
                     " tests/test_lattice_rows.py",
    "scalar2.stack_rows": "reference: the base-change route of"
                          " tests/test_lattice_rows.py",
}


# -- the functions src defines --------------------------------------------


def defined_functions(src: Path) -> dict[tuple[str, int], tuple[str, int]]:
    """{(file, first line of its code object): (module.qualname, lines)}
    for every def under src; a decorated def's code starts at its first
    decorator, and its lines run from there to its end."""
    out = {}
    for path in sorted(src.glob("*.py")):
        for node, scope in scoped(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in
                                             node.decorator_list])
                out[(str(path.resolve()), first)] = (
                    f"{path.stem}.{scope}", node.end_lineno - first + 1)
    return out


def problems(defined: dict, reached: set, allowed: dict) -> list[str]:
    """What is wrong with the allowlist, given the defined functions and
    the (file, first line) keys of the ones that ran."""
    names = {name for name, _ in defined.values()}
    unreached = {name for key, (name, _) in defined.items()
                 if key not in reached}
    out = [f"unreached and not listed: {name}"
           for name in sorted(unreached - allowed.keys())]
    out += [f"listed but reached, so it leaves ALLOWED: {name}"
            for name in sorted((allowed.keys() - unreached) & names)]
    out += [f"listed but not defined: {name}"
            for name in sorted(allowed.keys() - names)]
    out += [f"reason of {name} does not start with one of {REASONS}:"
            f" {why!r}" for name, why in sorted(allowed.items())
            if why.split(":")[0] not in REASONS]
    return out


# -- what runs ------------------------------------------------------------


def readme_commands() -> list[list[str]]:
    """The README's command lines, each once, as argv lists."""
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```\n(.*?)^```", readme, re.M | re.S)
    lines = [line for b in blocks if b.startswith("erjw ")
             for line in b.splitlines()]
    lines += [line[2:] for b in blocks if b.startswith("$ erjw ")
              for line in b.splitlines() if line.startswith("$ erjw ")]
    out = []
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        if argv not in out:
            out.append(argv)
    return out


def run_readme(cli) -> int:
    runs = 0
    for argv in readme_commands():
        formats = ("text", "json", "svg") if argv[0] == "page" else (
            "text", "json")
        for fmt in formats:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--format", fmt])
            if code != 0:
                sys.exit(f"erjw {' '.join(argv)} --format {fmt}: exit {code}")
            runs += 1
    return runs


def run_bench_lists(erjw) -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    import jobs
    import worker
    runs = 0
    for workload in jobs.WORKLOADS:
        for job in jobs.make_jobs(workload, 0):
            found = worker._check(erjw, job, worker._run_job(erjw, job))
            if found:
                sys.exit(f"{workload} job {job['op']} {job['args']}: {found}")
            runs += 1
    return runs


def run_acceptance() -> None:
    import pytest
    code = pytest.main(["-q", "-p", "no:cacheprovider",
                        str(ROOT / "tests" / "test_acceptance.py")])
    if code != 0:
        sys.exit(f"tests/test_acceptance.py: pytest exit {code}")


def main() -> int:
    src = ROOT / "src" / "erjw"
    sys.path.insert(0, str(src.parent))
    import erjw
    import erjw.cli
    if Path(erjw.__file__).resolve().parent != src.resolve():
        sys.exit(f"erjw imported from {erjw.__file__}, not from {src}")
    defined = defined_functions(src)
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno))

    start = time.perf_counter()
    sys.setprofile(profile)
    try:
        cli_runs = run_readme(erjw.cli)
        jobs = run_bench_lists(erjw)
        run_acceptance()
    finally:
        sys.setprofile(None)
    reached = {(str(Path(f).resolve()), line) for f, line in reached}
    unreached = {key: v for key, v in defined.items() if key not in reached}
    print(f"traced {cli_runs} README runs, {jobs} seed-0 benchmark jobs and"
          f" tests/test_acceptance.py in {time.perf_counter() - start:.1f} s")
    print(f"{len(defined) - len(unreached)} of {len(defined)} src functions"
          f" ran; {len(unreached)} did not"
          f" ({sum(lines for _, lines in unreached.values())} lines by def"
          f" span), {len(ALLOWED)} listed")
    found = problems(defined, reached, ALLOWED)
    for line in found:
        print(line, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())

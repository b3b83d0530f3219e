"""One benchmark worker: set up, run one job list, check it, report.

Started by `run.py` as a fresh interpreter for every list, one at a time:

    python3 bench/worker.py --workload W --seed S --launched T
                            [--trace] [--setup-only] [--spans PATH]

`--launched` is the wall-clock time (time.time()) at which the runner
started this process; set-up time runs from there until erjw is imported
and the seeded job list is built, less the calibration kernel timed on
the way.  The jobs run one after another in this one thread (a closed
loop with one client), each timed on its own.  The calibration kernel is
timed around the erjw import, every `calibrate.PROBE_EVERY_S` during the
untraced jobs, and after the last job; the runner uses those times to
scale each job to the host's reference speed (see calibrate.py).  Output
checks run after the timed loop, with tracing already removed.  The last
line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_CHECKS = 4  # kernel timings around the erjw import, to scale set-up


def _import_erjw():
    """erjw from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import erjw
    import erjw.boring
    import erjw.cli
    import erjw.fgl
    import erjw.graded
    import erjw.scalar2
    origin = Path(erjw.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"erjw imported from {origin}, not from {src}")
    return erjw


# -- executing jobs -----------------------------------------------------------


def _build_terms(erjw, spec, terms, weight):
    z = erjw.graded.GradedSeries.zero(spec, weight)
    for t in terms:
        z = z + erjw.graded.GradedSeries.monomial(
            spec, erjw.scalar2.TwoLocal(*t["coeff"]), vh=t["vh"], vn=t["vn"],
            c=t["c"], trunc=weight)
    return z


def _run_cli(erjw, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = erjw.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_job(erjw, job):
    """Run one job and return its raw output; module attributes are looked
    up at call time so the traced run sees its wrappers."""
    a = job["args"]
    op = job["op"]
    if op == "cli":
        return _run_cli(erjw, a)
    if op == "window_check":
        return erjw.boring.landweber_window_check(
            a["n"], a["q"], a["k"], tuple(a["window"]), weight=a["weight"],
            caps=a["caps"])
    if op == "k_series":
        law = erjw.fgl.GroupLaw(a["n"], precision=a["precision"])
        return law.hat_k_series(a["k"])
    if op == "reduce":
        p = erjw.boring.present(a["n"], a["q"], a["weight"])
        z = _build_terms(erjw, p.spec, a["terms"], a["weight"])
        return p, erjw.boring.reduce(z, p)
    if op == "in_ideal":
        p = erjw.boring.present(a["n"], a["q"], a["weight"])
        GS = erjw.graded.GradedSeries
        z = GS.zero(p.spec, a["weight"])
        for m in a["multiples"]:
            mono = GS.monomial(p.spec, erjw.scalar2.TwoLocal(*m["coeff"]),
                               vh=m["vh"], vn=m["vn"], c=m["c"],
                               trunc=a["weight"])
            z = z + mono * p.relations[m["relation"] - 1]
        if a["odd_c1"] is not None:
            z = z + GS.gen(p.spec, "c1", coeff=erjw.scalar2.TwoLocal(
                *a["odd_c1"]), trunc=a["weight"])
        return erjw.boring.in_ideal(z.truncated(a["weight"]), p)
    raise ValueError(f"unknown op {op!r}")


# -- checking outputs -----------------------------------------------------------


def _check_cli(job, res):
    """Problems with one CLI job's output, as a list of strings."""
    argv, expect = job["args"], job["expect"]
    if res["code"] != 0:
        return [f"exit {res['code']}: {res['stderr'].strip()[-300:]}"]
    lines = res["stdout"].splitlines()
    cmd = argv[0]
    if cmd == "fgl":
        heads = {lines[i]: lines[i + 1].strip()
                 for i in range(len(lines) - 1) if lines[i].endswith("(u):")}
        want = {"[-1](u):": "u^1: -1", "[2](u):": "u^1: 2"}
        return [f"{h} starts {heads.get(h)!r}, not {w!r}"
                for h, w in want.items() if heads.get(h) != w]
    if cmd == "page":
        if not lines or lines[-1].strip() != "all engines agree on the window":
            return ["engines did not report agreement"]
        return []
    if cmd == "chern":
        q = int(argv[argv.index("--q") + 1])
        missing = [k for k in range(1, q + 1)
                   if not any(l.startswith(f"c{k}* = ") for l in lines)]
        return [f"no conjugate class c{k}*" for k in missing]
    if cmd == "bo":
        expr = next(a for a in argv if a.startswith("--reduce="))[9:]
        if not any(l.startswith(f"reduce({expr}) = ") for l in lines):
            return ["no normal form line"]
        return []
    if cmd == "coeff":
        text = argv[argv.index("--relation") + 1]
        verdict = "holds" if expect["holds"] else "fails"
        if not any(l.startswith(f"relation {text!r} {verdict}:")
                   for l in lines):
            return [f"relation {text!r} does not report {verdict!r}"]
        return []
    if cmd == "orient":
        return [] if "certified" in lines else ["scan not certified"]
    return [f"no check for subcommand {cmd!r}"]


def _check(erjw, job, out):
    op, a = job["op"], job["args"]
    if op == "cli":
        return _check_cli(job, out)
    if op == "window_check":
        problems = []
        if not out.ok or out.failures:
            problems.append(f"certificate failed at {out.failures}")
        if len(out.checked) != job["expect"]["checked"]:
            problems.append(f"checked {len(out.checked)} degrees, expected"
                            f" {job['expect']['checked']}")
        return problems
    if op == "k_series":
        TwoLocal = erjw.scalar2.TwoLocal
        if out[0] or out[1].terms != {out.spec.unit_key(): TwoLocal(a["k"])}:
            return [f"[{a['k']}](u) does not start {a['k']}u"]
        return []
    if op == "reduce":
        p, nf = out
        if erjw.boring.reduce(nf, p) != nf:
            return ["reduce is not idempotent"]
        return []
    if op == "in_ideal":
        if out is not job["expect"]["member"]:
            return [f"in_ideal returned {out!r}"]
        return []
    return [f"no check for op {op!r}"]


def digest(job, out) -> str:
    """Short hash of one job's output bytes, for the seed-0 comparison."""
    if job["op"] == "cli":
        text = f"{out['code']}\n{out['stdout']}"
    elif job["op"] == "reduce":
        text = str(out[1])
    elif job["op"] == "k_series":
        text = "\n".join(str(c) for c in out.coeffs)
    else:
        text = repr(out)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- main -------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    # Set-up is scaled by kernel times taken just before and just after
    # importing erjw; their own time is left out of it.
    import calibrate  # this script's directory is on sys.path
    t0 = time.perf_counter()
    calibrate.kernel()  # warm-up: the first call runs unspecialised bytecode
    setup_check = [calibrate.measure() for _ in range(SETUP_CHECKS // 2)]
    checking_s = time.perf_counter() - t0
    erjw = _import_erjw()
    import jobs as joblib
    jobs = joblib.make_jobs(args.workload, args.seed)
    setup_s = time.time() - args.launched - checking_s
    setup_check += [calibrate.measure() for _ in range(SETUP_CHECKS // 2)]
    report = {"setup_s": setup_s, "setup_check_s": sum(setup_check)
              / SETUP_CHECKS}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    # Probes would count as self time of whatever span they interrupt, so
    # traced lists run without them.
    probes = calibrate.Probes()
    tracer = None
    if args.trace:
        import tracer as tracelib
        tracer = tracelib.Tracer()
        tracer.install()
    else:
        probes.start()
    outputs, errors, spans = [], [], []
    try:
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            t0 = time.perf_counter()
            try:
                out, err = _run_job(erjw, job), None
            except Exception as exc:  # a failed job is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            spans.append((t0, time.perf_counter()))
            outputs.append(out)
            errors.append(err)
    finally:
        probes.stop()
        if tracer is not None:
            tracer.uninstall()
    latencies = [t1 - t0 - probes.spent_in(t0, t1) for t0, t1 in spans]
    # checks[0] holds the kernel times around the erjw import, checks[i + 1]
    # those that started during job i or before job i + 1, and checks[-1]
    # the one after the last job
    starts = [t0 for t0, _ in spans] + [float("inf")]
    checks = [setup_check] + [probes.between(starts[i], starts[i + 1])
                              for i in range(len(spans))]
    checks.append([calibrate.measure()])

    recorded = None
    if args.seed == joblib.DEFAULT_SEED:
        table = json.loads((HERE / "digests.json").read_text())
        recorded = table.get(args.workload)
    failures = []
    digests = []
    for i, (job, out, err) in enumerate(zip(jobs, outputs, errors)):
        digests.append(None)
        if err is None:
            try:
                problems = _check(erjw, job, out)
                digests[i] = digest(job, out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [err]
        if recorded is not None and digests[i] != recorded[i]:
            problems.append("output differs from the seed-commit digest")
        if problems:
            failures.append({"job": i, "input": job, "error": problems})

    report.update({
        "latencies_s": latencies,
        "checks_s": checks,
        "failures": failures,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    })
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

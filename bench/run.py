"""erjw benchmark runner: closed loop, one client, stdlib only.

    python3 bench/run.py --workload {flatness,fgl,pages,classring}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds src/erjw.  Every job list runs
in a fresh worker process (`worker.py`), one worker at a time, for about
S seconds; the runner then prints each metric by name with its unit and
sample count, the failure count, an environment record, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.

Every time is scaled to the host's reference speed with the calibration
kernel timed during it (calibrate.py); the unscaled times are printed too.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates an
untraced and a traced worker on the same job list and reports the
per-layer metrics of the traced ones plus the tracing overhead.  See
bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import calibrate  # noqa: E402  (this script's directory is on sys.path)
import jobs as joblib  # noqa: E402

SETUP_PROBES = 3        # set-up-only workers before the first list
RUN_LIMIT_S = 170.0     # the whole run, hang or not
WORKER_LIMIT_S = 120.0  # one worker


def _quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def scaled_times(latencies, checks):
    """Each job's seconds at the reference speed.

    checks[0] holds the calibration kernel's times around set-up,
    checks[i + 1] those taken during job i (or right after it), and
    checks[-1] the time after the last job.  A job's time is scaled by
    REFERENCE_S over the mean kernel time taken during it; a job too short
    to hold a probe uses the mean of the nearest kernel times before and
    after it.  So the slow-downs and speed-ups of the host cancel.
    """
    out = []
    for i, t in enumerate(latencies):
        own = checks[i + 1]
        if own:
            kernel_s = sum(own) / len(own)
        else:
            before = next(c[-1] for c in reversed(checks[:i + 1]) if c)
            after = next(c[0] for c in checks[i + 2:] if c)
            kernel_s = (before + after) / 2
        out.append(t * calibrate.REFERENCE_S / kernel_s)
    return out


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = _read(git / "HEAD").strip()
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(git / ref).strip()
    if sha:
        return sha
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def _cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _loadavg() -> str:
    return _read(Path("/proc/loadavg")).strip()


def _worker(workload, seed, *, trace=False, setup_only=False, spans=None,
            limit):
    """Run one worker to completion; returns (report or None, error)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--launched", repr(time.time())]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=env, timeout=limit)
    except subprocess.TimeoutExpired:
        return None, f"worker exceeded its {limit:.0f} s limit and was killed"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"worker exited {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, "worker printed no report"


class Run:
    """Samples and failures of one benchmark invocation."""

    def __init__(self, workload, seed, seconds):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.jobs = joblib.make_jobs(workload, seed)
        self.t0 = time.monotonic()
        # per untraced list: raw and scaled per-job seconds; per worker:
        # raw and scaled set-up seconds
        self.latencies, self.scaled, self.rss = [], [], []
        self.setups, self.setups_raw, self.checks = [], [], []
        # per traced list: scaled list seconds of it and of its untraced twin
        self.traced_walls, self.twin_walls, self.layers = [], [], []
        self.traced_raw = []
        self.attempted = self.failed = 0
        self.failures = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.t0)

    def limit(self) -> float:
        return max(1.0, min(WORKER_LIMIT_S, self.remaining()))

    def setup_probe(self) -> None:
        report, err = _worker(self.workload, self.seed, setup_only=True,
                              limit=self.limit())
        if report is None:
            raise RuntimeError(f"set-up failed: {err}")
        self._setup(report)

    def _setup(self, report) -> None:
        self.setups_raw.append(report["setup_s"])
        self.setups.append(report["setup_s"] * calibrate.REFERENCE_S
                           / report["setup_check_s"])

    def job_list(self, trace=False, spans=None) -> bool:
        """One worker over the whole list; False if it did not finish."""
        report, err = _worker(self.workload, self.seed, trace=trace,
                              spans=spans, limit=self.limit())
        self.attempted += len(self.jobs)
        if report is None:
            # a hang or crash leaves every job of the list unconfirmed
            self.failed += len(self.jobs)
            self.failures.append({"job": "all", "error": [err]})
            return False
        self.failed += len(report["failures"])
        self.failures += report["failures"]
        self._setup(report)
        scaled = scaled_times(report["latencies_s"], report["checks_s"])
        if trace:
            self.traced_walls.append(sum(scaled))
            self.traced_raw.append(sum(report["latencies_s"]))
            self.twin_walls.append(sum(self.scaled[-1]))
            self.layers.append(report["layers"])
        else:
            self.latencies.append(report["latencies_s"])
            self.checks.append(report["checks_s"])
            self.scaled.append(scaled)
            self.rss.append(report["peak_rss_mb"])
        return True

    def measuring(self, last_s) -> bool:
        """Whether another worker of about last_s seconds fits the budget."""
        spent = time.monotonic() - self.measure_t0
        return (spent + last_s <= self.seconds
                and self.remaining() > last_s * 2 + 5)

    def measure(self, trace: bool) -> None:
        self.measure_t0 = time.monotonic()
        n = 0
        while True:
            t = time.monotonic()
            spans = None
            if trace:
                OUT.mkdir(exist_ok=True)
                spans = OUT / f"spans-{self.workload}-{self.seed}-{n}.jsonl.gz"
                ok = self.job_list() and self.job_list(trace=True, spans=spans)
            else:
                ok = self.job_list()
            # one more set-up sample per list spreads them over the run
            self.setup_probe()
            n += 1
            if not ok or not self.measuring(time.monotonic() - t):
                return


def _times(per_list, setups) -> dict:
    """wall_s, job_p50_ms, job_p95_ms and setup_s from per-job seconds.

    Every list of a run is the same job list.  Each job counts with its
    median over the run's lists, so a list disturbed for a moment moves
    nothing; wall_s is the sum of those medians.
    """
    per_job = [statistics.median(times) for times in zip(*per_list)]
    return {"wall_s": (sum(per_job), "s"),
            "job_p50_ms": (1e3 * _quantile(per_job, 0.50), "ms"),
            "job_p95_ms": (1e3 * _quantile(per_job, 0.95), "ms"),
            "setup_s": (statistics.median(setups), "s")}


def _metrics(run: Run, trace: bool) -> tuple[dict, dict]:
    """The reported metrics and, for the time metrics, their raw values."""
    if trace:
        names = run.layers[0].keys() if run.layers else ()
        m = {k: {"value": statistics.median(l[k] for l in run.layers),
                 "unit": _layer_unit(k)} for k in names}
        if run.traced_walls:
            # each traced list runs right after its untraced twin
            m["trace.overhead_s"] = {"value": statistics.median(
                t - u for u, t in zip(run.twin_walls, run.traced_walls)),
                "unit": "s"}
        return m, {}
    if not run.scaled:
        return {}, {}
    m = {k: {"value": v, "unit": u}
         for k, (v, u) in _times(run.scaled, run.setups).items()}
    m["peak_rss_mb"] = {"value": statistics.median(run.rss), "unit": "MB"}
    raw = {k: v for k, (v, u) in _times(run.latencies,
                                          run.setups_raw).items()}
    return m, raw


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(("entries_mean", "entries_max")):
        return "entries"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    ap.add_argument("--seed", type=int, default=joblib.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "erjw" / "__init__.py").is_file():
        print(f"error: no erjw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": _loadavg(),
    }
    run = Run(args.workload, args.seed, args.seconds)
    try:
        for _ in range(SETUP_PROBES):
            run.setup_probe()
        run.measure(trace=bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env["loadavg_end"] = _loadavg()

    metrics, raw = _metrics(run, bool(args.trace))
    lists = len(run.scaled)
    how = {"wall_s": f"sum over {len(run.jobs)} jobs of each job's median"
                     f" over {lists} lists",
           "job_p50_ms": f"over {len(run.jobs)} jobs, each its median over"
                         f" {lists} lists",
           "peak_rss_mb": f"median of {len(run.rss)} workers",
           "setup_s": f"median of {len(run.setups)} set-ups",
           "trace.overhead_s": f"median of {len(run.traced_walls)} pairs"}
    how["job_p95_ms"] = how["job_p50_ms"]
    for name, m in metrics.items():
        note = how.get(name, f"median of {len(run.layers)} traced lists")
        if name in raw:
            note += f"; {raw[name]:.6g} {m['unit']} unscaled"
        print(f"{name} = {m['value']:.6g} {m['unit']} ({note})")
    if run.traced_walls:
        traced = statistics.median(run.traced_raw)
        shares = sorted(((m["value"] / traced, k)
                         for k, m in metrics.items()
                         if k.endswith(".self_s") or k.endswith(".total_s")),
                        reverse=True)
        print(f"traced list = {traced:.6g} s; share of it: " + ", ".join(
            f"{k} {100 * v:.1f}%" for v, k in shares[:6]))
    failed = run.failed
    print(f"fail_ratio = {failed}/{run.attempted} = "
          f"{failed / max(run.attempted, 1):.6g}")
    for f in run.failures:
        print(f"failed: job {f['job']}: {'; '.join(f['error'])}"
              f" input={json.dumps(f.get('input'))}")
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({
         "env": env, "metrics": metrics, "failures": run.failures,
         "unscaled": raw,
         "samples": {"traced_wall_s": run.traced_walls,
                     "setup_s": run.setups, "setup_raw_s": run.setups_raw,
                     "peak_rss_mb": run.rss, "job_s": run.scaled,
                     "job_raw_s": run.latencies,
                     "checks_s": run.checks}}, indent=1))
    correct = failed == 0 and (run.scaled or run.traced_walls)
    print(json.dumps({"correct": bool(correct), "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

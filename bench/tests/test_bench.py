"""Tests of the benchmark itself: job generation, time scaling and the tracer.

    python3 -m pytest -q bench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import erjw  # noqa: E402
import erjw.cli  # noqa: E402
import calibrate  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def test_same_seed_same_job_list():
    for workload in jobs.WORKLOADS:
        assert jobs.make_jobs(workload, 7) == jobs.make_jobs(workload, 7)


def test_other_seed_other_inputs_same_count():
    for workload in jobs.WORKLOADS:
        lists = [jobs.make_jobs(workload, seed) for seed in range(10)]
        assert len({len(l) for l in lists}) == 1, workload
        # inputs, not just their order: compare the lists as multisets;
        # flatness draws from 27 lists, so a few seeds may coincide
        inputs = {tuple(sorted(map(repr, l))) for l in lists}
        assert len(inputs) >= 5, workload


def test_classring_stream_is_long_enough_for_p95():
    # at least 10 samples beyond p95 in every list
    assert len(jobs.make_jobs("classring", 0)) >= 200


def _erjw_bindings():
    """Every attribute of every erjw module and erjw class, by identity."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name != "erjw" and not name.startswith("erjw."):
            continue
        for key, value in vars(mod).items():
            seen[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("erjw"):
                for ckey, cvalue in vars(value).items():
                    seen[(name, key, ckey)] = cvalue
    return seen


def test_tracing_restores_every_original():
    before = _erjw_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        # functions imported by name elsewhere are wrapped there too
        assert erjw.boring.snf_with_transforms is erjw.bss.snf_with_transforms
        assert erjw.boring.snf_with_transforms is not \
            before[("erjw.scalar2", "snf_with_transforms")]
        gs = erjw.graded.GradedSeries
        assert gs.__mul__ is gs.__rmul__
        out = worker._run_cli(erjw, ["coeff", "--n", "2", "--relation",
                                     "alpha*alpha_2 = 2*w"])
    finally:
        t.uninstall()
    assert out["code"] == 0
    names = {span[0] for span in t.spans}
    assert {"cli.main", "coeff.relation_check"} <= names
    after = _erjw_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_job_counts_layers():
    t = tracer.Tracer()
    t.install()
    try:
        erjw.boring.landweber_window_check(2, 1, 0, (16, 16), weight=1,
                                           caps=0)
    finally:
        t.uninstall()
    m = t.layer_metrics()
    assert m["boring.window_check.calls"] == 1
    assert m["boring.window_check.degrees"] == 1
    assert m["fgl.grouplaw.constructed"] == 1
    assert m["scalar2.smith.calls"] == len(t.observations["scalar2.smith"])


def test_self_time_on_synthetic_tree():
    # root [0, 100] with children [10, 30] and [40, 90]; the second child
    # has a grandchild [50, 60].  Spans are (name, start, end, parent, job).
    spans = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 30, 0, 0),
        ("b", 40, 90, 0, 0),
        ("c", 50, 60, 2, 0),
        ("other", 200, 205, -1, 1),
    ]
    assert tracer.self_times(spans) == [30, 20, 40, 10, 5]


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0, 10, -1, 0), ("x", 2, 6, 0, 0), ("y", 4, 8, 0, 0)]
    assert tracer.self_times(spans)[0] == 4


def test_layer_metrics_from_spans():
    spans = [
        ("scalar2.smith", 0, 1_000_000_000, -1, 0),
        ("scalar2.matmul", 100, 250_000_100, 0, 0),
        ("scalar2.matmul", 2_000_000_000, 2_500_000_000, -1, 0),
    ]
    obs = {"scalar2.smith": [(12, 3)]}
    m = tracer.layer_metrics(spans, obs)
    assert m["scalar2.smith.calls"] == 1
    assert m["scalar2.smith.self_s"] == 0.75
    assert m["scalar2.smith.total_s"] == 1.0
    assert m["scalar2.smith.check_s"] == 0.25
    assert m["scalar2.matmul.calls"] == 2
    assert m["scalar2.matmul.self_s"] == 0.75
    assert m["scalar2.smith.nonzero_frac"] == 0.25


def test_scaled_times_use_the_kernel_times_around_each_job():
    ref = calibrate.REFERENCE_S
    # kernel at ref after set-up; job 0 holds no probe, job 1 two probes
    # (2*ref and ref), job 2 none; ref/2 after the last job
    checks = [[ref, ref], [], [2 * ref, ref], [], [ref / 2]]
    scaled = run.scaled_times([1.0, 1.0, 1.0], checks)
    # job 0: mean(ref, 2ref) = 1.5 ref, the probes around it; job 1: its
    # own, mean(2ref, ref) = 1.5 ref; job 2: mean(ref, ref/2) = 0.75 ref
    assert scaled == pytest.approx([2 / 3, 2 / 3, 4 / 3])


def test_calibration_kernel_is_fixed_work():
    assert calibrate.kernel() == calibrate.kernel()

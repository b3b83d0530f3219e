"""Outside-in tracing of erjw's layers, for the benchmark's traced run.

Nothing under src/ changes.  `Tracer.install` replaces each function in
TARGETS by a wrapper that records a span (name, start, end, parent, job)
and, for some layers, a per-call observation such as a matrix size.  A
module-level function is rebound in every loaded `erjw.*` module whose
attribute is that same function object, because modules import each
other's functions by name (`snf_with_transforms` is bound in bss and
boring as well as scalar2).  A method is rebound on the class that
defines it, under every name that holds it (`__mul__` and `__rmul__`).
`uninstall` puts every original back.

TwoLocal's operators are deliberately not wrapped: one flatness stage
makes millions of scalar operations, so scalar arithmetic shows up as
self time of the scalar2 matrix functions instead.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

# (span name, owner, attribute).  The owner is a module for a function
# and "module:Class" for a method.
TARGETS = (
    ("scalar2.smith", "erjw.scalar2", "snf_with_transforms"),
    ("scalar2.matmul", "erjw.scalar2:LocalMatrix", "__matmul__"),
    ("scalar2.row_basis", "erjw.scalar2", "row_basis"),
    ("scalar2.preimage_rows", "erjw.scalar2", "preimage_rows"),
    ("scalar2.quotient_structure", "erjw.scalar2", "quotient_structure"),
    ("scalar2.solve_left", "erjw.scalar2", "solve_left"),
    ("graded.mul", "erjw.graded:GradedSeries", "__mul__"),
    ("graded.add", "erjw.graded:GradedSeries", "__add__"),
    ("fgl.grouplaw", "erjw.fgl:GroupLaw", "__init__"),
    ("fgl.log_series", "erjw.fgl:GroupLaw", "log_series"),
    ("fgl.exp_series", "erjw.fgl:GroupLaw", "exp_series"),
    ("fgl.law_table", "erjw.fgl:GroupLaw", "law_table"),
    ("fgl.iota", "erjw.fgl:GroupLaw", "iota"),
    ("fgl.apply2", "erjw.fgl:_LawBase", "apply2"),
    ("fgl.uni_mul", "erjw.fgl:UniSeries", "__mul__"),
    ("fgl.compose", "erjw.fgl:UniSeries", "compose"),
    ("fgl.evaluate_at", "erjw.fgl:UniSeries", "evaluate_at"),
    ("symchern.conjugate_chern", "erjw.symchern:SymmetricContext",
     "conjugate_chern"),
    ("symchern.elementary_reduce", "erjw.symchern:SymmetricContext",
     "elementary_reduce"),
    ("bss.oracle.advance", "erjw.bss:TruncatedOracle", "advance"),
    ("bss.closed_form_page", "erjw.bss", "closed_form_page"),
    ("bss.step_engine_page", "erjw.bss", "step_engine_page"),
    ("bss.chart", "erjw.bss:Page", "chart"),
    ("bss.apply_differential", "erjw.bss", "apply_differential"),
    ("coeff.relation_check", "erjw.coeff", "relation_check"),
    ("coeff.named_generators", "erjw.coeff", "named_generators"),
    ("boring.present", "erjw.boring", "present"),
    ("boring.reduce", "erjw.boring", "reduce"),
    ("boring.in_ideal", "erjw.boring", "in_ideal"),
    ("boring.window_check", "erjw.boring", "landweber_window_check"),
    ("orient.scan", "erjw.orient", "orientability_scan"),
    ("cli.main", "erjw.cli", "main"),
)


# Per-call observations, taken after the span closes: (args, result) ->
# a tuple of numbers kept for the layer metrics.
def _smith_obs(args, result):
    M = args[0]
    nonzero = sum(1 for row in M.data for x in row if x.num)
    return (M.nrows * M.ncols, nonzero)


def _mul_obs(args, result):
    a, b = args
    right = len(b.terms) if hasattr(b, "terms") else 1
    return (len(a.terms) * right,)


def _advance_obs(args, result):
    oracle = args[0]
    return (len(oracle.basis), len(oracle.flags))


def _window_obs(args, result):
    return (len(result.checked) + len(result.failures),)


OBSERVERS = {
    "scalar2.smith": _smith_obs,
    "scalar2.solve_left": lambda args, result: (result is None,),
    "graded.mul": _mul_obs,
    "bss.oracle.advance": _advance_obs,
    "boring.reduce": lambda args, result: (len(args[0].terms),),
    "boring.in_ideal": lambda args, result: (result is True,),
    "boring.window_check": _window_obs,
}


class Tracer:
    """Span recorder for one single-threaded traced run."""

    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, job index)
        self.spans: list = []
        self.observations: dict[str, list] = defaultdict(list)
        self.job = -1
        self._stack: list[int] = []
        self._saved: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(name)
        obs = self.observations[name]

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if observe is not None:
                obs.append(observe(args, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "erjw" or key.startswith("erjw.")]
        for name, owner, attr in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            mod = sys.modules[mod_name]
            if cls_name:
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap(name, original)
                for key, value in list(vars(cls).items()):
                    if value is original:
                        self._saved.append((cls, key, original))
                        setattr(cls, key, wrapper)
            else:
                original = getattr(mod, attr)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._saved.append((m, key, original))
                            setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            obj, key, original = self._saved.pop()
            setattr(obj, key, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        return layer_metrics(self.spans, self.observations)

    def write_spans(self, path: str) -> None:
        """Spans as gzip'd JSON lines: name, start_ns, end_ns, parent, job."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def layer_metrics(spans, observations) -> dict[str, float]:
    """The per-layer metrics of one traced list, by name."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    smith_total = smith_check = 0.0
    for (name, start, end, parent, _), own in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += own / 1e9
        if name == "scalar2.smith":
            smith_total += (end - start) / 1e9
        elif name == "scalar2.matmul" and parent >= 0 \
                and spans[parent][0] == "scalar2.smith":
            smith_check += own / 1e9

    def frac(num, den):
        return num / den if den else 0.0

    smith = observations.get("scalar2.smith", [])
    entries = [e for e, _ in smith]
    solve = observations.get("scalar2.solve_left", [])
    pairs = observations.get("graded.mul", [])
    advance = observations.get("bss.oracle.advance", [])
    reduce_in = observations.get("boring.reduce", [])
    member = observations.get("boring.in_ideal", [])
    window = observations.get("boring.window_check", [])
    m = {
        "scalar2.smith.calls": calls["scalar2.smith"],
        "scalar2.smith.self_s": self_s["scalar2.smith"],
        "scalar2.smith.total_s": smith_total,
        "scalar2.smith.check_s": smith_check,
        "scalar2.smith.entries_mean":
            statistics.fmean(entries) if entries else 0.0,
        "scalar2.smith.entries_max": max(entries, default=0),
        "scalar2.smith.nonzero_frac":
            frac(sum(nz for _, nz in smith), sum(entries)),
        "scalar2.matmul.calls": calls["scalar2.matmul"],
        "scalar2.matmul.self_s": self_s["scalar2.matmul"],
        "scalar2.row_basis.self_s": self_s["scalar2.row_basis"],
        "scalar2.preimage_rows.self_s": self_s["scalar2.preimage_rows"],
        "scalar2.quotient_structure.self_s":
            self_s["scalar2.quotient_structure"],
        "scalar2.solve_left.calls": calls["scalar2.solve_left"],
        "scalar2.solve_left.none_frac":
            frac(sum(none for none, in solve), len(solve)),
        "graded.mul.calls": calls["graded.mul"],
        "graded.mul.self_s": self_s["graded.mul"],
        "graded.mul.term_pairs": sum(p for p, in pairs),
        "graded.add.calls": calls["graded.add"],
        "graded.add.self_s": self_s["graded.add"],
        "fgl.log_series.self_s": self_s["fgl.log_series"],
        "fgl.exp_series.self_s": self_s["fgl.exp_series"],
        "fgl.law_table.self_s": self_s["fgl.law_table"],
        "fgl.iota.self_s": self_s["fgl.iota"],
        "fgl.apply2.calls": calls["fgl.apply2"],
        "fgl.apply2.self_s": self_s["fgl.apply2"],
        "fgl.uni_mul.calls": calls["fgl.uni_mul"],
        "fgl.uni_mul.self_s": self_s["fgl.uni_mul"],
        "fgl.compose.self_s": self_s["fgl.compose"],
        "fgl.evaluate_at.calls": calls["fgl.evaluate_at"],
        "fgl.evaluate_at.self_s": self_s["fgl.evaluate_at"],
        "fgl.grouplaw.constructed": calls["fgl.grouplaw"],
        "symchern.conjugate_chern.calls": calls["symchern.conjugate_chern"],
        "symchern.conjugate_chern.self_s":
            self_s["symchern.conjugate_chern"],
        "symchern.elementary_reduce.calls":
            calls["symchern.elementary_reduce"],
        "symchern.elementary_reduce.self_s":
            self_s["symchern.elementary_reduce"],
        "bss.oracle.advance.calls": calls["bss.oracle.advance"],
        "bss.oracle.advance.self_s": self_s["bss.oracle.advance"],
        "bss.oracle.cells": sum(c for c, _ in advance),
        "bss.oracle.flag_frac":
            frac(sum(f for _, f in advance), sum(c for c, _ in advance)),
        "bss.closed_form_page.self_s": self_s["bss.closed_form_page"],
        "bss.step_engine_page.self_s": self_s["bss.step_engine_page"],
        "bss.chart.self_s": self_s["bss.chart"],
        "bss.apply_differential.calls": calls["bss.apply_differential"],
        "coeff.relation_check.calls": calls["coeff.relation_check"],
        "coeff.relation_check.self_s": self_s["coeff.relation_check"],
        "coeff.named_generators.self_s": self_s["coeff.named_generators"],
        "boring.present.calls": calls["boring.present"],
        "boring.present.self_s": self_s["boring.present"],
        "boring.reduce.calls": calls["boring.reduce"],
        "boring.reduce.self_s": self_s["boring.reduce"],
        "boring.reduce.terms_in": sum(t for t, in reduce_in),
        "boring.in_ideal.calls": calls["boring.in_ideal"],
        "boring.in_ideal.self_s": self_s["boring.in_ideal"],
        "boring.in_ideal.true_frac":
            frac(sum(t for t, in member), len(member)),
        "boring.window_check.calls": calls["boring.window_check"],
        "boring.window_check.self_s": self_s["boring.window_check"],
        "boring.window_check.degrees": sum(d for d, in window),
        "orient.scan.calls": calls["orient.scan"],
        "orient.scan.self_s": self_s["orient.scan"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": self_s["cli.main"],
    }
    return m

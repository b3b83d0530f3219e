"""Command line front end over the computation engines.

One process runs one subcommand: fgl (formal negation and doubling
series), chern (conjugate symmetric classes), page (coefficient charts
by any engine), coeff (named classes and relation checks), bo (class
ring presentations and normal forms), orient (orientation
certificates).

Exit codes separate misuse from broken mathematics: 0 success, 1 a
mathematical invariant failed (including engine disagreement under
`--engine all`), 2 bad input or usage.  JSON output embeds the resolved
configuration and package version; SVG charts are deterministic byte
for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache

from . import __version__
from .boring import present, reduce
from .bss import (
    TruncatedOracle,
    admissible_differentials,
    closed_form_page,
    step_engine_page,
)
from .coeff import (
    filtration_profile,
    limit_page,
    named_generators,
    relation_check,
    total_period,
)
from .errors import EmptyBasisError, InputError, MathInvariantError
from .fgl import GroupLaw
from .graded import GradedSeries, parse_series
from .orient import orientability_scan
from .scalar2 import ModuleStructure, TwoLocal
from .symchern import SymmetricContext

__all__ = ["main"]

_ZERO_STRUCT = ModuleStructure(0, ())


def _window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"window must look like -48..48, got {text!r}")
    try:
        bounds = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if bounds[1] < bounds[0]:
        raise argparse.ArgumentTypeError("window upper end below lower end")
    return bounds


# -- engines ------------------------------------------------------------------
# Called through this module's globals so a test can swap one out and
# watch the disagreement trip.


def _oracle_chart(n, r, window, caps):
    # band cells and all flags; rows past the band run only to flag
    oracle = TruncatedOracle(n, window[0], window[1], caps)
    oracle.run()
    return ({cell: st for cell, st in oracle.chart_at(r).items()
             if cell[0] <= _band(n)}, oracle.flags)


def _band(n: int) -> int:
    # rows the limit chart can inhabit; block pages are built through them
    return 2 ** (n + 1) - 1


def _blocks(page, m: int) -> str:
    return " + ".join(s.notation() for s in page.rows.get(m, ())) or "0"


def _chart_for(args) -> tuple[dict, dict]:
    """The requested engine's chart, refused when empty before flags are
    dropped.  Under `all` the stepped page must equal the closed-form one,
    and the oracle must match the closed-form chart outside its flags."""
    n, r, window, caps = args.n, args.r, args.window, args.caps
    if r < 1:
        raise InputError("page index must be at least 1")
    if caps < 0:
        raise InputError("caps must be non-negative")
    band = _band(n)
    meta: dict = {"rows_shown": band}
    if args.engine == "oracle":
        chart, flags = _oracle_chart(n, r, window, caps)
    else:
        build = step_engine_page if args.engine == "step" else closed_form_page
        page = build(n, r, m_max=band)
        chart = page.chart(range(window[0], window[1] + 1), caps)
    if not chart or chart == {(0, 0): ModuleStructure(1)}:  # the lone unit
        raise EmptyBasisError("window and caps leave nothing to chart")
    if args.engine == "oracle":
        meta["flagged_cells"] = len(flags)
        return {c: st for c, st in chart.items() if c not in flags}, meta
    if args.engine != "all":
        return chart, meta
    step = step_engine_page(n, r, m_max=band)
    if step != page:
        rows = sorted(m for m in set(page.rows) | set(step.rows)
                      if page.rows.get(m) != step.rows.get(m))
        raise MathInvariantError("engines disagree: " + "; ".join(
            f"row {m} closed={_blocks(page, m)} step={_blocks(step, m)}"
            for m in rows[:12]))
    oracle_chart, flags = _oracle_chart(n, r, window, caps)
    meta["flagged_cells"] = len(flags)
    mismatches = []
    for m, t in sorted((set(chart) | set(oracle_chart)) - flags):
        a = chart.get((m, t), _ZERO_STRUCT)
        c = oracle_chart.get((m, t), _ZERO_STRUCT)
        if a != c:
            mismatches.append(f"(m={m},t={t}) closed={a} oracle={c}")
    if mismatches:
        raise MathInvariantError(
            f"engines disagree: {'; '.join(mismatches[:12])}")
    meta["engines_agree"] = ["closed", "step", "oracle"]
    return chart, meta


# -- SVG chart ----------------------------------------------------------------

_CELL = 20
_MARGIN = 44


def emit_chart(chart: dict, n: int, r: int, window: tuple[int, int],
               band: int) -> str:
    """Static SVG for one page chart; byte-identical across runs."""
    lo, hi = window
    width = (hi - lo + 1) * _CELL + 2 * _MARGIN
    height = (band + 1) * _CELL + 2 * _MARGIN

    def cx(t: int) -> int:
        return _MARGIN + (t - lo) * _CELL + _CELL // 2

    def cy(m: int) -> int:
        return height - _MARGIN - m * _CELL - _CELL // 2

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">',
        '<defs><marker id="tip" markerWidth="6" markerHeight="6"'
        ' refX="5" refY="3" orient="auto">'
        '<path d="M0,0 L6,3 L0,6 z" fill="#444"/></marker></defs>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{_MARGIN}" y="16" font-family="monospace" font-size="11"'
        f' fill="#222">page {r}, n={n}, t in {lo}..{hi}</text>',
    ]
    axis_y = height - _MARGIN + 6
    for t in range(lo, hi + 1):
        if t % 8 == 0:
            parts.append(
                f'<text x="{cx(t)}" y="{axis_y + 10}" font-family="monospace"'
                f' font-size="8" fill="#555" text-anchor="middle">{t}</text>')
    m_step = 1 if band <= 8 else 4
    for m in range(0, band + 1, m_step):
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{cy(m) + 3}" font-family="monospace"'
            f' font-size="8" fill="#555" text-anchor="end">{m}</text>')
    parts.append(
        f'<line x1="{_MARGIN - 2}" y1="{axis_y}" x2="{width - _MARGIN + 2}"'
        f' y2="{axis_y}" stroke="#888" stroke-width="1"/>')
    parts.append(
        f'<line x1="{_MARGIN - 2}" y1="{axis_y}" x2="{_MARGIN - 2}"'
        f' y2="{_MARGIN}" stroke="#888" stroke-width="1"/>')
    if r in admissible_differentials(n):
        for (m, t) in sorted(chart):
            tgt = (m + r, t + 1)
            if tgt in chart:
                parts.append(
                    f'<line x1="{cx(t)}" y1="{cy(m)}" x2="{cx(t + 1)}"'
                    f' y2="{cy(m + r)}" stroke="#444" stroke-width="1"'
                    ' marker-end="url(#tip)"/>')
    for (m, t) in sorted(chart):
        st = chart[(m, t)]
        x, y = cx(t), cy(m)
        glyphs = [f'<g><title>m={m} t={t}: {st}</title>']
        if st.free_rank:
            glyphs.append(f'<circle cx="{x}" cy="{y}" r="4" fill="#1a1a1a"/>')
            if st.free_rank > 1:
                glyphs.append(
                    f'<text x="{x + 5}" y="{y - 4}" font-family="monospace"'
                    f' font-size="7" fill="#1a1a1a">{st.free_rank}</text>')
        if st.torsion:
            glyphs.append(
                f'<rect x="{x - 4}" y="{y - 4}" width="8" height="8"'
                ' fill="none" stroke="#1a1a1a" stroke-width="1.2"/>')
            label = ",".join(str(d) for d in st.torsion)
            glyphs.append(
                f'<text x="{x + 6}" y="{y + 8}" font-family="monospace"'
                f' font-size="7" fill="#1a1a1a">{label}</text>')
        glyphs.append("</g>")
        parts.append("".join(glyphs))
    parts.append("</svg>")
    return "\n".join(parts)


# -- admission ----------------------------------------------------------------
# Every request is priced by arithmetic on its flags before it runs, and
# refused with one line naming the flags to lower.  Out-of-range values
# (n < 1, precision < 2, q or weight < 1, negative span, caps or terms)
# pass to the commands' own checks.

# Largest height of every subcommand: fgl --precision 4, and bo and chern
# at weight 2, take under 0.2 s at n = 64 on a 2-vCPU Xeon; fgl --n 20000
# --precision 4 takes 5 s.  No model below is priced at a larger n.
HEIGHT_BOUND = 64

# Largest series_cost accepted: 10 to 26 microseconds a unit (n = 1..4,
# N = 12..96), 0.4 to 1 s, on one core of a 2-vCPU Xeon.  Precision 32 at
# n = 3 costs 17,716 units; precision 48 at n = 3 and the default 64 at
# n = 4 cost 3 and 22 times the bound.
SERIES_COST_BOUND = 40_000


def series_cost(n: int, precision: int) -> int:
    """Estimated work units of the exponential, [-1](u) and [2](u).

    The u^m coefficient of a k-series has t(m) monomials, the solutions of
    sum a_i (2^i - 1) = m - 1 over v_1..v_n.  A composition through
    precision N multiplies the coefficients of u^i and u^j for
    i + j <= N + 1, about S = sum of t(i)*t(j) over those pairs; the
    powers of the inner series add N^3 // 50, which dominates at n = 1.
    That term alone is returned once past the bound, so pricing is cheap.
    """
    N = precision
    cube = N ** 3 // 50
    if cube > SERIES_COST_BOUND:
        return cube
    t = [1] + [0] * N
    i = 1
    while i <= n and 2 ** i - 1 <= N:
        w = 2 ** i - 1
        for d in range(w, N + 1):
            t[d] += t[d - w]
        i += 1
    # t[m - 1] counts the monomials of the u^m coefficient
    pairs = sum(t[i] * t[j] for i in range(N) for j in range(N - i))
    return pairs + cube


# Largest page_cost accepted: at most about 0.3 s for all three engines, at
# 0.15 to 1.3 microseconds a unit for the widest window admitted at each
# n = 1..5 and caps 0..40 (two runs on one core of a 2-vCPU Xeon).
PAGE_COST_BOUND = 200_000


def page_cost(n: int, window: tuple[int, int], caps: int) -> int:
    """Estimated work units of one page chart over the window.

    The oracle's cells (rows 0..2^(n+2) by the window) times 8 plus the
    capped basis size (caps+1)^(n-1).  n is read as at most HEIGHT_BOUND,
    which is past the bound, so pricing a huge request costs nothing.
    """
    k = min(n, HEIGHT_BOUND)
    return ((2 ** (k + 2) + 1) * (window[1] - window[0] + 1)
            * (max(caps + 1, 0) ** (k - 1) + 8))


# Largest closed-form page `erjw coeff` builds, in rows: n = 15 takes about
# 1.3 s and 90 MB, 2.2 s with --relation (a second page), on a 2-vCPU Xeon.
COEFF_ROW_BOUND = 2 ** 17 + 1

# `erjw bo` and `erjw chern` expand the conjugate classes in q formal roots
# through class weight w, C(w + q, q) root monomials at up to w weights
# each, priced at C(w + q, q) * w units.  A whole run in a fresh process
# (best of 3, one core of a 2-vCPU Xeon) took 20 to 25 microseconds a unit:
# bo --n 1 --q 3 --weight 14 (9,520 units) 0.20 s, bo --n 3 --q 4 --weight
# 10 (10,010 units) 0.21 s, and past the bound bo --n 3 --q 3 --weight 16
# (15,504 units) 0.39 s.  The bound is older than these timings and has
# room to grow.
BO_COST_BOUND = 12_000

# chern builds the same classes with no presentation behind them.  Law
# included, a whole run in a fresh process (best of 3, one core of a
# 2-vCPU Xeon) took 14 to 60 microseconds a unit: chern --n 1 --q 2
# --weight 33 (19,635 units) 0.27 s, --n 3 --q 2 --weight 33 1.1 s, --n 3
# --q 3 --weight 17 (19,380) 0.47 s.  Past it, --n 3 --q 2 --weight 36
# (25,308) took 2.4 s and --weight 50 (66,300, with its law's bound
# lifted too) 8.4 s.
CHERN_COST_BOUND = 20_000

# `erjw orient` decides one ideal membership at weight w (its
# conjugation-fixed step), priced at w^8 * 2^s(n) units with s(n) = 0, 6,
# 8, 11, 17 for n = 1..5 and 7n - 18 past that.  Timed cold in a fresh
# process (law, presentation, Thom ratio and the membership; best of 2,
# one core of a 2-vCPU Xeon), a unit near the bound took 0.02 to 0.2
# nanoseconds.  The largest admitted weights for n = 1..6 are 17 (0.16 s),
# 10 (0.14 s), 8 (0.10 s), 6 (0.18 s), 3 (0.16 s) and 2 (0.003 s); the
# next ones up take 0.23, 0.43, 0.25, 0.44, 0.28 and 1.6 s.  The bound is
# older than these timings and has room to grow.
ORIENT_WEIGHT_BOUND = 8 * 10 ** 9

# Its degree-gap steps, about 2^(n+2), each build a closed-form page of
# about 2^(n+2) rows and re-read 2*span + 1 chart degrees over the capped
# basis: page_cost(n, (-span, span), caps) + 8 * 4^(n+2) units.  On one core
# of a 2-vCPU Xeon (n = 1..8, span 0..100000, caps 0..1000) a unit took
# 0.27 to 0.76 microseconds: orient --n 1 --span 100000 (16.2M units)
# 6.3 s, --n 3 --span 4 --caps 80 (2.0M) 0.7 s, --n 7 --span 0 --caps 0
# (2.1M) 1.2 s, --n 8 --span 0 --caps 0 (8.4M) 4.7 s.
ORIENT_SCAN_BOUND = 4_000_000


def _shown(value: int) -> str:
    # a refusal prints no computed number that str() could refuse
    return str(value) if value < 10 ** 18 else "more than 10^18"


def _law(n: int, precision: int, flags: str):
    if precision >= 2:
        yield (f"n={n} at precision {_shown(precision)}",
               series_cost(n, precision), "work units", SERIES_COST_BOUND,
               flags)


def _classes(q: int, weight: int, bound: int):
    if q >= 1 and weight >= 1:
        yield (f"q={q} at weight {weight}", math.comb(weight + q, q) * weight,
               "work units", bound, "--q or --weight")


def _models(a):
    """Yield request a's cost models in order: (what, cost, unit, bound,
    flags to lower).  Lazily, so none is priced past a refusal."""
    if a.command == "fgl" and a.precision is not None:
        yield from _law(a.n, a.precision, "--precision")
    elif a.command == "fgl":  # GroupLaw's default precision is 2^(n+2)
        yield from _law(a.n, 2 ** (a.n + 2),
                        "--n (or pass a smaller --precision)")
    elif a.command == "chern":
        yield from _law(a.n, a.weight + 1, "--weight")  # present's law
        yield from _classes(a.q, a.weight, CHERN_COST_BOUND)
    elif a.command == "page":
        yield ("the chart", page_cost(a.n, a.window, a.caps), "work units",
               PAGE_COST_BOUND, "--caps or --n, or narrow --window")
    elif a.command == "coeff":
        yield (f"n={a.n}", 2 ** (a.n + 2) + 1, "closed-form page rows",
               COEFF_ROW_BOUND, "--n")
    elif a.command == "bo":
        yield from _law(a.n, a.weight + 1, "--weight")  # present's law
        yield from _classes(a.weight if a.q is None else a.q, a.weight,
                            BO_COST_BOUND)
    elif a.command == "orient":
        yield from _law(a.n, a.weight + 3, "--weight")  # thom_ratio's
        if a.weight >= 1:
            shift = (0, 6, 8, 11, 17)[a.n - 1] if a.n <= 5 else 7 * a.n - 18
            yield (f"n={a.n} at weight {a.weight}", a.weight ** 8 << shift,
                   "work units", ORIENT_WEIGHT_BOUND, "--weight")
        if a.span >= 0 and a.caps >= 0:
            yield ("the degree-gap scan",
                   page_cost(a.n, (-a.span, a.span), a.caps)
                   + 8 * 4 ** (a.n + 2), "work units", ORIENT_SCAN_BOUND,
                   "--span, --caps or --n")


def _admit(args) -> None:
    """Raise InputError for the first cost model past its bound."""
    if args.n > HEIGHT_BOUND:
        raise InputError(f"n={args.n} is past the height bound of"
                         f" {HEIGHT_BOUND}; lower --n")
    if args.n < 1:
        return
    for what, cost, unit, bound, flags in _models(args):
        if cost > bound:
            raise InputError(f"{what} is estimated at {_shown(cost)} {unit},"
                             f" past the bound of {bound}; lower {flags}")


# -- subcommands --------------------------------------------------------------


def _series_terms(uni, cut: int) -> list[dict]:
    return [{"exponent": exp, "coefficient": str(uni[exp])}
            for exp in range(min(len(uni), cut + 1)) if not uni[exp].is_zero]


def _cmd_fgl(args):
    if args.terms < 0:
        raise InputError("terms must be non-negative")
    law = GroupLaw.of(args.n, args.precision)
    negation = law.hat_iota()
    doubling = law.hat_k_series(2)
    result = {
        "lam": law.spec.lam,
        "precision": law.precision,
        "negation": _series_terms(negation, args.terms),
        "doubling": _series_terms(doubling, args.terms),
    }
    lines = [f"formal group data, n={args.n}, precision={law.precision}"]
    for label, key in (("[-1](u)", "negation"), ("[2](u)", "doubling")):
        lines.append(f"{label}:")
        lines += [f"  u^{term['exponent']}: {term['coefficient']}"
                  for term in result[key]]
    return result, "\n".join(lines)


def _cmd_chern(args):
    if args.weight < 0:  # before a law at precision weight + 1 is asked for
        raise InputError("negative weight bound")
    # the context reads iota through u^weight, as present's law does; at
    # weight 0 the smallest law, so the context refuses the weight
    iota = GroupLaw.of(args.n, max(args.weight + 1, 2)).hat_iota()
    ctx = SymmetricContext(iota, args.q, args.weight)
    classes = []
    for k in range(1, args.q + 1):
        conj = ctx.conjugate_chern(k)
        profile = ctx.conjugation_defect_mod2(k)
        classes.append({
            "k": k,
            "conjugate": str(conj),
            "defect_weights_mod2": sorted(profile),
        })
    result = {"q": args.q, "weight": args.weight, "classes": classes}
    lines = [f"conjugate classes, n={args.n}, q={args.q},"
             f" weight={args.weight}"]
    for entry in classes:
        lines.append(f"c{entry['k']}* = {entry['conjugate']}")
        lines.append(f"  mod-2 defect at weights {entry['defect_weights_mod2']}")
    return result, "\n".join(lines)


def _cmd_page(args):
    chart, meta = _chart_for(args)
    band = meta["rows_shown"]
    cells = [{"m": m, "t": t, "structure": str(st), "free": st.free_rank,
              "torsion": list(st.torsion)}
             for (m, t), st in sorted(chart.items())]
    result = {"cells": cells, **meta}
    if args.format == "svg":
        return result, emit_chart(chart, args.n, args.r, args.window, band)
    lines = [f"page {args.r}, n={args.n}, engine={args.engine},"
             f" t in {args.window[0]}..{args.window[1]}, rows 0..{band}"]
    lines += [f"  m={c['m']:>3} t={c['t']:>5}: {c['structure']}"
              for c in cells]
    if "flagged_cells" in meta:
        lines.append(f"  oracle flagged cells: {meta['flagged_cells']}")
    if "engines_agree" in meta:
        lines.append("  all engines agree on the window")
    return result, "\n".join(lines)


def _cmd_coeff(args):
    gens = named_generators(args.n)
    page = limit_page(args.n)  # one build for the profile and the relation
    result = {
        "period": total_period(args.n),
        "generators": [
            {"name": cls.name, "row": cls.row,
             "total_degree": cls.total_degree, "series": str(cls.series)}
            for cls in gens.values()
        ],
        "filtration": [
            {"row": row, "blocks": list(blocks)}
            for row, blocks in filtration_profile(args.n, page)
        ],
    }
    lines = [f"coefficients, n={args.n}, period {result['period']}"]
    for g in result["generators"]:
        lines.append(f"  {g['name']}: degree {g['total_degree']},"
                     f" row {g['row']}, {g['series']}")
    if args.relation:
        report = relation_check(args.n, args.relation, page)
        result["relation"] = {
            "text": args.relation, "holds": report.holds,
            "witness": report.witness, "summand": report.summand,
        }
        verdict = "holds" if report.holds else "fails"
        lines.append(f"relation {args.relation!r} {verdict}:"
                     f" {report.witness} in {report.summand}")
    return result, "\n".join(lines)


def _cmd_bo(args):
    q = args.q if args.q is not None else args.weight
    pres = present(args.n, q, args.weight)
    result = {
        "q": q,
        "weight": args.weight,
        "generator_degrees": list(pres.generator_degrees),
        "relations": [str(rel) for rel in pres.relations],
        # a relation that vanishes at this weight has no head: null
        "heads": [
            None if head is None else
            {"monomial": str(GradedSeries(pres.spec, {head[0]: TwoLocal(1)})),
             "coefficient": str(head[1])}
            for head in pres.heads
        ],
    }
    lines = [f"class ring, n={args.n}, q={q}, weight={args.weight}"]
    lines += [f"  deg c{k + 1} = {d}"
              for k, d in enumerate(result["generator_degrees"])]
    for i, rel in enumerate(result["relations"], start=1):
        lines.append(f"  r{i} = {rel}")
    if args.reduce is not None:
        series = parse_series(args.reduce, pres.spec, trunc=args.weight)
        nf = reduce(series, pres)
        result["reduce"] = {
            "input": args.reduce,
            "normal_form": str(nf),
            "is_zero": nf.is_zero,
        }
        lines.append(f"reduce({args.reduce}) = {nf}")
    return result, "\n".join(lines)


def _cmd_orient(args):
    scan = orientability_scan(args.n, weight=args.weight, span=args.span,
                              caps=args.caps)
    result = {
        "bundle": scan.bundle,
        "certified": scan.certified,
        "steps": [
            {"k": s.k, "page": s.page, "method": s.method,
             "verdict": s.verdict, "target_degree": s.target_degree,
             "residue": s.residue, "modulus": s.modulus,
             "rechecked": list(s.rechecked)}
            for s in scan.steps
        ],
        "external_facts": list(scan.external_facts),
        "notes": list(scan.notes),
    }
    lines = [f"orientation scan, n={args.n}: {scan.bundle}"]
    for s in scan.steps:
        mark = "ok" if s.verdict else "FAIL"
        extra = (f" degree {s.target_degree} = {s.residue}"
                 f" mod {s.modulus}" if s.method == "degree-gap" else "")
        lines.append(f"  page {s.page:>2} k={s.k} {s.method}: {mark}{extra}")
    lines.append("certified" if scan.certified else "NOT certified")
    for fact in scan.external_facts:
        lines.append(f"external: {fact}")
    for note in scan.notes:
        lines.append(f"note: {note}")
    return result, "\n".join(lines)


# -- wiring -------------------------------------------------------------------


@lru_cache(maxsize=1)  # built on the first main call, then reused
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erjw",
        description="graded coefficient computations and certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, required=True,
                       help="height of the theory, at least 1")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_fgl = sub.add_parser("fgl", help="negation and doubling series")
    common(p_fgl)
    p_fgl.add_argument("--precision", type=int, default=None,
                       help="series cutoff; default 2^(n+2)")
    p_fgl.add_argument("--terms", type=int, default=8,
                       help="exponents to display")
    p_fgl.set_defaults(func=_cmd_fgl)

    p_chern = sub.add_parser("chern", help="conjugate symmetric classes")
    common(p_chern)
    p_chern.add_argument("--q", type=int, required=True)
    p_chern.add_argument("--weight", type=int, default=6)
    p_chern.set_defaults(func=_cmd_chern)

    p_page = sub.add_parser("page", help="coefficient page charts")
    p_page.add_argument("--n", type=int, required=True)
    p_page.add_argument("--format", choices=("text", "json", "svg"),
                        default="text")
    p_page.add_argument("--r", type=int, required=True, help="page index")
    p_page.add_argument("--window", type=_window, required=True,
                        metavar="LO..HI", help="total degree window")
    p_page.add_argument("--caps", type=int, default=6)
    p_page.add_argument("--engine",
                        choices=("closed", "step", "oracle", "all"),
                        default="all")
    p_page.set_defaults(func=_cmd_page)

    p_coeff = sub.add_parser("coeff", help="named classes and relations")
    common(p_coeff)
    p_coeff.add_argument("--relation", default=None,
                         help="equality chain to check, e.g."
                         " 'alpha*alpha_2 = 2*w'")
    p_coeff.set_defaults(func=_cmd_coeff)

    p_bo = sub.add_parser("bo", help="class ring presentation")
    common(p_bo)
    p_bo.add_argument("--q", type=int, default=None,
                      help="class count; defaults to the weight bound")
    p_bo.add_argument("--weight", type=int, required=True)
    p_bo.add_argument("--reduce", default=None, metavar="EXPR",
                      help="expression to normal-form in the ring")
    p_bo.set_defaults(func=_cmd_bo)

    p_orient = sub.add_parser("orient", help="orientation certificates")
    common(p_orient)
    p_orient.add_argument("--weight", type=int, default=4)
    p_orient.add_argument("--span", type=int, default=8)
    p_orient.add_argument("--caps", type=int, default=4)
    p_orient.set_defaults(func=_cmd_orient)
    return parser


def _config_echo(args) -> dict:
    out = {key: list(value) if isinstance(value, tuple) else value
           for key, value in sorted(vars(args).items())
           if key not in ("func", "format")}
    out["format"] = args.format
    return out


_DASH_VALUED = ("--window", "--reduce", "--relation")


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # windows like -48..48 and expressions like -2*c1 start with a dash;
    # glue them to their flag so the parser does not read them as options
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in _DASH_VALUED and argv[i].startswith("-") \
                and not argv[i].startswith("--"):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        _admit(args)
        result, text = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathInvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        envelope = {
            "version": __version__,
            "command": args.command,
            "config": _config_echo(args),
            "result": result,
        }
        text = json.dumps(envelope, sort_keys=True, indent=2)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed the pipe early; send the interpreter's last
        # flush to devnull so it stays silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The class ring modulo conjugation: presentation, normal forms, the
periodicity decomposition, and window-scale flatness checks.

The fixed-point cohomology of the classifying spaces is the coefficient
ring with one class generator per rank, modulo the differences between
each class and its conjugate.  Everything here works at a finite weight
bound W: the weight truncation is a ring quotient, so identities proved
below W are exact statements about the truncated ring.

`present` expands the relation series and pins their leading terms.
`in_ideal` solves for membership in the relation ideal against the
degree-D relation lattice, which each presentation builds and certifies
once per (D, caps) and keeps, its 32 most recent, in `lattice`.
`reduce` rewrites ring elements to a normal form by eliminating, at each
step, the smallest term divisible by some relation head; heads are
minimal in the order (class weight, class tuple, vhat tuple, periodicity
exponent), and an elimination only ever creates larger terms, which is
the termination argument.  Division by a head requires matching 2-adic
valuation; coefficients are never split.

`hat_decompose` splits a homogeneous element over the periodic
coefficient ring into parts indexed by the residue of the periodicity
exponent, each part a multiple of a fixed residue basis element with
hat-graded coefficient.  `landweber_window_check` verifies, degree by
degree inside a window, that multiplication by the stage-k generator has
zero kernel on the presented quotient modulo the stage-k ideal.  At
stage 0 that is torsion-freeness of the capped part of one lattice, read
by the parities of the basis `DegreeColumns.capped_part` gives it; at
stages k >= 1 it is, exactly, a GF(2) question.  The vhat caps are a
window, not a quotient: monomials pushed past the cap by a relation tail
or a multiplication get fresh overflow columns, so no lattice row is
silently projected.
"""

from __future__ import annotations

from functools import lru_cache, partial
from types import MappingProxyType

from .bss import DegreeColumns
from .errors import (InputError, MathInvariantError, Record, ReductionError,
                     check_ints)
from .fgl import GroupLaw, UniSeries
from .graded import GradedSeries, GradingSpec
from .scalar2 import BitSpan, RowSpan, TwoLocal, bit_preimage_within, val2
from .scalar2 import snf_with_transforms  # noqa: F401 (bench/tests traces it)
from .symchern import SymmetricContext

__all__ = [
    "RingPresentation",
    "HatDecomposition",
    "FlatnessCertificate",
    "present",
    "reduce",
    "in_ideal",
    "hat_decompose",
    "residue_certificate",
    "landweber_window_check",
]


# -- term order ------------------------------------------------------------


def _order_key(spec: GradingSpec, key):
    # class weight, the classes, then vhat and the periodicity exponent
    return (spec.weight_of(key), key[spec.classes], key[1:spec.n + 1])


def _head(spec: GradingSpec, series: GradedSeries):
    """Minimal term in the rewriting order, or None for zero."""
    best = None
    for key, coeff in series.terms.items():
        ok = _order_key(spec, key)
        if best is None or ok < best[0]:
            best = (ok, key, coeff)
    if best is None:
        return None
    return (best[1], best[2])


def _check_element(z: GradedSeries, p: RingPresentation) -> None:
    if z.spec != p.spec:
        raise InputError("element over a different class ring")
    for key in z.keys():
        if key[0]:
            raise InputError("element leaves the class ring")
        if p.spec.hat_residue(key[p.spec.n]):
            raise InputError("periodicity exponent off the hat lattice")
    if any(p.spec.weight_of(k) > p.weight for k in z.keys()):
        raise InputError(f"element exceeds the weight bound {p.weight}")


# -- presentation ----------------------------------------------------------


class RingPresentation(Record):
    """Class generators and the conjugation relations at one weight bound.

    `lattice(D, caps)` is the relation lattice `in_ideal` solves in:
    (its columns, a read-only {key: column}; the certified `RowSpan` of
    its rows).  It is built once per (D, caps) and kept, the 32 most
    recent, with this presentation alone, so it goes when the
    presentation does.
    """

    _fields = ("n", "q", "weight", "spec", "generator_degrees", "relations",
               "heads")

    def __init__(self, n: int, q: int, weight: int, spec: GradingSpec,
                 generator_degrees: tuple[int, ...],
                 relations: tuple[GradedSeries, ...], heads: tuple):
        self._fill(n, q, weight, spec, generator_degrees, relations, heads)
        # not a field: left out of ==, hash and repr.  The builder holds
        # the relations, not the presentation, so no cycle keeps it alive
        object.__setattr__(self, "lattice", lru_cache(maxsize=32)(partial(
            _relation_lattice, spec, relations, weight)))


def _relation_lattice(spec: GradingSpec, relations, weight: int, D: int,
                      caps: int) -> tuple[MappingProxyType, RowSpan]:
    """The degree-D lattice of relation multiples of capped basis
    monomials: its read-only columns and the certified span of its rows."""
    cols = DegreeColumns(spec, D, caps, weight)
    span = RowSpan(cols.matrix(cols.lattice_rows(relations, 0, weight)))
    return MappingProxyType(cols.index), span


def _class_key(spec: GradingSpec, k: int):
    return next(iter(GradedSeries.gen(spec, f"c{k}").keys()))


def _assert_head_shape(spec: GradingSpec, rel: GradedSeries, k: int) -> None:
    if k % 2:
        head = _head(spec, rel)
        if head is None or head[0] != _class_key(spec, k) or \
                head[1] != TwoLocal(2):
            raise MathInvariantError(
                f"odd relation {k} does not lead with twice the class")
    elif any(spec.weight_of(key) == k for key in rel.keys()):
        raise MathInvariantError(
            f"even relation {k} keeps weight-{k} content")


def present(n: int, q: int, weight: int,
            iota: UniSeries | None = None) -> RingPresentation:
    """Generators and relations for q classes at weight bound `weight`.

    The k-th relation is the class minus its conjugate; pass a toy `iota`
    to exercise consumers against a hand-built law.  Without one, the
    presentation is built once per process for each (n, q, weight).
    """
    check_ints({"n": n, "q": q, "weight": weight})
    if weight < 1:
        raise InputError("weight bound must be positive")
    if q < 1:
        raise InputError("need at least one class")
    if iota is None:
        return _present_law(n, q, weight)
    return _present(n, q, weight, iota)


@lru_cache(maxsize=32)
def _present_law(n: int, q: int, weight: int) -> RingPresentation:
    return _present(n, q, weight, GroupLaw.of(n, weight + 1).hat_iota())


def _present(n: int, q: int, weight: int,
             iota: UniSeries) -> RingPresentation:
    if iota.spec.n != n:
        raise InputError("conjugation series built at a different height")
    ctx = SymmetricContext(iota, q=q, weight=weight)
    spec = ctx.spec
    relations = []
    heads = []
    for k in range(1, q + 1):
        rel = ctx.chern_class(k) - ctx.conjugate_chern(k)
        _assert_head_shape(spec, rel, k)
        relations.append(rel)
        heads.append(_head(spec, rel))
    return RingPresentation(n, q, weight, spec, spec.degrees[spec.classes],
                            tuple(relations), tuple(heads))


# -- reduction to normal form ----------------------------------------------


def reduce(z: GradedSeries, p: RingPresentation) -> GradedSeries:
    """Normal form of z modulo the relation ideal.

    Eliminates whole terms only: a term falls to a relation when the head
    monomial divides it componentwise (the periodicity exponent is free,
    both being on the hat lattice) and the head coefficient's 2-adic
    valuation does not exceed the term's.  The rewriting is certified on
    return: nf plus the multiples quot * rel it took off must be z,
    weight-truncated, or MathInvariantError is raised.
    """
    _check_element(z, p)
    work = start = z.truncated(p.weight)
    moved = GradedSeries.zero(p.spec)  # the sum of the multiples taken off
    rules = []
    for h, rel in zip(p.heads, p.relations):
        if h is not None:
            rules.append((h[0], h[1], rel))
    limit = 64 * (len(work.terms) + 8) * (p.weight + 1)
    quotient = p.spec.quotient
    steps = 0
    last = None
    while True:
        target = None
        for key, coeff in work.terms.items():
            for hk, hc, rel in rules:
                quot_key = quotient(key, hk)
                if quot_key is not None and val2(hc) <= val2(coeff):
                    ok = _order_key(p.spec, key)
                    if target is None or ok < target[0]:
                        target = (ok, key, coeff, quot_key, hc, rel)
                    break
        if target is None:
            if work + moved != start:
                raise MathInvariantError(
                    "normal form plus the eliminated multiples is not z")
            return work
        ok, key, coeff, quot_key, hc, rel = target
        if last is not None and ok <= last:
            raise ReductionError("rewriting order failed to increase")
        last = ok
        multiple = rel.times_key(quot_key, p.weight) * (coeff / hc)
        work, moved = work - multiple, moved + multiple
        if work.coefficient(key):
            raise ReductionError("head elimination left the term behind")
        steps += 1
        if steps > limit:
            raise ReductionError("rewriting exceeded the step bound")


def in_ideal(z: GradedSeries, p: RingPresentation, caps: int = 6) -> bool:
    """Membership of z in the relation ideal of the weight-truncated ring.

    Head rewriting alone cannot decide membership: the relations are not
    a complete rewriting system, and a zero normal form is sufficient
    but not necessary.  This solves instead: each homogeneous part of z
    must be an integral combination of relation multiples inside the
    weight-W quotient, where the weight truncation is exact.  Monomials
    pushed past the vhat caps still get honest overflow columns, so a
    True is certain: z is a combination of relation multiples.  A False
    is not a proof of non-membership.  It means only that the lattice of
    multiples of capped basis monomials misses z; larger caps can find a
    member that smaller caps miss.

    Each degree-D lattice is built and certified once per (presentation,
    D, caps), before z is read, and kept in `p.lattice`, at most 32 per
    presentation; every call places z's part at D in its columns by
    lookup, registering nothing, and reduces it against the span.  A key
    of z outside every column gives False at once: every lattice row is
    zero there.
    """
    check_ints({"caps": caps})
    _check_element(z, p)
    for D in z.degrees():
        columns, span = p.lattice(D, caps)
        nums, den = z.homogeneous_part(D).as_two_local().numerators
        row = [0] * len(columns)
        for key, x in nums.items():
            col = columns.get(key)
            if col is None:
                return False
            row[col] = x
        if span.reduce(row, den) is None:
            return False
    return True


# -- periodicity decomposition ----------------------------------------------


class HatDecomposition(Record):
    """A homogeneous element split along the periodicity residue basis."""

    _fields = ("n", "source_spec", "components", "residues", "bounded")

    def __init__(self, n: int, source_spec: GradingSpec, components: dict,
                 residues: tuple[int, ...], bounded: bool):
        self._fill(n, source_spec, components, residues, bounded)

    def recombine(self) -> GradedSeries:
        n, spec = self.n, self.source_spec
        out = GradedSeries.zero(spec)
        for j, comp in self.components.items():
            out = out + comp._mapped(
                lambda k: (k[:n] + (k[n] + j,) + k[n + 1:], 1), spec, None)
        return out


def hat_decompose(element: GradedSeries,
                  residue_bound: int | None = None) -> HatDecomposition:
    """Split a homogeneous element by its periodicity-exponent residue.

    Each component is the cofactor of one residue basis element, carried
    over to the hat grading, where its degree is a multiple of the hat
    degree unit.  Height one has no finite residue basis, so a bound on
    the exponents must be supplied there.
    """
    spec = element.spec
    if spec.alphabet != "standard":
        raise InputError("decomposition starts from the standard alphabet")
    if not element.is_homogeneous():
        raise InputError("element must be homogeneous")
    n = spec.n
    hat_spec = GradingSpec(n, spec.q, spec.roots, "hat")
    # the residue basis range(P); empty at height one, where P = 0
    basis = range(hat_spec.hat_offset)
    if not basis and residue_bound is None:
        raise InputError("height one needs an explicit residue bound")
    parts: dict[int, dict] = {}
    for k, coeff in element.terms.items():
        j = hat_spec.hat_residue(k[n])
        if not basis and abs(j) >= residue_bound:
            raise InputError(f"exponent {k[n]} outside the residue bound")
        parts.setdefault(j, {})[k[:n] + (k[n] - j,) + k[n + 1:]] = coeff
    components = {}
    for j, terms in sorted(parts.items()):
        comp = GradedSeries(hat_spec, terms)
        for d in comp.degrees():
            if d not in hat_spec.hat_degrees(d, d):
                raise MathInvariantError(
                    "component degree misses the hat lattice")
        components[j] = comp
    return HatDecomposition(n, spec, components,
                            tuple(basis or sorted(parts)), not basis)


def residue_certificate(n: int) -> dict[int, int]:
    """Degree class of each residue basis element, shown pairwise distinct.

    The classes cover exactly the even residues modulo the hat degree
    unit; the gcd witness is (2^n - 1) - 2(2^(n-1) - 1) = 1.
    """
    check_ints({"n": n})
    if n < 2:
        raise InputError("height one has no finite residue basis")
    P = GradingSpec(n, alphabet="hat").hat_offset
    lam1 = 2 * P
    step = 2 * (2 ** n - 1)
    if (2 ** n - 1) - 2 * (2 ** (n - 1) - 1) != 1:
        raise MathInvariantError("gcd witness identity failed")
    classes = {j: (-step * j) % lam1 for j in range(P)}
    if len(set(classes.values())) != P:
        raise MathInvariantError("residue degree classes collide")
    if set(classes.values()) != set(range(0, lam1, 2)):
        raise MathInvariantError("residue classes miss an even degree slot")
    return classes


# -- window-scale flatness ---------------------------------------------------


class FlatnessCertificate(Record):
    """The outcome of one window check: its inputs, whether every degree
    passed, the (degree, target degree) pairs that passed and the degrees
    that failed."""

    _fields = ("n", "q", "k", "window", "weight", "caps", "ok", "checked",
               "failures")

    def __init__(self, n: int, q: int, k: int, window: tuple[int, int],
                 weight: int, caps: int, ok: bool,
                 checked: tuple[tuple[int, int], ...],
                 failures: tuple[int, ...]):
        self._fill(n, q, k, window, weight, caps, ok, checked, failures)


def _stage_multiplier(spec: GradingSpec, k: int, weight: int) -> GradedSeries:
    if k == 0:
        return GradedSeries.unit(spec, TwoLocal(2), weight)
    if k < spec.n:
        return GradedSeries.gen(spec, f"vh{k}", trunc=weight)
    return GradedSeries.monomial(spec, vn=-spec.hat_offset, trunc=weight)


def _mod2(rows) -> tuple[int, ...]:
    """Each ({column: int}, odd den) row mod 2, as the int bitmask of its
    columns with an odd numerator."""
    return tuple(sum(1 << c for c, x in row.items() if x & 1)
                 for row, _ in rows)


def _mod2_lattice(cols: DegreeColumns, rows) -> tuple[int, ...]:
    """A lattice containing 2 Z_(2)^m, mod 2: its nonzero row bitmasks.

    Raise MathInvariantError unless every column of cols holds a row of
    one entry of valuation at most 1, which puts twice that column's unit
    vector in the lattice; only then is the lattice the full preimage of
    its image mod 2.
    """
    doubled = {c for row, _ in rows if len(row) == 1
               for c, x in row.items() if x % 4}
    if not doubled.issuperset(range(len(cols.index))):
        raise MathInvariantError(
            f"a stage lattice at degree {cols.D} lacks a doubling row")
    return tuple(bits for bits in _mod2(rows) if bits)


def _torsion_free(cols: DegreeColumns, rows) -> bool:
    """Whether Z_(2)^nb modulo L', the part of the span of rows on the nb
    capped columns, is torsion-free: whether the independent rows of
    `cols.capped_part(rows)` stay independent mod 2 (a unit maximal minor)."""
    return not BitSpan(sum(1 << c for c, x in enumerate(row) if x & 1)
                       for row in cols.capped_part(rows).rows).relations


def _check_window_inputs(n, q, k, window, weight, caps) -> tuple[int, int]:
    """The window's ends, once every input is an int (and no bool)."""
    try:
        lo, hi = window
    except (TypeError, ValueError):
        raise InputError("the window must be a pair of ints") from None
    check_ints({"n": n, "q": q, "k": k, "window start": lo,
                "window end": hi, "weight": weight, "caps": caps})
    return lo, hi


def landweber_window_check(n: int, q: int, k: int,
                           window: tuple[int, int], weight: int = 8,
                           caps: int = 6,
                           iota: UniSeries | None = None
                           ) -> FlatnessCertificate:
    """Zero-kernel check for the stage-k multiplication inside a window.

    For every hat-lattice degree D with the pair (D, D + |stage k|) in
    the window, multiplication by the stage-k generator on the presented
    quotient modulo the stage-k ideal must have zero kernel: the preimage
    {x : x @ A in L_tgt} of the target lattice under the image rows A
    may not exceed the source lattice L_src.  Every pair is built and
    listed, but a pair whose question equals an earlier pair's, as it
    does one vn-period on, takes that verdict.

    At stage 0 the multiplier is 2 in degree 0: the target columns are
    the source ones, A is 2 [I | 0] and both lattices are the same L, so
    the question is whether Z_(2)^nb modulo L', the part of L on the nb
    capped columns, is torsion-free.  `_torsion_free` decides it from
    the parities of the basis of L' that `DegreeColumns.capped_part`
    reads off one certified echelon form.  A pair reuses a verdict when
    its capped column count, width and rows all equal an earlier pair's.
    At k >= 1 the question is exactly a GF(2) one (`bit_preimage_within`):
    I_k contains 2, and `DegreeColumns.lattice_rows` adds a doubling row
    for every column, so both lattices contain 2 Z_(2)^m and each is the
    full preimage of its image mod 2.  A's entries lie in Z_(2), so the
    preimage is the full preimage of its own image mod 2 as well, and the
    inclusion holds if and only if it holds mod 2.  `_mod2_lattice` checks the doubling
    rows before any lattice is read mod 2.  At k = n the multiplier
    vn^-P is a unit, so every verdict there is True; it is still computed.
    """
    lo, hi = _check_window_inputs(n, q, k, window, weight, caps)
    if not 0 <= k <= n:
        raise InputError("stage index out of range")
    if lo > hi:
        raise InputError("empty degree window")
    # The presentation is expanded well past the reporting weight: lattice
    # rows built from weight-truncated relations would close rewriting
    # staircases and show torsion the completed quotient does not have.
    deep = 2 * weight
    pres = present(n, q, deep, iota=iota)
    spec = pres.spec
    mult = _stage_multiplier(spec, k, deep)
    wk = mult.internal_degree()
    degrees = spec.hat_degrees(lo, hi - wk)
    if not degrees:
        raise InputError("window too small for any multiplication pair")

    checked = []
    failures = []
    # one elimination per distinct question, kept for this call only
    verdicts: dict[tuple, bool] = {}
    for D in degrees:
        tgt = D + wk
        src_cols = DegreeColumns(spec, D, caps, weight)
        num = src_cols.lattice_rows(pres.relations, k, deep)
        if k == 0:
            question = (len(src_cols.basis), len(src_cols.index),
                        tuple((frozenset(row.items()), d) for row, d in num))
            if question not in verdicts:
                verdicts[question] = _torsion_free(src_cols, num)
        else:
            tgt_cols = DegreeColumns(spec, tgt, caps, weight)
            # one image row per source basis monomial, in basis order
            img = [tgt_cols.row(mult.times_key(mono, deep))
                   for mono in src_cols.basis]
            den = tgt_cols.lattice_rows(pres.relations, k, deep)
            question = (_mod2(img), _mod2_lattice(tgt_cols, den),
                        _mod2_lattice(src_cols, num))
            if question not in verdicts:
                verdicts[question] = bit_preimage_within(*question)
        if verdicts[question]:
            checked.append((D, tgt))
        else:
            failures.append(D)
    return FlatnessCertificate(n, q, k, (lo, hi), weight, caps,
                               not failures, tuple(checked), tuple(failures))

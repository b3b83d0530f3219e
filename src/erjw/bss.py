"""Page bookkeeping for the y-filtration spectral sequence, three ways.

Pages live over the hat alphabet.  A chart position is (m, t): m is the
filtration row (the y exponent) and t = internal - m * lambda is the
column, so every differential d_r moves by (+r, +1).  Only
r = 2^(k+1) - 1 with 0 <= k <= n carries a nonzero map:

    d_1(A v^b)       = 2 A v^(b - (2^n - 1)) y           for odd b,
    d_r(A v^(2^k b)) = -A b vhat_k v^(2^k b + 2^k - 2^(n+k)) y^r
                                                          for odd b, k >= 1,

with the convention that vhat_n means v^(-P), P = 2^(n+1)(2^(n-1)-1).
Both formulas raise the internal degree by exactly 1 + r * lambda.

The engines:

  * closed_form_page writes each page down directly.  Every row is a sum
    of standard blocks I_i (R[v^(+-2^s)] / I_j) v^c with I_i the ideal
    (2, vhat_1, ..., vhat_(i-1)); a block is zero when 0 < i <= j or when
    j = n + 1.
  * homology_step takes a page in that shape through one differential by
    splitting each block into its kernel and reduction parts; iterating
    from page 1 is the second, independent route.
  * TruncatedOracle forgets the closed forms entirely: it enumerates
    monomials in a (m, t) window with capped vhat exponents and advances
    one honest cycle and one boundary lattice over the whole window
    through d_r, built once per page as the monomial map the raw formulas
    give, each monomial to at most one and no two to one (checked), so
    each lattice is one 2-adic valuation per monomial.  The map is built
    only on the monomials d_r can move, those whose vn exponent has
    2-adic valuation k for r = 2^(k+1) - 1, filed by that valuation once
    per window.  A page's work is per key, over the keys d_r moves, and
    per flag; its checks run on every page, and a page is charted only
    when it is read.  Window and cap overflows are flagged per position
    so comparisons skip exactly the positions the truncation polluted.

Base change along a flat coefficient module tensors a page with either a
free module (degree-shifted copies of each block) or a presented one
(class generators and homogeneous relations); the latter yields chart
structures through per-degree lattice quotients.  Their rows come from
DegreeColumns, the one lattice-row builder: each relation multiple is a
shift of a stencil compiled once per lattice (see lattice_rows).  A
multiple that leaves the capped basis keeps its outside monomials as
overflow columns, never dropped, and the degrees where a row meets both
kinds of column are reported.  Each quotient is of two lattice parts on
the capped columns, both read by DegreeColumns.capped_part, the route the
stage-0 window check shares.  Every capped basis here and in the oracle
is graded.degree_basis, read from one residue table per (spec, caps,
weight).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, partial
from math import gcd
from operator import add, itemgetter

from .errors import (
    EmptyBasisError,
    FlatnessCertificateError,
    InputError,
    MathInvariantError,
    NonUnitDivisionError,
    PageShapeError,
    Record,
    check_ints,
)
from .graded import GradedSeries, GradingSpec, degree_basis
from .scalar2 import (
    LocalMatrix,
    ModuleStructure,
    RowSpan,
    quotient_structure,
    snf_with_transforms,  # noqa: F401 (bench/tests traces it)
    val2,
)


def admissible_differentials(n: int) -> tuple[int, ...]:
    check_ints({"n": n})
    return tuple(2 ** (k + 1) - 1 for k in range(n + 1))


def _page_level(r: int) -> int:
    check_ints({"page index": r})
    if r < 1:
        raise InputError(f"page index {r} out of range")
    return r.bit_length() - 1


def _merge(parts) -> ModuleStructure:
    free = 0
    torsion: list[int] = []
    for p in parts:
        free += p.free_rank
        torsion.extend(p.torsion)
    return ModuleStructure(free, tuple(sorted(torsion)))


# -- the differential formulas -------------------------------------------


def apply_differential(series: GradedSeries, r: int,
                       strict: bool = True) -> GradedSeries:
    """Apply d_r to a hat-alphabet series.

    In strict mode a vn exponent that is not divisible by 2^k (for
    r = 2^(k+1) - 1) is an error; with strict=False such monomials are
    sent to zero, as the formulas send them.
    """
    spec = series.spec
    if spec.alphabet != "hat":
        raise InputError("differentials act on the hat alphabet")
    n = spec.n
    if r < 1 or (r + 1) & r or r > 2 ** (n + 1) - 1:
        raise InputError(f"d_{r} is not admissible for n={n}")
    k = (r + 1).bit_length() - 2
    if strict:
        for key in series.keys():
            if key[n] % (2 ** k):
                raise InputError(
                    f"vn exponent {key[n]} is not a multiple of 2^{k}")
    return series._mapped(partial(_d_key, r=r, n=n, P=spec.hat_offset))


def _d_key(key: tuple, r: int, n: int, P: int):
    """d_r of the hat monomial `key` as (image key, int coefficient), or
    None where the formulas above give zero; P is the spec's hat_offset."""
    vn = key[n]
    image = list(key)
    if r == 1:
        if vn % 2 == 0:
            return None
        image[0] += 1
        image[n] -= 2 ** n - 1
        return tuple(image), 2
    k = r.bit_length() - 1
    if vn % (2 << k) != 1 << k:
        return None
    image[0] += r
    image[n] += (1 << k) - (1 << (n + k))
    if k == n:
        image[n] -= P
    else:
        image[k] += 1  # vh_k
    return tuple(image), -(vn >> k)


# -- standard blocks and closed-form pages ---------------------------------


class StandardSummand(Record):
    """One block I_i (R[v^(+-2^s)] / I_j) v^c, possibly degree-shifted;
    c is kept modulo 2^s."""

    _fields = ("n", "i", "j", "s", "c", "shift")

    def __init__(self, n: int, i: int, j: int, s: int, c: int,
                 shift: int = 0):
        self._fill(n, i, j, s, c, shift)
        if not 0 <= i <= n + 1 or not 0 <= j <= n + 1:
            # the message shows c as given
            raise InputError(f"ideal indices out of range in {self}")
        if s < 0:
            raise InputError("negative periodicity exponent")
        object.__setattr__(self, "c", c % 2 ** s)

    @property
    def is_zero(self) -> bool:
        return (0 < self.i <= self.j) or self.j == self.n + 1

    def notation(self) -> str:
        num = "R" if self.i == 0 else f"I_{self.i}R"
        den = "" if self.j == 0 else f"/I_{self.j}"
        off = f"v^{self.c}" if self.c else ""
        sh = f"<{self.shift}>" if self.shift else ""
        return f"{num}{den}[v^±{2 ** self.s}]{off}{sh}"

    def structure_at(self, D: int, caps: int,
                     spec: GradingSpec) -> ModuleStructure:
        """Z_(2)-module structure in internal degree D, vhat exponents
        capped at `caps`; `spec` is the hat spec of n.  The ideal index i
        is invisible when j = 0 (the block is a full-rank sublattice of a
        free module); for j >= 1 each monomial is one Z/2."""
        if self.is_zero:
            return ModuleStructure(0, ())
        i, j = self.i, self.j
        count = 0
        # a key is y, then vh_l at index l, then vn at index n
        for key in degree_basis(spec, D - self.shift, caps):
            if j >= 1 and any(key[1:j]):
                continue
            if i > j >= 1 and not any(key[j:i]):
                continue
            if (key[self.n] - self.c) % 2 ** self.s:
                continue
            count += 1
        if self.j == 0:
            return ModuleStructure(count, ())
        return ModuleStructure(0, (2,) * count)


class Page(Record):
    """The page at index r: its nonzero blocks by filtration row, rows
    0..m_max.  Compared by value and unhashable, as `rows` is a dict."""

    _fields = ("n", "r", "rows", "m_max")
    __hash__ = None

    def __init__(self, n: int, r: int,
                 rows: dict[int, tuple[StandardSummand, ...]], m_max: int):
        self._fill(n, r, rows, m_max)

    @cached_property
    def spec(self) -> GradingSpec:
        return GradingSpec(self.n, alphabet="hat")

    @cached_property
    def _known(self) -> dict:
        """(summand, caps) -> {(D - shift) mod its period: structure}, for
        every read of this page: degree_basis leaves the vn exponent free,
        so a summand's structure_at(D) has period |deg vn| * 2^s in
        D - shift."""
        return {}

    def _row(self, m: int, caps: int) -> list:
        """(summand, its structure memo, its period) per nonzero block."""
        wn = -self.spec.degrees[self.n]
        known = self._known
        return [(s, known.setdefault((s, caps), {}), wn << s.s)
                for s in self.rows.get(m, ()) if not s.is_zero]

    def _cell(self, row: list, D: int, caps: int) -> ModuleStructure:
        spec = self.spec
        parts = []
        for s, seen, period in row:
            c = (D - s.shift) % period
            if c not in seen:
                seen[c] = s.structure_at(D, caps, spec)
            parts.append(seen[c])
        # a lone part is already a structure; most rows hold one
        return parts[0] if len(parts) == 1 else _merge(parts)

    def chart_structure(self, m: int, t: int, caps: int = 6) -> ModuleStructure:
        return self._cell(self._row(m, caps), t + m * self.spec.lam, caps)

    def chart(self, t_values, caps: int = 6) -> dict:
        """chart_structure on every nonzero cell, each summand asked once
        per degree class (see `_known`)."""
        lam = self.spec.lam
        out = {}
        for m in range(self.m_max + 1):
            row = self._row(m, caps)
            for t in t_values:
                st = self._cell(row, t + m * lam, caps)
                if not st.is_zero:
                    out[(m, t)] = st
        return out


def closed_form_page(n: int, r: int, m_max: int | None = None) -> Page:
    """The page at index r, written down directly.

    Pages are constant between consecutive admissible differentials, and
    everything from 2^(n+1) on is the last one.
    """
    check_ints({"n": n} if m_max is None else {"n": n, "m_max": m_max})
    if n < 1:
        raise InputError("n must be at least 1")
    if m_max is None:
        m_max = 2 ** (n + 2)
    elif m_max < 0:
        raise InputError("negative m_max")
    k = min(_page_level(r), n + 1)
    rows: dict[int, tuple[StandardSummand, ...]] = {}
    for m in range(m_max + 1):
        if k == 0:
            rows[m] = (StandardSummand(n, 0, 0, 0, 0),)
        elif m >= 2 ** k - 1:
            rows[m] = (StandardSummand(n, 0, k, k, 0),)
        else:
            j = (m + 1).bit_length() - 1
            blocks = [StandardSummand(n, 0, j, k, 0)]
            blocks += [StandardSummand(n, i, j, i + 1, 2 ** i)
                       for i in range(j + 1, k)]
            rows[m] = tuple(blocks)
    return Page(n, r, rows, m_max)


def homology_step(page: Page, r: int) -> Page:
    """Run d_r through a page in standard shape.

    Per row, blocks with i > 0 pass through untouched; the single i = 0
    block (0, j, k, 0) splits into the doubled-period part (0, j', k+1, 0)
    with j' = j except on hit rows (m >= r, where j = k must hold and j'
    is k + 1), plus the kernel block (k, j, k+1, 2^k) unless j = k.
    """
    k = _page_level(page.r)
    if k > page.n:
        raise PageShapeError("no differentials remain past the last page")
    if r != 2 ** (k + 1) - 1:
        raise PageShapeError(
            f"page {page.r} carries d_{2 ** (k + 1) - 1}, not d_{r}")
    new_rows: dict[int, tuple[StandardSummand, ...]] = {}
    for m, blocks in page.rows.items():
        main = [s for s in blocks if s.i == 0]
        if len(main) != 1:
            raise PageShapeError(f"row {m} lacks a unique i=0 block")
        s0 = main[0]
        if s0.s != k or s0.c != 0:
            raise PageShapeError(f"row {m} block {s0} has the wrong period")
        j = s0.j
        hit = m >= r
        if hit and j != k:
            raise PageShapeError(f"hit row {m} carries j={j}, expected {k}")
        one_part = StandardSummand(page.n, 0, j + 1 if hit else j, k + 1, 0,
                                   s0.shift)
        out = [one_part, *(s for s in blocks if s.i > 0)]
        if j != k:
            out.append(StandardSummand(page.n, k, j, k + 1, 2 ** k,
                                       s0.shift))
        new_rows[m] = tuple(out)
    return Page(page.n, 2 ** (k + 1), new_rows, page.m_max)


def step_engine_page(n: int, r: int, m_max: int | None = None) -> Page:
    """Reach page r from page 1 by iterated homology steps."""
    page = closed_form_page(n, 1, m_max)
    target = min(_page_level(r), n + 1)
    for k in range(target):
        page = homology_step(page, 2 ** (k + 1) - 1)
    return Page(page.n, r, page.rows, page.m_max)


# -- the truncated oracle ---------------------------------------------------


class TruncatedOracle:
    """Honest subquotient bookkeeping on a capped monomial window.

    `basis` lists the monomial keys of each position (m, t).  A key names
    its own position (key[0] is m, spec.total_of(key) is t), so `keys`,
    the set of them all, is the window, and an image lies in the window
    exactly when it is one of `keys`.  d_r sends each key to at most one
    monomial and no two keys to one (checked), so the cycle lattice Z and
    the boundary lattice B stay monomial.  Each is one window-wide map
    monomial -> a for the span of 2^a times those monomials: Z starts at
    a = 0 on every key, B empty.  `advance` builds d_r once per page as
    the map `d`, {key: (image key, int coefficient)} for each key d_r does
    not kill.  For r = 2^(k+1) - 1 those are the keys whose vn exponent
    has 2-adic valuation exactly k, so `__init__` files the keys once by
    that valuation (a key with vn = 0 never moves and is filed nowhere),
    and `d` is built over class k alone, in the order of `keys`.  An
    image's vn exponent has valuation at least k + 1, so d∘d vanishes
    formally; it is still checked, by computing d_r of every image, in
    the window or past it.  With c a key's coefficient and v the 2-adic
    valuation, d_r advances all positions at once, working only on the
    keys of `d`:

      * Z becomes the preimage of B: a key sent to key j keeps
        max(a, b_j - v(c)) if j is in B, and dies if not; a key sent
        past the window keeps a and flags its position, and a key with
        no image keeps a with no work at all;
      * B grows by the images of Z: b_j = min(b_j, a + v(c)).

    Then, over the new page, no key of Z has an odd vn exponent (a sweep
    of all of Z, not of a valuation class), and every key of B lies in Z
    with b >= a (containment).  A boundary that d_r moves into the window
    and that is no next-page cycle (d_r of it no existing boundary) fails
    containment at its own key, named as escaping under d_r.  A position
    reads Z/2^(b - a) per key in Z and B with b > a, and Z per key in Z
    alone.  It is flagged, permanently, when the truncation makes any of
    that arithmetic unknowable there: a flag spreads one d_r step a page,
    to the source and the target of a flagged position, and comes in at
    (m, t_lo) when the source left of the window holds a monomial.  The
    odd-exponent check skips flagged positions, containment none.  Each
    page's (Z, B) is kept in `pages`, and `chart_at` charts a page when
    it is first read.
    """

    def __init__(self, n: int, t_lo: int, t_hi: int, caps: int = 6,
                 m_max: int | None = None):
        check_ints({"n": n, "window start": t_lo, "window end": t_hi,
                    "caps": caps})
        if m_max is not None:
            check_ints({"m_max": m_max})
        if n < 1:
            raise InputError("n must be at least 1")
        if t_hi < t_lo:
            raise InputError("empty window")
        if caps < 0:
            raise InputError("negative caps")
        if m_max is not None and m_max < 0:
            raise InputError("negative m_max")
        self.n = n
        self.caps = caps
        self.t_lo, self.t_hi = t_lo, t_hi
        self.m_max = m_max if m_max is not None else 2 ** (n + 2)
        self.spec = GradingSpec(n, alphabet="hat")
        self.basis: dict[tuple[int, int], list] = {}
        for m in range(self.m_max + 1):
            for t in range(t_lo, t_hi + 1):
                # the y = 0 basis of internal degree t + m * lambda, at row m
                keys = [(m,) + key[1:] for key in degree_basis(
                    self.spec, t + m * self.spec.lam, caps)]
                if keys:
                    self.basis[(m, t)] = keys
        self.keys = {key for keys in self.basis.values() for key in keys}
        if self.keys <= {(0,) * (n + 1)}:  # nothing, or the lone unit
            raise EmptyBasisError("window and caps leave nothing to chart")
        # the keys by the 2-adic valuation of their vn exponent, in the
        # order of `keys`: d_(2^(k+1) - 1) moves exactly class k, and a key
        # with vn = 0 never moves, so it is in no class
        self._by_val: dict[int, list] = {}
        for key in self.keys:
            if vn := key[n]:
                self._by_val.setdefault(
                    (vn & -vn).bit_length() - 1, []).append(key)
        self.Z = dict.fromkeys(self.keys, 0)
        self.B: dict[tuple, int] = {}
        self.d: dict[tuple, tuple] = {}
        self.flags: set[tuple[int, int]] = set()
        self.level = 0
        # page index -> (Z, B) as that page left them, and the charts read
        self.pages: dict[int, tuple[dict, dict]] = {1: (self.Z, self.B)}
        self.charts: dict[int, dict] = {}

    def _cell(self, key: tuple) -> tuple[int, int]:
        return key[0], self.spec.total_of(key)

    def _chart(self, Z: dict, B: dict) -> dict:
        out = {}
        for cell, keys in self.basis.items():
            free, torsion = 0, []
            for key in keys:
                b = B.get(key)
                if b is None:
                    free += key in Z
                elif b > Z[key]:
                    torsion.append(2 ** (b - Z[key]))
            if free or torsion:
                out[cell] = ModuleStructure(free, tuple(sorted(torsion)))
        return out

    def advance(self) -> int:
        """Run the next admissible differential; returns the new page index."""
        if self.level > self.n:
            raise InputError("already at the final page")
        k = self.level
        r = 2 ** (k + 1) - 1
        n, P, keys = self.n, self.spec.hat_offset, self.keys
        Z, B, flags = self.Z, self.B, self.flags
        d = {key: e for key in self._by_val.get(k, ())
             if (e := _d_key(key, r, n, P))}
        images = {j for j, _ in d.values()}
        if any(_d_key(j, r, n, P) for j in images):
            raise MathInvariantError("d∘d is nonzero at the formula level")
        # a position maps into one position, so this is the per-cell test
        if len(images) < len(d):
            raise MathInvariantError(f"d_{r} sends two keys to one monomial")
        # flags spread one d_r step from the previous page's, to a source
        # or a target cell, and come in at the left edge from a source
        # out of view that holds a monomial
        basis, t_lo, lam = self.basis, self.t_lo, self.spec.lam
        new_flags = flags | {cell for m, t in flags for cell in (
            (m - r, t - 1), (m + r, t + 1)) if cell in basis}
        new_flags.update((m, t_lo) for m in range(r, self.m_max + 1)
                         if (m, t_lo) in basis and degree_basis(
                             self.spec, t_lo - 1 + (m - r) * lam, self.caps))
        # Z and B change only at the keys d_r moves and at their images
        new_Z, new_B = dict(Z), dict(B)
        for key, (j, c) in d.items():
            a = Z.get(key)
            if a is None:
                continue
            if j not in keys:  # the image leaves the window; Z keeps a
                new_flags.add(self._cell(key))
                continue
            v = val2(c)
            b = B.get(j)
            if b is None:
                del new_Z[key]
            elif b - v > a:
                new_Z[key] = b - v
            if j not in new_B or a + v < new_B[j]:
                new_B[j] = a + v
        for key in new_Z:
            if key[n] % 2 and (cell := self._cell(key)) not in new_flags:
                raise MathInvariantError(
                    f"odd-exponent cycle survived d_1 at {cell}")
        for key, b in new_B.items():
            a = new_Z.get(key)
            if a is None or b < a:
                moved = f" escapes under d_{r}: it" if key in d else ""
                raise MathInvariantError(f"boundary at {self._cell(key)}"
                                         f"{moved} lies outside the cycles")

        self.Z, self.B, self.d, self.flags = new_Z, new_B, d, new_flags
        self.level += 1
        self.pages[2 ** self.level] = new_Z, new_B
        return 2 ** self.level

    def run(self) -> None:
        while self.level <= self.n:
            self.advance()

    def chart_at(self, r: int) -> dict:
        """Chart at page r, built on its first read; pages between
        differentials repeat."""
        idx = 2 ** min(_page_level(r), self.n + 1)
        if idx not in self.charts:
            if idx not in self.pages:
                raise InputError(f"oracle has not advanced to page {idx} yet")
            self.charts[idx] = self._chart(*self.pages[idx])
        return self.charts[idx]

    def inadmissible_pairs(self, r: int) -> list:
        """Positions where a d_r could act between nonzero groups.

        For inadmissible r this list must come back empty; every source
        and target is only counted when inside the window and unflagged.
        """
        chart, flags = self.chart_at(r), self.flags
        return [(cell, tgt) for cell in chart
                if (tgt := (cell[0] + r, cell[1] + 1)) not in flags
                and cell not in flags and chart.get(tgt)]


# -- flat base change --------------------------------------------------------


class FreeModule(Record):
    """Finitely many free generators with internal degree shifts."""

    _fields = ("shifts", "flat_certificate")

    def __init__(self, shifts: tuple[int, ...], flat_certificate: str):
        self._fill(shifts, flat_certificate)


def _stencil(factor: GradedSeries, deep: int) -> tuple:
    """A lattice-row factor compiled once for DegreeColumns.lattice_rows:
    (the weight its multiples are cut at, its (weight, key, int numerator)
    terms by ascending weight, its denominator)."""
    nums, den = factor.numerators
    wof = factor.spec.weight_of
    terms = sorted(((wof(key), key, x) for key, x in nums.items()),
                   key=itemgetter(0))
    bound = deep if factor.trunc is None else min(deep, factor.trunc)
    return bound, terms, den


class DegreeColumns:
    """Lattice coordinates at one internal degree of the capped class ring.

    The first columns are the capped degree basis (hat-lattice monomials
    with vhat exponents at most `caps` and class weight at most
    `weight`); after them comes every overflow key a row registers.  A
    row registers its new keys in key order, so the columns depend on
    which rows came in which order, never on a series' term order.
    `capped_part` reads the part of a span on the capped columns.
    """

    def __init__(self, spec: GradingSpec, D: int, caps: int, weight: int):
        self.spec, self.D, self.caps, self.weight = spec, D, caps, weight
        self.basis = degree_basis(spec, D, caps, weight, hat_lattice=True)
        self.index = {key: i for i, key in enumerate(self.basis)}

    def row(self, series: GradedSeries) -> tuple[dict, int]:
        return self._placed(*series.as_two_local().numerators)

    def _placed(self, nums, den: int) -> tuple[dict, int]:
        """The row of {key: int numerator} over den, new keys registered."""
        index = self.index
        for key in sorted(nums.keys() - index.keys()):
            index[key] = len(index)
        return {index[key]: x for key, x in nums.items()}, den

    def matrix(self, rows) -> LocalMatrix:
        width = len(self.index)
        return LocalMatrix._of((([row.get(c, 0) for c in range(width)], d)
                                for row, d in rows), width)

    def capped_part(self, rows) -> LocalMatrix:
        """A basis of L ∩ Z_(2)^nb on the nb capped columns, L the span of
        rows: in L's echelon form with the overflow columns first, the rows
        that pivot in a capped column span it, as a combination taking a
        row that pivots in an overflow column is nonzero at the first."""
        nb, width = len(self.basis), len(self.index)
        # column c moves to (c - nb) % width: the capped columns come last
        span = RowSpan(self.matrix(({(c - nb) % width: x for c, x in
                                     row.items()}, d) for row, d in rows))
        E, cut = span.basis, width - nb
        return LocalMatrix._of(((row[cut:], d) for row, d, p in zip(
            E.rows, E.dens, span.pivots) if p >= cut), nb)

    def lattice_rows(self, relations, k: int, deep: int) -> list[tuple]:
        """Relation multiples plus the stage-k ideal I_k at this degree.

        Rows live in the extended coordinates: tails past the vhat cap or
        past the basis weight bound stay visible as overflow instead of
        vanishing.  Silent truncation here would close rewriting
        staircases and fabricate torsion the completed ring does not
        have, so relations may come in expanded to `deep` and each
        multiple is cut at `deep` (or the factor's own bound) only.  Each
        factor, a relation or a vh_l of I_k, is compiled once into a
        stencil (`_stencil`), and a basis monomial's row is a shift of
        it: the terms within the weight room the monomial leaves, keys
        moved by the monomial, in lowest terms over an odd denominator
        (NonUnitDivisionError otherwise); empty rows are skipped.  That is
        the row `self.row(factor.times_key(mono, deep))` gives, with no
        series built.  After everything degree-D is enumerated, I_k gets
        a doubling row for every registered column, overflow included:
        twice any ambient monomial lies in the ideal regardless of
        whether the monomial fits the reporting basis.
        """
        spec = self.spec
        wof = spec.weight_of
        factors = [rel for rel in relations if rel]
        factors += [GradedSeries.gen(spec, f"vh{l}", trunc=deep)
                    for l in range(1, k)]
        rows = []
        for factor in factors:
            bound, terms, den = _stencil(factor, deep)
            for mono in degree_basis(spec, self.D - factor.internal_degree(),
                                     self.caps, self.weight, hat_lattice=True):
                kept = terms[:bisect_right(terms, bound - wof(mono),
                                           key=itemgetter(0))]
                if not kept:
                    continue
                g = gcd(den, *(x for _, _, x in kept)) if den != 1 else 1
                if (den // g) % 2 == 0:
                    raise NonUnitDivisionError(
                        f"a denominator of {factor} times {mono} is not "
                        "2-locally integral")
                rows.append(self._placed(
                    {tuple(map(add, key, mono)): x // g for _, key, x in kept},
                    den // g))
        if k >= 1:
            rows += [({col: 2}, 1) for col in range(len(self.index))]
        return rows


class PresentedModule(Record):
    """Quotient of a weight-truncated class ring by homogeneous relations.

    The ambient ring augments the coefficient ring with q class
    generators, truncated above class weight `weight`; that truncation is
    a ring quotient, so dropping overweight terms of relation multiples
    is exact.  The vhat exponent caps are a window, not a quotient:
    relation and ideal multiples that leave the capped basis keep their
    outside monomials as overflow columns (`DegreeColumns`), and each
    answer is the image of the capped basis in that extended quotient.
    Degrees where a lattice row meets both the basis and an overflow
    column are recorded in `incomplete_degrees`; answers there are
    approximations.  Elsewhere they are exact: vhat exponents never fall
    under multiplication, so the rows the cap leaves out lie wholly in
    overflow columns, and a lattice whose rows each stay on one side
    splits into a capped and an overflow part.

    The fields are fixed once built, as the answers are cached by degree
    and ideal indices alone; it compares by value and is unhashable.
    """

    _fields = ("spec", "weight", "relations", "flat_certificate", "caps")
    __hash__ = None

    def __init__(self, spec: GradingSpec, weight: int,
                 relations: tuple[GradedSeries, ...], flat_certificate: str,
                 caps: int = 6):
        check_ints({"weight": weight, "caps": caps})
        if weight < 0:
            raise InputError("negative weight")
        if spec.alphabet != "hat" or spec.roots:
            raise InputError("presented modules live over the hat class ring")
        relations = tuple(relations)
        for rel in relations:
            if rel.spec != spec:
                raise InputError("relation over the wrong spec")
            if not rel.is_homogeneous():
                raise InputError("relations must be homogeneous")
        self._fill(spec, weight, relations, flat_certificate, caps)
        # not fields, so left out of == and repr; they fill as it answers
        object.__setattr__(self, "incomplete_degrees", set())
        object.__setattr__(self, "_cache", {})

    def twisted_structure_at(self, D: int, i: int, j: int) -> ModuleStructure:
        """Structure of I_i (M / I_j M) in internal degree D.

        With L the span of the relation and I_j rows, N that of the I_i
        rows (the capped basis when i = 0) and C the capped columns' span,
        it is (N + L) ∩ C modulo L ∩ C, read by `capped_part`: c -> c + L
        maps that onto (N + L) ∩ (C + L) modulo L, the image of the capped
        elements of N + L in the extended quotient, with kernel L ∩ C.
        """
        n = self.spec.n
        check_ints({"degree": D, "i": i, "j": j})
        if not (0 <= i <= n + 1 and 0 <= j <= n + 1):
            raise InputError(f"ideal indices ({i}, {j}) outside 0..{n + 1}")
        if (0 < i <= j) or j == n + 1:
            return ModuleStructure(0, ())
        if i == n + 1:
            # the top ideal contains the invertible periodicity generator
            i = 0
        key = (D, i, j)
        if key in self._cache:
            return self._cache[key]
        cols = DegreeColumns(self.spec, D, self.caps, self.weight)
        nb = len(cols.basis)
        if nb == 0:
            self._cache[key] = ModuleStructure(0, ())
            return self._cache[key]
        den = cols.lattice_rows(self.relations, j, self.weight)
        num = (cols.lattice_rows((), i, self.weight) if i
               else [({c: 1}, 1) for c in range(nb)])
        if any(min(row) < nb <= max(row) for row, _ in num + den):
            self.incomplete_degrees.add(D)
        st = quotient_structure(cols.capped_part(num + den),
                                cols.capped_part(den))
        self._cache[key] = st
        return st


class TensoredPage:
    """Chart view of a page tensored with a presented flat module.

    `flags` holds the cells whose answer read a degree in the module's
    `incomplete_degrees`, as `TruncatedOracle.flags` holds the cells its
    window polluted.
    """

    def __init__(self, page: Page, module: PresentedModule):
        if module.spec.n != page.n:
            raise InputError("chromatic heights differ")
        self.page = page
        self.module = module
        self.spec = module.spec
        self._reads: dict[tuple[int, int], set[int]] = {}

    @property
    def flags(self) -> set[tuple[int, int]]:
        bad = self.module.incomplete_degrees
        return {cell for cell, degrees in self._reads.items() if degrees & bad}

    def chart_structure(self, m: int, t: int) -> ModuleStructure:
        P = self.spec.hat_offset
        wn = self.spec.degrees[self.spec.n]
        D = t + m * self.spec.lam
        reads = []
        for s in self.page.rows.get(m, ()):
            if s.is_zero:
                continue
            # With P = 0 (n = 1) the residues of v^e modulo the top hat
            # generator are all of Z, not range(P), and the module sits in
            # degree 0 alone: read the one exponent that degree D forces.
            if self.page.n == 1:
                rem = D - s.shift
                if rem % wn:
                    continue
                b = rem // wn
                if (b - s.c) % 2 ** s.s:
                    continue
                reads.append((0, s))
            else:
                for tp in range(P // 2 ** s.s):
                    e = 2 ** s.s * tp + s.c
                    reads.append((D - s.shift - e * wn, s))
        self._reads[(m, t)] = {d for d, _ in reads}
        return _merge(self.module.twisted_structure_at(d, s.i, s.j)
                      for d, s in reads)

    def chart(self, t_values) -> dict:
        cells = ((m, t) for m in range(self.page.m_max + 1) for t in t_values)
        return {cell: st for cell in cells
                if not (st := self.chart_structure(*cell)).is_zero}


def flat_base_change(page: Page, module):
    """Tensor a coefficient page with a flat module.

    Free modules give an honest page again (shifted copies of each
    block); presented modules give a chart-compatible tensored view.
    Either way the module must carry a nonempty flatness certificate.
    """
    cert = getattr(module, "flat_certificate", "")
    if not cert:
        raise FlatnessCertificateError(
            "flat base change without a flatness certificate")
    if isinstance(module, FreeModule):
        rows = {m: tuple(StandardSummand(s.n, s.i, s.j, s.s, s.c,
                                         s.shift + d)
                         for d in module.shifts for s in blocks)
                for m, blocks in page.rows.items()}
        return Page(page.n, page.r, rows, page.m_max)
    if isinstance(module, PresentedModule):
        return TensoredPage(page, module)
    raise InputError(f"cannot base change along {type(module).__name__}")

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
    honest cycle and boundary lattices per position through d_r as the
    map the raw formulas give, each monomial to at most one and no two to
    one (checked), so each lattice is one 2-adic valuation per monomial.
    Window and cap overflows are flagged per position so comparisons
    skip exactly the positions the truncation polluted.

Base change along a flat coefficient module tensors a page with either a
free module (degree-shifted copies of each block) or a presented one
(class generators and homogeneous relations); the latter yields chart
structures through per-degree lattice quotients.  Their rows come from
DegreeColumns, the one lattice-row builder: a relation or ideal multiple
that leaves the capped basis keeps its outside monomials as overflow
columns, never dropped, and the degrees where that happens are reported.
Every capped basis here and in the oracle is graded.degree_basis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import (
    EmptyBasisError,
    FlatnessCertificateError,
    InputError,
    MathInvariantError,
    PageShapeError,
)
from .graded import GradedSeries, GradingSpec, degree_basis
from .scalar2 import (
    ONE,
    ZERO,
    LocalMatrix,
    ModuleStructure,
    TwoLocal,
    preimage_rows,
    quotient_structure,
    row_basis,
    snf_with_transforms,  # noqa: F401 (bench/tests traces it)
    stack_rows,
    val2,
)


def admissible_differentials(n: int) -> tuple[int, ...]:
    return tuple(2 ** (k + 1) - 1 for k in range(n + 1))


def _page_level(r: int) -> int:
    if r < 1:
        raise InputError(f"page index {r} out of range")
    return r.bit_length() - 1


def _nonzero_cells(structure_at, m_max: int, t_values) -> dict:
    out = {}
    for m in range(m_max + 1):
        for t in t_values:
            st = structure_at(m, t)
            if not st.is_zero:
                out[(m, t)] = st
    return out


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
    P = spec.hat_offset
    out: dict = {}
    for key, A in series.terms.items():
        if strict and key[n] % (2 ** k):
            raise InputError(
                f"vn exponent {key[n]} is not a multiple of 2^{k}")
        image = _d_key(key, r, n, P)
        if image is None:
            continue
        key, coeff = image
        tot = out.get(key, 0) + A * coeff
        if tot:
            out[key] = tot
        else:
            out.pop(key, None)
    return GradedSeries(spec, out, series.trunc)


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


@dataclass(frozen=True)
class StandardSummand:
    """One block I_i (R[v^(+-2^s)] / I_j) v^c, possibly degree-shifted."""

    n: int
    i: int
    j: int
    s: int
    c: int
    shift: int = 0

    def __post_init__(self):
        if not 0 <= self.i <= self.n + 1 or not 0 <= self.j <= self.n + 1:
            raise InputError(f"ideal indices out of range in {self}")
        if self.s < 0:
            raise InputError("negative periodicity exponent")
        object.__setattr__(self, "c", self.c % 2 ** self.s)

    @property
    def is_zero(self) -> bool:
        return (0 < self.i <= self.j) or self.j == self.n + 1

    def notation(self) -> str:
        num = "R" if self.i == 0 else f"I_{self.i}R"
        den = "" if self.j == 0 else f"/I_{self.j}"
        off = f"v^{self.c}" if self.c else ""
        sh = f"<{self.shift}>" if self.shift else ""
        return f"{num}{den}[v^±{2 ** self.s}]{off}{sh}"

    def structure_at(self, D: int, caps: int) -> ModuleStructure:
        """Z_(2)-module structure in internal degree D, vhat exponents
        capped at `caps`.  The ideal index i is invisible when j = 0 (the
        block is a full-rank sublattice of a free module); for j >= 1 each
        monomial is one Z/2."""
        if self.is_zero:
            return ModuleStructure(0, ())
        i, j = self.i, self.j
        count = 0
        # a key is y, then vh_l at index l, then vn at index n
        for key in degree_basis(GradingSpec(self.n, alphabet="hat"),
                                D - self.shift, caps):
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


@dataclass
class Page:
    n: int
    r: int
    rows: dict[int, tuple[StandardSummand, ...]]
    m_max: int

    def chart_structure(self, m: int, t: int, caps: int = 6) -> ModuleStructure:
        spec = GradingSpec(self.n, alphabet="hat")
        D = t + m * spec.lam
        return _merge(s.structure_at(D, caps)
                      for s in self.rows.get(m, ()) if not s.is_zero)

    def chart(self, t_values, caps: int = 6) -> dict:
        return _nonzero_cells(lambda m, t: self.chart_structure(m, t, caps),
                              self.m_max, t_values)


def closed_form_page(n: int, r: int, m_max: int | None = None) -> Page:
    """The page at index r, written down directly.

    Pages are constant between consecutive admissible differentials, and
    everything from 2^(n+1) on is the last one.
    """
    if n < 1:
        raise InputError("n must be at least 1")
    if m_max is None:
        m_max = 2 ** (n + 2)
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
        out = [one_part]
        out += [s for s in blocks if s.i > 0]
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

    Per position (m, t) the oracle holds a cycle lattice Z and a boundary
    lattice B over the monomial basis.  d_r sends each basis key to at
    most one monomial (`_images`), and two keys of one position to two
    monomials, or MathInvariantError is raised.  So Z and B stay
    monomial, and each is kept as a map monomial -> a for the span of
    2^a times those monomials: Z starts at a = 0 on every key, B empty.
    A key names its own position (key[0] is m, spec.total_of(key) is t),
    so an image lies in the window exactly when it is one of `keys`.
    With c a key's image coefficient and v the 2-adic valuation, d_r
    advances all positions at once:

      * Z becomes the preimage of the target's B: a key sent to target
        key j keeps max(a, b_j - v(c)) if j is in B, and dies if not; a
        key with no image, or one past the window, keeps a;
      * the target's B grows by the images of Z: b_j = min(b_j, a + v(c));
      * every boundary must be a next-page cycle, d_r of it an existing
        boundary: b_j <= b + v(c) at its image.

    A position reads Z/2^(b - a) per key in Z and B with b > a, and Z per
    key in Z alone; a B key outside Z, or with b < a, raises.  It is
    flagged, permanently, when the truncation makes any of that
    arithmetic unknowable there.
    """

    def __init__(self, n: int, t_lo: int, t_hi: int, caps: int = 6,
                 m_max: int | None = None):
        if n < 1:
            raise InputError("n must be at least 1")
        if t_hi < t_lo:
            raise InputError("empty window")
        if caps < 0:
            raise InputError("negative caps")
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
        self.Z = {cell: dict.fromkeys(keys, 0)
                  for cell, keys in self.basis.items()}
        self.B = {cell: {} for cell in self.basis}
        self.flags: set[tuple[int, int]] = set()
        self.level = 0
        self.charts: dict[int, dict] = {1: self._chart()}

    def _chart(self) -> dict:
        out = {}
        for cell, Z in self.Z.items():
            B = self.B[cell]
            torsion = []
            for key, b in B.items():
                a = Z.get(key)
                if a is None or b < a:
                    raise MathInvariantError(
                        f"boundary at {cell} lies outside the cycles")
                if b > a:
                    torsion.append(2 ** (b - a))
            free = len(Z) - len(B)
            if free or torsion:
                out[cell] = ModuleStructure(free, tuple(sorted(torsion)))
        return out

    def _images(self, cell, r) -> dict:
        """d_r on the cell basis as the monomial map it is: {key: (image
        key, int coefficient)} for each basis key d_r does not kill.
        Raises where d∘d is nonzero or two keys share an image."""
        n, P = self.n, self.spec.hat_offset
        out = {}
        for key in self.basis[cell]:
            entry = _d_key(key, r, n, P)
            if entry:
                if _d_key(entry[0], r, n, P):
                    raise MathInvariantError(
                        "d∘d is nonzero at the formula level")
                out[key] = entry
        if len({img for img, _ in out.values()}) < len(out):
            raise MathInvariantError(
                f"d_{r} sends two keys at {cell} to one monomial")
        return out

    def advance(self) -> int:
        """Run the next admissible differential; returns the new page index."""
        if self.level > self.n:
            raise InputError("already at the final page")
        k = self.level
        r = 2 ** (k + 1) - 1
        new_flags = set(self.flags)
        new_Z = {}
        new_B = {cell: dict(B) for cell, B in self.B.items()}
        # one pass; every cell reads the previous page's Z, B and flags
        for cell in self.basis:
            m, t = cell
            tgt = (m + r, t + 1)
            images = self._images(cell, r)
            if tgt in self.flags:
                new_flags.add(cell)
            elif m - r >= 0:
                # a source out of view or polluted may hit this cell
                if t - 1 < self.t_lo:
                    if degree_basis(self.spec, t - 1 + (m - r) * self.spec.lam,
                                    self.caps):
                        new_flags.add(cell)
                elif (m - r, t - 1) in self.flags:
                    new_flags.add(cell)
            Btgt = self.B.get(tgt, {})
            grown = new_B.get(tgt, {})
            Z = new_Z[cell] = {}
            for key, a in self.Z[cell].items():
                if key not in images:
                    Z[key] = a
                    continue
                j, c = images[key]
                if j not in self.keys:  # the image leaves the window
                    new_flags.add(cell)
                    Z[key] = a
                    continue
                v = val2(c)
                if j in Btgt:
                    Z[key] = max(a, Btgt[j] - v)
                if j not in grown or a + v < grown[j]:
                    grown[j] = a + v
            if cell in new_flags:
                continue
            for key, b in self.B[cell].items():
                if key in images and images[key][0] in self.keys:
                    j, c = images[key]
                    if j not in Btgt or Btgt[j] > b + val2(c):
                        raise MathInvariantError(
                            f"boundary at {cell} escapes under d_{r}")
            if any(key[self.n] % 2 for key in Z):
                raise MathInvariantError(
                    f"odd-exponent cycle survived d_1 at {cell}")

        self.Z, self.B = new_Z, new_B
        self.flags = new_flags
        self.charts[2 ** (k + 1)] = self._chart()
        self.level += 1
        return 2 ** self.level

    def run(self) -> None:
        while self.level <= self.n:
            self.advance()

    def chart_at(self, r: int) -> dict:
        """Chart at page r; pages between differentials repeat."""
        lvl = min(_page_level(r), self.n + 1)
        idx = 2 ** lvl
        if idx not in self.charts:
            raise InputError(f"oracle has not advanced to page {idx} yet")
        return self.charts[idx]

    def inadmissible_pairs(self, r: int) -> list:
        """Positions where a d_r could act between nonzero groups.

        For inadmissible r this list must come back empty; every source
        and target is only counted when inside the window and unflagged.
        """
        chart = self.chart_at(r)
        pairs = []
        for (m, t) in chart:
            if (m, t) in self.flags:
                continue
            tgt = (m + r, t + 1)
            if tgt in self.flags:
                continue
            if chart.get(tgt):
                pairs.append(((m, t), tgt))
        return pairs


# -- flat base change --------------------------------------------------------


@dataclass(frozen=True)
class FreeModule:
    """Finitely many free generators with internal degree shifts."""

    shifts: tuple[int, ...]
    flat_certificate: str


class DegreeColumns:
    """Lattice coordinates at one internal degree of the capped class ring.

    The first columns are the capped degree basis (hat-lattice monomials
    with vhat exponents at most `caps` and class weight at most
    `weight`); after them comes every overflow key a row registers.
    `mixed` records whether a row met both kinds of column.
    """

    def __init__(self, spec: GradingSpec, D: int, caps: int, weight: int):
        self.spec, self.D, self.caps, self.weight = spec, D, caps, weight
        self.basis = degree_basis(spec, D, caps, weight, hat_lattice=True)
        self.index = {key: i for i, key in enumerate(self.basis)}
        self.mixed = False

    @property
    def width(self) -> int:
        return len(self.index)

    def row(self, series: GradedSeries) -> dict:
        # distinct keys with nonzero coefficients, to distinct columns
        row = {self.index.setdefault(key, len(self.index)): coeff
               for key, coeff in series.terms.items()}
        nb = len(self.basis)
        self.mixed |= min(row, default=nb) < nb <= max(row, default=0)
        return row

    def matrix(self, rows: list[dict]) -> LocalMatrix:
        width = self.width
        return LocalMatrix([[row.get(c, ZERO) for c in range(width)]
                            for row in rows], width)

    def lattice_rows(self, relations, k: int, deep: int) -> list[dict]:
        """Relation multiples plus the stage-k ideal I_k at this degree.

        Rows live in the extended coordinates: tails past the vhat cap or
        past the basis weight bound stay visible as overflow instead of
        vanishing.  Silent truncation here would close rewriting
        staircases and fabricate torsion the completed ring does not
        have, so relations may come in expanded to `deep` and products
        are clipped at `deep` only.  After everything degree-D is
        enumerated, I_k gets a doubling row for every registered column,
        overflow included: twice any ambient monomial lies in the ideal
        regardless of whether the monomial fits the reporting basis.
        """
        spec = self.spec
        factors = [rel for rel in relations if rel]
        factors += [GradedSeries.gen(spec, f"vh{l}", trunc=deep)
                    for l in range(1, k)]
        rows = []
        for factor in factors:
            for mono in degree_basis(spec, self.D - factor.internal_degree(),
                                     self.caps, self.weight, hat_lattice=True):
                row = self.row(GradedSeries(spec, {mono: ONE}, deep) * factor)
                if row:
                    rows.append(row)
        if k >= 1:
            rows += [{col: TwoLocal(2)} for col in range(self.width)]
        return rows


@dataclass
class PresentedModule:
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
    """

    spec: GradingSpec
    weight: int
    relations: tuple[GradedSeries, ...]
    flat_certificate: str
    caps: int = 6

    def __post_init__(self):
        if self.spec.alphabet != "hat" or self.spec.roots:
            raise InputError("presented modules live over the hat class ring")
        self.relations = tuple(self.relations)
        for rel in self.relations:
            if rel.spec != self.spec:
                raise InputError("relation over the wrong spec")
            if not rel.is_homogeneous():
                raise InputError("relations must be homogeneous")
        self.incomplete_degrees: set[int] = set()
        self._cache: dict = {}

    def twisted_structure_at(self, D: int, i: int, j: int) -> ModuleStructure:
        """Structure of I_i (M / I_j M) in internal degree D.

        The answer is the image of the capped elements of I_i M + I_j M
        in the extended quotient by the relations and I_j.
        """
        n = self.spec.n
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
        capped = [{c: ONE} for c in range(nb)]
        den_rows = cols.lattice_rows(self.relations, j, self.weight)
        num_rows = cols.lattice_rows((), i, self.weight) if i else capped
        if cols.mixed:
            self.incomplete_degrees.add(D)
        den = cols.matrix(den_rows)
        K = row_basis(stack_rows([cols.matrix(num_rows), den]))
        if i:
            # I_i multiples may overflow; keep the capped part of the span
            K = preimage_rows(K, stack_rows([cols.matrix(capped), den])) @ K
        st = quotient_structure(K, den)
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
        return _nonzero_cells(self.chart_structure, self.page.m_max, t_values)


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
        rows = {}
        for m, blocks in page.rows.items():
            out = []
            for d in module.shifts:
                for s in blocks:
                    out.append(replace(s, shift=s.shift + d))
            rows[m] = tuple(out)
        return Page(page.n, page.r, rows, page.m_max)
    if isinstance(module, PresentedModule):
        return TensoredPage(page, module)
    raise InputError(f"cannot base change along {type(module).__name__}")

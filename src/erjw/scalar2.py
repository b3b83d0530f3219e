"""Arithmetic over the 2-local integers, plus echelon and Smith forms.

The ring is Z localized at the prime 2: reduced fractions with odd
denominator.  It is a discrete valuation ring, which keeps elimination
simple: with a minimum-valuation pivot every quotient is exact and one
clearing pass per pivot suffices.

One elimination kernel, `echelon` (E = U @ M, row operations only, and
the only caller of `_eliminate`), answers the lattice questions:

- the row-span questions.  One reduction along E, `_reduce`, gives a
  row's coordinates along E or finds it outside the span: it answers
  `solve_left`, the coordinates in `quotient_structure` and, through
  `RowSpan` (E and its pivots, kept to test many rows), `spans`.
  `kernel_basis` is U's rows past the rank, `row_basis` is E, and
  `preimage_rows` rides on both.  Each reduction checks U @ M == E in
  ints, that U is unimodular (its parity rows have no `BitSpan`
  relations, its scales are odd) and that E is in echelon shape.
- the invariants.  `snf_with_transforms` (D = U @ M @ V, the diagonal a
  divisibility chain of powers of 2) alternates echelon forms of M and
  of their transposes until one entry is left in each row, and checks
  U @ M @ V == D on the composed transforms.  It answers `snf`,
  `cokernel_structure`, and the last step of `quotient_structure`.

Beside it sits one GF(2) kernel on int bitmask rows, `BitSpan` (the only
caller of `_bit_eliminate`), for questions that are exactly mod-2 ones:
the unimodularity of each echelon transform, the independence mod 2 that
the stage-0 window check asks, and the window checks at stages k >= 1
through `bit_preimage_within`.  Each basis row carries the bitmask of
input rows it came from, and rows that vanish leave theirs as relations.
`_certify_bits` re-derives every basis row and every relation by XOR of
its origin rows, checks that each pivot is its row's lowest set bit and
that the relations are independent, and that basis and relations count
the input rows.

Convention used by the whole package: matrices act on ROW vectors.  Rows
index the source basis, columns the target, so the cokernel of M is the
column module modulo the row span, and a left kernel is a set of row
vectors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import MathInvariantError, NonUnitDivisionError, Record


def val2(x) -> int | float:
    """2-adic valuation of an int or TwoLocal; val2(0) is +infinity."""
    if isinstance(x, TwoLocal):
        x = x.num  # denominator is odd, contributes nothing
    if x == 0:
        return math.inf
    return (x & -x).bit_length() - 1


class TwoLocal:
    """A 2-local integer: reduced fraction, odd positive denominator.

    Immutable by convention; all arithmetic returns fresh objects.
    Operations that would leave the ring raise NonUnitDivisionError
    rather than fall back to plain rationals.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        if isinstance(num, TwoLocal):
            num, den = num.num, num.den * den
        elif isinstance(num, Fraction):
            num, den = num.numerator, num.denominator * den
        if not isinstance(num, int) or not isinstance(den, int):
            raise TypeError(f"need integers, got {num!r}/{den!r}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        if den & 1 == 0:
            raise NonUnitDivisionError(f"{num}/{den} is not 2-locally integral")
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, num: int, den: int) -> "TwoLocal":
        # caller guarantees: reduced, den odd positive
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    def to_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def is_unit(self) -> bool:
        return self.num & 1 == 1

    def __bool__(self) -> bool:
        return self.num != 0

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.den == 1 and other.den == 1:
            return TwoLocal._raw(self.num + other.num, 1)
        return TwoLocal(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.den == 1 and other.den == 1:
            return TwoLocal._raw(self.num - other.num, 1)
        return TwoLocal(self.num * other.den - other.num * self.den,
                        self.den * other.den)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.den == 1 and other.den == 1:
            return TwoLocal._raw(self.num * other.num, 1)
        return TwoLocal(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.num == 0:
            raise ZeroDivisionError("division by zero")
        # legal exactly when val2(other) <= val2(self); the constructor
        # rejects the leftover even denominator otherwise
        return TwoLocal(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return TwoLocal._raw(-self.num, self.den)

    def __pos__(self):
        return self

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e >= 0:
            return TwoLocal._raw(self.num ** e, self.den ** e)
        if self.num == 0:
            raise ZeroDivisionError("zero to a negative power")
        return TwoLocal(self.den ** (-e), self.num ** (-e))

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # TwoLocal(k) == k, so the hash must be hash(k); Fraction's hash is
        # the one rational hash that extends it
        if self.den == 1:
            return hash(self.num)
        return hash(Fraction(self.num, self.den))

    def __str__(self):
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self):
        return f"TwoLocal({self})"


def _coerce(x):
    if isinstance(x, TwoLocal):
        return x
    if isinstance(x, int):
        return TwoLocal._raw(x, 1)
    # deliberately no Fraction branch: mixed-field arithmetic is a bug
    return None


ONE = TwoLocal._raw(1, 1)


class ModuleStructure(Record):
    """Isomorphism type of a finitely generated Z_(2)-module.

    torsion holds the cyclic orders (each a power of 2, > 1) in
    nondecreasing order, e.g. (2, 2, 8).
    """

    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("negative free rank")
        for t in torsion:
            if t < 2 or t & (t - 1):
                raise ValueError(f"torsion order {t} is not a power of 2 above 1")
        if list(torsion) != sorted(torsion):
            raise ValueError("torsion orders must be nondecreasing")
        # by hand, not _fill: a pages list builds thousands of these
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


class LocalMatrix:
    """Matrix over Z_(2), row-major: entry (i, j) is rows[i][j] / dens[i].

    Each row is an int list with one odd positive denominator, in lowest
    terms (the gcd of the row and its denominator is 1), so equal
    matrices store equal rows and `==` is a plain compare.  Rows are
    immutable by convention and may be shared between matrices.
    TwoLocal entries appear only at the edge: the constructor, `row`,
    `[i, j]`, `data` and `repr`.
    """

    __slots__ = ("nrows", "ncols", "rows", "dens")

    def __init__(self, rows: Sequence[Sequence], ncols: int | None = None):
        rows = [[x if isinstance(x, TwoLocal) else TwoLocal(x) for x in row]
                for row in rows]
        if rows:
            if ncols is None:
                ncols = len(rows[0])
            if any(len(row) != ncols for row in rows):
                raise ValueError("ragged rows")
        elif ncols is None:
            raise ValueError("an empty matrix needs an explicit column count")
        self._store([_over([x.num for x in row], [x.den for x in row])
                     for row in rows], ncols)

    @classmethod
    def _of(cls, pairs, ncols: int) -> "LocalMatrix":
        # caller guarantees: (int list of length ncols, odd den) pairs
        self = object.__new__(cls)
        self._store(pairs, ncols)
        return self

    def _store(self, pairs, ncols: int) -> None:
        rows, dens = [], []
        for row, d in pairs:
            if d != 1:
                row, d = _canon(row, d)
            rows.append(row)
            dens.append(d)
        self.rows, self.dens = rows, dens
        self.nrows, self.ncols = len(rows), ncols

    def transpose(self) -> "LocalMatrix":
        return LocalMatrix._of((_over([row[j] for row in self.rows], self.dens)
                                for j in range(self.ncols)), self.nrows)

    def row(self, i: int) -> list:
        d = self.dens[i]
        return [TwoLocal(x, d) for x in self.rows[i]]

    def __getitem__(self, ij):
        i, j = ij
        return TwoLocal(self.rows[i][j], self.dens[i])

    @property
    def data(self) -> list:
        """The entries, as fresh lists of TwoLocal."""
        return [self.row(i) for i in range(self.nrows)]

    def __eq__(self, other):
        if not isinstance(other, LocalMatrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self.dens == other.dens and self.rows == other.rows)

    def __matmul__(self, other: "LocalMatrix") -> "LocalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ "
                             f"{other.nrows}x{other.ncols}")
        return LocalMatrix._of((_vec_mat(row, d, other) for row, d
                                in zip(self.rows, self.dens)), other.ncols)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"LocalMatrix({self.nrows}x{self.ncols}: {body})"


def stack_rows(mats: Sequence[LocalMatrix]) -> LocalMatrix:
    ncols = {m.ncols for m in mats}
    if len(ncols) != 1:
        raise ValueError("column counts differ")
    return LocalMatrix._of([p for m in mats for p in zip(m.rows, m.dens)],
                           ncols.pop())


def row_times_matrix(v: Sequence, M: LocalMatrix) -> list:
    """The row vector v @ M, for entries of v int or TwoLocal."""
    return (LocalMatrix([v], M.nrows) @ M).row(0)


# -- the integer kernel ------------------------------------------------------
#
# Elimination runs on the stored ints.  A row under elimination is an int
# list together with one odd scale s, the list being s times the true row;
# each row update u*row_i - (a_i >> v)*row_k multiplies the scale by the odd
# u.  The row's odd content is divided out against its scale after every
# update, so the ints stay as small as the true entries allow.  Scales may
# be negative until the row is stored.


def _canon(row: list, d: int) -> tuple[list, int]:
    """row / d in the stored form: d > 0 and gcd(d, *row) == 1."""
    if d == 1:
        return row, 1
    g = math.gcd(d, *row)
    if d < 0:
        g = -g
    if g != 1:
        row = [x // g for x in row]
        d //= g
    return row, d


def _over(nums, dens) -> tuple[list, int]:
    """(row, d) with row / d the entries nums[j] / dens[j] (dens odd)."""
    lcm = 1
    for x, d in zip(nums, dens):
        if x and lcm % d:
            lcm *= abs(d) // math.gcd(lcm, d)
    return [x * lcm // d for x, d in zip(nums, dens)], lcm


def _vec_mat(nums, d: int, M: LocalMatrix) -> tuple[list, int]:
    """(acc, e) with acc / e == (nums / d) @ M, for an int vector nums."""
    acc = [0] * M.ncols
    e = 1
    for a, row, rd in zip(nums, M.rows, M.dens):
        if not a:
            continue
        if e % rd:
            f = rd // math.gcd(e, rd)
            acc = [x * f for x in acc]
            e *= f
        a *= e // rd
        for j, b in enumerate(row):
            if b:
                acc[j] += a * b
    return acc, d * e


def _eliminate(rows, aux, scale, k: int, col: int, v: int) -> None:
    """Clear column col below row k: row_i <- u*row_i - (a_i >> v)*row_k.

    rows[k][col] is 2^v times the odd u, and no entry below it in the
    column has a smaller valuation, so every shift is exact.  aux[i], row
    i of U, gets the same update and shares scale[i].
    """
    prow, paux = rows[k], aux[k]
    u = prow[col] >> v
    for i in range(k + 1, len(rows)):
        row = rows[i]
        a = row[col]
        if not a:
            continue
        q = a >> v
        row = [u * x - q * y for x, y in zip(row, prow)]
        arow = [u * x - q * y for x, y in zip(aux[i], paux)]
        s = scale[i] * u
        if s != 1 and s != -1:
            g = math.gcd(s, *row, *arow)
            if g != 1:
                row = [x // g for x in row]
                arow = [x // g for x in arow]
                s //= g
        rows[i], aux[i], scale[i] = row, arow, s


def echelon(M: LocalMatrix):
    """Row echelon form over Z_(2): returns (E, U, pivots) with
    U @ M == stack_rows([E, 0]).

    U is invertible over Z_(2); E holds the r = len(pivots) nonzero rows,
    row i with its first nonzero entry in column pivots[i], at strictly
    increasing columns.  So E is a basis of M's row span and U's rows past
    r one of its left kernel.  Columns are taken left to right, each with
    the first remaining row of minimum valuation in it as pivot, and
    cleared below it by `_eliminate` with U alongside.  The certificate
    (`_certify_echelon`) is checked on the integer matrices before they
    are stored.
    """
    m, n = M.nrows, M.ncols
    W = [row[:] for row in M.rows]
    scale = M.dens[:]
    U = [[0] * m for _ in range(m)]
    for i, d in enumerate(scale):
        U[i][i] = d
    pivots = []
    for j in range(n):
        r = len(pivots)
        if r == m:
            break
        bi, bv = -1, math.inf
        for i in range(r, m):
            x = W[i][j]
            if x:
                v = (x & -x).bit_length() - 1
                if v < bv:
                    bi, bv = i, v
                    if not v:
                        break
        if bi < 0:
            continue
        if bi != r:
            W[r], W[bi] = W[bi], W[r]
            U[r], U[bi] = U[bi], U[r]
            scale[r], scale[bi] = scale[bi], scale[r]
        _eliminate(W, U, scale, r, j, bv)
        pivots.append(j)
    _certify_echelon(M, W, U, scale, pivots)
    return (LocalMatrix._of(zip(W[:len(pivots)], scale), n),
            LocalMatrix._of(zip(U, scale), m), tuple(pivots))


def _certify_echelon(M: LocalMatrix, W, U, scale, pivots) -> None:
    """Raise MathInvariantError unless U @ M == E, U is unimodular and E
    is in echelon shape, for E[i] == W[i] / scale[i] and U[i] / scale[i].

    With P the lcm of M's denominators, U @ M == E is checked in ints as
    sum_k U[i][k] * (P / dens[k]) * M.rows[k] == P * W[i].  U is
    invertible over Z_(2) exactly when it is mod 2, and the odd scales
    leave parities alone, so that is a certified `BitSpan` of the parity
    bitmasks of U's int rows with no relations.
    """
    m, r = M.nrows, len(pivots)
    if not len(W) == len(U) == len(scale) == m:
        raise MathInvariantError("echelon lost a row")
    P = math.lcm(*M.dens)
    # the rows of P * M, as lists of their nonzero (column, int) entries
    Arows = [[(j, x * (P // d)) for j, x in enumerate(row) if x]
             for row, d in zip(M.rows, M.dens)]
    for urow, wrow in zip(U, W):
        z = [0] * M.ncols
        for k, x in enumerate(urow):
            if x:
                for j, y in Arows[k]:
                    z[j] += x * y
        if z != [P * x for x in wrow]:
            raise MathInvariantError("echelon lost U*M == E")
    parity = (sum((x & 1) << k for k, x in enumerate(urow)) for urow in U)
    if not all(s & 1 for s in scale) or BitSpan(parity).relations:
        raise MathInvariantError("echelon transform is not unimodular")
    leads = [next((j for j, x in enumerate(row) if x), None) for row in W]
    if leads != [*pivots, *[None] * (m - r)] or any(
            a >= b for a, b in zip(pivots, pivots[1:])):
        raise MathInvariantError("echelon shape broken")


def kernel_basis(M: LocalMatrix) -> LocalMatrix:
    """Basis of the left kernel {x : x @ M == 0}, as rows: the rows of the
    echelon transform U past the rank."""
    _, U, pivots = echelon(M)
    r = len(pivots)
    return LocalMatrix._of(zip(U.rows[r:], U.dens[r:]), M.nrows)


class RowSpan:
    """The row span of M over Z_(2), held as M's certified echelon basis.

    `basis` is E from `echelon(M)`, certified there, and `pivots` its
    pivot columns; both are read-only, so one span can answer any number
    of membership questions, as `in_ideal`'s cached lattices do.
    """

    __slots__ = ("_basis", "_pivots")

    def __init__(self, M: LocalMatrix):
        self._basis, _, self._pivots = echelon(M)

    @property
    def basis(self) -> LocalMatrix:
        return self._basis

    @property
    def pivots(self) -> tuple[int, ...]:
        return self._pivots

    def reduce(self, w: list, d: int = 1) -> tuple[list, int] | None:
        """(y, e) with y / e @ basis == w / d for the int row w over the
        odd d, or None if w / d lies outside the span."""
        return _reduce(w, d, self._basis, self._pivots)


def spans(A: LocalMatrix, B: LocalMatrix) -> bool:
    """Whether every row of B lies in the row span of A over Z_(2).

    A's span is built and certified on each call; `in_ideal` instead keeps
    its `RowSpan` with the presentation, built once per (presentation,
    degree, caps) and at most 32 per presentation, and reduces rows
    against it as this does.
    """
    if A.ncols != B.ncols:
        raise ValueError("ambient dimensions differ")
    rows = [row for row in B.rows if any(row)]
    if not rows or A.nrows == 0:
        return not rows
    span = RowSpan(A)
    return all(span.reduce(row) is not None for row in rows)


class BitSpan:
    """The row span of GF(2) rows held as int bitmasks, bit j for column j,
    and the left kernel of those rows (`relations`), both certified."""

    __slots__ = ("_lead", "_relations")

    def __init__(self, rows: Sequence[int]):
        rows = tuple(rows)
        self._lead, self._relations = _bit_eliminate(rows)
        _certify_bits(rows, self._lead, self._relations)

    @property
    def relations(self) -> tuple[int, ...]:
        """Bitmasks of input rows, one per independent zero XOR."""
        return self._relations

    def __contains__(self, v: int) -> bool:
        # every row of the span has its lowest set bit at a pivot
        lead = self._lead
        while v:
            hit = lead.get(v & -v)
            if hit is None:
                return False
            v ^= hit[0]
        return True


def _bit_eliminate(rows: tuple[int, ...]):
    """({lowest set bit: (basis row, origin)}, relation origins) of rows.

    Each row is cleared at its lowest set bit by the basis row led there
    until it leads a new basis row or vanishes; its origin, the bitmask
    of the input rows it is the XOR of, holds bit i for row i and bits of
    earlier rows only, so the relations have distinct highest bits.
    """
    lead = {}
    relations = []
    for i, row in enumerate(rows):
        origin = 1 << i
        while row:
            low = row & -row
            hit = lead.get(low)
            if hit is None:
                lead[low] = (row, origin)
                break
            row ^= hit[0]
            origin ^= hit[1]
        else:
            relations.append(origin)
    return lead, tuple(relations)


def _certify_bits(rows: tuple[int, ...], lead: dict, relations) -> None:
    """Raise MathInvariantError unless each basis row and each relation is
    the XOR of the input rows its origin names (zero for a relation), each
    basis row is led by its pivot, the relations have distinct highest
    bits, and basis and relations together count the input rows.

    Then the basis, led at distinct pivots, is independent and inside the
    row span, the relations are independent and inside the kernel, and
    the count leaves no room: the basis spans the rows and the relations
    span the kernel.
    """
    if len(lead) + len(relations) != len(rows):
        raise MathInvariantError("bit echelon lost a row")
    for low, (row, origin) in lead.items():
        if row & -row != low:
            raise MathInvariantError("bit echelon pivot is not its row's lead")
        if _xor_of(rows, origin) != row:
            raise MathInvariantError("bit echelon row is not its origin's XOR")
    tops = set()
    for origin in relations:
        if not origin or _xor_of(rows, origin):
            raise MathInvariantError("bit echelon relation does not vanish")
        tops.add(origin.bit_length())
    if len(tops) != len(relations):
        raise MathInvariantError("bit echelon relations are dependent")


def _xor_of(rows: tuple[int, ...], origin: int) -> int:
    """The XOR of the rows whose bits are set in origin."""
    if origin >> len(rows):
        raise MathInvariantError("bit echelon origin names a missing row")
    acc = 0
    while origin:
        low = origin & -origin
        acc ^= rows[low.bit_length() - 1]
        origin ^= low
    return acc


def bit_preimage_within(A: Sequence[int], T: Sequence[int],
                        S: Sequence[int]) -> bool:
    """Whether {x : x @ A lies in span(T)} is inside span(S) over GF(2).

    Rows are int bitmasks; x has one bit per row of A, read in the
    columns of S.  The preimage is the projection onto A's rows of the
    left kernel of [A; T], so the relations' low len(A) bits span it.
    """
    low = (1 << len(A)) - 1
    within = BitSpan(S)
    return all((r & low) in within for r in BitSpan((*A, *T)).relations)


def _reduce(w: list, d: int, E: LocalMatrix, pivots) -> tuple[list, int] | None:
    """(y, e) with y / e @ E == w / d for the int row w over the odd d, or
    None if w / d is outside the row span of the echelon rows E.  Each
    pivot fixes its coefficient, which must lie in Z_(2); w and y share one
    odd scale, as a row and its U row do in `_eliminate`."""
    y = [0] * E.nrows
    s = 1
    for i, (erow, p) in enumerate(zip(E.rows, pivots)):
        a = w[p]
        if not a:
            continue
        t = (erow[p] & -erow[p]).bit_length() - 1
        if a & ((1 << t) - 1):
            return None  # early: the remainder at p would stay to the end
        u, q = erow[p] >> t, a >> t
        w = [u * x - q * z for x, z in zip(w, erow)]
        y = [u * c for c in y]
        y[i] = q
        s *= u
        g = math.gcd(s, *w, *y)
        if g != 1:
            w = [x // g for x in w]
            y = [c // g for c in y]
            s //= g
    if any(w):
        return None
    return [c * ed for c, ed in zip(y, E.dens)], s * d


def row_basis(M: LocalMatrix) -> LocalMatrix:
    """Lattice basis of the row span: the nonzero rows of M's echelon form."""
    return echelon(M)[0]


def snf_with_transforms(M: LocalMatrix):
    """Smith form over Z_(2): returns (D, U, V) with U @ M @ V == D.

    U and V are invertible over Z_(2) (unit determinant) and the nonzero
    diagonal of D consists of powers of 2 in nondecreasing valuation.

    Certified echelon forms alternate with transposes (Kannan and Bachem,
    1979) until every nonzero row of E holds one entry.  A round on rows
    joins its transform T to U as T @ U, and a round on the transpose
    joins it to V as V @ T.transpose(), kept here as T @ V.transpose().
    The entries then move to the diagonal by valuation, their unit parts
    divided out of U's rows, and U @ M @ V == D is checked on the
    composed matrices.

    The loop ends.  A round's first pivot is least in its column, which
    is zero below it.  So the next round, whose first column is that
    pivot's row, either takes a pivot of smaller valuation from the row or
    clears the row and leaves the pivot alone in its row and column, where
    no later round touches it.  The same holds for the rows and columns
    left, and valuations are at least 0.
    """
    m, n = M.nrows, M.ncols
    X, side = M, 0
    sides = [LocalMatrix._of((([int(i == j) for j in range(k)], 1)
                              for i in range(k)), k)
             for k in (m, n)]  # U and V.transpose()
    while True:
        E, T, pivots = echelon(X)
        sides[side] = T @ sides[side]
        if all(sum(map(bool, row)) == 1 for row in E.rows):
            break
        zero = ([0] * X.ncols, 1)
        rows = [*zip(E.rows, E.dens), *[zero] * (X.nrows - E.nrows)]
        X = LocalMatrix._of(rows, X.ncols).transpose()
        side ^= 1
    # entry (i, pivots[i]) of E sits in row i of sides[side] and in row
    # pivots[i] of the other side; those rows lead, by valuation
    order = sorted(range(len(pivots)),
                   key=lambda i: val2(E.rows[i][pivots[i]]))
    lead = [order, [pivots[i] for i in order]]
    if side:
        lead.reverse()
    U, Vt = ([(S.rows[k], S.dens[k]) for k in
              [*ks, *sorted(set(range(S.nrows)).difference(ks))]]
             for S, ks in zip(sides, lead))
    D = [[0] * n for _ in range(m)]
    for k, i in enumerate(order):
        x = E.rows[i][pivots[i]]
        v = val2(x)
        D[k][k] = 1 << v
        row, d = U[k]
        U[k] = [y * E.dens[i] for y in row], d * (x >> v)
    D, U = LocalMatrix._of(((row, 1) for row in D), n), LocalMatrix._of(U, m)
    V = LocalMatrix._of(Vt, n).transpose()
    if U @ M @ V != D:
        raise MathInvariantError("Smith reduction lost U*M*V == D")
    return D, U, V


def snf(M: LocalMatrix) -> tuple[int, ...]:
    """Nonzero Smith invariants of M, as plain ints (powers of 2)."""
    D = snf_with_transforms(M)[0]
    return tuple(row[i] for i, row in enumerate(D.rows[:D.ncols]) if row[i])


def cokernel_structure(M: LocalMatrix) -> ModuleStructure:
    """Structure of the column module modulo the row span of M."""
    invs = snf(M)
    return ModuleStructure(M.ncols - len(invs), tuple(d for d in invs if d > 1))


def solve_left(A: LocalMatrix, v: Sequence):
    """One solution x of x @ A == v over Z_(2), or None if there is none.

    v's entries are int or TwoLocal; x is a list of TwoLocal.  With
    E == U @ A the echelon form, x is (v's coordinates along E) @ U.
    """
    w = LocalMatrix([v], A.ncols)
    E, U, pivots = echelon(A)
    coords = _reduce(w.rows[0], w.dens[0], E, pivots)
    if coords is None:
        return None
    x, dx = _vec_mat(*coords, U)
    return [TwoLocal(a, dx) for a in x]


def quotient_structure(K: LocalMatrix, B: LocalMatrix) -> ModuleStructure:
    """Structure of span(K) / span(B).

    K's rows must be independent (use kernel_basis or row_basis output) and
    every row of B must lie in span(K); violations raise MathInvariantError.
    B's coordinates are taken along K's echelon rows E == U @ K: U is
    unimodular, so they present the same quotient as coordinates along K.
    """
    if K.ncols != B.ncols:
        raise ValueError("ambient dimensions differ")
    E, _, pivots = echelon(K)
    if len(pivots) != K.nrows:
        raise MathInvariantError("quotient basis rows are dependent")
    if not B.nrows:
        return ModuleStructure(K.nrows, ())
    coords = [_reduce(row, d, E, pivots) for row, d in zip(B.rows, B.dens)]
    if None in coords:
        raise MathInvariantError("row escapes the span it must lie in")
    return cokernel_structure(LocalMatrix._of(coords, K.nrows))


def preimage_rows(A: LocalMatrix, T: LocalMatrix) -> LocalMatrix:
    """Basis of the lattice {x : x @ A lies in rowspan(T)}."""
    if A.ncols != T.ncols:
        raise ValueError("ambient dimensions differ")
    if T.nrows == 0:
        return kernel_basis(A)
    K = kernel_basis(stack_rows([A, T]))
    return row_basis(LocalMatrix._of(((row[:A.nrows], d) for row, d
                                      in zip(K.rows, K.dens)), A.nrows))

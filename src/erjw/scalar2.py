"""Arithmetic over the 2-local integers, plus Smith normal form over them.

The ring is Z localized at the prime 2: reduced fractions with odd
denominator.  It is a discrete valuation ring, which keeps Smith reduction
simple.  Picking a global minimum-valuation pivot means one clearing pass
per pivot suffices (every quotient is exact and the remaining entries keep
valuation >= the pivot's), and the diagonal comes out as a divisibility
chain of powers of 2 with no extra sorting.

Convention used by the whole package: matrices act on ROW vectors.  Rows
index the source basis, columns the target, so the cokernel of M is the
column module modulo the row span, and a left kernel is a set of row
vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import MathInvariantError, NonUnitDivisionError


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


ZERO = TwoLocal._raw(0, 1)
ONE = TwoLocal._raw(1, 1)
# shared values for the small integers that fill most transforms
_SMALL = {i: TwoLocal._raw(i, 1) for i in range(-8, 9)}
_SMALL[0], _SMALL[1] = ZERO, ONE


@dataclass(frozen=True)
class ModuleStructure:
    """Isomorphism type of a finitely generated Z_(2)-module.

    torsion holds the cyclic orders (each a power of 2, > 1) in
    nondecreasing order, e.g. (2, 2, 8).
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for t in self.torsion:
            if t < 2 or t & (t - 1):
                raise ValueError(f"torsion order {t} is not a power of 2 above 1")
        if list(self.torsion) != sorted(self.torsion):
            raise ValueError("torsion orders must be nondecreasing")

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

    def as_dict(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


class LocalMatrix:
    """Dense matrix over TwoLocal, stored row-major."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, rows: Sequence[Sequence], ncols: int | None = None):
        data = []
        for row in rows:
            data.append([x if isinstance(x, TwoLocal) else TwoLocal(x) for x in row])
        if data:
            if ncols is None:
                ncols = len(data[0])
            for row in data:
                if len(row) != ncols:
                    raise ValueError("ragged rows")
        elif ncols is None:
            raise ValueError("an empty matrix needs an explicit column count")
        self.data = data
        self.nrows = len(data)
        self.ncols = ncols

    @classmethod
    def _of(cls, data: list, ncols: int) -> "LocalMatrix":
        # caller guarantees: fresh lists of TwoLocal, each of length ncols
        self = object.__new__(cls)
        self.data = data
        self.nrows = len(data)
        self.ncols = ncols
        return self

    @classmethod
    def identity(cls, n: int) -> "LocalMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "LocalMatrix":
        return cls([[ZERO] * ncols for _ in range(nrows)], ncols)

    def transpose(self) -> "LocalMatrix":
        return LocalMatrix([[self.data[i][j] for i in range(self.nrows)]
                            for j in range(self.ncols)], self.nrows)

    def row(self, i: int) -> list:
        return self.data[i][:]

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        if not isinstance(other, LocalMatrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self.data == other.data)

    def __matmul__(self, other: "LocalMatrix") -> "LocalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ "
                             f"{other.nrows}x{other.ncols}")
        return LocalMatrix._of([row_times_matrix(row, other) for row in self.data],
                               other.ncols)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"LocalMatrix({self.nrows}x{self.ncols}: {body})"


def stack_rows(mats: Sequence[LocalMatrix]) -> LocalMatrix:
    ncols = {m.ncols for m in mats}
    if len(ncols) != 1:
        raise ValueError("column counts differ")
    rows = []
    for m in mats:
        rows.extend(row[:] for row in m.data)
    return LocalMatrix(rows, ncols.pop())


def row_times_matrix(v: Sequence[TwoLocal], M: LocalMatrix) -> list:
    if len(v) != M.nrows:
        raise ValueError("length mismatch")
    nums, d = _clear_vector(v)
    acc, dm = _vec_mat(nums, M)
    return _from_ints(acc, d * dm)


# -- the integer kernel ------------------------------------------------------
#
# Elimination runs on Python ints.  A row of TwoLocal entries is held as an
# int list together with one odd scale s, the list being s times the true
# row; clearing a row's odd denominators is then a unit scaling, and each
# row update u*row_i - (a_i >> v)*row_k multiplies the scale by the odd u.
# The row's odd content is divided out against its scale after every update,
# so the ints stay as small as the true entries allow.  Scales may be
# negative.  V is held by columns, each with one odd denominator.


def _clear(entries) -> tuple[list, int]:
    """(nums, d) with nums == d * entries; d is the lcm of the denominators."""
    d = 1
    for x in entries:
        if x.den != 1:
            d = d * x.den // math.gcd(d, x.den)
    if d == 1:
        return [x.num for x in entries], 1
    return [x.num * (d // x.den) for x in entries], d


def _clear_rows(M: LocalMatrix) -> tuple[list, list]:
    """Integer rows A and odd dens with A[i] == dens[i] * M[i]."""
    A, dens = [], []
    for row in M.data:
        nums, d = _clear(row)
        A.append(nums)
        dens.append(d)
    return A, dens


def _clear_vector(v) -> tuple[list, int]:
    return _clear([a if isinstance(a, TwoLocal) else TwoLocal(a) for a in v])


def _from_ints(nums, den: int) -> list:
    """The entries of nums / den as TwoLocal (den odd, of either sign)."""
    if den < 0:
        nums, den = [-x for x in nums], -den
    raw = TwoLocal._raw
    if den == 1:
        small = _SMALL.get
        return [y if (y := small(x)) is not None else raw(x, 1) for x in nums]
    gcd = math.gcd
    return [(raw(x // g, den // g) if (g := gcd(x, den)) != 1 else raw(x, den))
            if x else ZERO for x in nums]


def _vec_mat(nums, M: LocalMatrix) -> tuple[list, int]:
    """(acc, d) with acc / d == nums @ M, for an int vector nums."""
    acc = [0] * M.ncols
    d = 1
    for a, row in zip(nums, M.data):
        if not a:
            continue
        for j, b in enumerate(row):
            bn = b.num
            if bn:
                bd = b.den
                if d % bd:
                    f = bd // math.gcd(d, bd)
                    acc = [x * f for x in acc]
                    d *= f
                acc[j] += a * bn * (d // bd)
    return acc, d


def _eliminate(rows, aux, scale, k: int, col: int, v: int) -> None:
    """Clear column col below row k: row_i <- u*row_i - (a_i >> v)*row_k.

    rows[k][col] is 2^v times the odd u, and no entry below it in the
    column has a smaller valuation, so every shift is exact.  aux[i] (the
    rows of U, or empty lists) gets the same update and shares scale[i].
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


def snf_with_transforms(M: LocalMatrix):
    """Smith form over Z_(2): returns (D, U, V) with U @ M @ V == D.

    U and V are invertible over Z_(2) (unit determinant) and the nonzero
    diagonal of D consists of powers of 2 in nondecreasing valuation.

    Each step takes as pivot the first entry, in row-major order over the
    remaining block, of minimum valuation v; scales its row by a unit so
    the pivot is exactly 2^v; clears the rows below with row operations
    (also applied to U); then clears the pivot row with column operations
    (applied to V).  The certificate U @ M @ V == D is checked on the
    integer matrices before they are converted.
    """
    m, n = M.nrows, M.ncols
    A, dens = _clear_rows(M)
    D = [row[:] for row in A]
    scale = dens[:]
    U = [[0] * m for _ in range(m)]
    for i, d in enumerate(dens):
        U[i][i] = d
    V = [[0] * n for _ in range(n)]  # V[j] is vden[j] times column j
    for j in range(n):
        V[j][j] = 1
    vden = [1] * n
    pivots = []
    for k in range(min(m, n)):
        bi = bj = -1
        bv = math.inf
        for i in range(k, m):
            row = D[i]
            for j in range(k, n):
                x = row[j]
                if x:
                    v = (x & -x).bit_length() - 1
                    if v < bv:
                        bv, bi, bj = v, i, j
                        if not v:
                            break
            if not bv:
                break
        if bi < 0:
            break  # remaining block is zero
        if bi != k:
            D[k], D[bi] = D[bi], D[k]
            U[k], U[bi] = U[bi], U[k]
            scale[k], scale[bi] = scale[bi], scale[k]
        if bj != k:
            for i in range(k, m):
                row = D[i]
                row[k], row[bj] = row[bj], row[k]
            V[k], V[bj] = V[bj], V[k]
            vden[k], vden[bj] = vden[bj], vden[k]
        prow = D[k]
        # absorbing the unit part u of the pivot leaves row k == D[k] / u
        u = prow[k] >> bv
        scale[k] = u
        _eliminate(D, U, scale, k, k, bv)
        # the pivot column is zero below row k, so only V and row k change
        pcol, pden = V[k], vden[k]
        for j in range(k + 1, n):
            a = prow[j]
            if not a:
                continue
            # column j <- column j - (a >> bv) / u * column k
            x_mul, y_mul = u * pden, (a >> bv) * vden[j]
            col = [x_mul * x - y_mul * y for x, y in zip(V[j], pcol)]
            d = vden[j] * x_mul
            if d != 1 and d != -1:
                g = math.gcd(d, *col)
                if g != 1:
                    col = [x // g for x in col]
                    d //= g
            V[j], vden[j] = col, d
        pivots.append(bv)
    _certify(A, dens, U, scale, V, vden, pivots)
    Dout = [[ZERO] * n for _ in range(m)]
    for i, v in enumerate(pivots):
        Dout[i][i] = TwoLocal._raw(1 << v, 1)
    Vcols = [_from_ints(col, d) for col, d in zip(V, vden)]
    return (LocalMatrix._of(Dout, n),
            LocalMatrix._of([_from_ints(row, s) for row, s in zip(U, scale)], m),
            LocalMatrix._of([list(row) for row in zip(*Vcols)], n))


def _certify(A, dens, U, scale, V, vden, pivots) -> None:
    """Raise MathInvariantError unless U @ M @ V == D.

    With A[k] == dens[k] * M[k], U[i] == scale[i] * (row i of U) and
    V[j] == vden[j] * (column j of V), and P the lcm of dens, entry (i, j)
    of U @ (P * M) @ V computed in ints must be scale[i] * P * vden[j]
    times D[i][j], which is 2^pivots[i] on the diagonal and 0 elsewhere.
    """
    n = len(V)
    if not U or not n:
        return  # an empty product has nothing to check
    P = 1
    for d in dens:
        P = P * d // math.gcd(P, d)
    Arows = [[(j, x * (P // d)) for j, x in enumerate(row) if x]
             for row, d in zip(A, dens)]
    Vrows = [[(j, col[l]) for j, col in enumerate(V) if col[l]] for l in range(n)]
    r = len(pivots)
    for i, urow in enumerate(U):
        w = [0] * n
        for k, x in enumerate(urow):
            if x:
                for j, y in Arows[k]:
                    w[j] += x * y
        z = [0] * n
        for l, x in enumerate(w):
            if x:
                for j, y in Vrows[l]:
                    z[j] += x * y
        if i < r:
            if z[i] != (scale[i] * P * vden[i]) << pivots[i]:
                raise MathInvariantError("Smith reduction lost U*M*V == D")
            z[i] = 0
        if any(z):
            raise MathInvariantError("Smith reduction lost U*M*V == D")


def _diag_rank(D: LocalMatrix) -> int:
    r = 0
    for i in range(min(D.nrows, D.ncols)):
        if D.data[i][i].num:
            r += 1
        else:
            break
    return r


def snf(M: LocalMatrix) -> tuple[int, ...]:
    """Nonzero Smith invariants of M, as plain ints (powers of 2)."""
    D, _, _ = snf_with_transforms(M)
    return tuple(D.data[i][i].num for i in range(_diag_rank(D)))


def rank(M: LocalMatrix) -> int:
    return len(snf(M))


def cokernel_structure(M: LocalMatrix) -> ModuleStructure:
    """Structure of the column module modulo the row span of M."""
    invs = snf(M)
    return ModuleStructure(M.ncols - len(invs), tuple(d for d in invs if d > 1))


def kernel_basis(M: LocalMatrix) -> LocalMatrix:
    """Basis of the left kernel {x : x @ M == 0}, as rows."""
    D, U, _ = snf_with_transforms(M)
    r = _diag_rank(D)
    return LocalMatrix([U.data[i][:] for i in range(r, M.nrows)], M.nrows)


def solve_left(A: LocalMatrix, v: Sequence, decomp=None):
    """One solution x of x @ A == v over Z_(2), or None if there is none."""
    if decomp is None:
        decomp = snf_with_transforms(A)
    D, U, V = decomp
    if len(v) != V.nrows:
        raise ValueError("length mismatch")
    r = _diag_rank(D)
    # x @ A == v exactly when y @ D == v @ V for y = x @ U^-1
    nums, d = _clear_vector(v)
    w, dw = _vec_mat(nums, V)
    y = [0] * A.nrows
    for i in range(r):
        e = D.data[i][i].num.bit_length() - 1  # D[i][i] == 2^e
        if w[i] & ((1 << e) - 1):
            return None
        y[i] = w[i] >> e
    if any(w[r:A.ncols]):
        return None
    x, dx = _vec_mat(y, U)
    return _from_ints(x, d * dw * dx)


def spans(A: LocalMatrix, rows) -> bool:
    """Whether every row lies in the row span of A over Z_(2)."""
    rows = [row for row in rows if any(x.num for x in row)]
    if not rows or A.nrows == 0:
        return not rows
    decomp = snf_with_transforms(A)
    return all(solve_left(A, row, decomp) is not None for row in rows)


def row_basis(M: LocalMatrix) -> LocalMatrix:
    """Lattice basis of the row span, via invertible row operations only.

    Columns are processed left to right with a minimum-valuation pivot, so
    every elimination quotient stays in Z_(2).
    """
    W, scale = _clear_rows(M)
    m = len(W)
    aux = [[] for _ in range(m)]
    r = 0
    for j in range(M.ncols):
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
            scale[r], scale[bi] = scale[bi], scale[r]
        _eliminate(W, aux, scale, r, j, bv)
        r += 1
    return LocalMatrix._of([_from_ints(W[i], scale[i]) for i in range(r)], M.ncols)


def quotient_structure(K: LocalMatrix, B: LocalMatrix) -> ModuleStructure:
    """Structure of span(K) / span(B).

    K's rows must be independent (use kernel_basis or row_basis output) and
    every row of B must lie in span(K); violations raise MathInvariantError.
    """
    if K.ncols != B.ncols:
        raise ValueError("ambient dimensions differ")
    if K.nrows == 0:
        for row in B.data:
            if any(x.num for x in row):
                raise MathInvariantError("nonzero row against an empty span")
        return ModuleStructure(0, ())
    if B.nrows == 0:
        return ModuleStructure(K.nrows, ())
    decomp = snf_with_transforms(K)
    if _diag_rank(decomp[0]) != K.nrows:
        raise MathInvariantError("quotient basis rows are dependent")
    coords = []
    for row in B.data:
        x = solve_left(K, row, decomp)
        if x is None:
            raise MathInvariantError("row escapes the span it must lie in")
        coords.append(x)
    return cokernel_structure(LocalMatrix(coords, K.nrows))


def preimage_rows(A: LocalMatrix, T: LocalMatrix) -> LocalMatrix:
    """Basis of the lattice {x : x @ A lies in rowspan(T)}."""
    if A.ncols != T.ncols:
        raise ValueError("ambient dimensions differ")
    if T.nrows == 0:
        return kernel_basis(A)
    G = stack_rows([A, T])
    K = kernel_basis(G)
    X = LocalMatrix([row[:A.nrows] for row in K.data], A.nrows)
    return row_basis(X)

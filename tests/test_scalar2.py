import collections
import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from erjw import scalar2
from erjw.errors import MathInvariantError, NonUnitDivisionError
from erjw.graded import GradingSpec, parse_series
from erjw.scalar2 import (
    BitSpan,
    LocalMatrix,
    ModuleStructure,
    RowSpan,
    TwoLocal,
    bit_preimage_within,
    cokernel_structure,
    echelon,
    kernel_basis,
    preimage_rows,
    quotient_structure,
    row_basis,
    row_times_matrix,
    snf,
    snf_with_transforms,
    solve_left,
    spans,
    stack_rows,
    val2,
)

odd = st.integers(-99, 99).map(lambda k: 2 * k + 1)
two_locals = st.builds(TwoLocal, st.integers(-200, 200), odd)


@st.composite
def sparse_matrices(draw, max_dim=12, min_cols=1):
    """Matrices up to max_dim square: few nonzeros, odd denominators, and
    numerators well beyond +-2 with a spread of 2-adic valuations."""
    nrows = draw(st.integers(0, max_dim))
    ncols = draw(st.integers(min_cols, max_dim))
    data = [[TwoLocal(0)] * ncols for _ in range(nrows)]
    if nrows and ncols:
        cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
        nums = st.builds(lambda a, e: a << e,
                         st.integers(-60, 60).filter(bool), st.integers(0, 5))
        dens = st.sampled_from([1, 1, 1, 3, 5, 7, 9, 15, 21, 45])
        for (i, j), a, d in draw(st.lists(st.tuples(cells, nums, dens),
                                          max_size=nrows * ncols // 2 + 1)):
            data[i][j] = TwoLocal(a, d)
    return LocalMatrix(data, ncols)


def _cleared_ints(M):
    """M with each row's denominators cleared: an integer matrix whose
    Smith invariants over Z_(2) are those of M."""
    rows = []
    for row in M.data:
        d = math.lcm(*(x.den for x in row))
        rows.append([x.num * (d // x.den) for x in row])
    return rows


def reference_smith(M):
    """Smith form (D, U, V) with U @ M @ V == D by the route that src used
    before its Smith form was composed from echelon forms: a loop of its
    own, with row and column operations, checked by one assertion.

    Each step takes as pivot the first entry, in row-major order over the
    remaining block, of minimum valuation v; scales its row by a unit so
    the pivot is exactly 2^v; clears the rows below with row operations
    (also applied to U); then clears the pivot row with column operations
    (applied to V).  Rows carry one odd scale each, as in the kernel, and
    V is held by columns, each with one odd denominator.
    """
    m, n = M.nrows, M.ncols
    D = [row[:] for row in M.rows]
    scale = M.dens[:]
    U = [[d if i == j else 0 for j in range(m)] for i, d in enumerate(scale)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    vden = [1] * n
    pivots = []
    for k in range(min(m, n)):
        bi = bj = -1
        bv = math.inf
        for i in range(k, m):
            for j in range(k, n):
                if D[i][j] and val2(D[i][j]) < bv:
                    bv, bi, bj = val2(D[i][j]), i, j
        if bi < 0:
            break  # remaining block is zero
        D[k], D[bi] = D[bi], D[k]
        U[k], U[bi] = U[bi], U[k]
        scale[k], scale[bi] = scale[bi], scale[k]
        for row in D[k:]:
            row[k], row[bj] = row[bj], row[k]
        V[k], V[bj] = V[bj], V[k]
        vden[k], vden[bj] = vden[bj], vden[k]
        prow, paux = D[k], U[k]
        # absorbing the unit part u of the pivot leaves row k == D[k] / u
        u = prow[k] >> bv
        scale[k] = u
        for i in range(k + 1, m):
            q = D[i][k] >> bv
            if q:
                row = [u * x - q * y for x, y in zip(D[i], prow)]
                arow = [u * x - q * y for x, y in zip(U[i], paux)]
                s = scale[i] * u
                g = math.gcd(s, *row, *arow)
                D[i], U[i] = [x // g for x in row], [x // g for x in arow]
                scale[i] = s // g
        # the pivot column is zero below row k, so only V and row k change
        pcol, pden = V[k], vden[k]
        for j in range(k + 1, n):
            if prow[j]:
                # column j <- column j - (a >> bv) / u * column k
                x_mul, y_mul = u * pden, (prow[j] >> bv) * vden[j]
                V[j] = [x_mul * x - y_mul * y for x, y in zip(V[j], pcol)]
                vden[j] *= x_mul
        pivots.append(bv)
    Dout = [[0] * n for _ in range(m)]
    for i, v in enumerate(pivots):
        Dout[i][i] = 1 << v
    Dout = LocalMatrix(Dout, n)
    Uout = LocalMatrix._of(zip(U, scale), m)
    Vout = LocalMatrix([[TwoLocal(col[l], d) for col, d in zip(V, vden)]
                        for l in range(n)], n)
    assert Uout @ M @ Vout == Dout
    return Dout, Uout, Vout


def _invariants(D):
    """The nonzero diagonal of a Smith form D, as ints."""
    return [D[i, i].num for i in range(min(D.nrows, D.ncols)) if D[i, i]]


def _odd_det(T):
    """Whether the square T has odd determinant, that is, is invertible
    over Z_(2): its entries' numerators have full GF(2) rank."""
    lead = {}  # the GF(2) rows so far, by bit length
    for row in T.rows:
        bits = sum((x & 1) << j for j, x in enumerate(row))
        while bits and bits.bit_length() in lead:
            bits ^= lead[bits.bit_length()]
        if not bits:
            return False
        lead[bits.bit_length()] = bits
    return True


def test_val2_spot_values():
    assert val2(0) == math.inf
    assert val2(1) == 0
    assert val2(2) == 1
    assert val2(12) == 2
    assert val2(-12) == 2
    assert val2(1 << 40) == 40
    assert val2(TwoLocal(12, 5)) == 2
    assert val2(TwoLocal(0)) == math.inf


def test_construction_reduces_and_validates():
    assert TwoLocal(6, 3) == TwoLocal(2)
    assert TwoLocal(-5, 15) == TwoLocal(-1, 3)
    assert TwoLocal(3, -5) == TwoLocal(-3, 5)
    with pytest.raises(NonUnitDivisionError):
        TwoLocal(1, 2)
    with pytest.raises(NonUnitDivisionError):
        TwoLocal(3, 6)
    with pytest.raises(NonUnitDivisionError):
        TwoLocal(6, 4)
    with pytest.raises(ZeroDivisionError):
        TwoLocal(1, 0)


def test_non_unit_division_is_math_error():
    assert issubclass(NonUnitDivisionError, MathInvariantError)
    with pytest.raises(NonUnitDivisionError):
        TwoLocal(2) / TwoLocal(4)
    assert TwoLocal(4) / TwoLocal(2) == TwoLocal(2)
    assert TwoLocal(3) / TwoLocal(5) == TwoLocal(3, 5)
    with pytest.raises(ZeroDivisionError):
        TwoLocal(1) / TwoLocal(0)


def test_powers():
    assert TwoLocal(3, 5) ** 2 == TwoLocal(9, 25)
    assert TwoLocal(3, 5) ** -2 == TwoLocal(25, 9)
    assert TwoLocal(7) ** 0 == TwoLocal(1)
    with pytest.raises(NonUnitDivisionError):
        TwoLocal(2) ** -1


def test_int_interop_and_serialization():
    assert TwoLocal(3, 5) + 1 == TwoLocal(8, 5)
    assert 2 * TwoLocal(1, 3) == TwoLocal(2, 3)
    assert 1 - TwoLocal(1, 3) == TwoLocal(2, 3)
    assert 6 / TwoLocal(3) == TwoLocal(2)
    assert str(TwoLocal(7)) == "7"
    assert str(TwoLocal(-7, 3)) == "-7/3"
    # scalars are read back by the one expression reader
    for text in ["7", "-7/3", "0", "12/5"]:
        assert str(parse_series(text, GradingSpec(1))) == text


@given(two_locals, two_locals, two_locals)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == TwoLocal(0)
    if b.is_unit:
        assert (a / b) * b == a


def test_hash_agrees_with_int():
    assert len({TwoLocal(3), 3}) == 1
    assert {TwoLocal(0): "zero"}[0] == "zero"
    assert hash(TwoLocal(-7)) == hash(-7)


@given(two_locals, two_locals, st.integers(-300, 300))
def test_equal_values_hash_equally(a, b, k):
    if a == b:
        assert hash(a) == hash(b)
    assert hash(TwoLocal(k)) == hash(k)
    assert hash(a) == hash(a.to_fraction())
    assert hash(TwoLocal(a.num * 3, a.den * 3)) == hash(a)


@given(two_locals, two_locals)
def test_valuation_laws(a, b):
    assert val2(a * b) == val2(a) + val2(b)
    assert val2(a + b) >= min(val2(a), val2(b))


def test_module_structure_validation():
    s = ModuleStructure(2, (2, 8))
    assert str(s) == "Z^2 + Z/2 + Z/8"
    assert str(ModuleStructure(0, ())) == "0"
    with pytest.raises(ValueError):
        ModuleStructure(-1, ())
    with pytest.raises(ValueError):
        ModuleStructure(0, (3,))
    with pytest.raises(ValueError):
        ModuleStructure(0, (1,))
    with pytest.raises(ValueError):
        ModuleStructure(0, (4, 2))


def test_snf_frozen_examples():
    assert snf(LocalMatrix([[1, 0], [0, 1]])) == (1, 1)
    assert snf(LocalMatrix([[2]])) == (2,)
    assert snf(LocalMatrix([[2, 1], [0, 2]])) == (1, 4)
    assert snf(LocalMatrix([[2, 0], [0, 8]])) == (2, 8)
    assert snf(LocalMatrix([[0] * 3] * 2)) == ()


# odd denominators, non-unit pivot parts and a kernel row
FROZEN = LocalMatrix([[6, TwoLocal(3, 5), 10], [12, 6, TwoLocal(14, 3)],
                      [9, 0, 2], [3, TwoLocal(6, 7), -4]])


def _text(X):
    return [[str(x) for x in row] for row in X.data]


def test_snf_transforms_frozen():
    # the reference route's exact transforms, not only their validity
    D, U, V = reference_smith(FROZEN)
    assert _text(D) == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2"],
                       ["0", "0", "0"]]
    assert _text(U) == [["5/3", "0", "0", "0"], ["0", "0", "1/9", "0"],
                       ["30/127", "-3/127", "-16/127", "0"],
                       ["520/889", "-179/889", "-1213/2667", "1"]]
    assert _text(V) == [["0", "1", "-2/9"], ["1", "-10", "-130/9"],
                       ["0", "0", "1"]]


def test_snf_from_echelons_frozen():
    D, U, V = snf_with_transforms(FROZEN)
    assert _text(D) == _text(reference_smith(FROZEN)[0]) == [
        ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2"], ["0", "0", "0"]]
    assert U @ FROZEN @ V == D
    assert _odd_det(U) and _odd_det(V)


def test_cokernel_structure():
    assert cokernel_structure(LocalMatrix([[2, 0], [0, 8]])) == ModuleStructure(0, (2, 8))
    assert cokernel_structure(LocalMatrix([[2, 0]])) == ModuleStructure(1, (2,))
    assert cokernel_structure(LocalMatrix([[1, 0]])) == ModuleStructure(1, ())
    assert cokernel_structure(LocalMatrix([], 3)) == ModuleStructure(3, ())


def test_kernel_basis():
    M = LocalMatrix([[1, 1], [1, 1]])
    K = kernel_basis(M)
    assert K.nrows == 1
    assert all(x == TwoLocal(0) for x in row_times_matrix(K.data[0], M))
    I3 = LocalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert kernel_basis(I3).nrows == 0


def test_solve_left():
    A = LocalMatrix([[2, 1], [0, 2]])
    x = solve_left(A, [TwoLocal(2), TwoLocal(5)])
    assert x is not None
    assert row_times_matrix(x, A) == [TwoLocal(2), TwoLocal(5)]
    assert solve_left(A, [TwoLocal(1), TwoLocal(0)]) is None
    wide = LocalMatrix([[1, 0, 0]])
    assert solve_left(wide, [TwoLocal(3), TwoLocal(0), TwoLocal(0)]) == [TwoLocal(3)]
    assert solve_left(wide, [TwoLocal(0), TwoLocal(1), TwoLocal(0)]) is None


def test_quotient_structure():
    I2 = LocalMatrix([[1, 0], [0, 1]])
    assert quotient_structure(I2, LocalMatrix([[2, 0], [0, 4]])) == ModuleStructure(0, (2, 4))
    assert quotient_structure(I2, LocalMatrix([], 2)) == ModuleStructure(2, ())
    assert quotient_structure(LocalMatrix([[2, 0]]), LocalMatrix([[4, 0]])) == ModuleStructure(0, (2,))
    with pytest.raises(MathInvariantError):
        quotient_structure(LocalMatrix([[2, 0]]), LocalMatrix([[1, 0]]))
    with pytest.raises(MathInvariantError):
        quotient_structure(LocalMatrix([[1, 0], [1, 0]]), LocalMatrix([[1, 0]]))


def test_row_basis_spans_same_lattice():
    M = LocalMatrix([[2, 2], [2, 4], [4, 6]])
    B = row_basis(M)
    assert B.nrows == 2
    # every original row solvable against the basis and vice versa
    for row in M.data:
        assert solve_left(B, row) is not None
    I2 = LocalMatrix([[1, 0], [0, 1]])
    assert quotient_structure(I2, B) == ModuleStructure(0, (2, 2))


def test_preimage_rows():
    A = LocalMatrix([[2]])
    T = LocalMatrix([[4]])
    P = preimage_rows(A, T)
    assert P.nrows == 1 and val2(P.data[0][0]) == 1
    # empty target means plain kernel
    P0 = preimage_rows(LocalMatrix([[1, 0]]), LocalMatrix([], 2))
    assert P0.nrows == 0


def _random_matrix(rng, nrows, ncols):
    return LocalMatrix([[TwoLocal(rng.randrange(-8, 9) * 2 ** rng.randrange(0, 3),
                                  rng.choice([1, 1, 1, 3, 5]))
                         for _ in range(ncols)] for _ in range(nrows)], ncols)


def test_snf_randomized_invariants():
    rng = random.Random(20260816)
    for _ in range(60):
        m = _random_matrix(rng, rng.randrange(0, 5), rng.randrange(1, 5))
        D, U, V = snf_with_transforms(m)  # checks U @ m @ V == D internally
        invs = snf(m)
        for a, b in zip(invs, invs[1:]):
            assert b % a == 0
        assert len(snf(m)) == len(snf(m.transpose()))
        # kernel rows really annihilate and count matches rank deficiency
        K = kernel_basis(m)
        assert K.nrows == m.nrows - len(invs)
        for row in K.data:
            assert all(x == TwoLocal(0) for x in row_times_matrix(row, m))


def test_solve_left_randomized_round_trip():
    rng = random.Random(7)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 5)
        A = _random_matrix(rng, nrows, ncols)
        x = [TwoLocal(rng.randrange(-6, 7)) for _ in range(nrows)]
        v = row_times_matrix(x, A)
        y = solve_left(A, v)
        assert y is not None
        assert row_times_matrix(y, A) == v


# -- cross-checks of the Smith kernel on larger sparse matrices --------------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sparse_matrices(min_cols=0))
def test_snf_from_echelons_against_reference(m):
    D, U, V = snf_with_transforms(m)
    assert D == reference_smith(m)[0]
    assert (U.nrows, U.ncols, V.nrows, V.ncols) == (m.nrows,) * 2 + (m.ncols,) * 2
    assert _odd_det(U) and _odd_det(V)
    assert U @ m @ V == D


def _stopped_early(k, last, X, result):
    # the round before the last reports one entry per row: its pivots
    E, T, pivots = result
    if k == last - 1:
        E = LocalMatrix._of(
            [([x if j == p else 0 for j, x in enumerate(row)], d)
             for row, d, p in zip(E.rows, E.dens, pivots)], E.ncols)
    return E, T, pivots


def _dropped_v_update(k, last, X, result):
    # the first round on a transpose, whose transform joins V, reports none
    E, T, pivots = result
    if k == 2:
        n = X.nrows
        T = LocalMatrix([[int(i == j) for j in range(n)] for i in range(n)], n)
    return E, T, pivots


@pytest.mark.parametrize("plant", [_stopped_early, _dropped_v_update])
def test_smith_certificate_catches_planted_alternation_faults(monkeypatch,
                                                              plant):
    M = LocalMatrix([[4, 2, 1], [0, 4, 2], [2, 0, 4]])  # three rounds
    rounds, real = [], scalar2.echelon
    monkeypatch.setattr(scalar2, "echelon",
                        lambda X: rounds.append(X) or real(X))
    snf_with_transforms(M)
    last = len(rounds)
    assert last == 3
    rounds.clear()
    monkeypatch.setattr(scalar2, "echelon", lambda X: rounds.append(X) or
                        plant(len(rounds), last, X, real(X)))
    with pytest.raises(MathInvariantError, match=r"U\*M\*V == D"):
        snf_with_transforms(M)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_snf_certificate_through_matmul(m):
    D, U, V = snf_with_transforms(m)
    # re-evaluate the certificate with TwoLocal arithmetic, outside the kernel
    assert (U @ m) @ V == D
    assert (D.nrows, D.ncols) == (m.nrows, m.ncols)
    assert (U.nrows, U.ncols, V.nrows, V.ncols) == (m.nrows,) * 2 + (m.ncols,) * 2
    r = len(snf(m))
    for i in range(m.nrows):
        for j in range(m.ncols):
            x = D[i, j]
            if i == j and i < r:
                assert x.den == 1 and x.num > 0 and x.num & (x.num - 1) == 0
            else:
                assert x == TwoLocal(0)
    diag = [D[i, i].num for i in range(r)]
    assert diag == sorted(diag)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_snf_matches_sympy_two_parts(m):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    ints = _cleared_ints(m)
    S = smith_normal_form(sympy.Matrix(m.nrows, m.ncols, sum(ints, [])),
                          domain=sympy.ZZ)
    nonzero = [abs(int(S[i, i])) for i in range(min(m.nrows, m.ncols))
               if S[i, i] != 0]
    two_parts = sorted(d & -d for d in nonzero)
    assert list(snf(m)) == two_parts
    # the transforms are invertible over Z_(2): odd determinant once cleared
    D, U, V = snf_with_transforms(m)
    for T in (U, V):
        if T.nrows:
            assert sympy.Matrix(_cleared_ints(T)).det() % 2 == 1


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_kernel_rows_annihilate(m):
    K = kernel_basis(m)
    assert K.nrows == m.nrows - len(snf(m))
    for row in K.data:
        assert all(x == TwoLocal(0) for x in row_times_matrix(row, m))
    if K.nrows:
        assert len(snf(K)) == K.nrows


@settings(max_examples=40, deadline=None)
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_solve_left_and_row_basis_on_sparse(m, rnd):
    x = [TwoLocal(rnd.randrange(-9, 10), rnd.choice([1, 3, 5]))
         for _ in range(m.nrows)]
    v = row_times_matrix(x, m)
    # the integer accumulation against plain Fraction arithmetic
    assert [a.to_fraction() for a in v] == [
        sum((a.to_fraction() * row[j].to_fraction() for a, row in zip(x, m.data)),
            Fraction(0)) for j in range(m.ncols)]
    y = solve_left(m, v)
    assert y is not None and row_times_matrix(y, m) == v
    B = row_basis(m)
    assert B.nrows == len(snf(m))
    for row in m.data:
        assert solve_left(B, row) is not None


# -- the stored form: int rows over one odd denominator each ----------------

dims = st.integers(0, 4)
fractions = st.builds(Fraction, st.integers(-40, 40),
                      st.sampled_from([1, 1, 3, 5, 7, 9, 15, 21]))


def _fraction_rows(data, nrows, ncols):
    return [[data.draw(fractions) for _ in range(ncols)] for _ in range(nrows)]


def _local(rows, ncols):
    # ints where the entry is integral, TwoLocal elsewhere
    return LocalMatrix([[int(x) if x.denominator == 1 else TwoLocal(x)
                         for x in row] for row in rows], ncols)


def _as_fractions(M):
    return [[x.to_fraction() for x in row] for row in M.data]


def _product(a, b, k, n):
    return [[sum((row[l] * b[l][j] for l in range(k)), Fraction(0))
             for j in range(n)] for row in a]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_matrix_operations_match_fraction_reference(data):
    m, k, n, p = (data.draw(dims) for _ in range(4))
    a = _fraction_rows(data, m, k)
    b = _fraction_rows(data, k, n)
    c = _fraction_rows(data, p, k)
    A, B, C = _local(a, k), _local(b, n), _local(c, k)
    AB = A @ B
    assert (AB.nrows, AB.ncols) == (m, n)
    assert _as_fractions(AB) == _product(a, b, k, n)
    assert AB == _local(_product(a, b, k, n), n)
    S = stack_rows([A, C])
    assert (S.nrows, S.ncols) == (m + p, k)
    assert _as_fractions(S) == a + c and S == _local(a + c, k)
    T = A.transpose()
    assert (T.nrows, T.ncols) == (k, m)
    assert _as_fractions(T) == [[a[i][j] for i in range(m)] for j in range(k)]
    assert T.transpose() == A
    v = _fraction_rows(data, 1, k)[0]
    w = row_times_matrix([TwoLocal(x) for x in v], B)
    assert [x.to_fraction() for x in w] == _product([v], b, k, n)[0]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_stored_rows_round_trip_and_compare_canonically(data):
    m, n = data.draw(dims), data.draw(dims)
    a = _fraction_rows(data, m, n)
    A = _local(a, n)
    assert _as_fractions(A) == a
    assert LocalMatrix(A.data, n) == A
    for i in range(m):
        assert A.row(i) == A.data[i] == [A[i, j] for j in range(n)]
        assert [x.to_fraction() for x in A.row(i)] == a[i]
    for row, d in zip(A.rows, A.dens):
        assert d > 0 and d % 2 == 1 and math.gcd(d, *row) == 1
    # the same rows scaled by odd factors of either sign are stored alike
    ks = [data.draw(st.sampled_from([1, -1, 3, -5, 9, -15])) for _ in range(m)]
    scaled = LocalMatrix._of([([k * x for x in row], k * d)
                              for row, d, k in zip(A.rows, A.dens, ks)], n)
    assert scaled == A
    assert (scaled.rows, scaled.dens) == (A.rows, A.dens)
    if m and n:
        other = [row[:] for row in a]
        other[0][0] += 1
        assert _local(other, n) != A


def test_of_stores_rows_over_an_odd_denominator_in_lowest_terms():
    M = LocalMatrix._of([([3, 6, 9], 3), ([10, 0, 5], -15), ([2, 4, 6], 1),
                         ([0, 0, 0], 5)], 3)
    assert M.rows == [[1, 2, 3], [-2, 0, -1], [2, 4, 6], [0, 0, 0]]
    assert M.dens == [1, 3, 1, 1]
    assert M == LocalMatrix([[1, 2, 3], [TwoLocal(-2, 3), 0, TwoLocal(-1, 3)],
                             [2, 4, 6], [0, 0, 0]])


def test_stored_form_spot_values():
    M = LocalMatrix([[TwoLocal(2, 3), -1, 0], [0, 0, 0], [TwoLocal(-5, 9), 1,
                                                          TwoLocal(7, 3)]])
    assert M.rows == [[2, -3, 0], [0, 0, 0], [-5, 9, 21]]
    assert M.dens == [3, 1, 9]
    assert LocalMatrix._of([([-6, 9, 0], -9), ([0, 0, 0], 7),
                            ([5, -9, -21], -9)], 3) == M
    assert str(M[2, 2]) == "7/3" and M.row(0)[0] == TwoLocal(2, 3)
    assert repr(M) == "LocalMatrix(3x3: 2/3 -1 0; 0 0 0; -5/9 1 7/3)"
    for rows, ncols in ((0, 3), (3, 0), (0, 0)):
        Z = LocalMatrix([[0] * ncols] * rows, ncols)
        assert (Z.nrows, Z.ncols) == (rows, ncols) and Z.data == [[]] * rows
        assert Z.transpose() == LocalMatrix([[0] * rows] * ncols, rows)
    assert (LocalMatrix([[]] * 2, 0) @ LocalMatrix([], 3)
            == LocalMatrix([[0] * 3] * 2))
    with pytest.raises(ValueError):
        LocalMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        LocalMatrix([])


def test_certificate_catches_a_planted_elimination_fault(monkeypatch):
    M = LocalMatrix([[1, 1], [1, 3]])
    snf_with_transforms(M)
    real = scalar2._eliminate

    def faulty(rows, aux, scale, k, col, v):
        # the row operations reach D but U records a different one
        real(rows, aux, scale, k, col, v)
        for row in aux[k + 1:]:
            if row:
                row[k] += 2

    monkeypatch.setattr(scalar2, "_eliminate", faulty)
    with pytest.raises(MathInvariantError, match=r"echelon lost U\*M == E"):
        snf_with_transforms(M)


# -- the certified echelon --------------------------------------------------


def _reference_row_basis(M):
    """row_basis as it stood before the echelon form: its own elimination
    loop, with no transform and no certificate."""
    W = [row[:] for row in M.rows]
    scale = M.dens[:]
    m, r = len(W), 0
    for j in range(M.ncols):
        if r == m:
            break
        bi, bv = -1, math.inf
        for i in range(r, m):
            x = W[i][j]
            if x and val2(x) < bv:
                bi, bv = i, val2(x)
        if bi < 0:
            continue
        W[r], W[bi] = W[bi], W[r]
        scale[r], scale[bi] = scale[bi], scale[r]
        prow = W[r]
        u = prow[j] >> bv
        for i in range(r + 1, m):
            a = W[i][j]
            if a:
                row = [u * x - (a >> bv) * y for x, y in zip(W[i], prow)]
                s = scale[i] * u
                g = math.gcd(s, *row)
                W[i], scale[i] = [x // g for x in row], s // g
        r += 1
    return LocalMatrix._of(zip(W[:r], scale), M.ncols)


def _smith_solve(decomp, v):
    """Reference solver on the Smith route, in TwoLocal arithmetic: one x
    with x @ A == v, or None, for decomp == (D, U, V) A's Smith form.
    x @ A == v exactly when y @ D == v @ V for y == x @ U^-1."""
    D, U, V = decomp
    w = row_times_matrix(v, V)
    diag = [D[i, i] for i in range(min(D.nrows, D.ncols)) if D[i, i]]
    if any(w[len(diag):]) or any(val2(a) < val2(d) for a, d in zip(w, diag)):
        return None
    y = [a / d for a, d in zip(w, diag)] + [TwoLocal(0)] * (U.nrows - len(diag))
    return row_times_matrix(y, U)


def _smith_quotient(K, B):
    """span(K) / span(B) from coordinates and invariants both found by the
    reference Smith route."""
    decomp = reference_smith(K)
    coords = [_smith_solve(decomp, row) for row in B.data]
    assert None not in coords
    invs = _invariants(reference_smith(LocalMatrix(coords, K.nrows))[0])
    return ModuleStructure(K.nrows - len(invs), tuple(d for d in invs if d > 1))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(sparse_matrices(min_cols=0), st.randoms(use_true_random=False))
def test_echelon_against_smith(m, rnd):
    """The echelon route and the Smith route answer the same row-span
    questions; Smith's answers are read through its own decomposition."""
    decomp = reference_smith(m)
    r = len(_invariants(decomp[0]))
    E, U, pivots = echelon(m)
    assert len(pivots) == E.nrows == r
    zero = LocalMatrix([[0] * m.ncols] * (m.nrows - r), m.ncols)
    assert U @ m == stack_rows([E, zero])
    K = kernel_basis(m)
    assert (K.nrows, K.ncols) == (m.nrows - r, m.nrows)
    assert K @ m == LocalMatrix([[0] * m.ncols] * K.nrows, m.ncols)
    smith_kernel = decomp[1].data[r:]
    # the two kernel bases span each other, decided by Smith's solver
    for row in smith_kernel:
        assert _smith_solve(reference_smith(K), row) is not None
    if smith_kernel:
        S = reference_smith(LocalMatrix(smith_kernel, m.nrows))
        for row in K.data:
            assert _smith_solve(S, row) is not None
    # membership: spans (reduction along E) against Smith's solver, and
    # one RowSpan kept across the rows, its coordinates along E exact
    span = RowSpan(m)
    assert span.basis == E and span.pivots == pivots
    for _ in range(4):
        x = [TwoLocal(rnd.randrange(-9, 10), rnd.choice([1, 3, 5]))
             for _ in range(m.nrows)]
        v = row_times_matrix(x, m) if m.nrows else [TwoLocal(0)] * m.ncols
        if m.ncols and rnd.random() < 0.6:
            j = rnd.randrange(m.ncols)
            v[j] += TwoLocal(rnd.choice([1, 3]) << rnd.randrange(4),
                             rnd.choice([1, 7]))
        w = LocalMatrix([v], m.ncols)
        assert spans(m, w) == (_smith_solve(decomp, v) is not None)
        coords = span.reduce(w.rows[0], w.dens[0])
        assert (coords is not None) == spans(m, w)
        if coords is not None and E.nrows:
            assert LocalMatrix._of([coords], E.nrows) @ E == w
    B, ref = row_basis(m), _reference_row_basis(m)
    assert (B.rows, B.dens, B.ncols) == (ref.rows, ref.dens, ref.ncols)


def _wrong_u_update(real, rows, aux, scale, k, col, v):
    real(rows, aux, scale, k, col, v)
    for row in aux[k + 1:]:
        row[k] += 2  # even, so U stays unimodular mod 2


def _dropped_row(real, rows, aux, scale, k, col, v):
    real(rows, aux, scale, k, col, v)
    rows[-1] = [0] * len(rows[-1])  # gone from E, still in U


def _dropped_row_and_transform(real, rows, aux, scale, k, col, v):
    real(rows, aux, scale, k, col, v)
    rows[-1] = [0] * len(rows[-1])
    aux[-1] = [0] * len(aux[-1])


def _even_pivot_unit(real, rows, aux, scale, k, col, v):
    # doubling the pivot row leaves U @ M == E true but its unit part even
    rows[k] = [2 * x for x in rows[k]]
    aux[k] = [2 * x for x in aux[k]]
    real(rows, aux, scale, k, col, v)


def _even_scale(real, rows, aux, scale, k, col, v):
    real(rows, aux, scale, k, col, v)
    if k == 2:  # the kernel row's scale doubles: U @ M == E in ints holds,
        scale[3] *= 2  # and the parities stand, but U leaves Z_(2)


def _entry_left_of_pivot(real, rows, aux, scale, k, col, v):
    real(rows, aux, scale, k, col, v)
    if k == 2:  # at the last pivot, row 2 += row 0 in E and U alike
        s2, s0 = scale[2], scale[0]
        rows[2] = [s0 * x + s2 * y for x, y in zip(rows[2], rows[0])]
        aux[2] = [s0 * x + s2 * y for x, y in zip(aux[2], aux[0])]
        scale[2] = s2 * s0


@pytest.mark.parametrize("plant, message", [
    (_wrong_u_update, r"U\*M == E"),
    (_dropped_row, r"U\*M == E"),
    (_dropped_row_and_transform, "not unimodular"),
    (_even_pivot_unit, "not unimodular"),
    (_even_scale, "not unimodular"),
    (_entry_left_of_pivot, "echelon shape"),
])
def test_echelon_certificate_catches_planted_faults(monkeypatch, plant,
                                                    message):
    M = LocalMatrix([[2, 1, 0], [4, TwoLocal(3, 5), 1], [6, 5, 2],
                     [1, 0, 7]])
    E, U, pivots = echelon(M)
    assert pivots == (0, 1, 2)
    assert U @ M == stack_rows([E, LocalMatrix([[0] * 3])])
    real = scalar2._eliminate
    monkeypatch.setattr(scalar2, "_eliminate",
                        lambda *args: plant(real, *args))
    for ask in (echelon, kernel_basis, row_basis,
                lambda A: spans(A, A)):
        with pytest.raises(MathInvariantError, match=message):
            ask(M)


def test_echelon_certificate_catches_a_lost_row(monkeypatch):
    real = scalar2._certify_echelon

    def short(M, W, U, scale, pivots):
        real(M, W[:-1], U[:-1], scale[:-1], pivots)

    monkeypatch.setattr(scalar2, "_certify_echelon", short)
    with pytest.raises(MathInvariantError, match="lost a row"):
        echelon(LocalMatrix([[1, 2], [3, 4]]))


def test_mutating_a_result_changes_no_later_answer():
    """Results hold lists of their own: editing every list in one leaves
    the next answer to the same question as it was."""
    M = LocalMatrix([[2, 4, TwoLocal(6, 5)], [1, 3, 0], [3, 7, TwoLocal(6, 5)],
                     [0, 2, 2]])
    T = LocalMatrix([[0, 2, 0]])
    asks = [lambda: (kernel_basis(M),), lambda: (row_basis(M),),
            lambda: (preimage_rows(M, T),), lambda: snf_with_transforms(M),
            lambda: echelon(M)]

    def lists(result):
        return [(X.rows, X.dens) for X in result if isinstance(X, LocalMatrix)]

    for ask in asks:
        first = ask()
        expected = copy.deepcopy(lists(first))
        for rows, dens in lists(first):
            for row in rows:
                row[:] = [x + 7 for x in row] + [1]
            rows.append([5])
            dens[:] = [3] * len(dens)
        assert lists(ask()) == expected
    assert spans(M, M) and not spans(M, LocalMatrix([[0, 0, 1]]))


# -- one solver: coordinates from the echelon, invariants from Smith ---------


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sparse_matrices(min_cols=0), st.randoms(use_true_random=False))
def test_one_solver_against_smith_route(m, rnd):
    """quotient_structure and solve_left, which read coordinates off the
    echelon, against the same questions answered through Smith's D, U, V."""
    K = row_basis(m)

    def combination(A):
        x = [TwoLocal(rnd.randrange(-9, 10) << rnd.randrange(3),
                      rnd.choice([1, 3, 5])) for _ in range(A.nrows)]
        return row_times_matrix(x, A)

    rows = [combination(K) for _ in range(rnd.randrange(4))]
    rows += [[TwoLocal(0)] * m.ncols for _ in range(rnd.randrange(2))]
    rnd.shuffle(rows)
    B = LocalMatrix(rows, m.ncols)
    assert quotient_structure(K, B) == _smith_quotient(K, B)
    # K's rows stacked on m's are dependent once both are nonempty
    A = stack_rows([K, m])
    v = combination(A)
    x = solve_left(A, v)
    assert x is not None and row_times_matrix(x, A) == v
    if m.ncols:
        v[rnd.randrange(m.ncols)] += TwoLocal(rnd.choice([1, 3]), 7)
        x = solve_left(A, v)
        assert (x is None) == (_smith_solve(reference_smith(A), v) is None)
        assert x is None or row_times_matrix(x, A) == v


def test_quotient_structure_makes_one_smith_call(monkeypatch):
    """Coordinates come from the echelon; Smith reduces only them."""
    calls = []
    real = scalar2.snf_with_transforms
    monkeypatch.setattr(scalar2, "snf_with_transforms",
                        lambda M: calls.append(M) or real(M))
    K = LocalMatrix([[2, 1, 0], [0, 3, TwoLocal(4, 5)]])
    B = LocalMatrix([[4, 2, 0], [0, 6, TwoLocal(8, 5)],
                     [2, 4, TwoLocal(4, 5)]])
    assert quotient_structure(K, B) == ModuleStructure(0, (2,))
    assert len(calls) == 1


def test_quotient_structure_refuses_dependent_rows_against_empty_b():
    """The independence check runs before the empty-B answer."""
    for K in (LocalMatrix([[1, 0], [1, 0]]), LocalMatrix([[0, 0]])):
        with pytest.raises(MathInvariantError, match="dependent"):
            quotient_structure(K, LocalMatrix([], 2))


def test_every_reduction_runs_its_certificate(monkeypatch):
    """Each ask reduces its input afresh and certifies it, also when the
    same matrix, or an equal one built another way, was asked before."""
    counts = []
    real = scalar2._certify_echelon
    monkeypatch.setattr(scalar2, "_certify_echelon",
                        lambda *args: counts.append(1) or real(*args))
    mats = [LocalMatrix([[1, 2], [3, 4]]),
            LocalMatrix([[2, TwoLocal(4, 3)], [0, 6]]),
            LocalMatrix([[0, 0, 8]])]
    mats.append(LocalMatrix([[TwoLocal(3, 3), 2], [TwoLocal(9, 3), 4]]))
    asks = (echelon, kernel_basis, snf, cokernel_structure)
    runs = collections.defaultdict(list)
    for _ in range(3):
        for k, M in enumerate(mats):
            for ask in asks:
                before = len(counts)
                ask(M)
                runs[ask, k].append(len(counts) - before)
    for ask in asks:
        got = [runs[ask, k] for k in range(len(mats))]
        # at least one certificate per ask, as many on every repeat, and
        # as many for the equal matrix built another way
        assert all(g[0] >= 1 and g == g[:1] * 3 for g in got)
        assert got[3] == got[0]
        if ask in (echelon, kernel_basis):
            assert got == [[1] * 3] * len(mats)


# -- the GF(2) bitmask echelon ------------------------------------------------


def _xor(rows, picks):
    acc = 0
    for i, row in enumerate(rows):
        if picks >> i & 1:
            acc ^= row
    return acc


_bit_rows = st.lists(st.integers(0, 63), max_size=6)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_bit_rows)
def test_bit_span_against_every_combination(rows):
    """Membership and relations against all 2^len(rows) XORs of the rows."""
    span = BitSpan(rows)
    combos = {_xor(rows, p) for p in range(1 << len(rows))}
    assert all((v in span) == (v in combos) for v in range(64))
    kernel = {p for p in range(1 << len(rows)) if not _xor(rows, p)}
    spanned = {_xor(span.relations, p)
               for p in range(1 << len(span.relations))}
    assert spanned == kernel and len(spanned) == 1 << len(span.relations)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 15), min_size=1, max_size=4),
       st.lists(st.integers(0, 15), max_size=3),
       st.lists(st.integers(0, 15), max_size=3))
def test_bit_preimage_within_against_every_x(A, T, S):
    """{x : x @ A in span(T)} inside span(S), with every x tried."""
    image = {_xor(T, p) for p in range(1 << len(T))}
    within = {_xor(S, p) for p in range(1 << len(S))}
    want = all(x in within for x in range(1 << len(A))
               if _xor(A, x) in image)
    assert bit_preimage_within(A, T, S) == want


def test_bit_span_names_its_relations():
    rows = [0b0110, 0b0011, 0b0101, 0, 0b1000]
    span = BitSpan(rows)
    # row 2 is rows 0 ^ 1, and row 3 is zero
    assert sorted(span.relations) == [0b00111, 0b01000]
    assert 0b1110 in span and 0b0001 not in span and 0 in span
    assert BitSpan([]).relations == () and 0 in BitSpan([])


def _tampered(monkeypatch, tamper):
    real = scalar2._bit_eliminate
    monkeypatch.setattr(scalar2, "_bit_eliminate",
                        lambda rows: tamper(*real(rows)))


def _with_first(lead, change):
    low = min(lead)
    return {**lead, low: change(*lead[low])}


@pytest.mark.parametrize("tamper, message", [
    # a basis row with a bit flipped above its pivot
    (lambda lead, rel: (_with_first(lead, lambda r, o: (r ^ 0b1000, o)), rel),
     "not its origin's XOR"),
    # an origin mask naming one more input row
    (lambda lead, rel: (_with_first(lead, lambda r, o: (r, o ^ 0b100)), rel),
     "not its origin's XOR"),
    # an origin mask past the last input row
    (lambda lead, rel: (_with_first(lead, lambda r, o: (r, o | 1 << 9)), rel),
     "missing row"),
    # a basis row filed under a pivot that is not its lowest bit
    (lambda lead, rel: ({low << 8: hit for low, hit in lead.items()}, rel),
     "not its row's lead"),
    # a relation that does not vanish, a repeated one, a lost one
    (lambda lead, rel: (lead, (rel[0] ^ 1, *rel[1:])), "does not vanish"),
    (lambda lead, rel: (lead, (rel[0], rel[0], *rel[2:])), "dependent"),
    (lambda lead, rel: (lead, rel[1:]), "lost a row"),
])
def test_bit_certificate_catches_tampering(monkeypatch, tamper, message):
    rows = [0b0110, 0b0011, 0b0101, 0b0110, 0b0001]
    assert len(BitSpan(rows).relations) == 2
    _tampered(monkeypatch, tamper)
    with pytest.raises(MathInvariantError, match=message):
        BitSpan(rows)

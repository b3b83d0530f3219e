"""Class-ring lattice rows go from a series' ints straight to the kernel.

`DegreeColumns.lattice_rows` builds each relation or ideal multiple as a
shift of a stencil compiled once from the factor's int numerators over
its denominator, and `DegreeColumns.row` reads any other series the same
way; `DegreeColumns.matrix` hands the rows to the kernel with no TwoLocal
between.  The stencil route is checked against a reference kept here,
`_reference_lattice_rows`, which builds every row as
`cols.row(factor.times_key(mono, deep))`: rows, denominators, column
order and `mixed` must all come out equal.  Two more tests check what
else reaches the kernel: the TwoLocal reference rebuilds every lattice
matrix from its rows' values through the public `LocalMatrix`
constructor, and the one-term product in place of `times_key` must give
the same matrices.  Neither sees how a lattice row is built, since
`lattice_rows` calls neither `row` nor `times_key`.
"""

import copy
from fractions import Fraction

import pytest

from erjw import boring
from erjw.boring import in_ideal, landweber_window_check, present
from erjw.bss import DegreeColumns, PresentedModule
from erjw.errors import NonUnitDivisionError
from erjw.graded import GradedSeries, GradingSpec, degree_basis
from erjw.scalar2 import LocalMatrix, TwoLocal, preimage_rows


def _lattice_work():
    """Run the three lattice consumers on small inputs, with overflow
    columns, doubling rows and odd denominators above 1 among their rows."""
    p = present(2, 1, 6)
    c1 = GradedSeries.gen(p.spec, "c1", trunc=6)
    r1 = p.relations[0]
    assert in_ideal((c1 * r1 - r1).truncated(6), p)
    assert not in_ideal(c1, p)
    for k in (0, 1, 2):
        assert landweber_window_check(2, 1, k, (-32, 32), weight=4,
                                      caps=2).ok
    module = PresentedModule(p.spec, 4, present(2, 1, 4).relations,
                             flat_certificate="conjugation quotient", caps=2)
    for D in (0, *p.generator_degrees):
        for i, j in ((0, 0), (1, 0), (2, 1), (0, 2)):
            module.twisted_structure_at(D, i, j)


def test_lattice_matrices_match_the_two_local_route(monkeypatch):
    read, built = {}, []
    row, matrix = DegreeColumns.row, DegreeColumns.matrix

    def reading_row(cols, series):
        out = row(cols, series)
        read[id(out[0])] = out[0], series  # holding the row keeps its id
        return out

    def checked_matrix(cols, rows):
        rows = list(rows)
        width = len(cols.index)
        values = []
        for nums, d in rows:
            seen = read.get(id(nums))
            if seen is not None and seen[0] is nums:
                values.append({cols.index[key]: c
                               for key, c in seen[1].terms.items()})
            else:
                values.append({c: TwoLocal(x, d) for c, x in nums.items()})
        got = matrix(cols, rows)
        built.append((cols, rows, got, LocalMatrix(
            [[v.get(c, TwoLocal(0)) for c in range(width)] for v in values],
            width)))
        return got

    monkeypatch.setattr(DegreeColumns, "row", reading_row)
    monkeypatch.setattr(DegreeColumns, "matrix", checked_matrix)
    _lattice_work()
    assert len(built) > 50
    for _, _, got, want in built:
        assert got == want
    rows = [row for _, rows, _, _ in built for row in rows]
    assert any(d > 1 for _, d in rows)
    assert ({0: 2}, 1) in rows  # a doubling row of I_k
    assert any(got.ncols > len(cols.basis) for cols, _, got, _ in built)


def test_lattice_rows_skip_the_public_constructor(monkeypatch):
    def refused(self, *args, **kwargs):
        raise AssertionError("LocalMatrix(...) built a lattice matrix")

    monkeypatch.setattr(LocalMatrix, "__init__", refused)
    _lattice_work()


def test_key_shifts_build_the_one_term_product_matrices(monkeypatch):
    _lattice_work()  # the presentations are built and cached first
    matrix, routes = DegreeColumns.matrix, []
    for patch in (False, True):
        built = []

        def recorded(cols, rows):
            built.append(matrix(cols, rows))
            return built[-1]

        with monkeypatch.context() as m:
            m.setattr(DegreeColumns, "matrix", recorded)
            if patch:
                m.setattr(GradedSeries, "times_key", lambda s, key, trunc=None:
                          GradedSeries(s.spec, {key: 1}, trunc) * s)
            _lattice_work()
        routes.append(built)
    shifted, product = routes
    assert len(shifted) == len(product) > 50
    assert all(a == b for a, b in zip(shifted, product))


def test_columns_do_not_follow_a_series_term_order():
    spec = GradingSpec(2, q=1)
    # vh1 past caps 0: every key but the unit is an overflow column
    terms = {(0, 3, 0, 0): 1, (0, 0, 0, 0): 2, (0, 1, -8, 1): 3,
             (0, 2, 0, 0): 4}
    got = []
    for order in (list(terms), list(terms)[::-1]):
        series = GradedSeries(spec, {k: terms[k] for k in order})
        assert list(series.keys()) == order
        cols = DegreeColumns(spec, 0, 0, 1)
        got.append((cols.row(series), cols.index))
    assert got[0] == got[1]
    assert list(got[0][1]) == sorted(terms)  # the unit is the one basis key


def test_window_check_has_one_image_row_per_source_monomial(monkeypatch):
    spec = GradingSpec(2, q=1)
    rows = []

    def counted(A, den):
        rows.append(A.nrows)
        return preimage_rows(A, den)

    monkeypatch.setattr(boring, "preimage_rows", counted)
    # one pair per window, so one reduction per call
    for k, wk in ((0, 0), (1, 16), (2, 48)):
        for D in (-32, -16, 0, 16):
            cert = landweber_window_check(2, 1, k, (D, D + wk), weight=4,
                                          caps=2)
            assert cert.ok and cert.checked == ((D, D + wk),)
            assert rows.pop() == len(degree_basis(spec, D, 2, 4, True)) > 0
    assert not rows


def test_even_denominator_row_is_refused():
    spec = GradingSpec(2, q=1)
    cols = DegreeColumns(spec, 0, 2, 4)
    with pytest.raises(NonUnitDivisionError):
        cols.row(GradedSeries.unit(spec, Fraction(1, 2)))
    unit = cols.index[spec.unit_key()]
    assert cols.row(GradedSeries.unit(spec, Fraction(3, 5))) == ({unit: 3}, 5)


def _reference_lattice_rows(cols, relations, k, deep):
    """`DegreeColumns.lattice_rows` with every multiple a times_key series
    read through `DegreeColumns.row`, empty rows skipped."""
    spec = cols.spec
    factors = [rel for rel in relations if rel]
    factors += [GradedSeries.gen(spec, f"vh{l}", trunc=deep)
                for l in range(1, k)]
    rows = []
    for factor in factors:
        for mono in degree_basis(spec, cols.D - factor.internal_degree(),
                                 cols.caps, cols.weight, hat_lattice=True):
            row = cols.row(factor.times_key(mono, deep))
            if row[0]:
                rows.append(row)
    if k >= 1:
        rows += [({col: 2}, 1) for col in range(len(cols.index))]
    return rows


def _twin(cols):
    """A copy of cols whose column registrations are its own."""
    twin = copy.copy(cols)
    twin.index = dict(cols.index)
    return twin


def test_lattice_rows_match_the_times_key_reference(monkeypatch):
    # in_ideal keeps each presentation's lattices: start them all cold, so
    # its lattice_rows calls are compared whatever ran before
    for shape in ((2, 1, 6), (1, 2, 4), (3, 1, 4)):
        present(*shape).lattice.cache_clear()
    compared = []
    lattice_rows = DegreeColumns.lattice_rows

    def checked(cols, relations, k, deep):
        twin = _twin(cols)  # the same column state before either route
        got = lattice_rows(cols, relations, k, deep)
        assert got == _reference_lattice_rows(twin, relations, k, deep)
        assert list(cols.index.items()) == list(twin.index.items())
        assert cols.mixed == twin.mixed
        compared.append(got)
        return got

    monkeypatch.setattr(DegreeColumns, "lattice_rows", checked)
    _lattice_work()
    for n, q, k, window in ((1, 2, 1, (0, 0)), (3, 1, 2, (0, 288))):
        p = present(n, q, 4)
        c1 = GradedSeries.gen(p.spec, "c1", trunc=4)
        r1 = p.relations[0]
        assert in_ideal((c1 * r1 - r1).truncated(4), p)
        assert not in_ideal(c1, p)
        assert landweber_window_check(n, 1, k, window, weight=4, caps=2).ok
    rows = [row for got in compared for row in got]
    assert len(compared) > 40 and len(rows) > 500
    assert any(d > 1 for _, d in rows)


def test_stencil_denominator_edges():
    spec = GradingSpec(2, q=1)  # keys (y, vh1, vn, c1)
    # vh1*c1^2 / 2 (weight 2) + c1 (weight 1): one degree, denominator 2
    factor = GradedSeries(spec, {(0, 1, 0, 2): Fraction(1, 2),
                                 (0, 0, 0, 1): 1})
    D = factor.internal_degree()
    # at deep 2 the unit multiple keeps the weight-2 term over 2
    for build in (DegreeColumns.lattice_rows, _reference_lattice_rows):
        with pytest.raises(NonUnitDivisionError):
            build(DegreeColumns(spec, D, 2, 2), [factor], 0, 2)
    # at deep 1 every kept numerator is even, and the rows are integral
    cols = DegreeColumns(spec, D, 2, 2)
    twin = _twin(cols)
    got = cols.lattice_rows([factor], 0, 1)
    assert got == _reference_lattice_rows(twin, [factor], 0, 1)
    assert list(cols.index.items()) == list(twin.index.items())
    assert ({cols.index[(0, 0, 0, 1)]: 1}, 1) in got
    assert all(d == 1 for _, d in got)

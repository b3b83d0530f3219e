"""Class-ring lattice rows go from a series' ints straight to the kernel.

`DegreeColumns.row` reads a series' int numerators over its odd
denominator, and `DegreeColumns.matrix` hands those to the kernel with no
TwoLocal between.  The reference here rebuilds every lattice matrix of
`in_ideal`, of one window check per stage and of `twisted_structure_at`
the TwoLocal way: each row read from a series through its `terms`, every
other row as its values, all through the public `LocalMatrix` constructor.
"""

from fractions import Fraction

import pytest

from erjw.boring import in_ideal, landweber_window_check, present
from erjw.bss import DegreeColumns, PresentedModule
from erjw.errors import NonUnitDivisionError
from erjw.graded import GradedSeries, GradingSpec
from erjw.scalar2 import LocalMatrix, TwoLocal


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


def test_even_denominator_row_is_refused():
    spec = GradingSpec(2, q=1)
    cols = DegreeColumns(spec, 0, 2, 4)
    with pytest.raises(NonUnitDivisionError):
        cols.row(GradedSeries.unit(spec, Fraction(1, 2)))
    unit = cols.index[spec.unit_key()]
    assert cols.row(GradedSeries.unit(spec, Fraction(3, 5))) == ({unit: 3}, 5)

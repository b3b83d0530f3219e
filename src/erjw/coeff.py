"""Named elements on the limit chart and a checker for relations between them.

The low filtration rows of the limit chart carry a handful of classes with
standing names (x, alpha, w, ...).  This module records them with their
degrees, exposes the filtration profile row by row, and checks multiplicative
relations such as ``alpha*alpha_2 = 2*w`` inside the chart block where both
sides live.
"""

from __future__ import annotations

from .bss import Page, StandardSummand, closed_form_page
from .errors import InputError, MathInvariantError, Record, check_ints
from .graded import GradedSeries, GradingSpec, parse_series
from .scalar2 import ONE, TwoLocal

__all__ = [
    "NamedClass",
    "RelationReport",
    "named_generators",
    "total_period",
    "relation_check",
    "filtration_profile",
    "limit_page",
]


def total_period(n: int) -> int:
    """Total degree of the invertible class on the limit chart."""
    check_ints({"n": n})
    if n < 1:  # 2 ** n would be a float
        raise InputError("n must be at least 1")
    return 2 ** (n + 2) * (2 ** n - 1)


class NamedClass(Record):
    """A named class of the limit chart: its monomial, filtration row and
    total degree."""

    _fields = ("name", "series", "row", "total_degree")

    def __init__(self, name: str, series: GradedSeries, row: int,
                 total_degree: int):
        self._fill(name, series, row, total_degree)


# Frozen degree bookkeeping for the named classes.  The table is checked
# against the degrees recomputed from the monomials at construction time.
_DEGREE_TABLE = {
    1: {"x": -1},
    2: {"x": -17, "alpha": 16, "alpha_1": -36, "alpha_2": -24,
        "alpha_3": -12, "w": -8},
    3: {"x": -97, "A": -112, "B": -16, "C": 176},
}


def _make(spec: GradingSpec, name: str, coeff=1, y=0, vh=None, vn=0):
    series = GradedSeries.monomial(spec, coeff=TwoLocal(coeff), y=y,
                                   vh=vh, vn=vn)
    [(key, _)] = series.items_sorted()
    return NamedClass(name, series, y, spec.total_of(key))


def named_generators(n: int) -> dict[str, NamedClass]:
    """The named classes for this n, keyed by name.

    Every n has x (the row-one class carried by y).  For n up to 3 the
    row-zero classes with standing names are included as well.
    """
    check_ints({"n": n})
    if n < 1:
        raise InputError("n must be at least 1")
    spec = GradingSpec(n, alphabet="hat")
    table = {"x": _make(spec, "x", y=1)}
    if n == 2:
        table["alpha"] = _make(spec, "alpha", vh=(1,))
        table["alpha_1"] = _make(spec, "alpha_1", coeff=2, vn=6)
        table["alpha_2"] = _make(spec, "alpha_2", coeff=2, vn=4)
        table["alpha_3"] = _make(spec, "alpha_3", coeff=2, vn=2)
        table["w"] = _make(spec, "w", vh=(1,), vn=4)
    elif n == 3:
        table["A"] = _make(spec, "A", coeff=2, vn=8)
        table["B"] = _make(spec, "B", vh=(1, 0), vn=8)
        table["C"] = _make(spec, "C", vh=(0, 1), vn=8)
    expected = _DEGREE_TABLE.get(n)
    if expected is not None:
        for name, cls in table.items():
            if cls.total_degree != expected[name]:
                raise MathInvariantError(
                    f"degree table out of sync for {name}: "
                    f"{cls.total_degree} != {expected[name]}")
    return table


# -- relation checking -----------------------------------------------------


def _single_term(series: GradedSeries):
    items = series.items_sorted()
    if not items:
        return None
    if len(items) > 1:
        raise InputError("relation sides must be single monomials")
    return items[0]


def _locate(page: Page, key, coeff: TwoLocal) -> StandardSummand | None:
    """The chart block of the limit page a monomial represents a class in.

    Returns None when the whole row vanishes; every row from 2^(n+1) - 1
    on does, so a row past the page's last one reads as that one.  A
    monomial whose leading data does not match any block is not the name
    of a chart class at all, which is an input error rather than a zero.
    """
    m = key[0]
    blocks = [s for s in page.rows[min(m, page.m_max)] if not s.is_zero]
    if not blocks:
        return None
    b = key[page.n]  # y at index 0, vh_l at index l, vn at index n
    for block in blocks:
        if (b - block.c) % (2 ** block.s):
            continue
        if block.i > 0 and coeff.is_unit and \
                not any(key[1:block.i]):
            raise InputError(
                f"coefficient of the monomial misses the ideal of "
                f"{block.notation()}")
        return block
    raise InputError(f"monomial does not represent a class in row {m}")


def _normal_form(block: StandardSummand | None, term):
    if term is None or block is None:
        return None
    (key, coeff) = term
    if block.j == 0:
        return (key, coeff)
    # everything even and everything divisible by a low vh dies in R/I_j
    if not coeff.is_unit:
        return None
    if any(key[1:block.j]):
        return None
    return (key, ONE)


class RelationReport(Record):
    """Whether a relation holds, why, and the chart block it was read in."""

    _fields = ("holds", "witness", "summand")

    def __init__(self, holds: bool, witness: str, summand: str):
        self._fill(holds, witness, summand)


def _render(spec: GradingSpec, nf) -> str:
    if nf is None:
        return "0"
    key, coeff = nf
    return str(GradedSeries(spec, {key: coeff}))


def limit_page(n: int) -> Page:
    """The limit page of the chart, past every differential."""
    return closed_form_page(n, 2 ** (n + 1))


def relation_check(n: int, text: str,
                   page: Page | None = None) -> RelationReport:
    """Check a chain of equalities between monomial expressions.

    Each side is read by graded.parse_series over the chart variables and
    named classes, must be a single monomial, and is located and reduced
    to normal form in its chart block.  Equalities across different rows
    or blocks never hold unless both sides vanish.  `page`, if given, is
    limit_page(n), built once by a caller that reads it again.
    """
    check_ints({"n": n})
    spec = GradingSpec(n, alphabet="hat")
    names = {name: cls.series for name, cls in named_generators(n).items()}
    sides = text.split("=")
    if len(sides) < 2:
        raise InputError("a relation needs an equals sign")
    if not all(side.strip() for side in sides):
        raise InputError("empty side in relation")
    terms = [_single_term(parse_series(side, spec, names=names))
             for side in sides]

    if page is None:
        page = limit_page(n)
    located = []
    for term in terms:
        if term is None:
            located.append((None, None))
        else:
            key, coeff = term
            located.append((_locate(page, key, coeff), term))
    nfs = [_normal_form(block, term) for block, term in located]

    nonzero = [(block, nf) for (block, _), nf in zip(located, nfs)
               if nf is not None]
    if not nonzero:
        blocks = [b for b, _ in located if b is not None]
        where = blocks[0].notation() if blocks else "0"
        return RelationReport(True, f"all sides vanish in {where}", where)

    block0, nf0 = nonzero[0]
    for block, nf in nonzero[1:]:
        if (block.i, block.j, block.s, block.c) != \
                (block0.i, block0.j, block0.s, block0.c) or \
                nf[0][0] != nf0[0][0]:
            return RelationReport(
                False,
                f"sides live in different blocks: {block0.notation()} row "
                f"{nf0[0][0]} vs {block.notation()} row {nf[0][0]}",
                block0.notation())
    failures = [nf for nf in nfs if nf != nf0]
    if failures:
        lhs = _render(spec, nf0)
        rhs = _render(spec, failures[0])
        return RelationReport(
            False, f"{lhs} != {rhs} in {block0.notation()}",
            block0.notation())
    return RelationReport(
        True, f"all sides reduce to {_render(spec, nf0)}",
        block0.notation())


def filtration_profile(n: int, page: Page | None = None
                       ) -> list[tuple[int, tuple[str, ...]]]:
    """Nonzero rows of the limit chart, as (row, block notations).

    There are 2^(n+1) - 1 of them; every row from there on must vanish.
    `page`, if given, is limit_page(n), as in relation_check.
    """
    if page is None:
        page = limit_page(n)
    top = 2 ** (n + 1) - 1
    for m in range(top, page.m_max + 1):
        if any(not s.is_zero for s in page.rows[m]):
            raise MathInvariantError(f"row {m} fails to vanish on the "
                                     f"limit chart")
    out = []
    for m in range(top):
        blocks = tuple(s.notation() for s in page.rows[m] if not s.is_zero)
        out.append((m, blocks))
    return out

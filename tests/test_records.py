"""The package's records against dataclass twins.

The 13 records are plain immutable classes on `erjw.errors.Record`.  For
each, `dataclasses.make_dataclass` builds a twin with the field names,
order and defaults the record is expected to have: frozen (so hashed by
its field tuple) for the hashable records, eq-only (so unhashable) for
`Page` and `PresentedModule`.  On derandomized hypothesis field values
the record and its twin must give byte-identical reprs and the same ==
and hash; both return NotImplemented against another class; positional,
keyword and default construction agree; and the record refuses
assignment and deletion.  Importing erjw loads neither `dataclasses` nor
`inspect`.
"""

import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import erjw
from erjw.boring import FlatnessCertificate, HatDecomposition, RingPresentation
from erjw.bss import FreeModule, Page, PresentedModule, StandardSummand
from erjw.coeff import NamedClass, RelationReport
from erjw.errors import InputError
from erjw.graded import GradedSeries, GradingSpec
from erjw.orient import OrientationScan, OrientationStep
from erjw.scalar2 import ModuleStructure

# hashable values of several types, for fields the constructor does not check
ANY = st.one_of(st.integers(-3, 3), st.booleans(), st.none(),
                st.text("ab", max_size=2), st.tuples(st.integers(0, 2)))
# dicts make a hashable record's hash raise TypeError, as the twin's does
ANY_OR_DICT = st.one_of(ANY, st.dictionaries(st.integers(0, 2), ANY,
                                             max_size=2))


def _plain(count):
    """count fields, each drawn from ANY."""
    return st.tuples(*[ANY] * count)


@st.composite
def _specs(draw):
    return (draw(st.integers(1, 4)), draw(st.integers(0, 3)),
            draw(st.integers(0, 3)), draw(st.sampled_from(("hat",
                                                           "standard"))))


@st.composite
def _structures(draw):
    exponents = draw(st.lists(st.integers(1, 4), max_size=3))
    return draw(st.integers(0, 4)), tuple(2 ** e for e in sorted(exponents))


@st.composite
def _summands(draw):
    n = draw(st.integers(1, 3))
    return (n, draw(st.integers(0, n + 1)), draw(st.integers(0, n + 1)),
            draw(st.integers(0, 3)), draw(st.integers(-9, 9)),
            draw(st.integers(-5, 5)))


@st.composite
def _pages(draw):
    rows = draw(st.dictionaries(st.integers(0, 3), st.tuples(ANY),
                                max_size=2))
    return draw(ANY), draw(ANY), rows, draw(ANY)


@st.composite
def _modules(draw):
    spec = GradingSpec(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    names = draw(st.lists(st.sampled_from(("c1", "vn", "y")), max_size=2))
    relations = tuple(GradedSeries.gen(spec, name) for name in names)
    return (spec, draw(st.integers(0, 4)), relations,
            draw(st.text("ab", max_size=2)), draw(st.integers(0, 6)))


# (record, its fields in order, their defaults, hashable, field values)
RECORDS = [
    (GradingSpec, ("n", "q", "roots", "alphabet"),
     {"q": 0, "roots": 0, "alphabet": "hat"}, True, _specs()),
    (ModuleStructure, ("free_rank", "torsion"), {"torsion": ()}, True,
     _structures()),
    (StandardSummand, ("n", "i", "j", "s", "c", "shift"), {"shift": 0}, True,
     _summands()),
    (Page, ("n", "r", "rows", "m_max"), {}, False, _pages()),
    (FreeModule, ("shifts", "flat_certificate"), {}, True,
     _plain(2)),
    (PresentedModule, ("spec", "weight", "relations", "flat_certificate",
                       "caps"), {"caps": 6}, False, _modules()),
    (RingPresentation, ("n", "q", "weight", "spec", "generator_degrees",
                        "relations", "heads"), {}, True,
     _plain(7)),
    (HatDecomposition, ("n", "source_spec", "components", "residues",
                        "bounded"), {}, True,
     st.tuples(ANY, ANY, ANY_OR_DICT, ANY, ANY)),
    (FlatnessCertificate, ("n", "q", "k", "window", "weight", "caps", "ok",
                           "checked", "failures"), {}, True,
     _plain(9)),
    (NamedClass, ("name", "series", "row", "total_degree"), {}, True,
     _plain(4)),
    (RelationReport, ("holds", "witness", "summand"), {}, True,
     _plain(3)),
    (OrientationStep, ("k", "page", "method", "verdict", "target_degree",
                       "residue", "modulus", "rechecked"),
     {"target_degree": None, "residue": None, "modulus": None,
      "rechecked": ()}, True, _plain(8)),
    (OrientationScan, ("n", "bundle", "steps", "certified", "external_facts",
                       "notes"), {}, True, _plain(6)),
]
IDS = [record.__name__ for record, *_ in RECORDS]


def _twin(record, fields, defaults, hashable):
    return dataclasses.make_dataclass(
        record.__name__,
        [(f, object, dataclasses.field(default=defaults[f]))
         if f in defaults else (f, object) for f in fields],
        frozen=hashable)


def _stored(record, values):
    """The field values a record keeps: a summand's c modulo 2^s."""
    if record is StandardSummand:
        n, i, j, s, c, shift = values
        return n, i, j, s, c % 2 ** s, shift
    return values


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


def test_every_record_is_in_the_table():
    assert len(RECORDS) == 13
    for record, fields, *_ in RECORDS:
        assert record._fields == fields
        assert record.__module__.startswith("erjw.")


@pytest.mark.parametrize("record, fields, defaults, hashable, values",
                         RECORDS, ids=IDS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_record_matches_its_dataclass_twin(record, fields, defaults,
                                           hashable, values, data):
    twin_cls = _twin(record, fields, defaults, hashable)
    first = data.draw(values)
    second = first if data.draw(st.booleans()) else data.draw(values)
    rec = record(*first)
    twin = twin_cls(*_stored(record, first))

    assert repr(rec) == repr(twin)
    assert repr(record(**dict(zip(fields, first)))) == repr(twin)
    required = [v for f, v in zip(fields, first) if f not in defaults]
    assert repr(record(*required)) == repr(twin_cls(*_stored(record, (
        *required, *(defaults[f] for f in fields[len(required):])))))

    other, other_twin = record(*second), twin_cls(*_stored(record, second))
    assert (rec == other) is (twin == other_twin)
    assert (rec != other) is (twin != other_twin)
    assert rec == record(**dict(zip(fields, first)))
    if hashable:
        assert _hash_or_error(rec) == _hash_or_error(twin)
    else:
        assert record.__hash__ is None and twin_cls.__hash__ is None

    assert twin.__eq__(rec) is NotImplemented
    for stranger in (twin, object(), tuple(first)):
        assert rec.__eq__(stranger) is NotImplemented
        assert rec != stranger

    before = repr(rec)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert repr(rec) == before


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), i=st.integers(-2, 6), j=st.integers(-2, 6),
       s=st.integers(0, 3), c=st.integers(-9, 9), shift=st.integers(-5, 5))
def test_summand_index_error_embeds_the_twin_repr(n, i, j, s, c, shift):
    # the message shows the repr before c is taken modulo 2^s
    twin_cls = _twin(StandardSummand, ("n", "i", "j", "s", "c", "shift"),
                     {"shift": 0}, True)
    if 0 <= i <= n + 1 and 0 <= j <= n + 1:
        assert StandardSummand(n, i, j, s, c, shift).c == c % 2 ** s
        return
    with pytest.raises(InputError) as err:
        StandardSummand(n, i, j, s, c, shift)
    assert str(err.value) == \
        f"ideal indices out of range in {twin_cls(n, i, j, s, c, shift)!r}"


def test_import_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(erjw.__file__))
    code = ("import sys; sys.path.insert(0, %r); import erjw, erjw.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
            % src)
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"[]\n", b"")

"""The reachability gate (tools/reach.py) decides from its inputs alone.

`defined_functions` names every def of a source tree, nested and
decorated ones included, and `problems` fails an unreached function that
is not listed, a listed one that ran, a listed name that is not defined
and a reason outside REASONS.  The trace itself runs as its own CI step.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

_SOURCE = '''\
import functools


class Box:
    @functools.lru_cache(maxsize=2)
    def size(self):
        return 1


def outer():
    def inner():
        return 2
    return inner
'''


def _defined(tmp_path):
    (tmp_path / "mod.py").write_text(_SOURCE)
    return reach.defined_functions(tmp_path)


def test_every_def_is_named_by_its_code_object_line(tmp_path):
    path = str((tmp_path / "mod.py").resolve())
    assert _defined(tmp_path) == {
        (path, 5): ("mod.Box.size", 3),  # from its decorator
        (path, 10): ("mod.outer", 4),
        (path, 11): ("mod.outer.inner", 2),
    }


def test_a_planted_unreached_function_fails_the_gate(tmp_path):
    defined = _defined(tmp_path)
    by_name = {name: key for key, (name, _) in defined.items()}
    ran = {by_name["mod.Box.size"], by_name["mod.outer"]}
    assert reach.problems(defined, ran, {}) == [
        "unreached and not listed: mod.outer.inner"]
    listed = {"mod.outer.inner": "reference: a planted route"}
    assert reach.problems(defined, ran, listed) == []
    assert reach.problems(defined, set(defined), listed) == [
        "listed but reached, so it leaves ALLOWED: mod.outer.inner"]
    assert reach.problems(defined, ran, {**listed, "mod.gone": "api: x",
                                         "mod.outer": "because"}) == [
        "listed but reached, so it leaves ALLOWED: mod.outer",
        "listed but not defined: mod.gone",
        "reason of mod.outer does not start with one of"
        " ('tracer', 'reference', 'api'): 'because'"]

"""The design rules, checked statically: `python3 tools/rules.py`.

Each file is parsed once, and each row of RULES checks its file set.  The
script prints one line per rule, ok or FAIL, each violation under it as
`file:line: detail`, and exits 1 on any violation.  A new design rule
adds its row here and a planted violation to tests/test_rules.py.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC, ERJW, TESTS = "src/**/*.py", "src/erjw/*.py", "tests/**/*.py"


def scoped(tree):
    """Yield (node, scope) for every node below tree.  A scope is
    qualified (Class.method, outer.inner, <lambda> for a lambda,
    <module> for module-level code), so a nested def or lambda cannot
    hide a use; a def, class or lambda node sits in its own scope."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Lambda):
                inner = f"{scope}.<lambda>" if scope else "<lambda>"
            yield child, inner or "<module>"
            yield from walk(child, inner)
    return walk(tree, "")


class Source:
    """One parsed file, with (name, line, scope) of each name it uses."""

    def __init__(self, root: Path, path: Path):
        text = path.read_text()
        self.path = path.relative_to(root).as_posix()
        self.name = path.name
        self.lines = text.splitlines()
        tree = ast.parse(text, self.path)
        self.nodes = list(ast.walk(tree))
        self.uses = [(getattr(n, "id", None) or n.attr, n.lineno, scope)
                     for n, scope in scoped(tree)
                     if isinstance(n, (ast.Name, ast.Attribute))]


def per_node(detail):
    """The check that reports `file:line: detail(node)` for each node
    where detail(node) is not None."""
    return lambda sources: [f"{s.path}:{node.lineno}: {d}" for s in sources
                            for node in s.nodes
                            if (d := detail(node)) is not None]


def unused_imports(sources):
    # every imported name is read somewhere in its file or listed in
    # __all__; __future__ imports and lines marked `# noqa: F401` are exempt
    bad = []
    for s in sources:
        used, aliases = set(), []
        for node in s.nodes:
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                if any(getattr(t, "id", None) == "__all__" for t in targets):
                    used |= {c.value for c in ast.walk(node.value)
                             if isinstance(c, ast.Constant)}
            elif isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                aliases += node.names
        for alias in aliases:
            name = (alias.asname or alias.name).split(".")[0]
            if (name != "*" and name not in used
                    and "# noqa: F401" not in s.lines[alias.lineno - 1]):
                bad.append(f"{s.path}:{alias.lineno}: {name}")
    return bad


def private_import(node):
    # `from .mod import _name` (or from erjw.mod), _name with one leading
    # underscore: a module's private names stay its own
    if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "erjw"):
        return ", ".join(a.name for a in node.names if a.name.startswith("_")
                         and not a.name.startswith("__")) or None


def dataclass_import(node):
    # the records are plain classes on errors.Record, and `dataclasses`
    # (with the inspect, dis and tokenize it pulls in) stays off the path
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        names = [node.module or ""]
    else:
        return None
    if any(name.split(".")[0] == "dataclasses" for name in names):
        return ast.unparse(node)


def finite_int(node) -> bool:
    # an int literal, or constant arithmetic on literals such as 1 << 13
    allowed = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)
    if node is None or not all(isinstance(n, allowed) for n in ast.walk(node)):
        return False
    value = eval(compile(ast.Expression(node), "<maxsize>", "eval"),
                 {"__builtins__": {}})
    return type(value) is int


def unbounded_caches(sources):
    # every lru_cache names a finite int maxsize and no functools.cache is
    # used, so no process-wide cache grows unbounded
    bad = []
    for s in sources:
        ok = {id(node.func) for node in s.nodes if isinstance(node, ast.Call)
              and finite_int(next((kw.value for kw in node.keywords
                                   if kw.arg == "maxsize"),
                                  node.args[0] if node.args else None))}
        for node in s.nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                name = "cache" if any(alias.name == "cache"
                                      for alias in node.names) else None
            elif (isinstance(node, ast.Attribute)
                    and getattr(node.value, "id", None) == "functools"):
                name = node.attr
            else:
                name = getattr(node, "id", None)  # a Name's
            if name == "cache" and not isinstance(node, ast.Name):
                bad.append(f"{s.path}:{node.lineno}:"
                           " functools.cache is unbounded")
            elif name == "lru_cache" and id(node) not in ok:
                bad.append(f"{s.path}:{node.lineno}:"
                           " lru_cache without a finite int maxsize")
    return bad


def one_term_product(node):
    # a `*` (or `*=`) with an operand that is a one-term series built in
    # place: lattice rows are stencil shifts, every other monomial multiple
    # is GradedSeries.times_key, and the general product stays the only
    # product of two series
    if not isinstance(getattr(node, "op", None), ast.Mult):
        return None
    for x in ((node.left, node.right) if isinstance(node, ast.BinOp) else
              (node.value,) if isinstance(node, ast.AugAssign) else ()):
        f = getattr(x, "func", None)
        if isinstance(x, ast.Call) and (
                getattr(f, "id", None) == "GradedSeries"
                or (getattr(f, "attr", None) == "monomial"
                    and getattr(f.value, "id", None) == "GradedSeries")):
            return ast.unparse(node)


# (names, the scopes expected to name them, a file left out): the scopes of
# src/erjw that name (read, call or pass on) the names are exactly these
SCOPE_ROWS = [
    # one elimination kernel
    ({"_eliminate"}, {"echelon"}, None),
    # TruncatedOracle.advance builds d_r once per page over the level's
    # valuation class, and once per image for d∘d, so no second per-cell
    # image route comes back
    ({"_d_key"}, {"apply_differential", "TruncatedOracle.advance"}, None),
    # the oracle's index of keys by the 2-adic valuation of their vn
    # exponent: __init__ builds it and advance reads one class per page,
    # so no other route picks the keys d_r moves
    ({"_by_val"}, {"TruncatedOracle.__init__", "TruncatedOracle.advance"},
     None),
    # the oracle charts a page when it is read, so no eager per-page chart
    # comes back into advance or __init__
    ({"_chart"}, {"TruncatedOracle.chart_at"}, None),
    # the series storage; other modules go through GradedSeries methods
    ({"_nums", "_den", "_kind"}, set(), "graded.py"),
    # lattice rows are shifts of a relation compiled once per call, and no
    # other caller builds monomial multiples outside times_key
    ({"_stencil"}, {"DegreeColumns.lattice_rows"}, None),
    # wrapped in the presentation's bounded `lattice` cache that in_ideal
    # reads, so no second per-call lattice route comes back
    ({"_relation_lattice"}, {"RingPresentation.__init__"}, None),
    # one GF(2) bitmask elimination, and every one certified, so no second
    # one grows beside it
    ({"_bit_eliminate", "_certify_bits"}, {"BitSpan.__init__"}, None),
    # every Z_(2) elimination is certified, and its unimodularity check
    # asks BitSpan, so it grows no GF(2) elimination of its own
    ({"_certify_echelon"}, {"echelon"}, None),
    # the stage-0 window check reads the parities of one
    # `DegreeColumns.capped_part` basis per question, and no second Z_(2)
    # preimage route comes back beside it
    ({"_torsion_free"}, {"landweber_window_check"}, None),
    # every other module asks its lattice questions through `RowSpan`,
    # `BitSpan` or `quotient_structure`, and the part of a span on the
    # capped columns is `DegreeColumns.capped_part` alone
    ({"echelon", "kernel_basis", "row_basis", "preimage_rows",
      "stack_rows"}, set(), "scalar2.py"),
]


def scope_row(names: set, expected: set, left_out: str | None):
    def check(sources):
        found = {}
        for s in sources:
            for name, line, scope in s.uses if s.name != left_out else ():
                if name in names:
                    found.setdefault(scope,
                                     f"{s.path}:{line}: {name} in {scope}")
        return ([where for scope, where in sorted(found.items())
                 if scope not in expected]
                + [f"{scope} names none of them"
                   for scope in sorted(expected - found.keys())])
    title = (f"{', '.join(sorted(names))} named by"
             f" {', '.join(sorted(expected)) or 'no scope'}")
    return title, (ERJW,), check


# (the rule, the files it reads, its check)
RULES = [
    ("no unused imports", (SRC, TESTS), unused_imports),
    ("no erjw module imports another module's private name", (ERJW,),
     per_node(private_import)),
    ("no erjw module imports dataclasses", (ERJW,),
     per_node(dataclass_import)),
    ("every lru_cache has a finite int maxsize; no functools.cache", (SRC,),
     unbounded_caches),
    *[scope_row(*row) for row in SCOPE_ROWS],
    ("no one-term series is multiplied in src/erjw", (ERJW,),
     per_node(one_term_product)),
]


def main(root) -> int:
    root, parsed, failed = Path(root), {}, False
    for title, patterns, check in RULES:
        paths = sorted({p for pattern in patterns for p in root.glob(pattern)})
        for path in paths:
            if path not in parsed:
                parsed[path] = Source(root, path)
        bad = check([parsed[path] for path in paths])
        print("FAIL" if bad else "ok  ", title)
        for line in bad:
            print("    " + line)
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(Path(__file__).resolve().parent.parent))

"""Product code is only what the product runs.

Every module- and class-level ``def`` / ``class`` under ``src/repro``
needs a caller in ``src``, ``benchmarks``, ``examples`` or ``scripts``.
Tests do not count: a definition only a test reaches is test code in
the wrong place. A caller is a use in code (``tokenize`` drops comments
and docstrings), outside the definition's own body and outside import
statements and ``__all__`` (a re-export is not a use). A method or
class attribute counts as used only through attribute access
(``.name``) or a string handed to ``getattr``-style builtins; a
module-level name counts through any use of the bare word. A use inside
a definition that is itself unused does not count, and a definition a
decorator registers (``@register_scenario``) is used.

``ALLOWED`` names the definitions kept without such a caller, each
with the test reference or contract that keeps it.
"""

import ast
import io
import tokenize
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).parent.parent
CALLER_ROOTS = ("src", "benchmarks", "examples", "scripts")
_ATTR_BUILTINS = {"getattr", "setattr", "hasattr", "delattr"}
_WRAPPERS = {"abstractmethod", "cached_property", "classmethod", "dataclass",
             "lru_cache", "property", "setter", "staticmethod"}

#: ``qualified name`` (module path under ``repro`` plus ``Class.attr``)
#: -> what keeps it without a product caller.
ALLOWED = {
    "repro/core/rules.py::DependencyRules.blocked":
        "the §3.2 blocking predicate itself: the dependency graph inlines "
        "it, and test_hotpath_scheduler.py::DictReferenceGraph checks the "
        "graph against it",
    "repro/serving/memory.py::KVCacheManager.fits":
        "the admission test of helpers.py::PerIterationReplica, the "
        "serving replica's differential oracle",
    "repro/world/grid.py::GridWorld.neighbors":
        "the move set of helpers.py::reference_astar, the path planner's "
        "reference",
    "repro/trace/schema.py::Trace.chain_slice":
        "the checked single-row lookup test_trace.py::TestChainIndex "
        "compares the executor's unchecked chain_bounds against",
    "repro/trace/io.py::export_jsonl":
        "the jsonl trace format: the interchange with tools outside the "
        "program (test_trace.py round-trips it)",
    "repro/trace/io.py::import_jsonl":
        "the jsonl trace format: validates traces made outside the "
        "program (test_trace.py feeds it edited files)",
}


def _registered(node) -> bool:
    """Does a decorator other than a standard wrapper (``@property``,
    ``@dataclass`` ...) take the definition, i.e. register it?"""
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        name = dec.attr if isinstance(dec, ast.Attribute) else dec.id
        if name not in _WRAPPERS:
            return True
    return False


def _definitions(path: Path):
    """Yield ``(qualname, name, is_member, registered, first_line,
    last_line)`` for every module- and class-level def/class of
    ``path``; nested closures and dunders are skipped."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def walk(body, prefix, in_class):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                yield (prefix + name, name, in_class, _registered(node),
                       node.lineno, node.end_lineno)
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, prefix + name + ".", True)

    yield from walk(tree.body, "", False)


def _is_fstring(literal: str) -> bool:
    prefix = literal[:len(literal) - len(literal.lstrip("rRbBuUfF"))]
    return "f" in prefix.lower()


def _uses(path: Path, modules: set[str]):
    """``(bare, attr)`` occurrence lists of ``(word, line)`` in code.

    ``bare`` holds the NAME tokens outside import statements that are
    not attributes, or attributes of a name in ``modules`` (the module
    names under ``src/repro``: ``parallel.plan_regions``, not
    ``mp.Process``); ``attr`` the NAME tokens right after a ``.`` plus
    the string arguments of ``getattr`` / ``setattr`` / ``hasattr`` /
    ``delattr`` calls."""
    text = path.read_text(encoding="utf-8")
    skip = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.update(range(node.lineno, node.end_lineno + 1))
        elif (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets)):
            skip.update(range(node.lineno, node.end_lineno + 1))
    bare, attr = [], []
    calls = []  # per open bracket: the NAME that opened a call, or None
    prev = base = None
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        line = tok.start[0]
        if tok.type == tokenize.OP and tok.string in "([{":
            calls.append(prev.string if tok.string == "(" and prev
                         and prev.type == tokenize.NAME else None)
        elif tok.type == tokenize.OP and tok.string in ")]}":
            if calls:
                calls.pop()
        elif line in skip:
            pass
        elif tok.type == tokenize.NAME:
            if prev and prev.type == tokenize.OP and prev.string == ".":
                attr.append((tok.string, line))
                if base is not None:
                    bare.append((tok.string, line))
            else:
                bare.append((tok.string, line))
        elif tok.type == tokenize.STRING and _is_fstring(tok.string):
            # Before Python 3.12 an f-string is one STRING token: read
            # the code in its replacement fields off its syntax tree.
            for node in ast.walk(ast.parse(tok.string, mode="eval")):
                if isinstance(node, ast.Name):
                    bare.append((node.id, line))
                elif isinstance(node, ast.Attribute):
                    attr.append((node.attr, line))
        elif (tok.type == tokenize.STRING and calls
                and calls[-1] in _ATTR_BUILTINS):
            try:
                value = ast.literal_eval(tok.string)
            except (ValueError, SyntaxError):
                value = None
            if isinstance(value, str):
                attr.append((value, line))
        if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT,
                            tokenize.INDENT, tokenize.DEDENT):
            base = prev.string if (
                tok.type == tokenize.OP and tok.string == "." and prev
                and prev.type == tokenize.NAME and prev.string in modules
            ) else None
            prev = tok
    return bare, attr


@lru_cache(maxsize=None)
def _index(root: Path):
    """``(definitions, spans, uses)`` of the tree at ``root``: the
    tokenizing pass, shared by every scan of one tree."""
    files = sorted(p for r in CALLER_ROOTS for p in (root / r).rglob("*.py"))
    src = root / "src" / "repro"
    defs = {p: list(_definitions(p)) for p in sorted(src.rglob("*.py"))}
    spans = {}  # per file: (first, last, qualified name), outermost first
    for path, found in defs.items():
        module = path.relative_to(root / "src").as_posix()
        spans[path] = [(first, last, f"{module}::{qual}")
                       for qual, _, _, _, first, last in found]

    owners = {}  # per file: line -> the innermost definition around it
    for path, rows in spans.items():
        lines = owners[path] = {}
        for first, last, qual in rows:  # an inner one overwrites
            lines.update(dict.fromkeys(range(first, last + 1), qual))

    modules = {p.stem if p.stem != "__init__" else p.parent.name
               for p in defs}
    uses = ({}, {})  # (bare, attr): word -> [(file, line, owner)]
    for path in files:
        lines = owners.get(path, {})
        for found, index in zip(_uses(path, modules), uses):
            for word, line in found:
                index.setdefault(word, []).append(
                    (path, line, lines.get(line)))
    return defs, spans, uses


def unused_definitions(root: Path = ROOT, keep=()) -> list[str]:
    """Qualified names of the definitions under ``src/repro`` that no
    live code in the caller roots uses.

    A use inside a definition found dead does not count, so the scan
    runs to a fixed point: a helper whose only caller is itself unused
    is reported with it. Definitions in ``keep`` and those a decorator
    registers count as live."""
    defs, spans, uses = _index(root)
    dead: set[str] = set()
    while True:
        found = []
        for path, rows in defs.items():
            for (first, last, qual), (_, name, member, seed, _, _) in zip(
                    spans[path], rows):
                if seed or qual in dead or qual in keep:
                    continue
                if not any(
                        who not in dead
                        and not (other == path and first <= line <= last)
                        for other, line, who in uses[member].get(name, ())):
                    found.append(qual)
        if not found:
            return sorted(dead)
        dead.update(found)


def test_every_definition_has_a_product_caller():
    dead = unused_definitions(keep=ALLOWED)
    assert dead == [], (
        "definitions with no caller in src/benchmarks/examples/scripts "
        "(delete them, or add them to ALLOWED with what keeps them): "
        f"{dead}")


def test_allowlist_is_current():
    """An allowed entry that gained a caller or lost its definition
    leaves the list."""
    stale = sorted(set(ALLOWED) - set(unused_definitions()))
    assert stale == []


class TestScanner:
    def _tree(self, tmp_path, files):
        for rel, text in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        for r in CALLER_ROOTS:
            (tmp_path / r).mkdir(exist_ok=True)
        return unused_definitions(tmp_path)

    def test_reexport_comment_and_docstring_are_not_uses(self, tmp_path):
        dead = self._tree(tmp_path, {
            "src/repro/__init__.py":
                "from .mod import helper\n__all__ = ['helper']\n",
            "src/repro/mod.py":
                "def helper():\n    '''helper() recurses: helper()'''\n"
                "    return helper()  # helper\n",
        })
        assert dead == ["repro/mod.py::helper"]

    def test_method_needs_attribute_access(self, tmp_path):
        dead = self._tree(tmp_path, {
            "src/repro/mod.py":
                "class A:\n"
                "    def ping(self):\n        return 1\n"
                "    def pong(self):\n        return 2\n"
                "    def pang(self):\n        return 3\n"
                "ping = 0\n",
            "examples/use.py":
                "from repro.mod import A\n"
                "a = A()\nprint(f'{a.pong()}')\ngetattr(a, 'pang')\n",
        })
        assert dead == ["repro/mod.py::A.ping"]

    def test_nested_closures_and_dunders_are_skipped(self, tmp_path):
        dead = self._tree(tmp_path, {
            "src/repro/mod.py":
                "def outer():\n    def inner():\n        pass\n"
                "    return inner\n"
                "class B:\n    def __init__(self):\n        pass\n",
            "scripts/use.py": "from repro import mod\nmod.outer(); mod.B()\n",
        })
        assert dead == []

    def test_reached_only_from_dead_code_is_dead(self, tmp_path):
        dead = self._tree(tmp_path, {
            "src/repro/mod.py":
                "class Gate:\n    pass\n"
                "class Proc:\n    def __init__(self):\n"
                "        self.done = Gate()\n"
                "@register\nclass Plugin:\n    pass\n",
        })
        assert dead == ["repro/mod.py::Gate", "repro/mod.py::Proc"]

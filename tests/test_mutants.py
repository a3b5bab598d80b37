"""Every ``scripts/mutants.py`` entry still has its patch site and its
test files, and every patch site changes code, so rewording a patched
line — or a patch text that first matches a comment or a docstring —
fails here and not only in the nightly run. No mutant runs."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from mutants import MUTANTS, patched, sites  # noqa: E402


def _code(text: str) -> str:
    """The module's ``ast`` without docstrings (comments never reach it)."""
    tree = ast.parse(text)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                node.body = node.body[1:] or [ast.Pass()]
    return ast.dump(tree)


def apply_site(label: str, text: str, old: str, new: str, nth: int) -> str:
    """``text`` with one patch site applied; fails when the site is gone
    or the patch leaves the module's code unchanged."""
    assert old != new
    after = patched(text, old, new, nth)
    assert after is not None, f"{label}: patch site {nth} gone"
    assert _code(after) != _code(text), \
        f"{label}: patch site {nth} changes no code (comment or docstring?)"
    return after


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_patch_site_and_tests_exist(name):
    patches, tests = sites(name)
    texts = {}
    for file, old, new, nth in patches:
        text = texts.get(file) or (ROOT / file).read_text()
        texts[file] = apply_site(f"{name} in {file}", text, old, new, nth)
    paths = [token.split("::")[0] for token in tests.split()
             if token.startswith("tests/")]
    assert paths, f"{name} names no test file"
    for path in paths:
        assert (ROOT / path).exists(), f"{name}: {path} does not exist"


SOURCE = '''def twice(x):
    """Double x."""
    return x * 2  # the factor
'''


@pytest.mark.parametrize("old, new", [
    ("# the factor", "# the divisor"),
    ("Double x.", "Halve x."),
], ids=["comment", "docstring"])
def test_patch_that_changes_no_code_fails(old, new):
    with pytest.raises(AssertionError, match="changes no code"):
        apply_site("no-op", SOURCE, old, new, 0)


def test_patch_that_changes_code_passes():
    assert "x * 3" in apply_site("real", SOURCE, "x * 2", "x * 3", 0)

"""Every ``scripts/mutants.py`` entry still has its patch site and its
test files, so rewording a patched line fails here and not only in the
nightly run. No mutant runs."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from mutants import MUTANTS, patched, sites  # noqa: E402


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_patch_site_and_tests_exist(name):
    patches, tests = sites(name)
    texts = {}
    for file, old, new, nth in patches:
        assert old != new
        text = texts.get(file) or (ROOT / file).read_text()
        texts[file] = patched(text, old, new, nth)
        assert texts[file] is not None, \
            f"{name}: patch site {nth} gone from {file}"
    paths = [token.split("::")[0] for token in tests.split()
             if token.startswith("tests/")]
    assert paths, f"{name} names no test file"
    for path in paths:
        assert (ROOT / path).exists(), f"{name}: {path} does not exist"

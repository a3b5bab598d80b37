"""Docs stay honest: no dead relative links, and the architecture doc
tracks the modules it points into."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from check_doc_links import (anchors_of, dead_links,  # noqa: E402
                             doc_files, heading_slug)


def test_no_dead_relative_links():
    assert dead_links(ROOT) == []


def test_architecture_doc_exists_and_scanned():
    files = [f.name for f in doc_files(ROOT)]
    assert "README.md" in files
    assert "ARCHITECTURE.md" in files


def test_architecture_doc_pointers_resolve():
    """Every `src/repro/...` style path the doc names must exist."""
    import re

    text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
    for match in re.finditer(r"`(?:src/)?(repro/[\w/]+\.py)`", text):
        assert (ROOT / "src" / match.group(1)).exists(), match.group(1)


def test_cited_identifiers_exist_in_source():
    """Doc-drift guard: every backticked ``_private_name`` and
    ``Class.method`` that ARCHITECTURE.md / README.md cite must occur
    as an identifier somewhere under ``src/repro`` — a deleted or
    renamed helper breaks the suite instead of misleading readers."""
    import re

    source = "\n".join(p.read_text(encoding="utf-8")
                       for p in (ROOT / "src" / "repro").rglob("*.py"))
    idents = set(re.findall(r"[A-Za-z_]\w*", source))
    token = re.compile(r"(?<![\w./-])(_[A-Za-z]\w*|[A-Z]\w*\.[A-Za-z_]\w*)"
                       r"(?![\w/-])")
    file_exts = {"json", "md", "py", "yml", "yaml", "toml", "txt"}
    cited = 0
    for doc in (ROOT / "docs" / "ARCHITECTURE.md", ROOT / "README.md"):
        for span in re.findall(r"`([^`\n]+)`", doc.read_text("utf-8")):
            for name in token.findall(span):
                parts = name.split(".")
                if parts[-1] in file_exts:
                    continue  # `BENCHMARK.json` is a file, not Class.attr
                cited += 1
                missing = [p for p in parts if p not in idents]
                assert not missing, (
                    f"{doc.name} cites `{name}` but {missing} is not an "
                    f"identifier under src/repro")
    assert cited > 30  # the extraction itself still finds the names


def test_checker_cli_passes_on_repo():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_doc_links.py"),
         str(ROOT)],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_checker_flags_dead_link(tmp_path):
    (tmp_path / "README.md").write_text("see [gone](missing/file.md)\n")
    assert any("missing/file.md" in f for f in dead_links(tmp_path))


class TestAnchors:
    def test_heading_slugification(self):
        assert heading_slug("Serving layer") == "serving-layer"
        assert heading_slug("The §3.6 Hot-Path!") == "the-36-hot-path"
        assert heading_slug("`code` and *emph*") == "code-and-emph"
        assert heading_slug("[link text](target.md)") == "link-text"

    def test_anchors_of_dedupes_and_skips_fences(self, tmp_path):
        doc = tmp_path / "README.md"
        doc.write_text("# Title\n\n## Same\n\n## Same\n\n"
                       "```\n# not a heading\n```\n")
        anchors = anchors_of(doc)
        assert anchors == {"title", "same", "same-1"}

    def test_flags_broken_same_file_anchor(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "# Intro\n\nsee [below](#no-such-section)\n")
        failures = dead_links(tmp_path)
        assert any("broken anchor" in f and "#no-such-section" in f
                   for f in failures)

    def test_flags_broken_cross_file_anchor(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "other.md").write_text("# Real Section\n")
        (tmp_path / "README.md").write_text(
            "see [ok](docs/other.md#real-section) and "
            "[bad](docs/other.md#fake-section)\n")
        failures = dead_links(tmp_path)
        assert any("#fake-section" in f for f in failures)
        assert not any("#real-section" in f for f in failures)

    def test_good_anchor_passes(self, tmp_path):
        (tmp_path / "README.md").write_text(
            "# One Section\n\nsee [up](#one-section)\n")
        assert dead_links(tmp_path) == []

    def test_non_markdown_fragment_ignored(self, tmp_path):
        (tmp_path / "README.md").write_text("see [src](foo.py#L10)\n")
        (tmp_path / "foo.py").write_text("x = 1\n")
        assert dead_links(tmp_path) == []

    def test_repo_docs_anchors_resolve(self):
        # The README's pointer into ARCHITECTURE.md's serving section
        # (among others) must stay valid.
        assert "serving-layer" in anchors_of(
            ROOT / "docs" / "ARCHITECTURE.md")
        assert dead_links(ROOT) == []

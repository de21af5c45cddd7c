"""Tests for the API-docs generator tool and for the references the docs make."""

import ast
import importlib.util
import re
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "gen_api_docs.py"
spec = importlib.util.spec_from_file_location("gen_api_docs", TOOL)
gen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gen)


class TestGenerator:
    def test_entry_for_class(self):
        from repro.core import AccessPattern

        lines = gen.entry_for("AccessPattern", AccessPattern)
        text = "\n".join(lines)
        assert "### `AccessPattern" in text
        assert ".provides_search_benefit_to" in text

    def test_entry_for_function(self):
        from repro.core import make_bit_index

        text = "\n".join(gen.entry_for("make_bit_index", make_bit_index))
        assert "make_bit_index(" in text

    def test_entry_for_constant(self):
        text = "\n".join(gen.entry_for("X", ("a", "b")))
        assert "Constant" in text

    def test_all_packages_importable(self):
        for pkg in gen.PACKAGES:
            assert importlib.import_module(pkg)

    def test_committed_output_is_current(self):
        """docs/api.md must match what the tool generates now (run
        ``python tools/gen_api_docs.py`` to rewrite it)."""
        assert gen.render() == (ROOT / "docs" / "api.md").read_text()


# -- doc references ---------------------------------------------------------
#
# The prose docs name files, test node ids and headings.  Each kind of
# reference below must name something that exists, so a rename or a
# deletion that forgets a doc fails here rather than in a reader's hands.

DOCS = sorted(ROOT.glob("docs/*.md")) + [
    ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
]
#: Its rows name deleted modules by design, so its file paths are not checked.
PATHS_EXEMPT = {ROOT / "docs" / "decisions.md"}

PATH_REF = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w.-]+\.(?:py|md|json|gz|txt))(?![\w/])")
NODE_ID = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w.-]+\.py)((?:::\w+)+)")
ANCHOR_LINK = re.compile(r"\]\(([^()\s#]*)#([^()\s]+)\)")
LINE_REF = re.compile(r"[\w.-]+\.py:\d+")
HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")


def _resolve(doc: Path, ref: str) -> Path | None:
    for base in (doc.parent, ROOT, ROOT / "src", ROOT / "src" / "repro"):
        if (base / ref).exists():
            return base / ref
    return None


def _file_names() -> set[str]:
    names = {p.name for p in ROOT.iterdir() if p.is_file()}
    for top in ("src", "tests", "benchmarks", "tools", "examples", "docs"):
        names.update(p.name for p in (ROOT / top).rglob("*.*"))
    return names


@cache
def _parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def _defines(path: Path, names: list[str]) -> bool:
    body = _parsed(path).body
    for name in names:
        found = [
            node for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name
        ]
        if not found:
            return False
        body = found[0].body
    return True


def _slug(heading: str) -> str:
    """GitHub's anchor for a heading: formatting dropped, lower case,
    punctuation other than ``-`` and ``_`` removed, spaces to ``-``."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading).replace("`", "")
    return re.sub(r"[^\w\- ]", "", text.strip().lower()).replace(" ", "-")


@cache
def _anchors(doc: Path) -> set[str]:
    anchors: set[str] = set()
    fenced = False
    for line in doc.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
            continue
        m = None if fenced else HEADING.match(line)
        if m:
            slug = base = _slug(m.group(1))
            n = 0
            while slug in anchors:
                n += 1
                slug = f"{base}-{n}"
            anchors.add(slug)
    return anchors


def _refs(pattern: re.Pattern, docs=DOCS):
    for doc in docs:
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for m in pattern.finditer(line):
                yield f"{doc.relative_to(ROOT)}:{lineno}", doc, m


class TestDocReferences:
    def test_every_file_path_exists(self):
        names = _file_names()
        bad = [
            f"{where}: {m.group(1)}"
            for where, doc, m in _refs(PATH_REF, [d for d in DOCS if d not in PATHS_EXEMPT])
            if _resolve(doc, m.group(1)) is None
            and ("/" in m.group(1) or m.group(1) not in names)
        ]
        assert not bad, "doc paths that name no file:\n" + "\n".join(bad)

    def test_every_node_id_names_a_def_or_class(self):
        bad = []
        for where, doc, m in _refs(NODE_ID):
            path = _resolve(doc, m.group(1))
            names = m.group(2).split("::")[1:]
            if path is None or not _defines(path, names):
                bad.append(f"{where}: {m.group(0)}")
        assert not bad, "doc node ids that name no def or class:\n" + "\n".join(bad)

    def test_every_heading_link_resolves(self):
        bad = []
        for where, doc, m in _refs(ANCHOR_LINK):
            target = (doc.parent / m.group(1)).resolve() if m.group(1) else doc
            if not target.is_file() or m.group(2) not in _anchors(target):
                bad.append(f"{where}: {m.group(0)[1:]}")
        assert not bad, "doc links to no heading:\n" + "\n".join(bad)

    def test_no_line_number_references(self):
        """Docs cite a name (``path::Name``), not a line that moves."""
        bad = [f"{where}: {m.group(0)}" for where, _, m in _refs(LINE_REF)]
        assert not bad, "doc references to source lines:\n" + "\n".join(bad)

"""Generate docs/api.md from the public API's docstrings.

Introspects the exported names of every ``repro`` subpackage and writes a
compact reference: one section per package, one entry per public class or
function with its signature and docstring summary.  Rerun after changing
public APIs:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

PACKAGES = [
    "repro.core",
    "repro.sketches",
    "repro.indexes",
    "repro.storage",
    "repro.engine",
    "repro.engine.kernel",
    "repro.workloads",
    "repro.experiments",
    "repro.utils",
]


def summary_of(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    first = doc.split("\n\n", 1)[0].replace("\n", " ").strip()
    return first


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def entry_for(name: str, obj) -> list[str]:
    lines = []
    if inspect.isclass(obj):
        lines.append(f"### `{name}{signature_of(obj)}`")
        lines.append("")
        lines.append(summary_of(obj))
        methods = [
            (m, fn)
            for m, fn in inspect.getmembers(obj, predicate=callable)
            if not m.startswith("_") and inspect.getdoc(fn)
            and (inspect.isfunction(fn) or inspect.ismethod(fn))
        ]
        if methods:
            lines.append("")
            for m, fn in sorted(methods):
                lines.append(f"- `.{m}{signature_of(fn)}` — {summary_of(fn)}")
    elif callable(obj):
        lines.append(f"### `{name}{signature_of(obj)}`")
        lines.append("")
        lines.append(summary_of(obj))
    else:
        lines.append(f"### `{name}`")
        lines.append("")
        lines.append(f"Constant: `{obj!r}`")
    lines.append("")
    return lines


def render() -> str:
    """The text of docs/api.md for the packages as they are imported now."""
    out: list[str] = [
        "# API reference",
        "",
        "Generated from docstrings by `python tools/gen_api_docs.py`; do not edit by hand.",
        "",
    ]
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        exported = getattr(pkg, "__all__", None)
        if exported is None:
            exported = [n for n in vars(pkg) if not n.startswith("_")]
        out.append(f"## {pkg_name}")
        out.append("")
        pkg_summary = summary_of(pkg)
        if pkg_summary:
            out.append(pkg_summary)
            out.append("")
        for name in sorted(exported):
            obj = getattr(pkg, name, None)
            if obj is None:
                continue
            out.extend(entry_for(name, obj))
    return "\n".join(out)


def main() -> int:
    text = render()
    target = Path(__file__).resolve().parent.parent / "docs" / "api.md"
    target.write_text(text)
    lines = text.count("\n") + 1
    print(f"wrote {target} ({lines} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

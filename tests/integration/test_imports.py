"""Every ``repro`` module imports first, in an interpreter that has loaded
no other ``repro`` module: the package import graph has no cycle that only
a lucky import order hides (``import repro.indexes`` once failed alone,
through ``repro.core``'s package file)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

# One interpreter for every module: before each import, every ``repro``
# module is dropped from ``sys.modules``, so each starts from nothing.
SCRIPT = r"""
import importlib, pkgutil, sys, traceback
import repro

names = ["repro"] + [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
failed = []
for name in names:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except BaseException:
        failed.append(name + ": " + traceback.format_exc().strip().splitlines()[-1])
print(len(names))
print("\n".join(failed))
"""


def test_every_module_imports_alone():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    count, *failed = proc.stdout.splitlines()
    assert int(count) > 50  # every module was walked, not just the package
    assert [line for line in failed if line] == []

"""The public names of the stoched package, and what importing it costs."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import stoched

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_exports_resolve():
    missing = [name for name in stoched.__all__ if not hasattr(stoched, name)]
    assert missing == []
    namespace: dict = {}
    exec("from stoched import *", namespace)
    assert set(stoched.__all__) <= namespace.keys()


def test_cli_import_leaves_out_the_optimizer():
    # scipy.optimize is imported by map_update when it first runs, so
    # parse and forecast never load it
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = "import sys, stoched.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"

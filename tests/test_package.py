"""The package's layering: what importing each stoched module loads, that
``stoched.simulate`` is the module, and that the README's library example
runs."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# The probe runs in a fresh interpreter, so each check sees only the imports
# above it. The lower layers load no scipy, bayes or experiment, and
# scipy.optimize is imported by map_update when it first runs, so parse and
# forecast never load it.
LAYERING_PROBE = """
import json, sys
import stoched.durations, stoched.network, stoched.psplib
heavy = sorted(
    m for m in sys.modules
    if m.split(".")[0] == "scipy" or m in ("stoched.bayes", "stoched.experiment")
)
import stoched.simulate
kind = type(stoched.simulate).__name__
import stoched.cli
print(json.dumps([heavy, kind, "scipy.optimize" in sys.modules]))
"""


def test_cli_import_leaves_out_the_optimizer():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", LAYERING_PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout) == [[], "module", False]


def test_readme_library_example_runs(monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    exec(compile(blocks[0], "README.md", "exec"), {})
    expected, delay = map(float, capsys.readouterr().out.split())
    assert expected > 0 and 0 <= delay <= 1

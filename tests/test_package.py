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
# above it. The lower layers load no scipy, bayes or experiment, and no
# command path loads scipy.optimize: the MAP update runs its own lockstep
# Newton, so even an update with observations leaves it out.
LAYERING_PROBE = """
import contextlib, io, json, sys
import stoched.durations, stoched.network, stoched.psplib
heavy = sorted(
    m for m in sys.modules
    if m.split(".")[0] == "scipy" or m in ("stoched.bayes", "stoched.experiment")
)
import stoched.simulate
kind = type(stoched.simulate).__name__
import stoched.cli
after_import = "scipy.optimize" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = stoched.cli.main(["update", *sys.argv[1:], "--n", "50"])
print(json.dumps([heavy, kind, after_import, code, "scipy.optimize" in sys.modules]))
"""


def test_cli_import_leaves_out_the_optimizer(tmp_path):
    log = tmp_path / "site.log"
    log.write_text("1 9.5 0.5\n2 4.0 0.5\n2 4.4 0.5\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    j30 = ROOT / "tests" / "fixtures" / "j30_fix_a.sm"
    result = subprocess.run(
        [sys.executable, "-c", LAYERING_PROBE, str(j30), str(log)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout) == [[], "module", False, 0, False]


def test_readme_library_example_runs(monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    exec(compile(blocks[0], "README.md", "exec"), {})
    expected, delay = map(float, capsys.readouterr().out.split())
    assert expected > 0 and 0 <= delay <= 1

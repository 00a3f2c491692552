"""Every demo script runs to the end against the library in src/, on numpy
alone: scipy is blocked in the demo's process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# any scipy import in the demo or the library raises ImportError
RUN_WITHOUT_SCIPY = 'import runpy, sys; sys.modules["scipy"] = None; runpy.run_path(sys.argv[1], run_name="__main__")'


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", RUN_WITHOUT_SCIPY, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]

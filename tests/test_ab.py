"""Smoke test of tools/ab.py: an A/A run of one global-construct case.

The tool runs in a child process, so the two extra copies of the library it
loads stay out of this test process.  No timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path.insert(0, {tools!r})
import ab
parent, change = ab.load("ab_parent", {root!r}), ab.load("ab_change", {root!r})
assert parent.lib is not change.lib and parent.lib.ScalarFn is not change.lib.ScalarFn
with ab.bound(change):
    from blowup.cli import main
    assert main.__module__ == "ab_change.cli"
assert "blowup.cli" not in sys.modules or sys.modules["blowup.cli"] is not change.cli
ab.report(ab.compare(parent, change, "global-construct",
                     ab.cases("global-construct", 1, 1)[:1], reps=2, seed=1))
"""


def test_aa_run_of_one_global_construct_case():
    script = SCRIPT.format(tools=str(ROOT / "tools"), root=str(ROOT))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["ab"] == "global-construct" and rec["cases"] == 1 and rec["reps"] == 2
    assert rec["parent"] == rec["change"] == str(ROOT)
    assert len(rec["ratios"]) == 2 and all(r > 0.0 for r in rec["ratios"])
    assert rec["ratio_q1"] <= rec["ratio_median"] <= rec["ratio_q3"]
    assert 0 <= rec["wins"] <= 2
    assert rec["failed"] == {"parent": 0, "change": 0}
    assert "warm" in rec["note"] and "warm in-process work only" in run.stderr

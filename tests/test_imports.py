"""The library runs on numpy alone: no scipy import under ``src/blowup``, read
from the source, and the shipped paths run in a process where scipy cannot be
imported."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "blowup"

# each piece the library ships, in a process where any scipy import raises
NUMPY_ONLY = """
import sys
sys.modules["scipy"] = None

import numpy as np
import pytest

import blowup
from blowup import ProblemSpec, classify, make_constant, make_custom, make_power, run_pipeline
from blowup.cli import main
from blowup.errors import FiniteEscapeError
from blowup.picard import solve_autonomous_quadrature

one = make_constant(1.0)
border = make_custom(lambda s: s * np.log(np.e + s) ** 1.05, asymptotic_exponent=1.0)
for h, a, label in [(make_power(1), (1.0, 1.0), "GlobalConstructed"),
                    (make_power(2), (1.0,), "BlowUpDetected"),
                    (border, (1.0,), "Inconclusive")]:
    rep = run_pipeline(ProblemSpec(m=len(a), k=0, a=a, q=one, h=h), horizon=3.0)
    assert rep.label == label, (rep.label, label)

declared = make_custom(lambda s: 3.0 * s ** 2 * np.log(np.e + s), asymptotic_exponent=2.0)
assert classify(declared, 2).estimate > 0.0
assert main(["classify", "--h", "power(2.0)", "--n", "1"]) == 0

# the integral test decides F(inf): F converges to 1
with pytest.raises(FiniteEscapeError) as exc:
    solve_autonomous_quadrature(make_power(2), 1, 1.0, [1.5])
assert exc.value.escape_time == pytest.approx(1.0, rel=1e-12)

assert not [m for m in sys.modules if m.startswith("scipy.")]
print("numpy alone")
"""


def scipy_imports():
    """(module, imported module, name) for every scipy import under src/blowup."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [(path.stem, a.name, None) for a in node.names if a.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                found += [(path.stem, node.module, a.name) for a in node.names]
    return found


def test_no_scipy_import_in_the_library():
    assert scipy_imports() == []


def test_the_reader_sees_both_import_forms(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text("import scipy.optimize as so\nfrom scipy import integrate\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert scipy_imports() == [("a", "scipy.optimize", None), ("a", "scipy", "integrate")]


def test_runs_with_scipy_blocked(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.endswith("numpy alone\n")

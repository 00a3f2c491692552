"""The library's own scipy use, read from the source: picard's quad on the
inversion tail is the only scipy import left in ``src/blowup``."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "blowup"


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


def test_scipy_only_for_the_inversion_tail():
    assert scipy_imports() == [("picard", "scipy.integrate", "quad")]


def test_the_reader_sees_both_import_forms(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text("import scipy.optimize as so\nfrom scipy import integrate\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert scipy_imports() == [("a", "scipy.optimize", None), ("a", "scipy", "integrate")]

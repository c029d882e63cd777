"""The public surface: every exported name is used somewhere."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import floss

ROOT = Path(__file__).resolve().parents[1]


def _referenced_names(path: Path) -> set[str]:
    """Names a module reads or imports; definitions alone do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_export_is_referenced():
    files = [p for p in (ROOT / "src" / "floss").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "tests").glob("*.py")
    referenced = set().union(*(_referenced_names(p) for p in files))
    unused = sorted(set(floss.__all__) - referenced)
    assert unused == [], f"exported but used nowhere outside floss/__init__.py: {unused}"


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal takes about a second to import; only filtering needs it
    src = str(Path(floss.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, floss.cli; print('scipy.signal' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"

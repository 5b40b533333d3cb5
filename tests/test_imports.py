"""Module boundaries: package modules use each other's public names only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cesarolab"


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "cesarolab":
                continue
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            offenders += [f"{path.name}:{node.lineno} {name}" for name in private]
    assert SRC.is_dir() and not offenders, offenders

"""Module boundaries: package modules use each other's public names only."""

import ast
import os
import subprocess
import sys
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


def test_cli_start_leaves_scipy_integrate_unloaded():
    # scipy.integrate is imported by the one criterion that integrates, on first use;
    # the finite-dimensional kernels need no scipy at all (scipy.linalg alone adds ~29 MiB RSS)
    codes = (
        "import sys, cesarolab.cli; cesarolab.zoo.all_entries(); assert 'scipy.integrate' not in sys.modules",
        "import sys, cesarolab.cli; cesarolab.cli.main(['classify', 'assani', '--probes', 'pb,cb,uk,kreiss,sk']);"
        " assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']",
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    for code in codes:
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120, stdout=subprocess.DEVNULL)

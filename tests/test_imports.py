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


def test_cli_commands_leave_scipy_unloaded():
    # the package needs numpy alone; scipy is a test oracle (scipy.integrate alone adds ~48 MiB RSS)
    code = (
        "import sys, cesarolab.cli\n"
        "commands = [['probe', 'chaos', 'polyshift:p=0,0,1'], ['probe', 'chaos', 'polyshift:p=0,0,0,0,1'],"
        " ['classify', 'assani', '--probes', 'pb,cb,uk,kreiss,sk']]\n"
        "commands += [['classify', e.entry_id] for e in cesarolab.zoo.all_entries()]\n"
        "for argv in commands:\n"
        "    assert cesarolab.cli.main(argv) == 0, argv\n"
        "    assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], argv\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=300, stdout=subprocess.DEVNULL)

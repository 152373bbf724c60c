"""The package runs on numpy alone; scipy is a test-time cross-check only."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

IMPORT_ALL = """
import importlib, pkgutil, sys
import expandercodes
for m in pkgutil.iter_modules(expandercodes.__path__):
    importlib.import_module("expandercodes." + m.name)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_package_import_leaves_scipy_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALL], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"

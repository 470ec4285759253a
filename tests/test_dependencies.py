"""The package runs on numpy alone.

``pyproject.toml`` declares numpy as the only runtime dependency, and
importing the package and its serving, cluster and online layers loads
neither networkx nor scipy (checked in a fresh interpreter, so a module
another test imported cannot hide or fake an import).
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
import repro, repro.serving, repro.cluster, repro.online
print(json.dumps(sorted(
    name for name in ("networkx", "scipy") if name in sys.modules)))
"""


def test_pyproject_declares_numpy_only():
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text,
                      re.MULTILINE | re.DOTALL)
    assert match is not None
    requirements = re.findall(r'"([^"]+)"', match.group(1))
    assert [re.split(r"[<>=!~ \[;]", req)[0] for req in requirements] == [
        "numpy"
    ]


def test_importing_the_package_loads_neither_networkx_nor_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    assert json.loads(result.stdout.strip().splitlines()[-1]) == []

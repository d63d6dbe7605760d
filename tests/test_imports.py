"""Every subpackage imports first in a fresh interpreter.

An import cycle only shows when its first module is the entry point
(``import repro.polimer`` once failed through ``polimer.api`` →
``core`` → ``scenario.registry`` → ``insitu.coupler`` → ``polimer``),
so each subpackage gets its own subprocess.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
SUBPACKAGES = sorted(m.name for m in pkgutil.iter_modules(repro.__path__) if m.ispkg)


def test_subpackages_discovered():
    assert {"core", "insitu", "md", "polimer", "power"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_first(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import repro.{name}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

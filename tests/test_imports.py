"""A run imports numpy and nothing else third-party, and no analysis.

``setup.py`` declares ``install_requires=["numpy"]``; these tests hold the
run path to it.  They import what the benchmark suite imports before it
starts a run, in a fresh interpreter, and check that neither scipy nor
networkx was loaded, directly or through another package.  The engines sit
below ``repro.analysis`` (``tests/test_layering.py``), so loading them
loads none of it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
RUN_IMPORTS = "import repro, repro.core.runner, repro.net.live, repro.core.slab_runner"
FORBIDDEN = ("scipy", "networkx")


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def test_run_path_loads_no_scipy_or_networkx():
    script = (
        f"{RUN_IMPORTS}\n"
        "import sys\n"
        f"print('\\n'.join(sorted(m for m in sys.modules "
        f"if m.split('.')[0] in {FORBIDDEN!r})))\n"
    )
    assert _python("-c", script).stdout.split() == []


@pytest.mark.parametrize("package", FORBIDDEN)
def test_importtime_names_neither_package(package):
    report = _python("-X", "importtime", "-c", RUN_IMPORTS).stderr
    assert "repro.core.runner" in report
    assert package not in report


def test_engines_load_no_analysis_module():
    script = (
        "import repro.core.runner, repro.core.slab_runner, sys\n"
        "print('\\n'.join(sorted(m for m in sys.modules "
        "if m.startswith('repro.analysis'))))\n"
    )
    assert _python("-c", script).stdout.split() == []

"""Start-up cost: importing the package must not load ``scipy.stats``."""

import subprocess
import sys

import pytest


@pytest.mark.parametrize("module", ["mpdl", "mpdl.cli"])
def test_import_leaves_scipy_stats_unloaded(module):
    # a fresh interpreter: this test process has scipy.stats loaded already
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy.stats' or m.startswith('scipy.stats.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"

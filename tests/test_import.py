"""Start-up cost: importing the package must not load ``scipy.stats``,
nor ``multiprocessing``, which only the dual training of an encrypted
run or of a run with large KDEs loads; the package root itself loads
none of its modules."""

import subprocess
import sys

import pytest


def _loaded_after_import(module: str, package: str) -> str:
    """``package`` and its submodules loaded by importing ``module``."""
    # a fresh interpreter: this test process has both loaded already
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules "
            f"if m == {package!r} or m.startswith({package + '.'!r})))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["mpdl", "mpdl.cli"])
def test_import_leaves_scipy_stats_unloaded(module):
    assert _loaded_after_import(module, "scipy.stats") == "[]"


@pytest.mark.parametrize("module", ["mpdl", "mpdl.cli"])
def test_import_leaves_multiprocessing_unloaded(module):
    assert _loaded_after_import(module, "multiprocessing") == "[]"


def test_import_of_the_package_root_loads_no_module_of_it():
    # the root exports nothing: callers import each name from its module
    assert _loaded_after_import("mpdl", "mpdl") == "['mpdl']"

"""The test configuration itself: a failing test must not stop the run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_plain_passes():
    assert True
'''


def test_failing_hypothesis_test_leaves_the_rest_of_the_run_going(tmp_path):
    # reporting a failing @given test makes hypothesis import libcst, which
    # warns on import; under filterwarnings = error that warning must not
    # become an INTERNALERROR (exit 3) that ends the session
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert out.returncode == 1, out.stdout[-2000:]
    assert "1 failed, 1 passed" in out.stdout

"""The test configuration lets a failing hypothesis test fail alone.

With ``filterwarnings = ["error"]``, hypothesis's failure report imports libcst, and
that import's DeprecationWarning from mypy_extensions used to end the whole pytest run
with INTERNALERROR, so no test after the failing one ran.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_under_given(x):
    assert x < 0


def test_runs_after_the_failure():
    pass
'''


def test_failing_given_test_does_not_end_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout

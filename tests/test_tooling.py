"""The test suite's own settings: pytest's filterwarnings in pyproject.toml
turns every warning into an error, and that must not take down the run
when a test tool warns while it reports a failure."""

import os
import shutil
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_AND_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # hypothesis's failure report imports libcst, which warns on import
    pytest.importorskip("libcst")
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp_path)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_sample.py").write_text(textwrap.dedent(FAILING_AND_PASSING))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert proc.returncode == 1

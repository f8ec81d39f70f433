"""The scripts build flow.SolverConfig themselves and no other test imports
them, so each must at least import and parse its flags."""

import os
import subprocess
import sys

import pytest

import sdflow

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["dumbbell_pinch", "headline_experiment", "refinement_study"])
def test_script_help_exits_0(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdflow.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", f"{script}.py"), "--help"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout

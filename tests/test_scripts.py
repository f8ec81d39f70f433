"""The scripts build flow.SolverConfig themselves and no other test imports
them, so each must at least import and parse its flags.  The benchmark's
tracer patches some names of the package from outside, so those names must
stay where it looks for them."""

import os
import subprocess
import sys
from functools import cached_property

import pytest

import sdflow
from sdflow import cli, flow
from sdflow.mesh import TriangleMesh
from sdflow.runio import RunConfig

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


def test_names_the_bench_tracer_patches_exist():
    for attr in ("edges", "half_edges"):
        assert isinstance(TriangleMesh.__dict__[attr], cached_property)
    assert callable(flow.cg)
    assert callable(cli._summarize)
    assert callable(RunConfig.__dict__["build_initial"])

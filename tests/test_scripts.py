"""The shipped experiment configs and scripts.  No other test runs
refinement_study, so it must at least import and parse its flags.  Each
experiments/*.cfg must parse, round-trip and run.  The benchmark's tracer
patches some names of the package from outside, so those names must stay
where it looks for them."""

import os
import subprocess
import sys
from dataclasses import replace
from functools import cached_property

import pytest

import sdflow
from conftest import EXPERIMENTS, experiment
from sdflow import cli, flow
from sdflow.mesh import TriangleMesh
from sdflow.runio import SUMMARY_NAME, RunConfig, config_to_text, parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["refinement_study"])
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


@pytest.mark.parametrize(
    "name", sorted(name[: -len(".cfg")] for name in os.listdir(EXPERIMENTS) if name.endswith(".cfg"))
)
def test_experiment_config_runs(name, tmp_path):
    cfg = experiment(name)
    assert parse_config(config_to_text(cfg)) == cfg
    copy = tmp_path / f"{name}.cfg"
    copy.write_text(config_to_text(replace(cfg, max_steps=2, out_dir=str(tmp_path / "run"))))
    assert cli.main(["run", str(copy)]) == 0
    assert (tmp_path / "run" / SUMMARY_NAME).exists()


def test_names_the_bench_tracer_patches_exist():
    for attr in ("edges", "half_edges"):
        assert isinstance(TriangleMesh.__dict__[attr], cached_property)
    assert callable(flow.cg)
    assert callable(cli._summarize)
    assert callable(RunConfig.__dict__["build_initial"])

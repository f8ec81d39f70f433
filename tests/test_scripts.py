"""The shipped experiment configs and scripts.  refinement_study reads the
CurvatureField of each state, so it runs here on two small icospheres.
Each experiments/*.cfg must parse, round-trip and run.  The benchmark's tracer
patches some names of the package from outside, so those names must stay
where it looks for them."""

import math
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


def run_script(script, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdflow.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", f"{script}.py"), *args],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", ["refinement_study"])
def test_script_help_exits_0(script):
    assert "usage:" in run_script(script, "--help")


def test_refinement_study_prints_a_finite_row_per_subdivision():
    out = run_script("refinement_study", "--min-subdiv", "1", "--max-subdiv", "2")
    header, *rows = out.splitlines()
    assert header.split()[:2] == ["sub", "V"]
    assert [row.split()[:2] for row in rows] == [["1", "42"], ["2", "162"]]
    for row in rows:
        values = [float(tok) for tok in row.split()]
        assert len(values) == len(header.split()) and all(map(math.isfinite, values))


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

"""Shared fixture runs.  The expensive trajectories are session-scoped so
the monitor, blowup, and acceptance tests reuse one computation.  The
acceptance experiments are the run configs in experiments/, the same
files `sdflow run` takes."""

import dataclasses
import os

import pytest

from sdflow import monitors
from sdflow.flow import CFL, EXPLICIT, SolverConfig, run
from sdflow.generators import make_icosphere
from sdflow.runio import load_config

EXPERIMENTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "experiments")

SPHERE_CFG = """
initial.kind = icosphere
initial.radius = 1.0
initial.subdiv = 2
solver.scheme = explicit
solver.dt_policy = cfl
solver.cfl_sigma = 0.005
solver.t_end = 1.0
solver.max_steps = 40
solver.snapshot_every = 20
monitor.radii = 0.1
output.dir = {out}
"""

MINI_SEMI_CFG = """
initial.kind = perturbed_sphere
initial.radius = 1.0
initial.subdiv = 2
initial.modes = 2,0,0.2
solver.scheme = semi_implicit
solver.dt_policy = fixed
solver.dt = 0.002
solver.t_end = 0.02
solver.volume_correction = true
solver.snapshot_every = 5
output.dir = {out}
"""

DUMBBELL_CFG = """
initial.kind = dumbbell
initial.bulb_radius = 1.0
initial.neck_radius = 0.15
initial.neck_length = 2.0
initial.n_phi = 32
initial.n_rings = 64
solver.scheme = semi_implicit
solver.dt_policy = cfl
solver.cfl_sigma = 0.1
solver.t_end = 1.0
solver.max_steps = 2000
solver.snapshot_every = 10
monitor.radii = 0.4,0.2,0.1
output.dir = {out}
"""

# the config keys earlier versions wrote for settings now fixed in the code,
# at the values they are fixed at, as those versions wrote them
RETIRED_KEYS = {
    "solver.linear_tol": "1e-10",
    "solver.linear_max_iter": "0",
    "solver.stop_sphericity": "1.0",
    "solver.quality_floor": "0.02",
    "solver.curvature_ceiling": "2.0",
    "monitor.eps0": "25.132741228718345",
}


@pytest.fixture
def third_record_fails(monkeypatch):
    """monitors.diagnostics raises NumericsError on its third call: a run's
    second step, after one accepted step, diverges."""
    calls, diagnostics = [], monitors.diagnostics

    def third_call_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise monitors.NumericsError("non-finite record")
        return diagnostics(*args, **kwargs)

    monkeypatch.setattr(monitors, "diagnostics", third_call_fails)


def experiment(name):
    return load_config(os.path.join(EXPERIMENTS, f"{name}.cfg"))


def run_experiment(cfg):
    return run(cfg.build_initial(), cfg)


@pytest.fixture(scope="session")
def sphere_run():
    cfg = SolverConfig(
        scheme=EXPLICIT,
        dt_policy=CFL,
        cfl_sigma=0.005,
        t_end=1.0,
        max_steps=150,
        snapshot_every=50,
        monitor_radii=(2.5, 0.1),
    )
    return run(make_icosphere(1.0, 3), cfg)


@pytest.fixture(scope="session")
def headline_run():
    return run_experiment(experiment("headline"))


@pytest.fixture(scope="session")
def headline_run_half_dt():
    cfg = experiment("headline")
    return run_experiment(dataclasses.replace(cfg, cfl_sigma=cfg.cfl_sigma / 2))


@pytest.fixture(scope="session")
def conv_run():
    return run_experiment(experiment("convergence"))


@pytest.fixture(scope="session")
def conv_run_double():
    return run_experiment(experiment("convergence_x2"))


@pytest.fixture(scope="session")
def dumbbell_run():
    return run_experiment(experiment("dumbbell_pinch"))

"""Shared fixture runs.  The expensive trajectories are session-scoped so
the monitor, blowup, and acceptance tests reuse one computation."""

import pytest

from sdflow.flow import CFL, EXPLICIT, FIXED, SEMI_IMPLICIT, SolverConfig, run
from sdflow.generators import make_dumbbell, make_icosphere, make_perturbed_sphere

HEADLINE_MODES = ((2, 0, 0.1),)
HEADLINE_SIGMA = 0.005
HEADLINE_STEPS = 2000

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

CONV_MODES = ((2, 0, 0.3),)
CONV_DT = 4.5e-4
CONV_T_END = 0.09

DUMBBELL_RADII = (0.4, 0.2, 0.1)


def headline_config(sigma=HEADLINE_SIGMA, max_steps=HEADLINE_STEPS):
    return SolverConfig(
        scheme=EXPLICIT,
        dt_policy=CFL,
        cfl_sigma=sigma,
        t_end=1.0,
        max_steps=max_steps,
        snapshot_every=500,
    )


@pytest.fixture(scope="session")
def sphere_run():
    cfg = SolverConfig(
        scheme=EXPLICIT,
        dt_policy=CFL,
        cfl_sigma=HEADLINE_SIGMA,
        t_end=1.0,
        max_steps=150,
        snapshot_every=50,
        monitor_radii=(2.5, 0.1),
    )
    return run(make_icosphere(1.0, 3), cfg)


@pytest.fixture(scope="session")
def headline_run():
    return run(make_perturbed_sphere(1.0, HEADLINE_MODES), headline_config())


@pytest.fixture(scope="session")
def headline_run_half_dt():
    return run(make_perturbed_sphere(1.0, HEADLINE_MODES), headline_config(sigma=HEADLINE_SIGMA / 2))


def conv_config(scale=1.0):
    return SolverConfig(
        scheme=SEMI_IMPLICIT,
        dt_policy=FIXED,
        dt=CONV_DT * scale**4,
        t_end=CONV_T_END * scale**4,
        volume_correction=True,
        snapshot_every=1000,
    )


@pytest.fixture(scope="session")
def conv_run():
    return run(make_perturbed_sphere(1.0, CONV_MODES), conv_config())


@pytest.fixture(scope="session")
def conv_run_double():
    modes = tuple((l, m, 2.0 * amp) for (l, m, amp) in CONV_MODES)
    return run(make_perturbed_sphere(2.0, modes), conv_config(scale=2.0))


@pytest.fixture(scope="session")
def dumbbell_run():
    cfg = SolverConfig(
        scheme=SEMI_IMPLICIT,
        dt_policy=CFL,
        cfl_sigma=0.1,
        t_end=1.0,
        max_steps=4000,
        snapshot_every=25,
        monitor_radii=DUMBBELL_RADII,
    )
    return run(make_dumbbell(1.0, 0.15, 2.0), cfg)

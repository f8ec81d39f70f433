"""Time integration of the surface diffusion flow and the run loop.

Two steppers:
  * explicit: forward Euler on the exact normal velocity (lap H) nu;
    faithful to the flow law, used for verification runs
  * semi_implicit: linearly implicit vector bilaplacian step
    A x_new = M x_old per coordinate, A = M + dt L M^{-1} L, the production
    stepper; it discretizes the position bilaplacian, whose normal velocity
    is lap H - H|A|^2, not the lap H of the flow law

Both scale exactly under the parabolic rescaling x -> lambda x,
dt -> lambda^4 dt.

Each FlowState makes one FaceGeometry pass; mass, L and curvature derive
from it.  A stepper returns the next state and a StepOutcome (accepted, CG
iterations).  A step is rejected, the state kept, when a vertex goes
non-finite, a face degenerates, a face normal reverses or correct_volume
raises a NumericsError; each retry halves dt, and three rejects in a row
stop the run, as does a face quality below QUALITY_MIN or a curvature scale
above CURVATURE_SCALE_MAX.  A NumericsError from the diagnostics stops the
run as diverged, except in the initial record: that one propagates.
A run silences numpy's floating-point warnings: every non-finite value they
would announce is caught as a broken step, a NumericsError or a divergence.
Volume correction solves the exact cubic V(x + s nu) = V0 by Newton's method.

The semi-implicit step never assembles A.  L is symmetric and M diagonal
and positive, so with s = sqrt(dt) the complex-symmetric C = M + i s L
factors A as C M^{-1} conj(C), and Re C^{-1} = C^{-1} M conj(C)^{-1} =
A^{-1}: x_new = Re y for C y = M x_old, C filled on L's pattern, a system
whose spectrum spreads like the square root of A's.  `cg` solves it by
COCG, conjugate orthogonal CG (van der Vorst and Melissen, IEEE Trans.
Magn. 26 (1990) 706), without importing scipy.sparse.linalg (and with it
scipy.linalg), and returns its iteration count, the step's linear_iters.

SolverConfig holds the solver and monitor settings.  The run config
(runio.RunConfig) extends it with the initial data and the output settings,
so `run` takes either, and a Trajectory keeps the config it was run with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import _PREV, TriangleMesh, _dot, face_geometry
from .geometry import (
    cotan_laplacian,
    curvature_field,
    lumped_mass,
    vertex_normals_and_projected_areas,
    volume_cubic,
)
from . import monitors

EXPLICIT = "explicit"
SEMI_IMPLICIT = "semi_implicit"
# scheme -> p of its CFL step cfl_sigma * h_min**p
CFL_ORDER = {EXPLICIT: 4, SEMI_IMPLICIT: 2}
FIXED = "fixed"
CFL = "cfl"

# stop reasons
DIVERGED = "diverged"
T_END = "t_end"
MAX_STEPS = "max_steps"
QUALITY_FLOOR = "quality_floor"
CURVATURE_CEILING = "curvature_ceiling"

SINGULARITY_STOPS = frozenset({QUALITY_FLOOR, CURVATURE_CEILING})
QUALITY_MIN = 0.02
CURVATURE_SCALE_MAX = 2.0
# relative residual |A x - b| / |b| that step_semi_implicit's solves reach,
# in at most CG_ROUNDS calls of cg per coordinate
CG_RTOL = 1e-10
CG_ROUNDS = 4


@dataclass(frozen=True)
class FlowState:
    """Mesh plus simulation clock; the face geometry and everything derived
    from it, and the KD-tree on the vertices, are built lazily and cached.

    States are immutable, so a cache always matches the vertex positions
    it was built from.  The cache lives here, not on the mesh, so the
    meshes a trajectory keeps as snapshots stay small; they hold only the
    one MeshTopology that every mesh of the run shares.
    """

    mesh: TriangleMesh
    t: float = 0.0
    step: int = 0

    @cached_property
    def geometry(self):
        return face_geometry(self.mesh)

    @cached_property
    def mass(self):
        return lumped_mass(self.geometry)

    @cached_property
    def lap(self):
        return cotan_laplacian(self.geometry)

    @cached_property
    def curvature(self):
        return curvature_field(self.geometry, self.mass, self.lap)

    @cached_property
    def tree(self):
        from scipy.spatial import cKDTree

        return cKDTree(self.mesh.vertices)


@dataclass(frozen=True)
class SolverConfig:
    scheme: str = SEMI_IMPLICIT
    dt_policy: str = CFL
    dt: float = 1e-4
    cfl_sigma: float = 0.1
    t_end: float = 1.0
    max_steps: int = 1000000
    volume_correction: bool = False
    snapshot_every: int = 100
    monitor_radii: tuple = ()

    def __post_init__(self):
        if self.scheme not in CFL_ORDER:
            raise ValueError(f"unknown scheme: {self.scheme}")
        if self.dt_policy not in (FIXED, CFL):
            raise ValueError(f"unknown dt policy: {self.dt_policy}")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if not 0 < self.cfl_sigma <= 1:
            raise ValueError("cfl_sigma must lie in (0, 1]")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        radii = tuple(float(r) for r in self.monitor_radii)
        if not all(0 < r < np.inf for r in radii):
            raise ValueError("monitor radii must be positive and finite")
        if len(set(radii)) != len(radii):
            raise ValueError("monitor radii must be distinct")
        object.__setattr__(self, "monitor_radii", radii)


@dataclass(frozen=True)
class StepOutcome:
    accepted: bool
    linear_iters: int = 0  # cg iterations over every round of the three coordinate solves


@dataclass
class Trajectory:
    records: list
    snapshots: dict
    stop_reason: str
    config: SolverConfig | None = None


def choose_dt(state: FlowState, config: SolverConfig) -> float:
    """FIXED passes dt through; CFL uses sigma * h_min^p, p from CFL_ORDER
    (4 for the explicit step, 2 for the semi-implicit one)."""
    if config.dt_policy == FIXED:
        return config.dt
    return config.cfl_sigma * state.geometry.h_min ** CFL_ORDER[config.scheme]


def _broken(trial: FlowState, parent: FlowState) -> bool:
    """A trial state is broken when a vertex is non-finite, a face is
    degenerate, or a face normal reverses against the parent state's."""
    if not np.isfinite(trial.mesh.vertices).all():
        return True
    fg = trial.geometry
    turned = _dot(fg.normals, parent.geometry.normals)
    return fg.degenerate or bool((turned <= 0).any())


def _accept(state: FlowState, new_vertices: np.ndarray, dt: float, linear_iters: int = 0):
    """The trial state at new_vertices and its outcome, or the unchanged
    state and a rejection when the trial is broken."""
    trial = FlowState(state.mesh.with_vertices(new_vertices), t=state.t + dt, step=state.step + 1)
    if _broken(trial, state):
        return state, StepOutcome(False)
    return trial, StepOutcome(True, linear_iters)


def step_explicit(state: FlowState, dt: float):
    """x_i <- x_i + dt * (lap H)_i * nu_i; purely normal velocity."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    curv = state.curvature
    return _accept(state, state.mesh.vertices + (dt * curv.lapH * curv.normal).T, dt)


def cg(A, b, x0, *, rtol, maxiter, M, callback=None):
    """Solve the complex symmetric system A x = b (A sparse, A.T == A) by
    COCG preconditioned by the vector M (z = M * r), from the complex x0, to
    a recurrence residual |r| < rtol |b|; the caller checks the true residual
    of the system it needs.  The inner products are np.dot, which does not
    conjugate.  Returns (x, iterations): fewer than maxiter iterations means
    convergence, and b = 0 returns (b, 0).  callback(x) runs once per
    iteration; x0 is not modified."""
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b, 0
    atol = rtol * bnrm2
    x = x0.copy()
    r = b - A @ x
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, iteration
        z = M * r
        rho_cur = np.dot(r, z)
        if iteration > 0:
            p *= rho_cur / rho_prev
            p += z
        else:
            p = z.copy()
        q = A @ p
        alpha = rho_cur / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho_cur
        if callback:
            callback(x)
    return x, maxiter


def step_semi_implicit(state: FlowState, dt: float):
    """Solve (M + dt L M^{-1} L) x_new = M x_old per coordinate, L frozen at
    x_old, as x_new = Re y with C y = M x_old, C = M + i sqrt(dt) L filled
    on L's pattern (the module docstring derives it): Jacobi-preconditioned
    COCG (`cg`) from y = x_old, at most 10 iterations per vertex a round.
    A round that leaves |A x_new - M x_old| above CG_RTOL |M x_old|,
    evaluated as M x + dt L (M^{-1} L x) without assembling A, is followed
    by another from its y with a ten times smaller rtol; a round that
    reaches maxiter, or a miss after CG_ROUNDS rounds, rejects the step."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    m = state.mass
    L = state.lap
    C = (1j * np.sqrt(dt)) * L
    C.data[state.mesh.topology.diagonal] += m[state.mesh.topology.rows]
    inv_diag = 1.0 / C.diagonal()
    x_old = state.mesh.vertices
    new_vertices = np.empty_like(x_old)
    maxiter = 10 * len(m)
    iters = 0
    for k in range(3):
        b = m * x_old[:, k]
        tol = CG_RTOL * np.linalg.norm(b)
        y = x_old[:, k].astype(complex)
        for r in range(CG_ROUNDS):
            y, k_iters = cg(C, b, y, rtol=CG_RTOL / 10**r, maxiter=maxiter, M=inv_diag)
            iters += k_iters
            if k_iters >= maxiter:
                return state, StepOutcome(False)
            x = y.real
            if np.linalg.norm(m * x + dt * (L @ ((L @ x) / m)) - b) <= tol:
                break
        else:
            return state, StepOutcome(False)
        new_vertices[:, k] = x
    return _accept(state, new_vertices, dt, iters)


def correct_volume(state: FlowState, target_volume: float) -> FlowState:
    """Offset vertices along their normals by one scalar s restoring the
    enclosed volume to 1e-12 relative.  V(x + s nu) is exactly a cubic in s,
    so Newton's method runs on its coefficients; its first iterate is the
    linear guess (target - V) / V'(0)."""
    nu, _ = vertex_normals_and_projected_areas(state.geometry)
    c0, c1, c2, c3 = volume_cubic(state.geometry, nu)
    if abs(c0 - target_volume) > 0.1 * abs(target_volume):
        raise monitors.NumericsError(
            f"volume drifted beyond 10% at step {state.step}: {c0} vs {target_volume}"
        )
    tol = 1e-12 * abs(target_volume)
    s = 0.0
    for _ in range(50):
        residual = ((c3 * s + c2) * s + c1) * s + c0 - target_volume
        if abs(residual) <= tol:
            break
        s -= residual / ((3.0 * c3 * s + 2.0 * c2) * s + c1)
    else:
        raise monitors.NumericsError(f"volume correction did not converge at step {state.step}")
    if s == 0.0:
        return state
    return FlowState(
        mesh=state.mesh.with_vertices(state.mesh.vertices + (s * nu).T), t=state.t, step=state.step
    )


def _curvature_scale_trigger(state: FlowState) -> float:
    """max over vertices of sqrt(|A|^2) times the longest incident edge."""
    lens = np.sqrt(state.geometry.sq_lengths)  # edges ab, bc, ca
    # corner a touches edges ca and ab, b touches ab and bc, c bc and ca
    corner_h = np.maximum(lens, lens[_PREV])
    local_h = np.zeros(state.mesh.num_vertices)
    np.maximum.at(local_h, state.mesh.topology.corner_index.ravel(), corner_h.ravel())
    return float((np.sqrt(state.curvature.A_sq) * local_h).max())


def run(initial: TriangleMesh, config: SolverConfig) -> Trajectory:
    """Step until t_end, max_steps, or a stop trigger; a diagnostics record
    per accepted step, a snapshot every snapshot_every steps.  The run keeps
    one monitors.PairSet per monitor radius across its records."""
    with np.errstate(all="ignore"):
        state = FlowState(mesh=initial)
        pairs = {}
        records = [monitors.diagnostics(state, config.monitor_radii, pairs=pairs)]
        target_volume = records[0].volume
        snapshots = {0: initial}
        rejects = 0
        stop = None
        while stop is None:
            if state.t >= config.t_end:
                stop = T_END
                break
            if state.step >= config.max_steps:
                stop = MAX_STEPS
                break
            dt = choose_dt(state, config) * 0.5**rejects
            if config.scheme == EXPLICIT:
                state_new, outcome = step_explicit(state, dt)
            else:
                state_new, outcome = step_semi_implicit(state, dt)
            if outcome.accepted and config.volume_correction:
                try:
                    state_new = correct_volume(state_new, target_volume)
                except monitors.NumericsError:
                    outcome = StepOutcome(False)
            if not outcome.accepted:
                rejects += 1
                if rejects >= 3:
                    stop = DIVERGED
                    break
                continue
            rejects = 0
            try:
                rec = monitors.diagnostics(state_new, config.monitor_radii, pairs=pairs)
            except monitors.NumericsError:
                stop = DIVERGED
                break
            state = state_new
            records.append(rec)
            if state.step % config.snapshot_every == 0:
                snapshots[state.step] = state.mesh
            if rec.quality < QUALITY_MIN:
                stop = QUALITY_FLOOR
            elif _curvature_scale_trigger(state) > CURVATURE_SCALE_MAX:
                stop = CURVATURE_CEILING
    if state.step not in snapshots:
        snapshots[state.step] = state.mesh
    return Trajectory(
        records=records,
        snapshots=snapshots,
        stop_reason=stop,
        config=config,
    )

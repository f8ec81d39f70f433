"""Time integration of the surface diffusion flow and the run loop.

Two steppers:
  * explicit: forward Euler on the exact normal velocity (lap H) nu;
    faithful to the flow law, used for verification runs
  * semi_implicit: linearly implicit vector bilaplacian step
    (M + dt L M^{-1} L) x_new = M x_old per coordinate, the production
    stepper; it discretizes the position bilaplacian, whose normal velocity
    is lap H - H|A|^2, not the lap H of the flow law

Both scale exactly under the parabolic rescaling x -> lambda x,
dt -> lambda^4 dt.

Each FlowState makes one FaceGeometry pass; mass, L and curvature derive
from it.  A stepper returns the next state and a StepOutcome (accepted, CG
iterations).  A step is rejected, the state kept, when a vertex goes
non-finite, a face degenerates or a face normal reverses; each retry halves
dt, and three rejects in a row stop the run, as does a face quality below
QUALITY_MIN or a curvature scale above CURVATURE_SCALE_MAX.  A NumericsError
stops the run as diverged, except in the initial record: that one propagates.
A run silences numpy's floating-point warnings: every non-finite value they
would announce is caught as a broken step, a NumericsError or a divergence.
Volume correction solves the exact cubic V(x + s nu) = V0 by Newton's method.
The semi-implicit step's linear solves run `cg`, the conjugate-gradient loop
of scipy.sparse.linalg.cg kept in this module with scipy's arithmetic, so a
run does not import scipy.sparse.linalg (and with it scipy.linalg).

SolverConfig holds the solver and monitor settings.  The run config
(runio.RunConfig) extends it with the initial data and the output settings,
so `run` takes either, and a Trajectory keeps the config it was run with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .mesh import TriangleMesh, face_geometry
from .geometry import (
    cotan_laplacian,
    curvature_field,
    enclosed_volume,
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
# relative residual at which step_semi_implicit's CG solves stop
CG_RTOL = 1e-10


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

    def advanced(self, mesh: TriangleMesh, dt: float) -> "FlowState":
        return FlowState(mesh=mesh, t=self.t + dt, step=self.step + 1)


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
        if not all(r > 0 for r in radii):
            raise ValueError("monitor radii must be positive")
        if len(set(radii)) != len(radii):
            raise ValueError("monitor radii must be distinct")
        object.__setattr__(self, "monitor_radii", radii)


@dataclass(frozen=True)
class StepOutcome:
    accepted: bool
    linear_iters: int = 0  # CG iterations over the three coordinate solves


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
    turned = np.einsum("ij,ij->i", fg.normals, parent.geometry.normals)
    return fg.degenerate or bool((turned <= 0).any())


def _accept(state: FlowState, new_vertices: np.ndarray, dt: float, linear_iters: int = 0):
    """The trial state at new_vertices and its outcome, or the unchanged
    state and a rejection when the trial is broken."""
    trial = state.advanced(state.mesh.with_vertices(new_vertices), dt)
    if _broken(trial, state):
        return state, StepOutcome(False)
    return trial, StepOutcome(True, linear_iters)


def step_explicit(state: FlowState, dt: float):
    """x_i <- x_i + dt * (lap H)_i * nu_i; purely normal velocity."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    curv = state.curvature
    disp = (dt * curv.lapH)[:, None] * curv.normal
    return _accept(state, state.mesh.vertices + disp, dt)


def cg(A, b, x0, *, rtol, maxiter, M, callback=None):
    """Solve A x = b for a symmetric positive definite CSR matrix A by
    conjugate gradients, preconditioned by the vector M (z = M * r), to
    |r| < rtol |b|.  This is the loop of scipy.sparse.linalg.cg (scipy
    1.17.1) with atol = 0 and M = diags(M), operation for operation, so x,
    info and the callback calls are scipy's bit for bit.  Returns (x, info):
    info is 0 on convergence, else maxiter.  callback(x) runs after each
    iteration; x0 is not modified."""
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b, 0
    atol = rtol * bnrm2
    x = x0.copy()
    r = b - A @ x if x.any() else b.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
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
    """Solve (M + dt L M^{-1} L) x_new = M x_old per coordinate by
    Jacobi-preconditioned CG (`cg`, scipy's loop in this module) to relative
    residual CG_RTOL (10 iterations per vertex at most), L frozen at x_old."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    m = state.mass
    L = state.lap
    A = (sparse.diags(m) + dt * (L @ sparse.diags(1.0 / m) @ L)).tocsr()
    inv_diag = 1.0 / A.diagonal()
    x_old = state.mesh.vertices
    new_vertices = np.empty_like(x_old)
    iters = 0
    for k in range(3):
        count = [0]

        def _cb(_xk, count=count):
            count[0] += 1

        sol, info = cg(
            A,
            m * x_old[:, k],
            x_old[:, k],
            rtol=CG_RTOL,
            maxiter=10 * len(m),
            M=inv_diag,
            callback=_cb,
        )
        iters += count[0]
        if info != 0:
            return state, StepOutcome(False)
        new_vertices[:, k] = sol
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
        mesh=state.mesh.with_vertices(state.mesh.vertices + s * nu), t=state.t, step=state.step
    )


def _curvature_scale_trigger(state: FlowState) -> float:
    """max over vertices of sqrt(|A|^2) times the longest incident edge."""
    lens = np.sqrt(state.geometry.sq_lengths)  # edges ab, bc, ca
    # corner a touches edges ca and ab, b touches ab and bc, c bc and ca
    corner_h = np.maximum(lens, np.roll(lens, 1, axis=0))
    local_h = np.zeros(state.mesh.num_vertices)
    # the flat (3F,) index: np.maximum.at is several times slower on faces.T
    np.maximum.at(local_h, state.mesh.faces.T.ravel(), corner_h.ravel())
    return float((np.sqrt(state.curvature.A_sq) * local_h).max())


def run(initial: TriangleMesh, config: SolverConfig) -> Trajectory:
    """Step until t_end, max_steps, or a stop trigger; a diagnostics record
    per accepted step, a snapshot every snapshot_every steps.  The run keeps
    one monitors.PairSet per monitor radius across its records."""
    with np.errstate(all="ignore"):
        state = FlowState(mesh=initial)
        target_volume = enclosed_volume(state.geometry)
        pairs = {}
        records = [monitors.diagnostics(state, config.monitor_radii, pairs=pairs)]
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
            if not outcome.accepted:
                rejects += 1
                if rejects >= 3:
                    stop = DIVERGED
                    break
                continue
            rejects = 0
            try:
                if config.volume_correction:
                    state_new = correct_volume(state_new, target_volume)
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

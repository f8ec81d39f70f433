import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import cg as scipy_cg

from sdflow import flow
from sdflow.flow import (
    CFL,
    DIVERGED,
    EXPLICIT,
    FIXED,
    SEMI_IMPLICIT,
    SINGULARITY_STOPS,
    FlowState,
    SolverConfig,
    choose_dt,
    correct_volume,
    run,
    step_explicit,
    step_semi_implicit,
)
from sdflow.generators import make_dumbbell, make_ellipsoid, make_icosphere, make_perturbed_sphere
from sdflow.geometry import CurvatureField, enclosed_volume, volume_cubic
from sdflow.mesh import face_geometry, rescale
from sdflow.monitors import NumericsError


def max_displacement(state, new_state):
    """The largest distance a vertex moved in one step."""
    disp = new_state.mesh.vertices - state.mesh.vertices
    return float(np.sqrt(np.sum(disp**2, axis=1)).max())


def test_choose_dt_fixed_passthrough():
    cfg = SolverConfig(scheme=EXPLICIT, dt_policy=FIXED, dt=1e-4)
    state = FlowState(make_icosphere(1.0, 1))
    assert choose_dt(state, cfg) == 1e-4


def test_choose_dt_cfl_arithmetic():
    mesh = make_icosphere(1.0, 1)
    h = face_geometry(mesh).h_min
    mesh = rescale(mesh, (0, 0, 0), 0.1 / h)  # h_min becomes 0.1
    state = FlowState(mesh)
    cfg = SolverConfig(scheme=EXPLICIT, dt_policy=CFL, cfl_sigma=0.01)
    assert choose_dt(state, cfg) == pytest.approx(1e-6, rel=1e-12)
    cfg2 = SolverConfig(scheme=SEMI_IMPLICIT, dt_policy=CFL, cfl_sigma=0.01)
    assert choose_dt(state, cfg2) == pytest.approx(1e-4, rel=1e-12)


def test_choose_dt_cfl_scales_like_h4():
    mesh = make_icosphere(1.0, 2)
    cfg = SolverConfig(scheme=EXPLICIT, dt_policy=CFL, cfl_sigma=0.5)
    dt1 = choose_dt(FlowState(mesh), cfg)
    dt2 = choose_dt(FlowState(rescale(mesh, (0, 0, 0), 2.0)), cfg)
    assert dt2 == pytest.approx(16.0 * dt1, rel=1e-12)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(scheme="leapfrog")
    with pytest.raises(ValueError):
        SolverConfig(cfl_sigma=1.5)
    with pytest.raises(ValueError):
        SolverConfig(dt=-1.0)


def test_explicit_sphere_near_stationary():
    state = FlowState(make_icosphere(1.0, 4))
    new_state, outcome = step_explicit(state, 1e-6)
    assert outcome.accepted
    assert max_displacement(state, new_state) < 1e-4


def linearized_spectrum(mesh, eps=1e-5):
    """Eigenvalues of J, the Jacobian of lap H with respect to a normal
    displacement: column i is the central difference of lap H when vertex i
    moves by +-eps along its vertex normal on `mesh`."""
    normal = FlowState(mesh).curvature.normal
    jac = np.empty((mesh.num_vertices, mesh.num_vertices))
    for i in range(mesh.num_vertices):
        lap_h = []
        for sign in (1.0, -1.0):
            vertices = mesh.vertices.copy()
            vertices[i] += sign * eps * normal[:, i]
            lap_h.append(FlowState(mesh.with_vertices(vertices)).curvature.lapH)
        jac[:, i] = (lap_h[0] - lap_h[1]) / (2.0 * eps)
    lam = np.linalg.eigvals(jac)
    return lam[np.argsort(np.abs(lam), kind="stable")]


def test_linearized_operator_spectrum_converges_to_the_round_sphere():
    # on the unit sphere the linearization of lap H is -lap(lap + 2), with
    # eigenvalues -l(l+1)(l(l+1)-2): a kernel of dimension 4 (l = 0 volume,
    # l = 1 translations), then -24 five times (l = 2), -120 seven times (l = 3)
    errors = []
    for subdiv in (2, 3):
        lam = linearized_spectrum(make_icosphere(1.0, subdiv))
        assert np.abs(lam.imag).max() <= 1e-6 * np.abs(lam).max()
        assert np.abs(lam[:4]).max() < 1e-3 < np.abs(lam[4])
        l2, l3 = -lam.real[4:9], -lam.real[9:16]
        assert np.ptp(l2) < 1e-3 * l2.mean()
        errors.append((24.0 - l2.mean(), 120.0 - l3.mean()))
    (e2_s2, e3_s2), (e2_s3, e3_s3) = errors
    # O(h^2): the errors fall about 4x per subdivision, and on s3 are
    # 1.0 % (l = 2) and 2.7 % (l = 3)
    assert 0 < e2_s3 < e2_s2 / 3.5 and e2_s3 < 0.015 * 24.0
    assert 0 < e3_s3 < e3_s2 / 3.5 and e3_s3 < 0.03 * 120.0


def test_explicit_zero_velocity_is_identity():
    state = FlowState(make_icosphere(1.0, 2))
    curv = state.curvature
    state.__dict__["curvature"] = CurvatureField(
        normal=curv.normal,
        H=curv.H,
        K=curv.K,
        A_sq=curv.A_sq,
        Ao_sq=curv.Ao_sq,
        lapH=np.zeros_like(curv.lapH),
    )
    new_state, outcome = step_explicit(state, 1e-3)
    assert outcome.accepted
    assert np.array_equal(new_state.mesh.vertices, state.mesh.vertices)


def test_explicit_volume_drift_second_order():
    mesh = make_perturbed_sphere(1.0, [(2, 0, 0.1)])
    dt = 0.005 * face_geometry(mesh).h_min ** 4
    state = FlowState(mesh)
    v0 = enclosed_volume(face_geometry(mesh))
    s1, _ = step_explicit(state, dt)
    s2, _ = step_explicit(state, dt / 2)
    d1 = abs(enclosed_volume(s1.geometry) - v0)
    d2 = abs(enclosed_volume(s2.geometry) - v0)
    assert d1 / d2 >= 3.0


def test_semi_implicit_consistency_order(monkeypatch):
    # Richardson check of the linearly-implicit treatment: against a forward
    # Euler step of the same (vector bilaplacian) velocity the defect is
    # O(dt^2), so halving dt divides it by ~4.  The defect at dt = 1e-6 is
    # far below the CG tolerance, so the solves run tighter here.
    monkeypatch.setattr(flow, "CG_RTOL", 1e-13)
    mesh = make_perturbed_sphere(1.0, [(2, 0, 0.1)], subdivisions=3)
    state = FlowState(mesh)
    m = state.mass[:, None]
    L = state.lap

    def euler_bilaplacian(dt):
        mean_curv_vec = (L @ state.mesh.vertices) / m
        return state.mesh.vertices - dt * (L @ mean_curv_vec) / m

    def defect(dt):
        b, ob = step_semi_implicit(state, dt)
        assert ob.accepted
        return np.abs(b.mesh.vertices - euler_bilaplacian(dt)).max()

    dt = 1e-6
    assert defect(dt) / defect(dt / 2) > 2.0 ** 1.9


def test_semi_implicit_tracks_explicit_velocity_to_leading_order(monkeypatch):
    # the two steppers sample velocity fields that agree to leading order;
    # their one-step gap vanishes linearly in dt
    monkeypatch.setattr(flow, "CG_RTOL", 1e-13)
    mesh = make_perturbed_sphere(1.0, [(2, 0, 0.1)], subdivisions=3)
    state = FlowState(mesh)

    def gap(dt):
        a, oa = step_explicit(state, dt)
        b, ob = step_semi_implicit(state, dt)
        assert oa.accepted and ob.accepted
        return np.abs(a.mesh.vertices - b.mesh.vertices).max()

    dt = 1e-6
    assert gap(dt / 2) < 0.6 * gap(dt)
    assert gap(dt) < 1e-5


def test_semi_implicit_sphere_small_displacement():
    state = FlowState(make_icosphere(1.0, 4))
    new_state, outcome = step_semi_implicit(state, 1e-3)
    assert outcome.accepted
    assert outcome.linear_iters > 0
    # measured: the bilaplacian stepper drifts a unit sphere by about
    # 4e-3 per unit-millisecond step (lower-order shrinkage term)
    assert max_displacement(state, new_state) < 5e-3


def test_semi_implicit_preserves_axial_symmetry():
    n_phi = 24
    mesh = make_dumbbell(1.0, 0.3, 1.0, n_phi=n_phi, n_rings=40)
    state = FlowState(mesh)
    dt = 0.1 * face_geometry(mesh).h_min ** 2
    for _ in range(10):
        state, outcome = step_semi_implicit(state, dt)
        assert outcome.accepted
    v = state.mesh.vertices[1:-1].reshape(-1, n_phi, 3)
    radii = np.hypot(v[:, :, 1], v[:, :, 2])
    assert np.abs(radii - radii.mean(axis=1, keepdims=True)).max() < 1e-8
    assert np.abs(v[:, :, 0] - v[:, :, 0].mean(axis=1, keepdims=True)).max() < 1e-8


def implicit_sphere_solves():
    """The three (A, b, x0, kwargs) that step_semi_implicit passes to
    flow.cg on the first step of the implicit_sphere benchmark workload
    (s4, mode 2,0,0.3, seed 3, dt 4.5e-4)."""
    state = FlowState(make_perturbed_sphere(1.0, [(2, 0, 0.3)], seed=3, subdivisions=4))
    calls = []
    real_cg = flow.cg

    def recording_cg(A, b, x0, **kwargs):
        calls.append((A, b, x0, kwargs))
        return real_cg(A, b, x0, **kwargs)

    with mock.patch.object(flow, "cg", recording_cg):
        _, outcome = step_semi_implicit(state, 4.5e-4)
    assert outcome.accepted and len(calls) == 3
    return calls


def assert_cg_matches_scipy(A, b, x0, rtol, maxiter, M):
    """flow.cg and scipy's cg with M = diags(M) give the same x bit for
    bit and the same number of callback calls, flow.cg's iteration count
    is scipy's callback count, and it falls short of maxiter exactly when
    scipy's info is 0; flow.cg leaves x0 as it was.  Returns (scipy's info,
    callback calls)."""
    counts = [0, 0]

    def counter(i):
        return lambda _xk: counts.__setitem__(i, counts[i] + 1)

    x0_before = x0.copy()
    x, iterations = flow.cg(A, b, x0, rtol=rtol, maxiter=maxiter, M=M, callback=counter(0))
    want, want_info = scipy_cg(
        A, b, x0=x0, rtol=rtol, atol=0.0, maxiter=maxiter, M=sparse.diags(M), callback=counter(1)
    )
    assert np.array_equal(x.view(np.int64), want.view(np.int64))
    assert iterations == counts[1]
    assert (iterations < maxiter) == (want_info == 0)
    assert counts[0] == counts[1]
    assert np.array_equal(x0.view(np.int64), x0_before.view(np.int64))
    return want_info, counts[0]


def test_cg_matches_scipy_on_implicit_sphere_solves():
    for A, b, x0, kw in implicit_sphere_solves():
        assert kw["rtol"] == flow.CG_RTOL
        info, iters = assert_cg_matches_scipy(A, b, x0, kw["rtol"], kw["maxiter"], kw["M"])
        assert info == 0 and iters > 0


def test_cg_matches_scipy_on_zero_rhs():
    A, b, x0, kw = implicit_sphere_solves()[0]
    info, iters = assert_cg_matches_scipy(
        A, np.zeros_like(b), x0, kw["rtol"], kw["maxiter"], kw["M"]
    )
    assert (info, iters) == (0, 0)


def test_cg_matches_scipy_when_maxiter_runs_out():
    A, b, x0, kw = implicit_sphere_solves()[0]
    info, iters = assert_cg_matches_scipy(A, b, x0, kw["rtol"], 5, kw["M"])
    assert (info, iters) == (5, 5)


def test_rejected_step_keeps_state():
    mesh = make_icosphere(1.0, 1)
    state = FlowState(mesh)
    curv = state.curvature
    bad_lapH = curv.lapH.copy()
    bad_lapH[0] = np.nan
    state.__dict__["curvature"] = CurvatureField(
        normal=curv.normal, H=curv.H, K=curv.K, A_sq=curv.A_sq,
        Ao_sq=curv.Ao_sq, lapH=bad_lapH,
    )
    new_state, outcome = step_explicit(state, 1e-6)
    assert not outcome.accepted
    assert new_state is state
    assert np.array_equal(state.mesh.vertices, mesh.vertices)


def test_inverted_face_rejects_step():
    # vertex 0 of a unit icosphere moves 1.5 inward along its normal, through
    # the centre: its fan of faces turns inside out without degenerating
    state = FlowState(make_icosphere(1.0, 1))
    curv = state.curvature
    lapH = np.zeros_like(curv.lapH)
    lapH[0] = -1.5e3
    state.__dict__["curvature"] = replace(curv, lapH=lapH)
    trial = state.mesh.vertices + (1e-3 * lapH)[:, None] * curv.normal.T
    assert not face_geometry(state.mesh.with_vertices(trial)).degenerate
    new_state, outcome = step_explicit(state, 1e-3)
    assert not outcome.accepted
    assert new_state is state


def test_correct_volume_noop_at_target():
    state = FlowState(make_icosphere(1.0, 2))
    target = enclosed_volume(state.geometry)
    out = correct_volume(state, target)
    assert np.array_equal(out.mesh.vertices, state.mesh.vertices)


def test_correct_volume_restores_inflated_sphere():
    base = make_icosphere(1.0, 3)
    target = enclosed_volume(face_geometry(base))
    inflated = FlowState(base.with_vertices(base.vertices * 1.01))
    fixed = correct_volume(inflated, target)
    assert enclosed_volume(fixed.geometry) == pytest.approx(target, rel=1e-12)
    # discrete vertex normals are radial only to O(h^2), so a 1% offset
    # restores the radius to ~1e-6 at this resolution, not exactly
    assert np.abs(np.linalg.norm(fixed.mesh.vertices, axis=1) - 1.0).max() < 1e-5


def test_correct_volume_rejects_large_drift():
    base = make_icosphere(1.0, 2)
    state = FlowState(base.with_vertices(base.vertices * 1.2))
    with pytest.raises(NumericsError):
        correct_volume(state, enclosed_volume(face_geometry(base)))


def _volume_cases():
    dumbbell = make_dumbbell(1.0, 0.3, 1.0, n_phi=24, n_rings=40)
    sphere = make_perturbed_sphere(1.0, [(2, 0, 0.2), (3, 1, 0.1)], seed=4, subdivisions=3)
    return [
        pytest.param(dumbbell, dumbbell.with_vertices(dumbbell.vertices * 1.02), id="dumbbell"),
        pytest.param(sphere, sphere.with_vertices(sphere.vertices * 0.98), id="shrunk_sphere"),
    ]


VOLUME_CASES = _volume_cases()


@pytest.mark.parametrize("base,moved", VOLUME_CASES)
def test_correct_volume_reaches_target_nonspherical(base, moved):
    target = enclosed_volume(face_geometry(base))
    assert abs(enclosed_volume(face_geometry(moved)) - target) > 0.03 * target
    fixed = correct_volume(FlowState(moved), target)
    assert abs(enclosed_volume(fixed.geometry) - target) <= 1e-12 * target


@pytest.mark.parametrize("base,moved", VOLUME_CASES)
def test_volume_cubic_is_exact(base, moved):
    rng = np.random.default_rng(1)
    for nu in (FlowState(base).curvature.normal, rng.standard_normal(base.vertices.shape).T):
        c0, c1, c2, c3 = volume_cubic(face_geometry(base), nu)
        assert c0 == enclosed_volume(face_geometry(base))
        for s in (-0.1, -0.02, 0.005, 0.05, 0.2):
            exact = enclosed_volume(face_geometry(base.with_vertices(base.vertices + s * nu.T)))
            cubic = c0 + c1 * s + c2 * s**2 + c3 * s**3
            assert abs(cubic - exact) <= 1e-12 * abs(exact)


def test_correct_volume_nonfinite_raises():
    base = make_icosphere(1.0, 2)
    bad = base.vertices.copy()
    bad[0] = np.nan
    with pytest.raises(NumericsError, match="converge"):
        correct_volume(FlowState(base.with_vertices(bad)), enclosed_volume(face_geometry(base)))


def test_run_determinism_bitwise():
    cfg = SolverConfig(
        scheme=EXPLICIT, dt_policy=CFL, cfl_sigma=0.005, t_end=1.0, max_steps=25,
        snapshot_every=10, monitor_radii=(0.5,),
    )
    mesh = make_perturbed_sphere(1.0, [(2, 0, 0.1)], subdivisions=2)
    t1 = run(mesh, cfg)
    t2 = run(mesh, cfg)
    assert t1.stop_reason == t2.stop_reason
    for a, b in zip(t1.records, t2.records):
        assert a == b
    for step in t1.snapshots:
        assert np.array_equal(t1.snapshots[step].vertices, t2.snapshots[step].vertices)


def test_run_equivariance_rotation_translation():
    mesh = make_perturbed_sphere(1.0, [(2, 0, 0.1)], subdivisions=2)
    angle = 0.7
    rot = np.array(
        [
            [math.cos(angle), -math.sin(angle), 0.0],
            [math.sin(angle), math.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    shift = np.array([0.4, -1.2, 2.0])
    moved = mesh.with_vertices(mesh.vertices @ rot.T + shift)
    cfg = SolverConfig(scheme=EXPLICIT, dt_policy=FIXED, dt=1e-7, t_end=1.0, max_steps=5,
                       snapshot_every=1)
    t1 = run(mesh, cfg)
    t2 = run(moved, cfg)
    for step in t1.snapshots:
        expected = t1.snapshots[step].vertices @ rot.T + shift
        assert np.abs(t2.snapshots[step].vertices - expected).max() < 1e-10


def test_run_parabolic_scale_covariance():
    mesh = make_perturbed_sphere(1.0, [(2, 0, 0.1)], subdivisions=3)
    lam = 2.0
    dt = 5e-8
    steps = 100
    cfg1 = SolverConfig(scheme=EXPLICIT, dt_policy=FIXED, dt=dt, t_end=1.0,
                        max_steps=steps, snapshot_every=1)
    cfg2 = SolverConfig(scheme=EXPLICIT, dt_policy=FIXED, dt=lam**4 * dt, t_end=16.0,
                        max_steps=steps, snapshot_every=1)
    t1 = run(mesh, cfg1)
    t2 = run(rescale(mesh, (0, 0, 0), lam), cfg2)
    assert len(t1.records) == len(t2.records) == steps + 1
    for step in range(steps + 1):
        a = t1.snapshots[step].vertices
        b = t2.snapshots[step].vertices
        assert np.abs(b - lam * a).max() <= 1e-9 * np.abs(b).max()


def test_run_abort_after_rejection_cascade(monkeypatch):
    import sdflow.flow as flow_mod

    calls = []

    def always_reject(state, dt):
        calls.append(dt)
        return state, flow_mod.StepOutcome(False)

    monkeypatch.setattr(flow_mod, "step_explicit", always_reject)
    cfg = SolverConfig(scheme=EXPLICIT, dt_policy=FIXED, dt=1e-6, t_end=1.0, max_steps=10)
    traj = flow_mod.run(make_icosphere(1.0, 1), cfg)
    assert traj.stop_reason == DIVERGED
    assert len(calls) == 3
    # a deterministic stepper cannot succeed on an identical retry
    assert calls == [1e-6, 5e-7, 2.5e-7]
    assert len(traj.records) == 1  # only the initial record


def test_run_stops_at_the_quality_floor_before_the_curvature_ceiling():
    # the flattened ellipsoid starts just under QUALITY_MIN (0.019998) and
    # past CURVATURE_SCALE_MAX; at rz = 0.02 or 0.05 only the ceiling trips
    cfg = SolverConfig(scheme=EXPLICIT, dt_policy=CFL, cfl_sigma=0.005, max_steps=3)
    traj = run(make_ellipsoid(1.0, 1.0, 0.01, 2), cfg)
    assert traj.stop_reason == flow.QUALITY_FLOOR
    assert len(traj.records) == 2 and traj.records[-1].quality < flow.QUALITY_MIN
    assert flow._curvature_scale_trigger(FlowState(traj.snapshots[1])) > flow.CURVATURE_SCALE_MAX
    for rz in (0.02, 0.05):
        assert run(make_ellipsoid(1.0, 1.0, rz, 2), cfg).stop_reason == flow.CURVATURE_CEILING


def test_run_numerics_error_mid_run_is_a_divergence(third_record_fails):
    cfg = SolverConfig(scheme=EXPLICIT, dt_policy=CFL, cfl_sigma=0.005, max_steps=5)
    traj = run(make_icosphere(1.0, 2), cfg)
    assert traj.stop_reason == DIVERGED
    assert len(traj.records) == 2 and sorted(traj.snapshots) == [0, 1]


def test_run_sphere_stationary(sphere_run):
    recs = sphere_run.records
    assert sphere_run.stop_reason == "max_steps"
    area0 = recs[0].area
    assert all(abs(r.area - area0) / area0 < 1e-3 for r in recs)
    assert all(r.sphericity > 0.999 for r in recs)


def test_run_volume_correction_holds_volume(conv_run):
    recs = conv_run.records
    v0 = recs[0].volume
    assert all(abs(r.volume - v0) / v0 < 1e-12 for r in recs)


def test_run_dumbbell_hits_singularity_stop(dumbbell_run):
    assert dumbbell_run.stop_reason in SINGULARITY_STOPS

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from sdflow.flow import FlowState, step_explicit
from sdflow.generators import (
    make_dumbbell,
    make_ellipsoid,
    make_icosphere,
    make_perturbed_sphere,
)
from sdflow.mesh import rescale
from sdflow.monitors import (
    AREA,
    AREA_RATE,
    EIGHT_PI,
    TRACEFREE_L2,
    TRACEFREE_RATE,
    WILLMORE,
    DiagnosticsRecord,
    audit_dissipation,
    audit_monotone,
    concentration,
    diagnostics,
    fit_decay,
    stationarity_residual,
)


def synthetic_records(ts, areas=None, tracefree=None, laph=None):
    n = len(ts)
    areas = areas if areas is not None else [10.0] * n
    tracefree = tracefree if tracefree is not None else [1.0] * n
    laph = laph if laph is not None else [0.0] * n
    return [
        DiagnosticsRecord(
            step=i,
            t=float(ts[i]),
            area=float(areas[i]),
            volume=1.0,
            willmore=4 * math.pi,
            tracefree_l2=float(tracefree[i]),
            gradH_l2=0.0,
            lapH_l2=float(laph[i]),
            max_abs_A=2.0,
            h_min=0.1,
            quality=0.9,
            sphericity=1.0,
            li_yau_ok=True,
            smallness_ok=True,
            eta=(),
        )
        for i in range(n)
    ]


def test_diagnostics_sphere():
    rec = diagnostics(FlowState(make_icosphere(1.0, 4)), radii=(2.5,))
    assert rec.willmore == pytest.approx(4 * math.pi, rel=0.03)
    assert rec.sphericity > 0.999
    assert rec.li_yau_ok
    assert rec.eta[0][1] == pytest.approx(8 * math.pi, rel=0.03)


def test_diagnostics_perturbed_sphere_gates():
    rec = diagnostics(FlowState(make_perturbed_sphere(1.0, [(2, 0, 0.1)])), radii=())
    assert rec.tracefree_l2 > 0
    assert rec.smallness_ok  # default gate 8*pi
    assert rec.li_yau_ok == (rec.willmore < EIGHT_PI)


def test_diagnostics_scale_invariance():
    mesh = make_perturbed_sphere(1.0, [(2, 0, 0.1)], subdivisions=3)
    lam = 3.0
    r1 = diagnostics(FlowState(mesh))
    r2 = diagnostics(FlowState(rescale(mesh, (0, 0, 0), lam)))
    rel = lambda a, b: abs(a - b) / max(abs(a), 1e-300)
    assert rel(r2.willmore, r1.willmore) < 1e-10
    assert rel(r2.tracefree_l2, r1.tracefree_l2) < 1e-10
    assert rel(r2.sphericity, r1.sphericity) < 1e-10
    assert rel(r2.area, lam**2 * r1.area) < 1e-10


def test_sphericity_bounded_by_isoperimetric():
    for mesh in (
        make_icosphere(1.0, 4),
        make_perturbed_sphere(1.0, [(2, 0, 0.1)]),
        make_dumbbell(1.0, 0.3, 1.0, n_phi=16, n_rings=32),
    ):
        assert diagnostics(FlowState(mesh)).sphericity <= 1.0 + 1e-9


def test_concentration_covering_ball_is_total():
    state = FlowState(make_icosphere(1.0, 3))
    from sdflow.geometry import integrate

    eta, _ = concentration(state, 2.0)  # diameter of the unit sphere
    assert eta == integrate(state.curvature.A_sq, state.mass)
    eta_big, _ = concentration(state, 50.0)
    assert eta_big == eta


def test_concentration_monotone_in_radius():
    state = FlowState(make_dumbbell(1.0, 0.2, 1.5, n_phi=24, n_rings=48))
    radii = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 20.0]
    values = [concentration(state, r)[0] for r in radii]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_concentration_center_on_dumbbell_neck():
    state = FlowState(make_dumbbell(1.0, 0.15, 2.0))
    _, center = concentration(state, 0.1)
    assert abs(center[0]) < 1.0  # within neck_length/2 of the axis midpoint
    assert np.hypot(center[1], center[2]) < 0.3


def bbox_diagonal(state):
    pts = state.mesh.vertices
    return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def reference_concentration(state, r):
    """The per-ball loop that concentration replaced: every vertex ball
    summed over its sorted indices, the first strict maximum kept."""
    pts = state.mesh.vertices
    w = state.curvature.A_sq * state.mass.m
    if r >= bbox_diagonal(state):
        return float(np.sum(w)), pts[0].copy()
    best = -1.0
    best_i = 0
    for i, idx in enumerate(cKDTree(pts).query_ball_point(pts, r, return_sorted=True)):
        s = float(np.sum(w[idx]))
        if s > best:
            best = s
            best_i = i
    return best, pts[best_i].copy()


def assert_concentration_bitwise(state, r):
    eta, center = concentration(state, r)
    ref_eta, ref_center = reference_concentration(state, r)
    assert eta == ref_eta, r
    assert np.array_equal(center, ref_center), r


def default_dumbbell():
    return FlowState(make_dumbbell(1.0, 0.15, 2.0))


def stepped_dumbbell():
    state = default_dumbbell()
    for _ in range(3):
        state, outcome = step_explicit(state, 0.005 * state.geometry.h_min**4)
        assert outcome.accepted
    return state


def blowup_frame_state():
    # the default dumbbell zoomed by 1/0.1 about its eta(0.1) center
    state = default_dumbbell()
    _, center = reference_concentration(state, 0.1)
    return FlowState(rescale(state.mesh, center, 10.0))


def perturbed_sphere(seed):
    return FlowState(
        make_perturbed_sphere(1.0, [(2, 0, 0.1), (3, 1, 0.1)], seed=seed, subdivisions=3)
    )


def ellipsoid():
    return FlowState(make_ellipsoid(1.0, 0.7, 0.4, subdivisions=3))


@pytest.mark.parametrize(
    "state_fn,radii_fn",
    [
        # 96-fold near-tied balls: an argmax over upper bounds flips the center
        pytest.param(default_dumbbell, lambda s: (0.4, 0.2, 0.1), id="dumbbell"),
        pytest.param(stepped_dumbbell, lambda s: (0.4, 0.2, 0.1), id="dumbbell_stepped"),
        *[
            pytest.param(
                functools.partial(perturbed_sphere, seed),
                lambda s: (0.6, 0.3, 0.15),
                id=f"perturbed_sphere_seed{seed}",
            )
            for seed in range(5)
        ],
        pytest.param(ellipsoid, lambda s: (0.8, 0.3), id="ellipsoid"),
        pytest.param(ellipsoid, lambda s: (0.5 * s.geometry.h_min,), id="singleton_balls"),
        pytest.param(
            ellipsoid,
            lambda s: (bbox_diagonal(s) * (1.0 - 1e-9),),
            id="just_under_bbox_diagonal",
        ),
        pytest.param(blowup_frame_state, lambda s: (1.0,), id="blowup_frame"),
    ],
)
def test_concentration_matches_per_ball_reference_bitwise(state_fn, radii_fn):
    state = state_fn()
    for r in radii_fn(state):
        assert_concentration_bitwise(state, r)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.02, 2.5), st.floats(0.0, 0.3))
def test_concentration_matches_per_ball_reference_property(r, amp):
    mesh = make_perturbed_sphere(1.0, [(2, 0, amp), (3, 2, 0.5 * amp)], subdivisions=3)
    assert_concentration_bitwise(FlowState(mesh), r)


@pytest.mark.parametrize("r", [0.1, 0.5, 50.0])
def test_concentration_nan_weight_is_nonfinite(r):
    state = FlowState(make_perturbed_sphere(1.0, [(2, 0, 0.1)], subdivisions=2))
    state.curvature.A_sq[7] = np.nan
    eta, _ = concentration(state, r)
    assert not np.isfinite(eta)


def test_audit_monotone_passes_on_decay():
    ts = np.linspace(0.0, 1.0, 30)
    recs = synthetic_records(ts, areas=10.0 * np.exp(-ts))
    audit = audit_monotone(recs, AREA)
    assert audit.passed and not audit.violations


def test_audit_monotone_reversed_fails_everywhere():
    ts = np.linspace(0.0, 1.0, 30)
    recs = synthetic_records(ts, areas=(10.0 * np.exp(-ts))[::-1])
    audit = audit_monotone(recs, AREA)
    assert not audit.passed
    assert len(audit.violations) == len(recs) - 1
    assert audit.max_violation > 0


def test_audit_monotone_on_stationary_run(sphere_run):
    for quantity in (AREA, TRACEFREE_L2, WILLMORE):
        assert audit_monotone(sphere_run.records, quantity).passed


def test_audit_monotone_headline(headline_run):
    assert audit_monotone(headline_run.records, AREA).passed
    assert audit_monotone(headline_run.records, TRACEFREE_L2).passed


def test_audit_monotone_fat_dumbbell_explicit():
    from sdflow.flow import CFL, EXPLICIT, SolverConfig, run

    cfg = SolverConfig(
        scheme=EXPLICIT, dt_policy=CFL, cfl_sigma=0.005, t_end=1.0,
        max_steps=50, snapshot_every=100,
    )
    traj = run(make_dumbbell(1.0, 0.5, 1.0, n_phi=16, n_rings=24), cfg)
    assert audit_monotone(traj.records, AREA).passed


def test_audit_dissipation_headline(headline_run):
    recs = headline_run.records[10:]
    area_rep = audit_dissipation(recs, AREA_RATE)
    assert area_rep.passed
    assert area_rep.median_rel_error < 0.15
    trace_rep = audit_dissipation(recs, TRACEFREE_RATE)
    assert trace_rep.passed
    assert trace_rep.best_constant > 0.125


def test_audit_dissipation_halved_dt_not_worse(headline_run, headline_run_half_dt):
    full = audit_dissipation(headline_run.records[10:], AREA_RATE)
    half = audit_dissipation(headline_run_half_dt.records[10:], AREA_RATE)
    assert half.median_rel_error <= full.median_rel_error + 1e-12


def test_audit_dissipation_sphere_vacuous(sphere_run):
    rep = audit_dissipation(sphere_run.records[10:], AREA_RATE)
    assert rep.passed
    rep2 = audit_dissipation(sphere_run.records[10:], TRACEFREE_RATE)
    assert rep2.passed and rep2.violations == 0


def test_audit_dissipation_rejects_mixed_dt():
    ts = np.concatenate([np.linspace(0, 1, 10), 1.0 + 2.0 * np.arange(1, 8)])
    recs = synthetic_records(ts)
    with pytest.raises(ValueError, match="nonuniform"):
        audit_dissipation(recs, AREA_RATE)


def test_fit_decay_exact_exponential():
    ts = np.linspace(0.0, 10.0, 200)
    recs = synthetic_records(ts, tracefree=np.exp(-2 * 0.7 * ts))
    fit = fit_decay(recs)
    assert fit.lambda_fit == pytest.approx(0.7, abs=1e-6)
    assert fit.r_squared > 1 - 1e-9
    assert fit.samples >= 10


def test_fit_decay_window_override():
    ts = np.linspace(0.0, 10.0, 200)
    recs = synthetic_records(ts, tracefree=np.exp(-2 * 1.3 * ts))
    fit = fit_decay(recs, window=(2.0, 5.0))
    assert fit.lambda_fit == pytest.approx(1.3, abs=1e-6)
    assert fit.t0 >= 2.0 and fit.t1 <= 5.0


def test_fit_decay_requires_positive_values():
    ts = np.linspace(0.0, 1.0, 40)
    vals = np.exp(-ts)
    vals[30:] = 0.0
    recs = synthetic_records(ts, tracefree=vals)
    with pytest.raises(ValueError):
        fit_decay(recs, window=(0.5, 1.0))


def test_fit_decay_requires_samples():
    ts = np.linspace(0.0, 1.0, 6)
    recs = synthetic_records(ts, tracefree=np.exp(-8 * ts))
    with pytest.raises(ValueError, match="samples"):
        fit_decay(recs)


def test_fit_decay_conv_run(conv_run):
    fit = fit_decay(conv_run.records)
    assert fit.lambda_fit > 0
    assert fit.r_squared > 0.95


def test_stationarity_residual_refinement():
    raws = []
    for s in (2, 3, 4, 5):
        raw, _ = stationarity_residual(FlowState(make_icosphere(1.0, s)))
        raws.append(raw)
    assert all(a > b for a, b in zip(raws, raws[1:]))


def test_stationarity_residual_scale_invariant_normalization():
    mesh = make_perturbed_sphere(1.0, [(2, 0, 0.1)], subdivisions=3)
    _, n1 = stationarity_residual(FlowState(mesh))
    _, n2 = stationarity_residual(FlowState(rescale(mesh, (0, 0, 0), 5.0)))
    assert abs(n1 - n2) / n1 < 1e-9


def test_stationarity_residual_dumbbell_far_from_stationary():
    sphere_raw, _ = stationarity_residual(FlowState(make_icosphere(1.0, 4)))
    # comparable vertex count (4610 vs 2562) but a far-from-equilibrium shape
    dumb_raw, _ = stationarity_residual(FlowState(make_dumbbell(1.0, 0.15, 2.0)))
    assert dumb_raw / sphere_raw > 10.0


def test_diagnostics_nonfinite_aborts():
    mesh = make_icosphere(1.0, 1)
    bad = mesh.with_vertices(
        np.where(np.arange(mesh.num_vertices)[:, None] == 0, np.nan, mesh.vertices)
    )
    from sdflow.monitors import NumericsError

    with pytest.raises(NumericsError, match="step"):
        diagnostics(FlowState(bad, t=0.0, step=17))


@settings(max_examples=10, deadline=None)
@given(st.floats(0.05, 0.5), st.floats(0.6, 3.0))
def test_concentration_monotone_property(r_small, factor):
    state = FlowState(make_perturbed_sphere(1.0, [(2, 0, 0.2)], subdivisions=2))
    small, _ = concentration(state, r_small)
    large, _ = concentration(state, r_small * (1.0 + factor))
    assert small <= large + 1e-12

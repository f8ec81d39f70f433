"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import math

import numpy as np
import pytest

from conftest import MINI_SEMI_CFG, SPHERE_CFG
from sdflow.blowup import detect, rescale_frame
from sdflow.cli import main as cli_main
from sdflow.flow import (
    EXPLICIT,
    FIXED,
    SINGULARITY_STOPS,
    FlowState,
    SolverConfig,
    run,
)
from sdflow.generators import (
    make_dumbbell,
    make_icosphere,
    make_perturbed_sphere,
    make_torus,
)
from sdflow.geometry import (
    cotan_laplacian,
    curvature_field,
    integrate,
    lumped_mass,
)
from sdflow.mesh import face_geometry, rescale
from sdflow.monitors import (
    AREA,
    AREA_RATE,
    EIGHT_PI,
    TRACEFREE_L2,
    TRACEFREE_RATE,
    audit_dissipation,
    audit_monotone,
    diagnostics,
    fit_decay,
)

EPS1 = EIGHT_PI / 100.0


def check(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {description} {detail}")
    assert passed, f"criterion {number}: {description} {detail}"


def test_criterion_1_gauss_bonnet_exact():
    meshes = []
    for radius, subdiv in [(0.5, 1), (1.0, 2), (2.0, 2), (1.0, 3), (3.0, 1)]:
        meshes.append((make_icosphere(radius, subdiv), 2))
    for seed in range(6):
        l = 2 + seed % 3
        meshes.append(
            (
                make_perturbed_sphere(1.0, [(l, seed % (l + 1), 0.25)], seed=seed,
                                      subdivisions=2),
                2,
            )
        )
    for bulb, neck, length in [
        (1.0, 0.9, 0.5), (1.0, 0.5, 1.0), (1.0, 0.3, 1.5), (1.0, 0.15, 2.0),
        (2.0, 0.4, 3.0), (1.5, 0.75, 1.0), (1.0, 0.6, 0.8), (1.0, 0.2, 2.5),
    ]:
        meshes.append((make_dumbbell(bulb, neck, length, n_phi=20, n_rings=40), 2))
    meshes.append((make_torus(2.0, 0.5), 0))
    assert len(meshes) == 20
    worst = 0.0
    for mesh, chi in meshes:
        fg = face_geometry(mesh)
        mass = lumped_mass(fg)
        cf = curvature_field(fg, mass, cotan_laplacian(fg))
        total = integrate(cf.K, mass)
        target = 2 * math.pi * chi
        err = abs(total - target) / max(abs(total), 1.0)
        worst = max(worst, err)
    check(1, "Gauss-Bonnet 2*pi*chi on 20 meshes", worst < 1e-9, f"worst rel err {worst:.2e}")


def test_criterion_2_operator_convergence():
    h_errs, residuals = [], []
    mean_h4 = None
    for s in (2, 3, 4, 5):
        state = FlowState(make_icosphere(1.0, s))
        h = state.curvature.H
        h_errs.append(float(np.abs(h - 2.0).max()))
        residuals.append(math.sqrt(diagnostics(state).lapH_l2))
        if s == 4:
            mean_h4 = float(h.mean())
    dec_h = all(a > b for a, b in zip(h_errs, h_errs[1:]))
    dec_r = all(a > b for a, b in zip(residuals, residuals[1:]))
    mean_ok = abs(mean_h4 - 2.0) / 2.0 < 0.02
    check(
        2,
        "operator convergence on icospheres 2-5",
        dec_h and dec_r and mean_ok,
        f"max|H-2| {['%.2e' % e for e in h_errs]}, residual {['%.2e' % r for r in residuals]},"
        f" mean H(s4) {mean_h4:.6f}",
    )


def test_criterion_3_volume_conservation(headline_run, headline_run_half_dt):
    v0 = headline_run.records[0].volume
    drift_full = abs(headline_run.records[-1].volume - v0) / abs(v0)
    v0h = headline_run_half_dt.records[0].volume
    drift_half = abs(headline_run_half_dt.records[-1].volume - v0h) / abs(v0h)
    ratio = drift_full / drift_half if drift_half > 0 else math.inf
    check(
        3,
        "volume conservation on the headline run",
        drift_full < 1e-2 and ratio >= 3.0,
        f"drift {drift_full:.2e}, halving ratio {ratio:.2f}",
    )


def test_criterion_4_area_dissipation(headline_run):
    audit = audit_monotone(headline_run.records, AREA)
    rep = audit_dissipation(headline_run.records[10:], AREA_RATE)
    check(
        4,
        "area monotone + rate matches -int|grad H|^2",
        audit["passed"] and rep["median_rel_error"] < 0.15,
        f"violations {audit['violations']}, median rel err {rep['median_rel_error']:.4f}",
    )


def test_criterion_5_tracefree_monotonicity(headline_run):
    initial = headline_run.records[0].tracefree_l2
    audit = audit_monotone(headline_run.records, TRACEFREE_L2)
    rep = audit_dissipation(headline_run.records[10:], TRACEFREE_RATE)
    check(
        5,
        "tracefree energy monotone with dissipation constant 1/8",
        initial < EIGHT_PI and audit["passed"] and rep["violations"] == 0,
        f"initial {initial:.4f}, best empirical constant {rep['best_constant']:.3f}",
    )


def test_criterion_6_exponential_convergence(conv_run):
    recs = conv_run.records
    final = recs[-1]
    initial_energy = recs[0].tracefree_l2
    fit = fit_decay(recs)
    check(
        6,
        "exponential convergence to the round sphere",
        final.sphericity > 0.999
        and final.tracefree_l2 < 1e-3 * initial_energy
        and fit["lambda"] > 0
        and fit["r_squared"] > 0.95,
        f"sphericity {final.sphericity:.6f}, E/E0 {final.tracefree_l2 / initial_energy:.2e},"
        f" lambda {fit['lambda']:.2f}, r^2 {fit['r_squared']:.4f}",
    )


def test_criterion_7_parabolic_scaling(conv_run, conv_run_double):
    fit1 = fit_decay(conv_run.records)
    fit2 = fit_decay(conv_run_double.records)
    ratio = fit1["lambda"] / fit2["lambda"]
    ratio_ok = abs(ratio - 16.0) <= 0.2 * 16.0

    mesh = make_perturbed_sphere(1.0, [(2, 0, 0.1)], subdivisions=3)
    lam, dt, steps = 2.0, 5e-8, 100
    cfg1 = SolverConfig(scheme=EXPLICIT, dt_policy=FIXED, dt=dt, t_end=1.0,
                        max_steps=steps, snapshot_every=1)
    cfg2 = SolverConfig(scheme=EXPLICIT, dt_policy=FIXED, dt=lam**4 * dt, t_end=16.0,
                        max_steps=steps, snapshot_every=1)
    t1 = run(mesh, cfg1)
    t2 = run(rescale(mesh, (0, 0, 0), lam), cfg2)
    worst = 0.0
    for step in range(steps + 1):
        a = t1.snapshots[step].vertices
        b = t2.snapshots[step].vertices
        worst = max(worst, float(np.abs(b - lam * a).max() / np.abs(b).max()))
    check(
        7,
        "parabolic lambda^4 scaling",
        ratio_ok and worst <= 1e-9,
        f"lambda ratio {ratio:.3f} (target 16), covariance err {worst:.2e}",
    )


def test_criterion_8_concentration_machinery(dumbbell_run):
    stopped = dumbbell_run.stop_reason in SINGULARITY_STOPS
    events = detect(dumbbell_run, [0.4, 0.2, 0.1], EPS1)
    ev = events[-1]  # smallest radius
    on_neck = ev.triggered and abs(ev.center[0]) < 1.0
    before_stop = ev.triggered and ev.t <= dumbbell_run.records[-1].t
    frame = rescale_frame(dumbbell_run, ev)
    src = next(r for r in dumbbell_run.records if r.step == frame.event.source_step)
    ball_ok = frame.unit_ball_curvature >= 0.9 * EPS1
    trace_ok = abs(frame.tracefree_l2 - src.tracefree_l2) <= 1e-10 * max(
        src.tracefree_l2, 1.0
    )
    check(
        8,
        "dumbbell concentration event and blowup frame",
        stopped and on_neck and before_stop and ball_ok and trace_ok,
        f"stop {dumbbell_run.stop_reason}, t_j {ev.t:.3e}, x_j[0] {ev.center[0]:.3f},"
        f" ball {frame.unit_ball_curvature:.3f} >= {0.9 * EPS1:.3f}",
    )


def test_criterion_9_gates(sphere_run, headline_run, conv_run, dumbbell_run):
    all_records = (
        sphere_run.records
        + headline_run.records
        + conv_run.records
        + dumbbell_run.records
    )
    gate_ok = all(rec.li_yau_ok == (rec.willmore < EIGHT_PI) for rec in all_records)
    smallness_ok = all(rec.smallness_ok for rec in headline_run.records)
    check(
        9,
        "li_yau_ok bit-consistent and headline smallness preserved",
        gate_ok and smallness_ok,
        f"{len(all_records)} records checked",
    )


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for name, template in (("sphere", SPHERE_CFG), ("mini", MINI_SEMI_CFG)):
        pair = []
        for attempt in ("a", "b"):
            out_dir = tmp_path / f"{name}_{attempt}"
            cfg_path = tmp_path / f"{name}_{attempt}.cfg"
            cfg_path.write_text(template.format(out=out_dir))
            assert cli_main(["run", str(cfg_path)]) in (0, 3)
            pair.append((out_dir / "diagnostics.csv").read_bytes())
        outputs.append(pair[0] == pair[1])
    check(10, "byte-identical diagnostics.csv on rerun", all(outputs))

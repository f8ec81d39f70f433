import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
import scipy.spatial

from sdflow import blowup, monitors
from sdflow.blowup import ConcentrationEvent, detect, frame_metadata_text, rescale_frame
from sdflow.flow import FlowState
from sdflow.monitors import EIGHT_PI, NumericsError, concentration, diagnostics
from sdflow.runio import load_run_dir, write_run_dir

EPS1 = EIGHT_PI / 100.0


def test_detect_sphere_small_radius_untriggered(sphere_run):
    events = detect(sphere_run, [0.1], EPS1)
    assert len(events) == 1
    assert not events[0].triggered


def test_detect_threshold_zero_triggers_first_record(sphere_run):
    events = detect(sphere_run, [2.5, 0.1], 0.0)
    assert all(ev.triggered for ev in events)
    assert all(ev.record_step == 0 for ev in events)
    assert all(ev.t == 0.0 for ev in events)


def test_detect_takes_radii_in_any_order(dumbbell_run):
    descending = detect(dumbbell_run, [0.4, 0.2, 0.1], EPS1)
    assert [ev.r for ev in descending] == [0.4, 0.2, 0.1]
    for order in ([0.1, 0.2, 0.4], [0.2, 0.4, 0.1]):
        assert detect(dumbbell_run, order, EPS1) == descending


def test_detect_requires_monitored_radius(sphere_run):
    with pytest.raises(ValueError, match="monitored"):
        detect(sphere_run, [0.33], EPS1)


def test_detect_monotone_in_eps1(dumbbell_run):
    radii = [0.4, 0.2, 0.1]
    low = detect(dumbbell_run, radii, EPS1)
    high = detect(dumbbell_run, radii, 30.0)
    for ev_low, ev_high in zip(low, high):
        if ev_high.triggered:
            assert ev_low.triggered
            assert ev_low.t <= ev_high.t
    higher = detect(dumbbell_run, radii, 1e9)
    assert not any(ev.triggered for ev in higher)


def test_detect_dumbbell_neck_center(dumbbell_run):
    events = detect(dumbbell_run, [0.1], EPS1)
    ev = events[0]
    assert ev.triggered
    assert abs(ev.center[0]) < 0.3  # within 2*neck_radius of the midpoint
    assert ev.t <= dumbbell_run.records[-1].t


def test_detect_without_centers_builds_one_state_per_snapshot(dumbbell_run, monkeypatch):
    # records carry no centers: every event's center is recomputed on its
    # snapshot, and the events that share a snapshot share one FlowState
    built = []
    state_cls = blowup.FlowState
    monkeypatch.setattr(blowup, "FlowState", lambda mesh: built.append(mesh) or state_cls(mesh))
    radii = [0.4, 0.2, 0.1]
    events = detect(dumbbell_run, radii, EPS1)
    assert [ev.record_step for ev in events] == [0, 0, 0]
    assert built == [dumbbell_run.snapshots[0]]
    state = state_cls(dumbbell_run.snapshots[0])
    assert [ev.center for ev in events] == [tuple(concentration(state, r)[1]) for r in radii]


def test_detect_radii_on_one_snapshot_share_one_tree(dumbbell_run, tmp_path):
    write_run_dir(tmp_path, dumbbell_run, "")
    loaded = load_run_dir(tmp_path)
    built = []
    tree_cls = scipy.spatial.cKDTree
    with mock.patch("scipy.spatial.cKDTree", lambda pts: built.append(pts) or tree_cls(pts)):
        events = detect(loaded, [0.4, 0.2, 0.1], EPS1)
    assert [ev.source_step for ev in events] == [0, 0, 0]
    assert len(built) == 1 and built[0] is loaded.snapshots[0].vertices


def test_detect_centers_equal_in_memory_and_reloaded(dumbbell_run, tmp_path):
    # at eps1 = 26 the r = 0.4 event falls on a record between two
    # snapshots; its center is that of the earlier snapshot, the frame
    # rescale_frame zooms, in memory and after a reload alike
    write_run_dir(tmp_path, dumbbell_run, "")
    loaded = load_run_dir(tmp_path)
    radii = [0.4, 0.2, 0.1]
    in_memory = detect(dumbbell_run, radii, 26.0)
    reloaded = detect(loaded, radii, 26.0)
    assert all(ev.triggered for ev in in_memory)
    assert in_memory[0].record_step not in dumbbell_run.snapshots
    assert [ev.center for ev in in_memory] == [ev.center for ev in reloaded]
    for trajectory, events in ((dumbbell_run, in_memory), (loaded, reloaded)):
        for ev in events:
            snap = max(s for s in trajectory.snapshots if s <= ev.record_step)
            state = FlowState(trajectory.snapshots[snap])
            assert ev.center == tuple(concentration(state, ev.r)[1])


def test_rescale_frame_identity(sphere_run):
    rec = sphere_run.records[0]
    event = ConcentrationEvent(
        r=1.0, triggered=True, t=0.0, center=(0.0, 0.0, 0.0),
        eta_at_t=rec.eta[0], record_step=0, source_step=0,
    )
    frame = rescale_frame(sphere_run, event)
    assert np.array_equal(frame.mesh.vertices, sphere_run.snapshots[0].vertices)
    assert frame.space_factor == 1.0
    assert frame.time_factor == 1.0


def test_rescale_frame_dumbbell(dumbbell_run):
    ev = detect(dumbbell_run, [0.1], EPS1)[0]
    frame = rescale_frame(dumbbell_run, ev)
    assert frame.time_factor == frame.space_factor**4
    assert frame.unit_ball_curvature >= 0.9 * EPS1
    src = next(r for r in dumbbell_run.records if r.step == frame.event.source_step)
    assert abs(frame.tracefree_l2 - src.tracefree_l2) < 1e-10 * max(src.tracefree_l2, 1.0)
    rec = diagnostics(FlowState(frame.mesh))
    assert abs(rec.willmore - src.willmore) < 1e-10 * src.willmore
    assert abs(rec.sphericity - src.sphericity) < 1e-10
    assert rec.max_abs_A == pytest.approx(src.max_abs_A * ev.r, rel=1e-10)


def test_rescale_frame_values_are_its_diagnostics_record(dumbbell_run):
    for ev in detect(dumbbell_run, [0.4, 0.2, 0.1], EPS1):
        frame = rescale_frame(dumbbell_run, ev)
        rec = diagnostics(FlowState(frame.mesh))
        assert frame.tracefree_l2 == rec.tracefree_l2
        assert frame.residual_raw == math.sqrt(rec.lapH_l2)
        assert frame.residual_normalized == math.sqrt(rec.lapH_l2) * rec.area


def test_rescale_frame_runs_no_concentration(dumbbell_run, monkeypatch):
    ev = detect(dumbbell_run, [0.2], EPS1)[0]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return concentration(*args, **kwargs)

    monkeypatch.setattr(monitors, "concentration", counted)
    monkeypatch.setattr(blowup, "concentration", counted)
    rescale_frame(dumbbell_run, ev)
    assert calls == []


def test_rescale_frame_nonfinite_raises(sphere_run):
    # zoomed by 1/r = 1e300 the frame's areas overflow
    event = ConcentrationEvent(
        r=1e-300, triggered=True, t=0.0, center=(0.0, 0.0, 0.0),
        eta_at_t=0.0, record_step=0, source_step=0,
    )
    with np.errstate(all="ignore"), pytest.raises(NumericsError, match="non-finite"):
        rescale_frame(sphere_run, event)


def test_rescale_frame_requires_trigger(sphere_run):
    with pytest.raises(ValueError):
        rescale_frame(sphere_run, ConcentrationEvent(r=0.1, triggered=False))


def test_rescale_frame_requires_snapshot_source(dumbbell_run):
    ev = detect(dumbbell_run, [0.1], EPS1)[0]
    assert ev.source_step in dumbbell_run.snapshots
    missing = next(r.step for r in dumbbell_run.records if r.step not in dumbbell_run.snapshots)
    with pytest.raises(ValueError, match="not a snapshot"):
        rescale_frame(dumbbell_run, dataclasses.replace(ev, source_step=missing))


def test_rescale_frame_requires_a_snapshot_within_one_interval(sphere_run):
    event = ConcentrationEvent(
        r=1.0, triggered=True, t=0.0, center=(0.0, 0.0, 0.0),
        eta_at_t=0.0, record_step=sphere_run.config.snapshot_every + 1, source_step=0,
    )
    with pytest.raises(ValueError) as got:
        rescale_frame(sphere_run, event)
    assert str(got.value) == "no snapshot within one snapshot interval of the event"


def test_frame_metadata_roundtrip_values(dumbbell_run):
    ev = detect(dumbbell_run, [0.2], EPS1)[0]
    frame = rescale_frame(dumbbell_run, ev)
    text = frame_metadata_text(frame)
    fields = dict(
        line.split(" = ", 1) for line in text.strip().splitlines()
    )
    assert float(fields["r_j"]) == ev.r
    assert float(fields["space_factor"]) == frame.space_factor
    assert float(fields["time_factor"]) == frame.space_factor**4
    assert int(fields["source_step"]) == frame.event.source_step

"""Concentration-time detection and parabolic rescaling of snapshots.

A concentration event for radius r is the first record whose eta(r)
exceeds the threshold.  The frame around an event zooms space by 1/r and
time by 1/r^4 about the concentration center, the invariance group of the
fourth-order flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import FlowState, Trajectory
from .mesh import TriangleMesh, rescale
from .monitors import DiagnosticsRecord, concentration, diagnostics, stationarity_residual


@dataclass(frozen=True)
class ConcentrationEvent:
    r: float
    triggered: bool
    t: float | None = None
    center: tuple | None = None
    eta_at_t: float | None = None
    record_step: int | None = None


@dataclass(frozen=True)
class BlowupFrame:
    mesh: TriangleMesh
    space_factor: float
    time_origin: float
    time_factor: float
    source_step: int
    time_offset: float  # t_j minus the source snapshot time
    event: ConcentrationEvent
    diagnostics: DiagnosticsRecord
    residual_raw: float
    residual_normalized: float
    unit_ball_curvature: float  # integral of |A|^2 over the ball |x| <= 1


def _nearest_snapshot_at_or_before(trajectory: Trajectory, step: int):
    candidates = [s for s in trajectory.snapshots if s <= step]
    if not candidates:
        return None
    return max(candidates)


def detect(trajectory: Trajectory, radii_descending, eps1: float) -> list:
    """One event per radius: the first record with eta(r) > eps1, eta(r)
    at the index of r in the config's monitor_radii.  Its center is
    concentration's argmax center on the nearest snapshot at or before the
    record, the snapshot rescale_frame zooms, so a trajectory in memory
    and its reloaded run directory give the same center.  Events
    that share a snapshot share its FlowState and its PairSet dict, so
    their radii query one KD-tree; each radius queries its own pair set."""
    radii = [float(r) for r in radii_descending]
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    if not eps1 >= 0:
        raise ValueError("eps1 must be nonnegative")
    if not trajectory.records:
        raise ValueError("empty trajectory")
    monitored = trajectory.config.monitor_radii
    states = {}  # snapshot step -> (FlowState, PairSet dict), shared by the events
    events = []
    for r in radii:
        if r not in monitored:
            raise ValueError(f"radius {r} was not monitored by this run")
        column = monitored.index(r)
        event = ConcentrationEvent(r=r, triggered=False)
        for rec in trajectory.records:
            val = rec.eta[column]
            if val > eps1:
                snap = _nearest_snapshot_at_or_before(trajectory, rec.step)
                if snap is None:
                    raise ValueError("no snapshot at or before the event")
                if snap not in states:
                    states[snap] = (FlowState(trajectory.snapshots[snap]), {})
                state, pairs = states[snap]
                center = tuple(concentration(state, r, pairs=pairs)[1])
                event = ConcentrationEvent(
                    r=r,
                    triggered=True,
                    t=rec.t,
                    center=center,
                    eta_at_t=val,
                    record_step=rec.step,
                )
                break
        events.append(event)
    return events


def rescale_frame(trajectory: Trajectory, event: ConcentrationEvent) -> BlowupFrame:
    """Zoom the nearest snapshot at or before the event time about the
    concentration center; frame diagnostics (the record without eta, the
    stationarity residual, the curvature mass in the unit ball) are
    attached."""
    if not event.triggered:
        raise ValueError("cannot rescale an untriggered event")
    snap_step = _nearest_snapshot_at_or_before(trajectory, event.record_step)
    if snap_step is None:
        raise ValueError("no snapshot at or before the event")
    if trajectory.config is not None:
        if event.record_step - snap_step > trajectory.config.snapshot_every:
            raise ValueError("no snapshot within one snapshot interval of the event")
    snap_time = next(
        (rec.t for rec in trajectory.records if rec.step == snap_step), None
    )
    space_factor = 1.0 / event.r
    frame_mesh = rescale(
        trajectory.snapshots[snap_step], np.asarray(event.center), space_factor
    )
    state = FlowState(frame_mesh)
    rec = diagnostics(state)
    raw, normalized = stationarity_residual(state)
    inside = np.linalg.norm(frame_mesh.vertices, axis=1) <= 1.0
    ball = float(np.sum((state.curvature.A_sq * state.mass.m)[inside]))
    return BlowupFrame(
        mesh=frame_mesh,
        space_factor=space_factor,
        time_origin=event.t,
        time_factor=space_factor**4,
        source_step=snap_step,
        time_offset=event.t - snap_time,
        event=event,
        diagnostics=rec,
        residual_raw=raw,
        residual_normalized=normalized,
        unit_ball_curvature=ball,
    )


def frame_metadata_text(frame: BlowupFrame) -> str:
    """Sidecar metadata for a saved frame, one key = value per line."""
    e = frame.event
    cx, cy, cz = e.center
    lines = [
        f"r_j = {e.r!r}",
        f"t_j = {e.t!r}",
        f"x_j = {cx!r} {cy!r} {cz!r}",
        f"eta_at_t = {e.eta_at_t!r}",
        f"space_factor = {frame.space_factor!r}",
        f"time_factor = {frame.time_factor!r}",
        f"source_step = {frame.source_step}",
        f"time_offset = {frame.time_offset!r}",
        f"unit_ball_curvature = {frame.unit_ball_curvature!r}",
        f"tracefree_l2 = {frame.diagnostics.tracefree_l2!r}",
        f"residual_raw = {frame.residual_raw!r}",
        f"residual_normalized = {frame.residual_normalized!r}",
    ]
    return "\n".join(lines) + "\n"

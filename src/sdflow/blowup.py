"""Concentration-time detection and parabolic rescaling of snapshots.

A concentration event for radius r is the first record whose eta(r)
exceeds the threshold; it names its source snapshot, the last one at or
before that record.  The frame around an event zooms that snapshot, space
by 1/r and time by 1/r^4, about the concentration center, the invariance
group of the fourth-order flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import FlowState, Trajectory
from .mesh import TriangleMesh, _sq_norm, rescale
from .monitors import NumericsError, concentration, diagnostics


@dataclass(frozen=True)
class ConcentrationEvent:
    r: float
    triggered: bool
    t: float | None = None
    center: tuple | None = None
    eta_at_t: float | None = None
    record_step: int | None = None
    source_step: int | None = None  # the snapshot at or before record_step


@dataclass(frozen=True)
class BlowupFrame:
    mesh: TriangleMesh
    space_factor: float
    time_factor: float
    time_offset: float  # t_j minus the source snapshot time
    event: ConcentrationEvent
    tracefree_l2: float  # integral of |A^o|^2
    residual_raw: float  # sqrt of the integral of |lap H|^2
    residual_normalized: float  # residual_raw times the area, dimensionless
    unit_ball_curvature: float  # integral of |A|^2 over the ball |x| <= 1


def detect(trajectory: Trajectory, radii, eps1: float) -> list:
    """One event per radius, in descending radius order: the first record
    with eta(r) > eps1, eta(r) at the index of r in the config's
    monitor_radii.  The event's source_step is the last snapshot at or
    before that record, and its center is concentration's argmax center
    on that snapshot, the one rescale_frame zooms, so a trajectory in memory
    and its reloaded run directory give the same center.  Events that share
    a snapshot share its FlowState, so their radii query its one KD-tree;
    each radius queries its own pair set.  radii and eps1 are a checked
    RunConfig's values: distinct and nonnegative."""
    radii = sorted((float(r) for r in radii), reverse=True)
    monitored = trajectory.config.monitor_radii
    states = {}  # snapshot step -> FlowState, shared by the events
    events = []
    for r in radii:
        if r not in monitored:
            raise ValueError(f"radius {r} was not monitored by this run")
        column = monitored.index(r)
        event = ConcentrationEvent(r=r, triggered=False)
        for rec in trajectory.records:
            val = rec.eta[column]
            if val > eps1:
                snap = max((s for s in trajectory.snapshots if s <= rec.step), default=None)
                if snap is None:
                    raise ValueError("no snapshot at or before the event")
                if snap not in states:
                    states[snap] = FlowState(trajectory.snapshots[snap])
                center = tuple(concentration(states[snap], r)[1])
                event = ConcentrationEvent(
                    r=r,
                    triggered=True,
                    t=rec.t,
                    center=center,
                    eta_at_t=val,
                    record_step=rec.step,
                    source_step=snap,
                )
                break
        events.append(event)
    return events


def rescale_frame(trajectory: Trajectory, event: ConcentrationEvent) -> BlowupFrame:
    """Zoom the event's source snapshot about the concentration center, and
    attach its unit-ball curvature mass and its diagnostics record's tracefree
    energy and stationarity residual; NumericsError if one is not finite."""
    if not event.triggered:
        raise ValueError("cannot rescale an untriggered event")
    snap_step = event.source_step
    if snap_step not in trajectory.snapshots:
        raise ValueError(f"step {snap_step} is not a snapshot of this trajectory")
    if event.record_step - snap_step > trajectory.config.snapshot_every:
        raise ValueError("no snapshot within one snapshot interval of the event")
    snap_time = next((rec.t for rec in trajectory.records if rec.step == snap_step), None)
    if snap_time is None:
        raise ValueError(f"no diagnostics record for snapshot step {snap_step}")
    space_factor = 1.0 / event.r
    frame_mesh = rescale(
        trajectory.snapshots[snap_step], np.asarray(event.center), space_factor
    )
    nonfinite = f"non-finite blowup frame of step {snap_step}"
    with np.errstate(all="ignore"):  # a tiny r overflows: checked below
        state = FlowState(frame_mesh)
        try:
            record = diagnostics(state)
        except NumericsError as exc:
            raise NumericsError(nonfinite) from exc
        inside = np.sqrt(_sq_norm(frame_mesh.vertices.T)) <= 1.0
        ball = float(np.sum((state.curvature.A_sq * state.mass)[inside]))
    if not math.isfinite(ball):
        raise NumericsError(nonfinite)
    raw = math.sqrt(record.lapH_l2)
    return BlowupFrame(
        mesh=frame_mesh,
        space_factor=space_factor,
        time_factor=space_factor**4,
        time_offset=event.t - snap_time,
        event=event,
        tracefree_l2=record.tracefree_l2,
        residual_raw=raw,
        residual_normalized=raw * record.area,
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
        f"source_step = {e.source_step}",
        f"time_offset = {frame.time_offset!r}",
        f"unit_ball_curvature = {frame.unit_ball_curvature!r}",
        f"tracefree_l2 = {frame.tracefree_l2!r}",
        f"residual_raw = {frame.residual_raw!r}",
        f"residual_normalized = {frame.residual_normalized!r}",
    ]
    return "\n".join(lines) + "\n"

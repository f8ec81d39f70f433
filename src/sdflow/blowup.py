"""Concentration-time detection and parabolic rescaling of snapshots.

A concentration event for radius r is the first record whose eta(r)
exceeds the threshold; it names its source snapshot, the last one at or
before that record.  The frame around an event zooms that snapshot, space
by 1/r and time by 1/r^4, about the concentration center, the invariance
group of the fourth-order flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import FlowState, Trajectory
from .mesh import TriangleMesh, rescale
from .geometry import integrate
from .monitors import NumericsError, concentration, stationarity_residual


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
    residual_raw: float
    residual_normalized: float
    unit_ball_curvature: float  # integral of |A|^2 over the ball |x| <= 1


def detect(trajectory: Trajectory, radii, eps1: float) -> list:
    """One event per radius, in descending radius order: the first record
    with eta(r) > eps1, eta(r) at the index of r in the config's
    monitor_radii.  The event's source_step is the last snapshot at or
    before that record, and its center is concentration's argmax center
    on that snapshot, the one rescale_frame zooms, so a trajectory in memory
    and its reloaded run directory give the same center.  Events that share
    a snapshot share its FlowState, so their radii query its one KD-tree;
    each radius queries its own pair set."""
    radii = sorted((float(r) for r in radii), reverse=True)
    if len(set(radii)) != len(radii):
        raise ValueError("radii must be distinct")
    if not eps1 >= 0:
        raise ValueError("eps1 must be nonnegative")
    if not trajectory.records:
        raise ValueError("empty trajectory")
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
    """Zoom the event's source snapshot about the concentration center and
    attach its tracefree energy, stationarity residual and unit-ball
    curvature mass; NumericsError if one is not finite (a tiny r overflows)."""
    if not event.triggered:
        raise ValueError("cannot rescale an untriggered event")
    snap_step = event.source_step
    if snap_step not in trajectory.snapshots:
        raise ValueError(f"step {snap_step} is not a snapshot of this trajectory")
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
    with np.errstate(all="ignore"):  # a tiny r overflows: checked below
        state = FlowState(frame_mesh)
        tracefree = integrate(state.curvature.Ao_sq, state.mass)
        raw, normalized = stationarity_residual(state)
        inside = np.linalg.norm(frame_mesh.vertices, axis=1) <= 1.0
        ball = float(np.sum((state.curvature.A_sq * state.mass)[inside]))
    if not np.isfinite([tracefree, raw, normalized, ball]).all():
        raise NumericsError(f"non-finite blowup frame of step {snap_step}")
    return BlowupFrame(
        mesh=frame_mesh,
        space_factor=space_factor,
        time_factor=space_factor**4,
        time_offset=event.t - snap_time,
        event=event,
        tracefree_l2=tracefree,
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
        f"source_step = {e.source_step}",
        f"time_offset = {frame.time_offset!r}",
        f"unit_ball_curvature = {frame.unit_ball_curvature!r}",
        f"tracefree_l2 = {frame.tracefree_l2!r}",
        f"residual_raw = {frame.residual_raw!r}",
        f"residual_normalized = {frame.residual_normalized!r}",
    ]
    return "\n".join(lines) + "\n"

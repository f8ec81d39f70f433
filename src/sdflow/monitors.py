"""Per-step diagnostics and trajectory-level audits.

Everything the flow is supposed to conserve, dissipate, or keep scale
invariant is computed here, each state integral by diagnostics alone:
area, enclosed volume, Willmore energy (1/4) int H^2, tracefree energy
int |A^o|^2, the dissipation integrals int |grad H|^2 and int |lap H|^2
(the root of the last is the stationarity residual), concentration
eta(r), sphericity and the two 8*pi gates.  Each trajectory audit returns
the dict that `sdflow analyze --json` prints, audit_report collects
them, and summary.txt prints a line for each.  Every sum is a numpy
reduction, never a BLAS dot or LAPACK solve, whose kernels follow the CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .geometry import enclosed_volume, integrate
from .mesh import _sq_norm

EIGHT_PI = 8.0 * math.pi
# a PairSet is reused while no vertex has moved more than PAIR_SLACK * r
PAIR_SLACK = 1e-3
# _row_sums and _balls gather about this many row entries at once: on an s4
# icosphere at r = 1.9 every one of the 2562 balls is a candidate, and their
# rows hold 5.9 million entries
GATHER_CHUNK = 1 << 18
# fit_decay needs at least this many records in its window
FIT_MIN_SAMPLES = 10

AREA = "area"
TRACEFREE_L2 = "tracefree_l2"
WILLMORE = "willmore"
AREA_RATE = "area_rate"
TRACEFREE_RATE = "tracefree_rate"


class NumericsError(Exception):
    """A diagnostic went non-finite or a numerical safeguard tripped."""


@dataclass(frozen=True)
class DiagnosticsRecord:
    step: int
    t: float
    area: float
    volume: float
    willmore: float
    tracefree_l2: float
    gradH_l2: float
    lapH_l2: float
    max_abs_A: float
    h_min: float
    quality: float
    sphericity: float
    li_yau_ok: bool
    smallness_ok: bool
    eta: tuple  # eta(r) for each r of monitor.radii, in its order


# the record's float fields, which diagnostics checks for finiteness
_FLOAT_FIELDS = tuple(
    name for name, kind in get_type_hints(DiagnosticsRecord).items() if kind is float
)


@dataclass
class PairSet:
    """Every vertex pair within (r + 2 delta)(1 + 1e-9) of one another at
    the anchor positions, delta = PAIR_SLACK * r, as a symmetric neighbour
    CSR: row v, nbrs[indptr[v]:indptr[v + 1]], holds v itself and every
    vertex paired with v, strictly ascending.  While no vertex is farther
    than delta from its anchor, the triangle inequality puts every vertex
    now within r of v in row v.  `w0`, `bound` and `admitted` are the last
    exact row-sum pass of concentration over this set: its weights, its
    widened row sums and how many candidates they admitted (zeros until then)."""

    anchor: np.ndarray  # a mesh's read-only vertex array
    indptr: np.ndarray  # int32
    nbrs: np.ndarray  # int32
    w0: np.ndarray
    bound: np.ndarray
    admitted: int = 0


def _query_pair_set(pts, radius, tree):
    """The PairSet of the pairs within radius: one query_pairs, then one
    np.sort of a key v * n + u per entry, each pair both ways round and
    (v, v) for every v.  Row v is then the keys in [v * n, (v + 1) * n),
    ascending in u.  The keys are int32 while n * n fits, int64 above."""
    n = len(pts)
    ij = tree.query_pairs(radius, output_type="ndarray")
    m = len(ij)
    keys = np.empty(2 * m + n, np.int32 if n * n <= np.iinfo(np.int32).max else np.int64)
    for out, v, u in ((keys[:m], 0, 1), (keys[m : 2 * m], 1, 0)):
        np.multiply(ij[:, v], n, out=out)  # in place: no int64 copy of a column
        out += ij[:, u]
    del ij
    keys[2 * m :] = np.arange(n) * (n + 1)
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=keys.dtype) * n).astype(np.int32)
    keys %= n
    return PairSet(pts, indptr, keys.astype(np.int32, copy=False), np.zeros(n), np.zeros(n))


def _balls(pts, r, entry, centers):
    """Each center's ball |x_i - x_c| <= r as its sorted vertex indices:
    the center's PairSet row, kept where mesh._sq_norm(x_i - x_c) <= r*r.
    Rows are gathered in chunks of about GATHER_CHUNK entries, and each
    chunk yields (members, offsets): its k-th center's ball is
    members[offsets[k]:offsets[k + 1]]."""
    r2 = r * r
    centers = np.asarray(centers)
    starts = entry.indptr[centers]
    lens = entry.indptr[centers + 1] - starts
    step = max(1, GATHER_CHUNK // int(lens.max()))
    for s in range(0, len(centers), step):
        c, st, ln = centers[s : s + step], starts[s : s + step], lens[s : s + step]
        ends = np.cumsum(ln)
        members = entry.nbrs.take(np.repeat(st - (ends - ln), ln) + np.arange(ends[-1]))
        d = pts.take(members, axis=0) - np.repeat(pts.take(c, axis=0), ln, axis=0)
        inside = _sq_norm(d.T) <= r2
        yield members[inside], np.concatenate(([0], np.cumsum(inside)[ends - 1]))


def _ball_sums(w, balls):
    """np.sum of w over each of _balls' balls, in their order.  The balls
    of one length L are gathered as the rows of a C-contiguous (k, L)
    array, and numpy sums each row of it with the same pairwise sum as
    np.sum over that row alone."""
    sums = []
    for members, offsets in balls:
        wm = w.take(members)
        lens = np.diff(offsets)
        out = np.empty(len(lens))
        for length in np.unique(lens):
            (k,) = np.nonzero(lens == length)
            out[k] = np.sum(wm.take(offsets[k, None] + np.arange(length)), axis=1)
        sums.append(out)
    return np.concatenate(sums)


def _row_sums(w, entry):
    """Each PairSet row's sum of w, about GATHER_CHUNK entries at a time."""
    indptr, nbrs = entry.indptr, entry.nbrs
    n = len(indptr) - 1
    step = max(1, GATHER_CHUNK * n // len(nbrs))
    sums = np.empty(n)
    for a in range(0, n, step):
        b = min(a + step, n)
        sums[a:b] = np.add.reduceat(w.take(nbrs[indptr[a] : indptr[b]]), indptr[a:b] - indptr[a])
    return sums


def concentration(state, r: float, pairs: dict | None = None):
    """eta(r): the largest curvature mass sum_{|x_i - x| <= r} |A|^2_i m_i
    over balls centered at vertex positions.  Returns (eta, center), the
    center being the lowest-index vertex whose ball attains eta.

    A ball's sum is np.sum over its sorted member indices, and only the
    balls that can win are summed, so eta and the center are bit for bit
    those of a loop over every ball.  A PairSet holding every pair within
    r gives an upper bound U_i on every ball, the sum over its row (the
    weights are >= 0, and extra pairs only add terms).  Summing k
    nonnegative terms in any order errs by at most gamma_k = k u / (1 - k u)
    times the sum (u = eps / 2), so a ball with B_i = U_i (1 + Gamma) < S_a
    cannot reach the maximum, for S_a the exact sum at argmax B and
    Gamma = 4 (n + 1) eps, n the vertex count, which bounds every ball.

    The PairSet keeps the weights w0 and the bounds B0 of its last exact
    row-sum pass, zeros before the first.  A call with weights w bounds
    ball i by B_i = (B0_i + len_i g) (1 + Gamma), len_i the row length and
    g = max(0, max_j (w_j - w0_j)) the largest weight increase: a row of
    len_i nonnegative terms gains at most len_i g, and the second
    (1 + Gamma) covers the rounding of g and of each operation.  The row
    sums run again only when B admits more candidates than that pass did,
    which a new PairSet's B always does: it admits argmax B, against 0.

    The candidates' balls are read from their rows (see _balls), summed
    exactly in ascending vertex order (see _ball_sums), and the first
    maximum wins.  A non-finite weight gives a non-finite eta.

    `pairs` is a dict of PairSets keyed by radius that the caller keeps
    across states; flow.run holds one per run, so an explicit step, which
    moves a vertex far less than PAIR_SLACK * r, reuses the last query and
    its bounds.  Without it every call queries afresh.  The PairSet for r
    is queried again from state.tree, which the radii share, when pairs
    holds none, a vertex has moved more than PAIR_SLACK * r, or the vertex
    count changed.
    """
    if not r > 0:
        raise ValueError("radius must be positive")
    pts = state.mesh.vertices
    w = state.curvature.A_sq * state.mass
    if not np.isfinite(w).all():
        return math.nan, pts[0].copy()
    # a ball at any vertex covers the whole mesh once r reaches the
    # bounding-box diagonal; the sum then equals integrate(|A|^2) bit for bit
    if r >= float(np.sqrt(_sq_norm(pts.max(axis=0) - pts.min(axis=0)))):
        return float(np.sum(w)), pts[0].copy()
    pairs = {} if pairs is None else pairs
    delta = PAIR_SLACK * r
    entry = pairs.get(r)
    if (
        entry is None
        or entry.anchor.shape != pts.shape
        or np.sqrt(_sq_norm((pts - entry.anchor).T)).max() > delta
    ):
        entry = pairs[r] = _query_pair_set(pts, (r + 2.0 * delta) * (1.0 + 1e-9), state.tree)
    gamma = 4 * (len(pts) + 1) * np.finfo(float).eps

    def ball_sums(centers):
        # sorted ball indices keep sums permutation-stable, so a covering
        # ball reproduces integrate(|A|^2) bit for bit
        return _ball_sums(w, _balls(pts, r, entry, centers))

    def admitted(bound):
        (s_a,) = ball_sums([np.argmax(bound)])
        return np.flatnonzero(bound >= s_a)

    rise = max(0.0, float(np.max(w - entry.w0)))
    candidates = admitted((entry.bound + np.diff(entry.indptr) * rise) * (1.0 + gamma))
    if len(candidates) > entry.admitted:
        entry.w0, entry.bound = w, _row_sums(w, entry) * (1.0 + gamma)
        candidates = admitted(entry.bound)
        entry.admitted = len(candidates)
    sums = ball_sums(candidates)
    best = int(np.argmax(sums))
    return float(sums[best]), pts[candidates[best]].copy()


def diagnostics(state, radii=(), pairs: dict | None = None) -> DiagnosticsRecord:
    """Assemble one record from a flow state; raises NumericsError on any
    non-finite value so a run aborts at the offending step.  eta holds one
    concentration value per radius in `radii`, in its order; `pairs` is the
    caller's PairSet cache (a dict keyed by radius), which those calls fill
    and reuse."""
    mass, curv = state.mass, state.curvature
    area = state.geometry.total_area
    volume = enclosed_volume(state.geometry)
    if area <= 0 or volume <= 0:  # sphericity needs both positive
        raise NumericsError(f"area or volume not positive at step {state.step}")
    willmore = 0.25 * integrate(curv.H**2, mass)
    tracefree = integrate(curv.Ao_sq, mass)
    record = DiagnosticsRecord(
        step=state.step,
        t=state.t,
        area=area,
        volume=volume,
        willmore=willmore,
        tracefree_l2=tracefree,
        gradH_l2=float(np.sum(curv.H * (state.lap @ curv.H))),
        lapH_l2=integrate(curv.lapH**2, mass),
        max_abs_A=float(np.sqrt(curv.A_sq.max())),
        h_min=state.geometry.h_min,
        quality=state.geometry.quality,
        sphericity=float((36.0 * math.pi) ** (1.0 / 3.0) * volume ** (2.0 / 3.0) / area),
        li_yau_ok=bool(willmore < EIGHT_PI),
        smallness_ok=bool(tracefree < EIGHT_PI),
        eta=tuple(concentration(state, float(r), pairs=pairs)[0] for r in radii),
    )
    values = [getattr(record, name) for name in _FLOAT_FIELDS] + list(record.eta)
    if not np.isfinite(values).all():
        raise NumericsError(f"non-finite diagnostic at step {state.step}")
    return record


def _slack(before: DiagnosticsRecord, after: DiagnosticsRecord, value: float) -> float:
    dt = after.t - before.t
    return 1e-8 * abs(value) + dt * dt * before.lapH_l2


def audit_monotone(records, quantity: str) -> dict:
    """Count the steps where the quantity rose by more than _slack or a nan
    leaves that undecided: {passed, violations, max_violation (the largest
    excess, nan if one is)}, and first_violating_step when there is one."""
    records = list(records)
    if len(records) < 2:
        raise ValueError("need at least two records")
    if quantity not in (AREA, TRACEFREE_L2, WILLMORE):
        raise ValueError(f"unknown audit quantity: {quantity}")
    steps, excesses = [], []
    for before, after in zip(records, records[1:]):
        q0 = getattr(before, quantity)
        excess = getattr(after, quantity) - q0 - _slack(before, after, q0)
        if not excess <= 0:
            steps.append(after.step)
            excesses.append(excess)
    max_violation = float(np.max(excesses, initial=0.0))
    audit = {"passed": not steps, "violations": len(steps), "max_violation": max_violation}
    if steps:
        audit["first_violating_step"] = steps[0]
    return audit


_RATE_FLOOR = 1e-10
_NO_SAMPLE = "no step above the vacuity floor"


def _rate_steps(records, quantity: str, integral: str, weight: float, floor):
    """Each step between consecutive records that is not vacuous, as (rate,
    integral, floor rate): the rate (q_after - q_before) / dt of `quantity`,
    the `integral` field at the earlier record, and the vacuity floor,
    floor(earlier record), over dt.  A step is vacuous when neither
    |rate| dt nor weight * integral * dt reaches the floor (stationary
    states are all noise)."""
    for before, after in zip(records, records[1:]):
        dt = after.t - before.t
        rate = (getattr(after, quantity) - getattr(before, quantity)) / dt
        rhs = getattr(before, integral)
        step_floor = floor(before)
        if abs(rate) * dt < step_floor and weight * rhs * dt < step_floor:
            continue
        yield rate, rhs, step_floor / dt


def _require_increasing_times(dts) -> None:
    """The rule of every rate and fit over records: the steps between their
    times must all be positive."""
    if not (dts > 0).all():
        raise ValueError("record times must increase")


def audit_dissipation(records, which: str) -> dict:
    """AREA_RATE checks dArea/dt against -int |grad H|^2: {passed,
    median_rel_error, samples}.  TRACEFREE_RATE checks dE/dt <= -(1/8)
    int |lap H|^2: {passed, violations, best_constant, samples}: the steps
    that break the bound or that a nan leaves undecided, and the largest
    number c with dE/dt <= -c int |lap H|^2 (nan if none).  samples counts
    the steps that were not vacuous; a window without one has no evidence
    and is refused.  Record times must increase, comparably."""
    records = list(records)
    if len(records) < 10:
        raise ValueError("need a window of at least 10 records")
    # rate estimates need comparable step sizes; CFL steps drift by a few
    # percent over a run, so reject only materially mixed windows
    dts = np.diff([r.t for r in records])
    if dts.max() - dts.min() > 0.25 * dts.max():
        raise ValueError("nonuniform dt window")
    _require_increasing_times(dts)
    if which == AREA_RATE:
        steps = _rate_steps(records, AREA, "gradH_l2", 1.0, lambda r: _RATE_FLOOR * r.area)
        errs = [abs(rate + rhs) / max(rhs, _RATE_FLOOR) for rate, rhs, _ in steps]
        if not errs:
            raise ValueError(_NO_SAMPLE)
        med = float(np.median(errs))
        return {"passed": med < 0.15, "median_rel_error": med, "samples": len(errs)}
    if which == TRACEFREE_RATE:
        floor = _RATE_FLOOR * max(records[0].tracefree_l2, 1.0)
        steps = list(_rate_steps(records, TRACEFREE_L2, "lapH_l2", 0.125, lambda r: floor))
        if not steps:
            raise ValueError(_NO_SAMPLE)
        violations = sum(not rate <= -0.125 * rhs + floor_rate for rate, rhs, floor_rate in steps)
        constants = [-rate / max(rhs, _RATE_FLOOR) for rate, rhs, _ in steps]
        best = np.fmin.reduce(constants, initial=math.inf)  # fmin skips a nan
        return {
            "passed": violations == 0,
            "violations": violations,
            "best_constant": float(best) if math.isfinite(best) else math.nan,
            "samples": len(steps),
        }
    raise ValueError(f"unknown dissipation audit: {which}")


def fit_decay(records, window=None) -> dict:
    """Least-squares line through ln(tracefree_l2) vs t on the tail window,
    in closed form from np.sums over the centred t and ln E: {lambda (minus
    half the slope), r_squared, samples, t0, t1 (the first and last times)}.

    window=None starts where the energy first falls below half its initial
    value (post-transient tail) and ends where it last exceeds 1/32 of the
    initial value, keeping the fit above the discrete floor; both bounds are
    relative, so the window commutes with parabolic rescaling.  Pass an
    explicit (t0, t1) to override.  The window's record times must
    increase.
    """
    records = list(records)
    ts = np.array([r.t for r in records])
    es = np.array([r.tracefree_l2 for r in records])
    if window is None:
        below = np.nonzero(es < 0.5 * es[0])[0]
        if len(below) == 0:
            raise ValueError("no post-transient tail: energy never halved")
        above = np.nonzero(es > es[0] / 32.0)[0]
        if len(above) == 0:
            raise ValueError("initial energy not positive and finite")
        sel = slice(below[0], above[-1] + 1)
    else:
        sel = np.nonzero((ts >= window[0]) & (ts <= window[1]))[0]
        if len(sel) == 0:
            raise ValueError("empty fit window")
        sel = slice(sel[0], sel[-1] + 1)
    ts, es = ts[sel], es[sel]
    if len(ts) < FIT_MIN_SAMPLES:
        raise ValueError(f"need at least {FIT_MIN_SAMPLES} samples in the window")
    if not (np.isfinite(es).all() and (es > 0).all()):
        raise ValueError("energy not positive and finite in fit window")
    _require_increasing_times(np.diff(ts))
    tc, yc = (v - v.mean() for v in (ts, np.log(es)))
    slope = float(np.sum(tc * yc)) / float(np.sum(tc * tc))
    ss_res, ss_tot = float(np.sum((yc - slope * tc) ** 2)), float(np.sum(yc * yc))
    return {
        "lambda": -slope / 2.0,
        "r_squared": 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot,
        "samples": len(ts),
        "t0": float(ts[0]),
        "t1": float(ts[-1]),
    }


def audit_report(records, window=None) -> dict:
    """Every trajectory audit in one dict, the layout `sdflow analyze --json`
    prints: audit_monotone of area, tracefree and Willmore energy, both
    audit_dissipation checks on records[10:] (past the start-up
    transient), and fit_decay over `window`, each entry the audit's own
    return value.  An audit these records cannot support is
    {"unavailable": reason}."""
    records = list(records)

    def attempt(audit, *args):
        try:
            return audit(*args)
        except ValueError as exc:
            return {"unavailable": str(exc)}

    return {
        "monotonicity": {
            q: attempt(audit_monotone, records, q) for q in (AREA, TRACEFREE_L2, WILLMORE)
        },
        "dissipation": {
            w: attempt(audit_dissipation, records[10:], w) for w in (AREA_RATE, TRACEFREE_RATE)
        },
        "decay_fit": attempt(fit_decay, records, window),
    }

import collections
import contextlib
import functools
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.spatial
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.spatial import cKDTree

from sdflow import monitors
from sdflow.flow import CFL, EXPLICIT, SEMI_IMPLICIT, FlowState, SolverConfig, run, step_explicit
from sdflow.generators import (
    make_dumbbell,
    make_ellipsoid,
    make_icosphere,
    make_perturbed_sphere,
    make_torus,
)
from sdflow.mesh import rescale
from sdflow.monitors import (
    AREA,
    AREA_RATE,
    EIGHT_PI,
    PAIR_SLACK,
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
    assert rec.eta[0] == pytest.approx(8 * math.pi, rel=0.03)


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
    w = state.curvature.A_sq * state.mass
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


def assert_concentration_bitwise(state, r, pairs=None):
    eta, center = concentration(state, r, pairs=pairs)
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


@contextlib.contextmanager
def counting_tree_queries():
    """Patch scipy.spatial.cKDTree with a subclass that counts its constructions
    ("tree") and its query_pairs and query_ball_point calls, and
    monitors._row_sums, to count concentration's exact row-sum passes
    ("row_sums"); yields the Counter."""
    count = collections.Counter()
    row_sums = monitors._row_sums

    def counting_row_sums(*args):
        count["row_sums"] += 1
        return row_sums(*args)

    class CountingTree(cKDTree):
        def __init__(self, *args, **kwargs):
            count["tree"] += 1
            super().__init__(*args, **kwargs)

        def query_pairs(self, *args, **kwargs):
            count["query_pairs"] += 1
            return super().query_pairs(*args, **kwargs)

        def query_ball_point(self, *args, **kwargs):
            count["query_ball_point"] += 1
            return super().query_ball_point(*args, **kwargs)

    with (
        mock.patch("scipy.spatial.cKDTree", CountingTree),
        mock.patch.object(monitors, "_row_sums", counting_row_sums),
    ):
        yield count


def grid_sphere():
    """A perturbed s3 sphere on a 2^-30 grid, so that moving a vertex along
    an axis by a multiple of 2^-21 moves it by exactly that amount."""
    mesh = make_perturbed_sphere(1.0, [(2, 0, 0.1), (3, 1, 0.1)], seed=3, subdivisions=3)
    return mesh.with_vertices(np.round(mesh.vertices * 2.0**30) / 2.0**30)


def pair_set(pts, r):
    return set(map(tuple, cKDTree(pts).query_pairs(r, output_type="ndarray").tolist()))


def csr_entries(entry):
    """The (row, neighbour) index arrays of a PairSet's CSR."""
    rows = np.repeat(np.arange(len(entry.indptr) - 1), np.diff(entry.indptr))
    return rows, entry.nbrs


def assert_pair_set_invariants(entry):
    rows, nbrs = csr_entries(entry)
    n = len(entry.indptr) - 1
    assert nbrs.dtype == np.int32
    assert entry.indptr[0] == 0 and entry.indptr[-1] == len(nbrs)
    # strictly ascending within each row
    same_row = rows[1:] == rows[:-1]
    assert (nbrs[1:][same_row] > nbrs[:-1][same_row]).all()
    # each row holds its own vertex once
    assert np.array_equal(np.bincount(rows[rows == nbrs], minlength=n), np.ones(n, int))
    # symmetric: the transposed entries, sorted by row then column, are the
    # entries themselves
    order = np.lexsort((rows, nbrs))
    assert np.array_equal(nbrs[order], rows) and np.array_equal(rows[order], nbrs)


def csr_pair_set(entry):
    """The pairs (a, b), a < b, of a PairSet's CSR."""
    assert_pair_set_invariants(entry)
    rows, nbrs = csr_entries(entry)
    upper = rows < nbrs
    return set(zip(rows[upper].tolist(), nbrs[upper].tolist()))


@settings(max_examples=20, deadline=None)
@given(st.integers(10, 13), st.integers(0, 256), st.integers(0, 2**32 - 1))
@example(10, 256, 0)
@example(13, 256, 1)
def test_cached_pairs_within_slack_match_reference_bitwise(k, m, seed):
    # r = 1000 * 2^-k makes delta = PAIR_SLACK * r exactly 2^-k; every vertex
    # moves along one axis by at most m/256 delta, one vertex by exactly that
    r = 1000.0 * 2.0**-k
    delta = PAIR_SLACK * r
    assert delta == 2.0**-k
    mesh = grid_sphere()
    n = mesh.num_vertices
    rng = np.random.default_rng(seed)
    steps = rng.integers(0, m + 1, n)
    steps[rng.integers(n)] = m
    disp = np.zeros((n, 3))
    disp[np.arange(n), rng.integers(0, 3, n)] = rng.choice([-1.0, 1.0], n) * steps / 256 * delta
    moved = FlowState(mesh.with_vertices(mesh.vertices + disp))
    shift = np.sqrt(np.sum((moved.mesh.vertices - mesh.vertices) ** 2, axis=1))
    assert shift.max() == m / 256 * delta
    pairs = {}
    with counting_tree_queries() as count:
        assert_concentration_bitwise(FlowState(mesh), r, pairs)
        entry = pairs[r]
        assert_concentration_bitwise(moved, r, pairs)
    assert count["query_pairs"] == 1
    assert pairs[r] is entry
    assert pair_set(moved.mesh.vertices, r) <= csr_pair_set(entry)


def test_cached_pairs_hold_a_pair_moved_together_by_the_slack():
    # two vertices just outside r + delta at the anchor, each moved toward
    # the other by nearly delta, end up within r
    r = 1000.0 * 2.0**-11
    delta = PAIR_SLACK * r
    mesh = grid_sphere()
    pts = mesh.vertices
    a, b = next(
        (a, b)
        for a, b in sorted(pair_set(pts, r + 1.9 * delta) - pair_set(pts, r + 1.5 * delta))
    )
    u = (pts[b] - pts[a]) / np.linalg.norm(pts[b] - pts[a])
    disp = np.zeros_like(pts)
    disp[a], disp[b] = 0.999 * delta * u, -0.999 * delta * u
    moved = FlowState(mesh.with_vertices(pts + disp))
    assert np.linalg.norm(moved.mesh.vertices[b] - moved.mesh.vertices[a]) <= r
    pairs = {}
    with counting_tree_queries() as count:
        assert_concentration_bitwise(FlowState(mesh), r, pairs)
        assert_concentration_bitwise(moved, r, pairs)
    assert count["query_pairs"] == 1
    assert (a, b) in csr_pair_set(pairs[r])


@pytest.mark.parametrize(
    "mesh_fn,radii",
    [
        pytest.param(lambda: make_dumbbell(1.0, 0.15, 2.0), (0.4, 0.2, 0.1), id="dumbbell"),
        pytest.param(
            lambda: make_perturbed_sphere(1.0, [(2, 0, 0.1), (3, 1, 0.1)], subdivisions=4),
            (0.4,),
            id="perturbed_sphere_s4",
        ),
        pytest.param(
            lambda: make_ellipsoid(1.0, 0.7, 0.4, subdivisions=3), (0.4,), id="ellipsoid"
        ),
        # every center has a pair at distance r to within 1e-9 r^2
        pytest.param(lambda: make_torus(1.0, 0.4), (0.4,), id="torus"),
    ],
)
def test_pair_set_balls_equal_query_ball_point(mesh_fn, radii):
    mesh = mesh_fn()
    pts = mesh.vertices
    ref_tree = cKDTree(pts)
    for r in radii:
        with counting_tree_queries() as count:
            pairs = {}
            concentration(FlowState(mesh), r, pairs)
            entry = pairs[r]
            assert_pair_set_invariants(entry)
            balls = [
                members[offsets[k] : offsets[k + 1]]
                for members, offsets in monitors._balls(pts, r, entry, np.arange(len(pts)))
                for k in range(len(offsets) - 1)
            ]
        assert count["query_ball_point"] == 0, r
        ref = ref_tree.query_ball_point(pts, r, return_sorted=True)
        assert len(balls) == len(ref)
        for v, (got, want) in enumerate(zip(balls, ref)):
            assert np.array_equal(got, want), (r, v)


@pytest.mark.parametrize("length", [1, 7, 9, 127, 129, 8191, 8192, 8193, 20000])
def test_ball_sums_equal_per_ball_np_sum_bitwise(length):
    # numpy's pairwise sum unrolls by 8, splits blocks of 128 and buffers
    # 8192 elements; the (k, L) row sums must match a 1-D np.sum at each
    rng = np.random.default_rng(length)
    w = rng.random(2 * length + 10) ** 8
    lens = np.array([length, 3, length, 1, length])
    members = rng.integers(0, len(w), lens.sum()).astype(np.int32)
    offsets = np.concatenate(([0], np.cumsum(lens)))
    got = monitors._ball_sums(w, [(members, offsets)])
    want = [np.sum(w[members[a:b]]) for a, b in zip(offsets, offsets[1:])]
    assert np.array_equal(got, want)


def weighted_state(pts, w):
    """A stand-in for a FlowState with vertex weights w: concentration
    reads only mesh.vertices, curvature.A_sq, mass and tree."""
    return SimpleNamespace(
        mesh=SimpleNamespace(vertices=pts),
        curvature=SimpleNamespace(A_sq=w),
        mass=np.ones(len(w)),
        tree=scipy.spatial.cKDTree(pts),
    )


@functools.cache
def dumbbell_weights():
    state = default_dumbbell()
    return state.mesh.vertices, state.curvature.A_sq * state.mass


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from([0.4, 0.2, 0.1]),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.5),
    st.none() | st.integers(0, 4609),
    st.floats(0.0, 60.0),
)
# vertex 0 is a bulb pole, far from the 96 tied neck candidates at r = 0.4;
# raising its weight to 50 makes its ball the new winner
@example(0.4, 0, 0.0, 0.0, 0.0, 0, 50.0)
def test_carried_bound_matches_reference_bitwise(r, seed, down, up, zeros, spike, spike_size):
    # the positions stay put, so the second call reuses the PairSet and
    # its carried bounds; its weights rise, fall and vanish
    pts, base = dumbbell_weights()
    rng = np.random.default_rng(seed)

    def redraw(w):
        w = w * rng.uniform(1.0 - down, 1.0 + up, len(w))
        w[rng.random(len(w)) < zeros] = 0.0
        return w

    first = redraw(base)
    second = redraw(first)
    if spike is not None:
        second[spike] += spike_size
    pairs = {}
    with counting_tree_queries() as count:
        assert_concentration_bitwise(weighted_state(pts, first), r, pairs)
        entry = pairs[r]
        assert_concentration_bitwise(weighted_state(pts, second), r, pairs)
    assert count["query_pairs"] == 1 and pairs[r] is entry
    assert count["row_sums"] in (1, 2)


@pytest.mark.parametrize(
    "mesh_fn,radii",
    [
        pytest.param(lambda: make_dumbbell(1.0, 0.15, 2.0), (0.4, 0.2, 0.1), id="dumbbell"),
        pytest.param(lambda: make_icosphere(1.0, 3), (0.4,), id="icosphere_s3"),
    ],
)
def test_pair_set_csr_equals_public_scipy_build(mesh_fn, radii):
    # _query_pair_set calls scipy's private sparsetools routines; the public
    # COO -> CSR build of the same symmetric pattern must give its arrays
    pts = mesh_fn().vertices
    n = len(pts)
    tree = cKDTree(pts)
    for r in radii:
        entry = monitors._query_pair_set(pts, r, tree)
        ij = tree.query_pairs(r, output_type="ndarray")
        rows = np.concatenate([ij[:, 0], ij[:, 1], np.arange(n)])
        cols = np.concatenate([ij[:, 1], ij[:, 0], np.arange(n)])
        ref = sparse.csr_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        ref.sort_indices()
        assert np.array_equal(entry.indptr, ref.indptr), r
        assert np.array_equal(entry.nbrs, ref.indices), r


def test_cached_pairs_requery_past_the_slack_or_on_a_new_vertex_count():
    r = 1000.0 * 2.0**-11
    delta = PAIR_SLACK * r
    mesh = grid_sphere()
    disp = np.zeros_like(mesh.vertices)
    disp[17, 0] = delta + 2.0**-30  # just past the slack
    moved = FlowState(mesh.with_vertices(mesh.vertices + disp))
    coarse = FlowState(make_perturbed_sphere(1.0, [(2, 0, 0.1)], subdivisions=2))
    pairs = {}
    with counting_tree_queries() as count:
        assert_concentration_bitwise(FlowState(mesh), r, pairs)
        assert_concentration_bitwise(moved, r, pairs)
        assert count["query_pairs"] == 2
        assert pairs[r].anchor is moved.mesh.vertices
        assert_concentration_bitwise(coarse, r, pairs)  # another vertex count
        assert count["query_pairs"] == 3
        assert_concentration_bitwise(moved, r, pairs)
        assert count["query_pairs"] == 4


def run_with_every_snapshot(mesh, config):
    """A run with a snapshot per step, and its KD-tree query counts."""
    with counting_tree_queries() as count:
        traj = run(mesh, config)
    assert sorted(traj.snapshots) == [rec.step for rec in traj.records]
    return traj, count


def assert_records_match_uncached(traj, radii):
    for rec in traj.records:
        state = FlowState(traj.snapshots[rec.step], t=rec.t, step=rec.step)
        assert rec == diagnostics(state, radii), rec.step


def test_run_cached_pairs_explicit_dumbbell_query_once_per_radius():
    radii = (0.4, 0.2, 0.1)
    config = SolverConfig(
        scheme=EXPLICIT,
        dt_policy=CFL,
        cfl_sigma=0.005,
        max_steps=8,
        snapshot_every=1,
        monitor_radii=radii,
    )
    traj, queries = run_with_every_snapshot(make_dumbbell(1.0, 0.15, 2.0), config)
    assert len(traj.records) == 9
    assert queries["query_pairs"] == len(radii)
    # the radii share the first record's KD-tree, and every candidate ball
    # is read from the cached pair sets
    assert queries["tree"] == 1
    assert queries["query_ball_point"] == 0
    # the later records bound the balls from the first record's row sums
    assert queries["row_sums"] == len(radii)
    assert_records_match_uncached(traj, radii)


def test_run_cached_pairs_semi_implicit_dumbbell_requeries():
    radii = (0.4, 0.2, 0.1)
    config = SolverConfig(
        scheme=SEMI_IMPLICIT,
        dt_policy=CFL,
        cfl_sigma=0.1,
        max_steps=3,
        snapshot_every=1,
        monitor_radii=radii,
    )
    traj, queries = run_with_every_snapshot(make_dumbbell(1.0, 0.15, 2.0), config)
    assert len(traj.records) == 4
    meshes = [traj.snapshots[rec.step].vertices for rec in traj.records]
    moves = [np.sqrt(np.sum((b - a) ** 2, axis=1)).max() for a, b in zip(meshes, meshes[1:])]
    assert min(moves) > PAIR_SLACK * max(radii)
    assert queries["query_pairs"] == len(radii) * len(traj.records)
    assert queries["tree"] == len(traj.records)
    assert queries["row_sums"] == len(radii) * len(traj.records)
    assert_records_match_uncached(traj, radii)


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
    assert audit["passed"] and not audit["violations"]


def test_audit_monotone_reversed_fails_everywhere():
    ts = np.linspace(0.0, 1.0, 30)
    recs = synthetic_records(ts, areas=(10.0 * np.exp(-ts))[::-1])
    audit = audit_monotone(recs, AREA)
    assert not audit["passed"]
    assert audit["violations"] == len(recs) - 1
    assert audit["max_violation"] > 0


def test_audit_monotone_on_stationary_run(sphere_run):
    for quantity in (AREA, TRACEFREE_L2, WILLMORE):
        assert audit_monotone(sphere_run.records, quantity)["passed"]


def test_audit_monotone_headline(headline_run):
    assert audit_monotone(headline_run.records, AREA)["passed"]
    assert audit_monotone(headline_run.records, TRACEFREE_L2)["passed"]


def test_audit_monotone_fat_dumbbell_explicit():
    from sdflow.flow import CFL, EXPLICIT, SolverConfig, run

    cfg = SolverConfig(
        scheme=EXPLICIT, dt_policy=CFL, cfl_sigma=0.005, t_end=1.0,
        max_steps=50, snapshot_every=100,
    )
    traj = run(make_dumbbell(1.0, 0.5, 1.0, n_phi=16, n_rings=24), cfg)
    assert audit_monotone(traj.records, AREA)["passed"]


def test_audit_dissipation_headline(headline_run):
    recs = headline_run.records[10:]
    area_rep = audit_dissipation(recs, AREA_RATE)
    assert area_rep["passed"]
    assert area_rep["median_rel_error"] < 0.15
    trace_rep = audit_dissipation(recs, TRACEFREE_RATE)
    assert trace_rep["passed"]
    assert trace_rep["best_constant"] > 0.125


def test_audit_dissipation_halved_dt_not_worse(headline_run, headline_run_half_dt):
    full = audit_dissipation(headline_run.records[10:], AREA_RATE)
    half = audit_dissipation(headline_run_half_dt.records[10:], AREA_RATE)
    assert half["median_rel_error"] <= full["median_rel_error"] + 1e-12


def test_audit_dissipation_sphere_vacuous(sphere_run):
    rep = audit_dissipation(sphere_run.records[10:], AREA_RATE)
    assert rep["passed"]
    rep2 = audit_dissipation(sphere_run.records[10:], TRACEFREE_RATE)
    assert rep2["passed"] and rep2["violations"] == 0


def test_audit_dissipation_rejects_mixed_dt():
    ts = np.concatenate([np.linspace(0, 1, 10), 1.0 + 2.0 * np.arange(1, 8)])
    recs = synthetic_records(ts)
    with pytest.raises(ValueError, match="nonuniform"):
        audit_dissipation(recs, AREA_RATE)


def test_fit_decay_exact_exponential():
    ts = np.linspace(0.0, 10.0, 200)
    recs = synthetic_records(ts, tracefree=np.exp(-2 * 0.7 * ts))
    fit = fit_decay(recs)
    assert fit["lambda"] == pytest.approx(0.7, abs=1e-6)
    assert fit["r_squared"] > 1 - 1e-9
    assert fit["samples"] >= 10


def test_fit_decay_window_override():
    ts = np.linspace(0.0, 10.0, 200)
    recs = synthetic_records(ts, tracefree=np.exp(-2 * 1.3 * ts))
    fit = fit_decay(recs, window=(2.0, 5.0))
    assert fit["lambda"] == pytest.approx(1.3, abs=1e-6)
    assert fit["t0"] >= 2.0 and fit["t1"] <= 5.0


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
    assert fit["lambda"] > 0
    assert fit["r_squared"] > 0.95


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

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RETIRED_KEYS
from sdflow.flow import FlowState, correct_volume, run
from sdflow.geometry import enclosed_volume
from sdflow.mesh import TriangleMesh, face_geometry, loads_off, rescale, save_off
from sdflow.monitors import DiagnosticsRecord
from sdflow.runio import (
    _KEY_TABLE,
    ConfigError,
    RunConfig,
    config_to_text,
    csv_header,
    load_run_dir,
    load_run_records,
    parse_config,
    read_diagnostics_csv,
    write_diagnostics_csv,
    write_run_dir,
)


def test_config_roundtrip_default():
    cfg = RunConfig()
    assert parse_config(config_to_text(cfg)) == cfg


def test_config_roundtrip_custom():
    cfg = RunConfig(
        kind="perturbed_sphere",
        radius=1.25,
        subdiv=3,
        modes=((2, 0, 0.1), (3, -1, 0.017)),
        seed=42,
        scheme="explicit",
        dt_policy="fixed",
        dt=1.2345678901234567e-7,
        t_end=0.375,
        volume_correction=True,
        monitor_radii=(0.4, 0.2),
        eps1=0.01,
        out_dir="some/dir",
    )
    assert parse_config(config_to_text(cfg)) == cfg


def test_config_with_numpy_scalars_reads_back():
    floats = dict(
        radius=1.0, rx=1.5, ry=0.75, rz=2.0, bulb_radius=1.1, neck_radius=0.2,
        neck_length=1.7, dt=1e-3, cfl_sigma=0.05, t_end=0.5, eps1=0.01,
    )
    modes = ((2, 0, 0.1), (3, -1, 0.017))
    cfg = RunConfig(
        kind="perturbed_sphere",
        modes=tuple((l, m, np.float64(a)) for l, m, a in modes),
        monitor_radii=(np.float64(0.4),),
        **{k: np.float64(v) for k, v in floats.items()},
    )
    text = config_to_text(cfg)
    assert parse_config(text) == cfg
    plain = RunConfig(kind="perturbed_sphere", modes=modes, monitor_radii=(0.4,), **floats)
    assert text == config_to_text(plain)


def test_config_rejects_unknown_key():
    text = config_to_text(RunConfig()) + "solver.warp_speed = 9\n"
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(text)


def test_config_rejects_duplicate_key():
    text = config_to_text(RunConfig()) + "solver.dt = 0.5\n"
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(text)


def test_config_rejects_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("solver.dt = banana\n")
    with pytest.raises(ConfigError, match="unknown generator"):
        parse_config("initial.kind = klein_bottle\n")


@pytest.mark.parametrize("eps1", ["-1", "nan"])
def test_config_rejects_bad_eps1(eps1):
    with pytest.raises(ConfigError, match="eps1 must be nonnegative"):
        parse_config(f"monitor.eps1 = {eps1}\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("solver.t_end = nan", "t_end must be positive"),
        ("solver.t_end = 0", "t_end must be positive"),
        ("solver.t_end = -1.0", "t_end must be positive"),
        ("solver.dt = inf", "dt must be positive and finite"),
        ("solver.dt = nan", "dt must be positive and finite"),
        ("solver.max_steps = -1", "max_steps must be >= 0"),
    ],
)
def test_config_rejects_bad_solver_value(line, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(line + "\n")


def test_config_accepts_infinite_t_end_and_zero_steps():
    cfg = parse_config("solver.t_end = inf\nsolver.max_steps = 0\n")
    assert cfg.t_end == math.inf and cfg.max_steps == 0


def test_run_config_checks_kind_at_construction():
    with pytest.raises(ValueError, match="unknown generator: klein_bottle"):
        RunConfig(kind="klein_bottle")


def test_key_table_names_every_field_once():
    attrs = [attr for attr, _, _ in _KEY_TABLE.values()]
    assert sorted(attrs) == sorted(f.name for f in dataclasses.fields(RunConfig))


# config.cfg as earlier versions wrote it: the 25 keys plus six retired ones
# at the values the code now fixes
OLD_CONFIG_TEXT = """\
initial.kind = dumbbell
initial.radius = 1.0
initial.subdiv = 4
initial.modes =\x20
initial.seed = none
initial.rx = 1.0
initial.ry = 1.0
initial.rz = 1.0
initial.bulb_radius = 1.0
initial.neck_radius = 0.15
initial.neck_length = 2.0
initial.n_phi = 32
initial.n_rings = 64
initial.path =\x20
solver.scheme = semi_implicit
solver.dt_policy = cfl
solver.dt = 0.0001
solver.cfl_sigma = 0.1
solver.t_end = 1.0
solver.max_steps = 2000
solver.volume_correction = false
solver.linear_tol = 1e-10
solver.linear_max_iter = 0
solver.snapshot_every = 10
solver.stop_sphericity = 1.0
solver.quality_floor = 0.02
solver.curvature_ceiling = 2.0
monitor.radii = 0.4,0.2,0.1
monitor.eps0 = 25.132741228718345
monitor.eps1 = 0.25132741228718347
output.dir = unused
"""

def test_old_config_with_retired_keys_parses_like_current_text():
    lines = OLD_CONFIG_TEXT.splitlines()
    assert len(lines) == 31 and len(_KEY_TABLE) == 25
    current = "\n".join(ln for ln in lines if ln.split(" = ")[0] not in RETIRED_KEYS) + "\n"
    cfg = parse_config(OLD_CONFIG_TEXT)
    assert cfg == parse_config(current)
    assert config_to_text(cfg) == current


@pytest.mark.parametrize(
    "key, value",
    [
        ("solver.linear_tol", "1e-8"),
        ("solver.linear_max_iter", "50"),
        ("solver.stop_sphericity", "0.99"),
        ("solver.quality_floor", "0.05"),
        ("solver.curvature_ceiling", "nan"),
        ("monitor.eps0", "25.13"),
    ],
)
def test_retired_key_at_another_value_is_rejected(key, value):
    text = OLD_CONFIG_TEXT.replace(f"{key} = {RETIRED_KEYS[key]}\n", f"{key} = {value}\n")
    assert text != OLD_CONFIG_TEXT
    with pytest.raises(ConfigError, match=f"{key} is fixed at {RETIRED_KEYS[key]}"):
        parse_config(text)


@pytest.mark.parametrize("radii", ["0.2,0.2", "0.4,-0.5", "0", "nan"])
def test_config_rejects_bad_monitor_radii(radii):
    with pytest.raises(ConfigError, match="monitor radii must be"):
        parse_config(f"monitor.radii = {radii}\n")


def test_config_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\ninitial.kind = icosphere  # trailing\n")
    assert cfg.kind == "icosphere"


def test_config_builds_solver_config():
    cfg = parse_config("solver.scheme = explicit\nsolver.cfl_sigma = 0.25\n")
    assert cfg.scheme == "explicit"
    assert cfg.cfl_sigma == 0.25


def test_config_build_initial_dispatch():
    cfg = RunConfig(kind="icosphere", radius=2.0, subdiv=1)
    mesh = cfg.build_initial()
    assert mesh.num_vertices == 42
    cfg2 = RunConfig(kind="dumbbell", n_phi=12, n_rings=24)
    assert cfg2.build_initial().num_vertices == 12 * 24 + 2


@settings(max_examples=40, deadline=None)
@given(
    dt=st.floats(1e-12, 1.0, allow_nan=False),
    sigma=st.floats(0.001, 1.0),
    seed=st.one_of(st.none(), st.integers(0, 2**31)),
    amp=st.floats(-0.4, 0.4),
)
def test_config_roundtrip_property(dt, sigma, seed, amp):
    cfg = RunConfig(
        kind="perturbed_sphere",
        modes=((2, 1, amp),),
        seed=seed,
        dt=dt,
        cfl_sigma=sigma,
    )
    assert parse_config(config_to_text(cfg)) == cfg


@pytest.mark.parametrize(
    "field, value",
    [("mesh_path", "runs/a#1.off"), ("out_dir", " out "), ("out_dir", "out\nsolver.dt = 1")],
    ids=["hash", "surrounding_space", "line_break"],
)
def test_config_rejects_path_that_would_not_read_back(field, value):
    with pytest.raises(ValueError, match=field):
        RunConfig(kind="mesh", **{field: value})


@settings(max_examples=200, deadline=None)
@given(mesh_path=st.text(), out_dir=st.text())
def test_config_roundtrip_of_every_accepted_path(mesh_path, out_dir):
    try:
        cfg = RunConfig(kind="mesh", mesh_path=mesh_path, out_dir=out_dir)
    except ValueError:
        return
    assert parse_config(config_to_text(cfg)) == cfg


def _record(step, t, eta=()):
    return DiagnosticsRecord(
        step=step,
        t=t,
        area=12.56637061435917 + step * 1e-9,
        volume=4.188790204786391,
        willmore=4 * math.pi,
        tracefree_l2=math.exp(-t),
        gradH_l2=1e-3,
        lapH_l2=2e-2,
        max_abs_A=2.0,
        h_min=0.07,
        quality=0.97,
        sphericity=0.9999,
        li_yau_ok=True,
        smallness_ok=True,
        eta=eta,
    )


def test_csv_header_schema():
    assert csv_header(0) == (
        "step,t,area,volume,willmore,tracefree_l2,gradH_l2,lapH_l2,"
        "max_abs_A,h_min,quality,sphericity,li_yau_ok,smallness_ok"
    )
    assert csv_header(2).endswith(",eta_r1,eta_r2")


def test_csv_roundtrip(tmp_path):
    recs = [_record(i, i * 1e-3, eta=(1.0 + i, 0.5 + i)) for i in range(5)]
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv(recs, path)
    back = read_diagnostics_csv(path)
    assert back == recs


def test_csv_rejects_schema_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("step,t,area\n0,0,1\n")
    with pytest.raises(ConfigError, match="schema"):
        read_diagnostics_csv(path)


# names after the fixed columns must be eta_r1, eta_r2, ... in order: any
# other name would be read as an eta value, paired with the wrong radius
@pytest.mark.parametrize(
    "eta_columns", ["eta_r2,eta_r1,eta_r3", "eta_r1,eta_r2,volume", "eta_r1,eta_r2,"]
)
def test_csv_rejects_eta_columns_off_schema(tmp_path, eta_columns):
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv([_record(i, i * 1e-3, eta=(1.0, 2.0, 3.0)) for i in range(2)], path)
    lines = path.read_text().splitlines()
    lines[0] = csv_header(0) + "," + eta_columns
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as info:
        read_diagnostics_csv(path)
    assert str(info.value) == "diagnostics CSV header does not match the frozen schema"


def test_csv_radii_count_must_match(tmp_path):
    write_diagnostics_csv([_record(0, 0.0, eta=(1.0,))], tmp_path / "diagnostics.csv")
    for radii in ((), (0.5, 0.25)):
        (tmp_path / "config.cfg").write_text(config_to_text(RunConfig(monitor_radii=radii)))
        with pytest.raises(ConfigError, match="radii"):
            load_run_records(tmp_path)


@pytest.mark.parametrize(
    "column, token", [("t", "abc"), ("li_yau_ok", "yes"), ("smallness_ok", "true")]
)
def test_csv_rejects_malformed_value_with_line(tmp_path, column, token):
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv([_record(i, i * 1e-3) for i in range(3)], path)
    lines = path.read_text().splitlines()
    toks = lines[2].split(",")
    toks[lines[0].split(",").index(column)] = token
    lines[2] = ",".join(toks)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f"diagnostics CSV line 3: .*{token}"):
        read_diagnostics_csv(path)


def test_csv_rejects_row_of_wrong_length_with_line(tmp_path):
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv([_record(i, i * 1e-3) for i in range(3)], path)
    lines = path.read_text().splitlines()
    lines[2] = "1,2"
    path.write_text("\n".join(lines) + "\n")
    expected = f"diagnostics CSV line 3: expected {len(lines[0].split(','))} values, found 2"
    with pytest.raises(ConfigError) as info:
        read_diagnostics_csv(path)
    assert str(info.value) == expected


def test_one_topology_per_connectivity(tmp_path):
    """A run, a volume correction, a rescaling and a reloaded run directory
    all keep the initial mesh's MeshTopology object."""
    cfg = RunConfig(
        kind="perturbed_sphere", subdiv=2, modes=((2, 0, 0.2),), scheme="semi_implicit",
        dt_policy="fixed", dt=1e-3, max_steps=3, volume_correction=True, snapshot_every=1,
    )
    initial = cfg.build_initial()
    trajectory = run(initial, cfg)
    assert sorted(trajectory.snapshots) == [0, 1, 2, 3]
    assert all(m.topology is initial.topology for m in trajectory.snapshots.values())
    state = FlowState(initial)
    corrected = correct_volume(state, 1.01 * enclosed_volume(face_geometry(initial)))
    assert corrected is not state and corrected.mesh.topology is initial.topology
    assert rescale(initial, (0.0, 0.0, 0.0), 2.0).topology is initial.topology
    write_run_dir(tmp_path, trajectory, "stop_reason: max_steps\n")
    loaded = list(load_run_dir(tmp_path).snapshots.values())
    assert len(loaded) == 4
    assert all(m.topology is loaded[0].topology for m in loaded)


def test_snapshot_with_extra_vertex_gets_its_own_topology(tmp_path):
    """A snapshot with the first one's faces but one more (unused) vertex
    loads with a topology of its own vertex count."""
    cfg = RunConfig(kind="icosphere", subdiv=1, scheme="explicit", max_steps=1, snapshot_every=1)
    initial = cfg.build_initial()
    write_run_dir(tmp_path, run(initial, cfg), "stop_reason: max_steps\n")
    extra = TriangleMesh(np.vstack([initial.vertices, [[9.0, 9.0, 9.0]]]), initial.faces)
    save_off(extra, tmp_path / "step_00000001.off")
    loaded = load_run_dir(tmp_path).snapshots
    assert loaded[1].num_vertices == initial.num_vertices + 1
    assert loaded[1].topology is not loaded[0].topology
    assert len(loaded[1].topology.indptr) == loaded[1].num_vertices + 1


def test_snapshot_with_rewritten_face_block_gets_an_equal_topology(tmp_path):
    """A snapshot with the first one's faces, written with comments and
    CRLF line ends, is parsed in full: its faces and MeshTopology are equal
    to the first one's, and its own."""
    cfg = RunConfig(kind="icosphere", subdiv=1, scheme="explicit", max_steps=2, snapshot_every=1)
    initial = cfg.build_initial()
    write_run_dir(tmp_path, run(initial, cfg), "stop_reason: max_steps\n")
    path = tmp_path / "step_00000001.off"
    text = path.read_text()
    path.write_bytes(text.replace("\n", " # rewritten\r\n").encode("ascii"))
    loaded = load_run_dir(tmp_path).snapshots
    want = loads_off(text).vertices
    assert np.array_equal(loaded[1].vertices.view(np.int64), want.view(np.int64))
    assert loaded[2].faces is loaded[0].faces and loaded[2].topology is loaded[0].topology
    assert loaded[1].faces is not loaded[0].faces
    assert np.array_equal(loaded[1].faces, loaded[0].faces)
    own, first = loaded[1].topology, loaded[0].topology
    assert own is not first and own.off_faces == first.off_faces
    assert all(np.array_equal(getattr(own, k), getattr(first, k)) for k in vars(first))


def test_run_records_equal_their_csv_round_trip(tmp_path):
    cfg = RunConfig(
        kind="perturbed_sphere", subdiv=2, modes=((2, 0, 0.2),), scheme="explicit",
        max_steps=3, monitor_radii=(0.5, 0.25),
    )
    trajectory = run(cfg.build_initial(), cfg)
    write_run_dir(tmp_path, trajectory, "stop_reason: max_steps\n")
    back = read_diagnostics_csv(tmp_path / "diagnostics.csv")
    assert len(back) == 4
    assert back == trajectory.records

import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import DUMBBELL_CFG, EXPERIMENTS, MINI_SEMI_CFG, RETIRED_KEYS, SPHERE_CFG
from sdflow import flow
from sdflow.cli import _record_lines, main
from sdflow.generators import make_dumbbell, make_icosphere, make_perturbed_sphere
from sdflow.mesh import TriangleMesh, load_mesh_path, save_off
from sdflow.monitors import (
    AREA,
    AREA_RATE,
    TRACEFREE_L2,
    TRACEFREE_RATE,
    WILLMORE,
    DiagnosticsRecord,
    audit_dissipation,
    audit_monotone,
    audit_report,
    fit_decay,
)
from sdflow.runio import (
    RunConfig,
    load_run_dir,
    load_run_records,
    read_diagnostics_csv,
    write_diagnostics_csv,
)


def test_gen_icosphere(tmp_path, capsys):
    out = tmp_path / "s.off"
    assert main(["gen", "icosphere", "--radius", "1", "--subdiv", "4", "-o", str(out)]) == 0
    mesh = load_mesh_path(out)
    assert mesh.num_vertices == 2562
    assert "chi=2" in capsys.readouterr().out


def test_gen_dumbbell(tmp_path, capsys):
    out = tmp_path / "d.off"
    code = main(
        ["gen", "dumbbell", "--bulb", "1", "--neck", "0.15", "--len", "2", "-o", str(out)]
    )
    assert code == 0
    assert "chi=2" in capsys.readouterr().out


def test_gen_flags_set_their_config_fields(tmp_path):
    out = tmp_path / "d.off"
    flags = ["--bulb", "0.9", "--neck", "0.2", "--len", "1.5", "--n-phi", "12", "--n-rings", "24"]
    assert main(["gen", "dumbbell", *flags, "-o", str(out)]) == 0
    want = make_dumbbell(0.9, 0.2, 1.5, n_phi=12, n_rings=24)
    assert np.array_equal(load_mesh_path(out).vertices, want.vertices)
    out = tmp_path / "p.off"
    flags = ["--subdiv", "1", "--mode", "2,0,0.1", "--mode", "3,1,0.05", "--seed", "3"]
    assert main(["gen", "perturbed_sphere", *flags, "-o", str(out)]) == 0
    want = make_perturbed_sphere(1.0, [(2, 0, 0.1), (3, 1, 0.05)], seed=3, subdivisions=1)
    assert np.array_equal(load_mesh_path(out).vertices, want.vertices)


@pytest.mark.parametrize(
    "generator, usage",
    [
        ("dumbbell", "[--bulb BULB] [--neck NECK] [--len LEN]"),
        ("perturbed_sphere", "[--mode l,m,amp]"),
        ("perturbed_sphere", "[--seed SEED]"),
    ],
)
def test_gen_help_usage_names_each_flag(monkeypatch, capsys, generator, usage):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as exit_info:
        main(["gen", generator, "--help"])
    assert exit_info.value.code == 0
    help_text = capsys.readouterr().out
    assert usage in help_text.split("\n\n")[0]


def test_gen_subdivision_limit_exit_2(tmp_path, capsys):
    out = tmp_path / "x.off"
    code = main(["gen", "icosphere", "--subdiv", "99", "-o", str(out)])
    assert code == 2
    assert "subdivision limit" in capsys.readouterr().err
    assert not out.exists()


def test_gen_dumbbell_too_coarse_exit_2(tmp_path, capsys):
    out = tmp_path / "x.off"
    assert main(["gen", "dumbbell", "--n-phi", "2", "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", "sdflow: error: resolution too coarse\n")
    assert not out.exists()


def test_gen_perturbed_and_ellipsoid(tmp_path):
    assert main([
        "gen", "perturbed_sphere", "--radius", "1", "--subdiv", "2",
        "--mode", "2,0,0.1", "--mode", "3,1,0.05", "--seed", "3",
        "-o", str(tmp_path / "p.off"),
    ]) == 0
    assert main([
        "gen", "ellipsoid", "--rx", "1", "--ry", "2", "--rz", "0.5", "--subdiv", "2",
        "-o", str(tmp_path / "e.off"),
    ]) == 0


def test_gen_malformed_mode_exit_2(tmp_path, capsys):
    out = tmp_path / "p.off"
    assert main(["gen", "perturbed_sphere", "--mode", "2,0", "-o", str(out)]) == 2
    assert "sdflow: error: malformed mode triple: '2,0'" in capsys.readouterr().err
    assert not out.exists()


def test_gen_unwritable_output_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.off"
    assert main(["gen", "icosphere", "--subdiv", "1", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sdflow: error:") and str(out) in captured.err


# gen writes OFF, so it refuses a name that load_mesh_path reads as OBJ,
# before it builds the mesh
@pytest.mark.parametrize("name", ["x.obj", "X.OBJ", "m.Obj"])
def test_gen_obj_name_exit_2(tmp_path, capsys, monkeypatch, name):
    monkeypatch.setattr(RunConfig, "build_initial", lambda self: pytest.fail("built"))
    out = tmp_path / name
    assert main(["gen", "icosphere", "--subdiv", "1", "-o", str(out)]) == 2
    assert capsys.readouterr() == (
        "",
        f"sdflow: error: {out}: gen writes OFF; an .obj name is read as OBJ\n",
    )
    assert not out.exists()


def run_config(tmp_path, template, name):
    out_dir = tmp_path / name
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text(template.format(out=out_dir))
    return cfg_path, out_dir


def test_run_sphere_clean_exit(tmp_path, capsys):
    cfg_path, out_dir = run_config(tmp_path, SPHERE_CFG, "sphere")
    assert main(["run", str(cfg_path)]) == 0
    produced = sorted(os.listdir(out_dir))
    assert "diagnostics.csv" in produced
    assert "config.cfg" in produced
    assert "summary.txt" in produced
    assert "step_00000000.off" in produced
    header = (out_dir / "diagnostics.csv").read_text().splitlines()[0]
    assert header == (
        "step,t,area,volume,willmore,tracefree_l2,gradH_l2,lapH_l2,max_abs_A,"
        "h_min,quality,sphericity,li_yau_ok,smallness_ok,eta_r1"
    )
    summary = (out_dir / "summary.txt").read_text()
    assert "stop_reason: max_steps" in summary
    assert "audit_area: pass" in summary
    capsys.readouterr()
    assert main(["analyze", str(out_dir)]) == 0
    assert capsys.readouterr().out == summary


# a flattened ellipsoid whose first step falls below the quality floor
QUALITY_FLOOR_CFG = """
initial.kind = ellipsoid
initial.rx = 1.0
initial.ry = 1.0
initial.rz = 0.01
initial.subdiv = 2
solver.scheme = explicit
solver.dt_policy = cfl
solver.cfl_sigma = 0.005
solver.max_steps = 3
output.dir = {out}
"""


def test_run_quality_floor_exit_3(tmp_path, capsys):
    cfg_path, out_dir = run_config(tmp_path, QUALITY_FLOOR_CFG, "flat")
    assert main(["run", str(cfg_path)]) == 3
    summary = (out_dir / "summary.txt").read_text()
    assert "stop_reason: quality_floor\nsteps: 1\n" in summary
    assert capsys.readouterr().out == summary


def test_run_summary_names_an_untriggered_radius(tmp_path, capsys):
    # eta at t = 0 is 113.128 in r = 0.5 and 51.26 in r = 0.05: only the
    # first passes eps1 = 60
    template = QUALITY_FLOOR_CFG + "monitor.radii = 0.5,0.05\nmonitor.eps1 = 60\n"
    cfg_path, out_dir = run_config(tmp_path, template, "one_untriggered")
    assert main(["run", str(cfg_path)]) == 3
    summary = (out_dir / "summary.txt").read_text()
    assert capsys.readouterr().out == summary
    assert "stop_reason: quality_floor\nsteps: 1\n" in summary
    events = [ln for ln in summary.splitlines() if ln.startswith("concentration_event:")]
    assert len(events) == 2
    assert events[0].startswith("concentration_event: r=0.5 t_j=0 x_j=(")
    assert events[0].endswith(" eta=113.128")
    assert events[1] == "concentration_event: r=0.05 untriggered"


def test_run_diverged_exit_4(tmp_path, capsys, third_record_fails):
    cfg_path, out_dir = run_config(tmp_path, SPHERE_CFG, "diverged")
    assert main(["run", str(cfg_path)]) == 4
    summary = (out_dir / "summary.txt").read_text()
    assert "stop_reason: diverged\nsteps: 1\n" in summary
    assert capsys.readouterr().out == summary


def test_run_determinism_byte_identical(tmp_path):
    cfg_path, out_dir = run_config(tmp_path, MINI_SEMI_CFG, "mini")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b")) == [
        "config.cfg", "diagnostics.csv",
        "step_00000000.off", "step_00000005.off", "step_00000010.off", "summary.txt",
    ]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_run_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("solver.nonsense = 1\n")
    assert main(["run", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("initial.kind\n", "bad config: line 1: expected key = value"),
        ("initial.kind = mesh\n", "initial.kind = mesh requires initial.path"),
        ("solver.dt_policy = adaptive\n", "bad config: unknown dt policy: adaptive"),
        ("solver.snapshot_every = 0\n", "bad config: snapshot_every must be >= 1"),
    ],
    ids=["no_equals", "mesh_without_path", "dt_policy", "snapshot_every"],
)
def test_run_config_error_message_exit_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"sdflow: error: {message}\n")
    assert not (tmp_path / "out").exists()


UTF8_FF = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


def test_run_config_not_utf8_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"sdflow: error: bad config: {cfg}: {UTF8_FF}\n"


def test_run_missing_config_exit_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2


def test_run_nonpositive_radius_exit_2(tmp_path, capsys):
    template = SPHERE_CFG.replace("monitor.radii = 0.1", "monitor.radii = -0.5")
    cfg_path, out_dir = run_config(tmp_path, template, "negative_radius")
    assert main(["run", str(cfg_path)]) == 2
    assert "bad config: monitor radii must be positive" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("eps1", ["-1", "nan"])
def test_run_bad_eps1_exit_2_before_any_step(tmp_path, capsys, eps1):
    cfg_path, out_dir = run_config(tmp_path, SPHERE_CFG + f"monitor.eps1 = {eps1}\n", "bad_eps1")
    assert main(["run", str(cfg_path)]) == 2
    assert "bad config:" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("solver.t_end = 1.0", "solver.t_end = nan", "t_end must be positive"),
        ("solver.max_steps = 40", "solver.max_steps = -1", "max_steps must be >= 0"),
    ],
)
def test_run_bad_solver_value_exit_2(tmp_path, capsys, old, new, message):
    template = SPHERE_CFG.replace(old, new)
    assert template != SPHERE_CFG
    cfg_path, out_dir = run_config(tmp_path, template, "bad_solver")
    assert main(["run", str(cfg_path)]) == 2
    assert f"bad config: {message}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_retired_key_at_another_value_exit_2(tmp_path, capsys):
    cfg_path, out_dir = run_config(tmp_path, SPHERE_CFG + "solver.quality_floor = 0.05\n", "r")
    assert main(["run", str(cfg_path)]) == 2
    assert "bad config: solver.quality_floor is fixed at 0.02" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("radius", ["1e200", "1e-200"])
def test_run_initial_record_not_formed_exit_2(tmp_path, capsys, radius):
    # the area overflows to inf at 1e200 and underflows to 0 at 1e-200
    template = f"initial.kind = icosphere\ninitial.subdiv = 1\ninitial.radius = {radius}\n"
    cfg_path, out_dir = run_config(tmp_path, template + "output.dir = {out}\n", "initial")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(cfg_path)]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("sdflow: error:") and "at step 0" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "flag, key, value", [("--bulb", "bulb_radius", "1e200"), ("--len", "neck_length", "inf")]
)
@pytest.mark.parametrize("command", ["gen", "run"])
def test_dumbbell_without_tangent_join_exits_2_at_once(tmp_path, command, flag, key, value):
    # a child process with a timeout, so a bracket search that never ends fails the test
    if command == "gen":
        args = ["gen", "dumbbell", flag, value, "-o", str(tmp_path / "x.off")]
    else:
        cfg_path = tmp_path / "x.cfg"
        cfg_path.write_text(f"initial.kind = dumbbell\ninitial.{key} = {value}\n")
        args = ["run", str(cfg_path), "--out", str(tmp_path / "run")]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sdflow.cli", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("sdflow: error:")
    assert not (tmp_path / "x.off").exists() and not (tmp_path / "run").exists()


IMPORT_GUARD = """
import sys
import sdflow.cli
from sdflow import runio
from sdflow.flow import FlowState

runio.load_config(sys.argv[1]).build_initial()
print(",".join(sorted(name for name in sys.argv[2:] if name in sys.modules)))
dumbbell = runio.parse_config("initial.kind = dumbbell").build_initial()
print(len(FlowState(dumbbell).tree.query_pairs(0.1)))
"""


def test_perturbed_sphere_set_up_imports_no_unused_scipy():
    # a fresh interpreter: the pytest process has imported every module
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    unused = [
        "scipy.spatial", "scipy.optimize", "scipy.linalg", "scipy.sparse.linalg", "scipy.special",
    ]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, os.path.join(EXPERIMENTS, "headline.cfg"), *unused],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, pairs = proc.stdout.splitlines()
    assert loaded == ""
    assert int(pairs) > 0


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def thread_vars_after(statement, **preset):
    """The four pool variables, '-' where unset, in a fresh interpreter after
    `statement`; its environment has no SDFLOW_THREADS or pool variable but
    those in `preset`."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS + ("SDFLOW_THREADS",)}
    env.update(preset, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import os\n{statement}\nprint(*(os.environ.get(v, '-') for v in {THREAD_VARS!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


# the package sets the pool variables before any submodule imports numpy
@pytest.mark.parametrize(
    "statement", ["import sdflow.flow", "import sdflow.cli"], ids=["flow", "cli"]
)
def test_sdflow_threads_sets_the_pool_variables_on_any_import(statement):
    assert thread_vars_after(statement, SDFLOW_THREADS="3") == ["3"] * 4


def test_sdflow_threads_keeps_a_preset_pool_variable():
    preset = dict(SDFLOW_THREADS="3", OMP_NUM_THREADS="1")
    assert thread_vars_after("import sdflow.flow", **preset) == ["1", "3", "3", "3"]


def test_sdflow_threads_not_a_positive_integer_sets_nothing():
    assert thread_vars_after("import sdflow.flow", SDFLOW_THREADS="abc") == ["-"] * 4


MESH_CFG = """
initial.kind = mesh
initial.path = {path}
solver.max_steps = 2
output.dir = {out}
"""


def test_run_mesh_missing_file_exit_2(tmp_path, capsys):
    template = MESH_CFG.replace("{path}", str(tmp_path / "nope.off"))
    cfg_path, out_dir = run_config(tmp_path, template, "mesh_missing")
    assert main(["run", str(cfg_path)]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_mesh_wound_inward_exit_2(tmp_path, capsys):
    sphere = make_icosphere(1.0, 2)
    mesh_path = tmp_path / "inward.off"
    save_off(TriangleMesh(sphere.vertices, sphere.faces[:, ::-1]), mesh_path)
    cfg_path, out_dir = run_config(tmp_path, MESH_CFG.replace("{path}", str(mesh_path)), "inward")
    assert main(["run", str(cfg_path)]) == 2
    assert "enclosed volume not positive" in capsys.readouterr().err
    assert not out_dir.exists()


def octahedron_with_collinear_face():
    """A closed oriented octahedron whose face (0, 2, 4) is split at the
    midpoint of edge 0-2, the new vertex 6, and closed by the flat face
    (2, 6, 0)."""
    vertices = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (0.5, 0.5, 0)]
    faces = [
        (0, 6, 4), (6, 2, 4), (2, 6, 0), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ]
    return TriangleMesh(np.array(vertices, float), np.array(faces))


@pytest.mark.parametrize("case", ["open", "no_faces", "collinear_face"])
def test_run_mesh_not_a_closed_nondegenerate_surface_exit_2(tmp_path, capsys, case):
    if case == "open":
        sphere = make_icosphere(1.0, 2)
        mesh, message = TriangleMesh(sphere.vertices, sphere.faces[1:]), "not a closed"
    elif case == "no_faces":
        mesh, message = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3))), "no faces"
    else:
        mesh, message = octahedron_with_collinear_face(), "degenerate face"
    mesh_path = tmp_path / f"{case}.off"
    save_off(mesh, mesh_path)
    cfg_path, out_dir = run_config(tmp_path, MESH_CFG.replace("{path}", str(mesh_path)), case)
    assert main(["run", str(cfg_path)]) == 2
    assert f"sdflow: error: {mesh_path}: {message}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "name, data, message",
    [
        ("vertex.off", b"OFF\n3 1 0\n0 0 0\n1 x 0\n0 1 0\n3 0 1 2\n", "malformed OFF vertex line"),
        ("index.off", b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n", "face index out of range"),
        # a count or an index beyond int64
        ("count.off", b"OFF\n99999999999999999999 1 0\n", "truncated OFF file"),
        (
            "index.obj",
            b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n",
            "face index out of range",
        ),
        ("no_faces.obj", b"v 0 0 0\nv 1 0 0\nv 0 1 0\n", "OBJ file without triangles"),
        ("face.obj", b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n", "malformed OBJ face line"),
        (
            "latin1.obj",
            b"v 0 0 0\n\xff\n",
            "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte",
        ),
    ],
)
def test_run_mesh_reader_error_names_the_file(tmp_path, capsys, name, data, message):
    mesh_path = tmp_path / name
    mesh_path.write_bytes(data)
    cfg_path, out_dir = run_config(tmp_path, MESH_CFG.replace("{path}", str(mesh_path)), "bad")
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"sdflow: error: {mesh_path}: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "case, message",
    [("unused_vertex", "vertex on no face"), ("nan_vertex", "non-finite vertex coordinate")],
)
def test_run_mesh_bad_vertex_exit_2(tmp_path, capsys, case, message):
    sphere = make_icosphere(1.0, 1)
    if case == "unused_vertex":
        vertices = np.vstack([sphere.vertices, [(2.0, 0.0, 0.0)]])
    else:
        vertices = sphere.vertices.copy()
        vertices[0] = (np.nan, 0.0, 0.0)
    mesh_path = tmp_path / f"{case}.off"
    save_off(TriangleMesh(vertices, sphere.faces), mesh_path)
    cfg_path, out_dir = run_config(tmp_path, MESH_CFG.replace("{path}", str(mesh_path)), case)
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"sdflow: error: {mesh_path}: {message}\n"
    assert not out_dir.exists()


STEPS_CFG = """
solver.scheme = explicit
solver.dt_policy = cfl
solver.cfl_sigma = 0.005
solver.max_steps = 4
solver.snapshot_every = 2
output.dir = {out}
"""


def run_outputs(tmp_path, capsys, name, initial):
    """Stdout and every file but config.cfg of a STEPS_CFG run from the
    given initial.* lines."""
    cfg_path, out_dir = run_config(tmp_path, initial + STEPS_CFG, name)
    assert main(["run", str(cfg_path)]) == 0
    files = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir()) if f.name != "config.cfg"}
    return capsys.readouterr().out, files


@pytest.mark.parametrize("suffix", ["off", "obj"])
def test_run_mesh_file_runs_as_its_generator(tmp_path, capsys, suffix):
    off_path, mesh_path = tmp_path / "p.off", tmp_path / f"p.{suffix}"
    gen = ["gen", "perturbed_sphere", "--subdiv", "2", "--mode", "2,0,0.1", "-o", str(off_path)]
    assert main(gen) == 0
    if suffix == "obj":
        mesh = load_mesh_path(off_path)
        mesh_path.write_text(
            "".join("v %r %r %r\n" % tuple(v) for v in mesh.vertices.tolist())
            + "".join("f %d %d %d\n" % tuple(f) for f in (mesh.faces + 1).tolist())
        )
    capsys.readouterr()
    generated = run_outputs(
        tmp_path, capsys, "generated",
        "initial.kind = perturbed_sphere\ninitial.subdiv = 2\ninitial.modes = 2,0,0.1\n",
    )
    loaded = run_outputs(
        tmp_path, capsys, "loaded", f"initial.kind = mesh\ninitial.path = {mesh_path}\n"
    )
    assert sorted(generated[1]) == [
        "diagnostics.csv", "step_00000000.off", "step_00000002.off", "step_00000004.off",
        "summary.txt",
    ]
    assert loaded == generated


def test_run_unwritable_out_exit_2(tmp_path, capsys):
    template = "initial.kind = icosphere\ninitial.subdiv = 1\nsolver.max_steps = 2\n"
    cfg_path, _ = run_config(tmp_path, template, "tiny")
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n")
    assert main(["run", str(cfg_path), "--out", str(blocker)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sdflow: error:") and str(blocker) in captured.err
    assert blocker.read_text() == "a file\n"


@pytest.mark.parametrize(
    "case, flag",
    [("file", False), ("file", True), ("under_a_file", False), ("under_a_file", True),
     ("empty", False)],
    ids=["file", "file_by_flag", "under_a_file", "under_a_file_by_flag", "empty"],
)
def test_run_unusable_out_exit_2_before_any_step(tmp_path, capsys, monkeypatch, case, flag):
    def no_flow(*args, **kwargs):
        raise AssertionError("the flow ran")

    monkeypatch.setattr(flow, "run", no_flow)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n")
    out_dir = {"file": blocker, "under_a_file": blocker / "sub", "empty": ""}[case]
    template = "initial.kind = icosphere\ninitial.subdiv = 1\noutput.dir = {out}\n"
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(template.format(out=tmp_path / "unused" if flag else out_dir))
    # the message names the file in the way
    message = f"[Errno 20] Not a directory: '{blocker}'"
    if case == "empty":
        message = "bad config: out_dir must not be empty"
    assert main(["run", str(cfg_path), *(["--out", str(out_dir)] if flag else [])]) == 2
    assert capsys.readouterr() == ("", f"sdflow: error: {message}\n")
    assert sorted(os.listdir(tmp_path)) == ["blocker", "tiny.cfg"]
    assert blocker.read_text() == "a file\n"


def test_run_into_reused_dir_replaces_snapshots_and_frames(tmp_path, capsys):
    out_dir = tmp_path / "reused"
    for every in (5, 10):
        template = SPHERE_CFG.replace("max_steps = 40", "max_steps = 16").replace(
            "snapshot_every = 20", f"snapshot_every = {every}"
        )
        cfg_path, _ = run_config(tmp_path, template, "reused")
        assert main(["run", str(cfg_path)]) == 0
        if every == 5:
            assert sorted(load_run_dir(out_dir).snapshots) == [0, 5, 10, 15, 16]
            assert main(["blowup", str(out_dir), "--eps1", "0"]) == 0
            assert (out_dir / "frame_00.meta").exists()
            (out_dir / "notes.txt").write_text("kept\n")
    assert sorted(load_run_dir(out_dir).snapshots) == [0, 10, 16]
    assert sorted(os.listdir(out_dir)) == [
        "config.cfg", "diagnostics.csv", "notes.txt",
        "step_00000000.off", "step_00000010.off", "step_00000016.off", "summary.txt",
    ]


@pytest.fixture(scope="module")
def dumbbell_cli_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("dumbbell_cli")
    cfg_path, out_dir = run_config(tmp_path, DUMBBELL_CFG, "dumbbell")
    code = main(["run", str(cfg_path)])
    return code, out_dir


def test_run_dumbbell_exit_3(dumbbell_cli_run, capsys):
    code, out_dir = dumbbell_cli_run
    assert code == 3
    summary = (out_dir / "summary.txt").read_text()
    assert "concentration_event" in summary


def test_blowup_dumbbell_writes_frames(dumbbell_cli_run, capsys):
    code, out_dir = dumbbell_cli_run
    assert main(["blowup", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "frame_00" in out
    meta = (out_dir / "frame_00.meta").read_text()
    fields = dict(line.split(" = ", 1) for line in meta.strip().splitlines())
    assert float(fields["time_factor"]) == float(fields["space_factor"]) ** 4
    frame_mesh = load_mesh_path(out_dir / "frame_00.off")
    assert frame_mesh.num_faces > 0


def test_blowup_corrupt_unused_snapshot_exit_2(dumbbell_cli_run, tmp_path, capsys):
    # every snapshot is read and checked, also one that no event uses
    run_dir = tmp_path / "run"
    shutil.copytree(dumbbell_cli_run[1], run_dir)
    last = sorted(run_dir.glob("step_*.off"))[-1]
    assert main(["blowup", str(run_dir)]) == 0
    used = set()
    for meta in run_dir.glob("frame_*.meta"):
        fields = dict(line.split(" = ", 1) for line in meta.read_text().splitlines())
        used.add(int(fields["source_step"]))
        meta.unlink()
    assert used and int(last.stem.split("_")[1]) not in used
    for frame in run_dir.glob("frame_*.off"):
        frame.unlink()
    last.write_text(last.read_text()[:200])
    capsys.readouterr()
    assert main(["blowup", str(run_dir)]) == 2
    assert capsys.readouterr().err == f"sdflow: error: {last}: truncated OFF file\n"
    assert not list(run_dir.glob("frame_*"))


def test_blowup_corrupt_vertex_of_unused_snapshot_exit_2(dumbbell_cli_run, tmp_path, capsys):
    # a later snapshot whose face block is the first's still has its
    # vertex block parsed
    run_dir = tmp_path / "run"
    shutil.copytree(dumbbell_cli_run[1], run_dir)
    for frame in run_dir.glob("frame_*"):
        frame.unlink()
    snapshots = sorted(run_dir.glob("step_*.off"))
    last = snapshots[-1]
    head, counts, vertex, rest = last.read_text().split("\n", 3)
    x, _, z = vertex.split()
    last.write_text("\n".join([head, counts, f"{x} x {z}", rest]))
    first_faces = snapshots[0].read_text().split("\n", 2 + int(counts.split()[0]))[-1]
    assert rest.endswith(first_faces)
    assert main(["blowup", str(run_dir)]) == 2
    assert capsys.readouterr().err == f"sdflow: error: {last}: malformed OFF vertex line\n"
    assert not list(run_dir.glob("frame_*"))


def frame_radii(run_dir):
    """frame file name -> the r_j its .meta records, for every frame file."""
    radii = {}
    for frame in sorted(run_dir.glob("frame_*")):
        meta = frame.with_suffix(".meta").read_text()
        radii[frame.name] = float(dict(ln.split(" = ", 1) for ln in meta.splitlines())["r_j"])
    return radii


def test_blowup_replaces_earlier_frames(dumbbell_cli_run, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(dumbbell_cli_run[1], run_dir)
    assert main(["blowup", str(run_dir), "--eps1", "0"]) == 0
    assert sorted(set(frame_radii(run_dir).values())) == [0.1, 0.2, 0.4]
    assert main(["blowup", str(run_dir), "--radii", "0.4"]) == 0
    assert frame_radii(run_dir) == {"frame_00.meta": 0.4, "frame_00.off": 0.4}
    capsys.readouterr()
    assert main(["blowup", str(run_dir), "--eps1", "inf"]) == 0
    assert "no concentration detected" in capsys.readouterr().out
    assert not list(run_dir.glob("frame_*"))


def test_blowup_frame_path_is_a_directory_exit_2(dumbbell_cli_run, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(dumbbell_cli_run[1], run_dir)
    for frame in run_dir.glob("frame_*"):
        frame.unlink()
    (run_dir / "frame_00.off").mkdir()
    assert main(["blowup", str(run_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sdflow: error:") and "frame_00.off" in captured.err


def test_blowup_nonfinite_frame_exit_2(tmp_path, capsys):
    # zoomed by 1/r = 1e300, the frame's geometry overflows
    template = (
        "initial.kind = icosphere\ninitial.subdiv = 1\nsolver.max_steps = 2\n"
        "monitor.radii = 1e-300\noutput.dir = {out}\n"
    )
    cfg_path, out_dir = run_config(tmp_path, template, "tiny_radius")
    assert main(["run", str(cfg_path)]) == 0
    before = sorted(os.listdir(out_dir))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["blowup", str(out_dir), "--eps1", "0"]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sdflow: error: non-finite blowup frame of step 0\n"
    assert sorted(os.listdir(out_dir)) == before


def blowup_step_0_run(tmp_path):
    """A 3-step icosphere run whose blowup at eps1 = 0 triggers at t = 0:
    its event needs step 0's record and snapshot."""
    template = (
        "initial.kind = icosphere\ninitial.subdiv = 1\nsolver.scheme = explicit\n"
        "solver.cfl_sigma = 0.005\nsolver.max_steps = 3\nsolver.snapshot_every = 2\n"
        "monitor.radii = 0.5\noutput.dir = {out}\n"
    )
    cfg_path, out_dir = run_config(tmp_path, template, "lost_step_0")
    assert main(["run", str(cfg_path)]) == 0
    return out_dir


def assert_blowup_step_0_fails(out_dir, capsys, message):
    capsys.readouterr()
    assert main(["blowup", str(out_dir), "--eps1", "0"]) == 2
    assert capsys.readouterr() == ("", f"sdflow: error: {message}\n")
    assert not [name for name in os.listdir(out_dir) if name.startswith("frame_")]


def test_blowup_snapshot_without_csv_row_exit_2(tmp_path, capsys):
    out_dir = blowup_step_0_run(tmp_path)
    csv_path = out_dir / "diagnostics.csv"
    header, step0, *rest = csv_path.read_text().splitlines(keepends=True)
    assert step0.startswith("0,")
    csv_path.write_text(header + "".join(rest))
    assert_blowup_step_0_fails(out_dir, capsys, "no diagnostics record for snapshot step 0")


def test_blowup_without_the_event_snapshot_exit_2(tmp_path, capsys):
    out_dir = blowup_step_0_run(tmp_path)
    (out_dir / "step_00000000.off").unlink()
    assert_blowup_step_0_fails(out_dir, capsys, "no snapshot at or before the event")


# without_config: not a recorded run but a synthetic directory whose
# config.cfg holds only its CSV's radii, where blowup without a flag exits 0
@pytest.mark.parametrize("recorded", [True, False], ids=["with_config", "without_config"])
@pytest.mark.parametrize(
    "flag, message",
    [
        (["--radii", "abc"], "could not convert string to float: 'abc'"),
        (["--radii", "0.2,0.2"], "monitor radii must be distinct"),
        (["--eps1", "nan"], "eps1 must be nonnegative"),
        (["--eps1", "-1"], "eps1 must be nonnegative"),
    ],
    ids=["radii_abc", "radii_repeated", "eps1_nan", "eps1_negative"],
)
def test_blowup_bad_flag_exit_2(dumbbell_cli_run, tmp_path, capsys, flag, message, recorded):
    if recorded:
        run_dir = dumbbell_cli_run[1]
    else:
        run_dir = synthetic_csv(tmp_path, [1.0, 0.5], radii=(1.0, 0.5))
    before = sorted(os.listdir(run_dir))
    capsys.readouterr()
    assert main(["blowup", str(run_dir), *flag]) == 2
    assert capsys.readouterr().err == f"sdflow: error: {message}\n"
    assert sorted(os.listdir(run_dir)) == before
    if not recorded:
        assert main(["blowup", str(run_dir)]) == 0


def test_blowup_without_any_radius_exit_2(tmp_path, capsys):
    template = (
        "initial.kind = icosphere\ninitial.subdiv = 1\nsolver.max_steps = 2\n"
        "output.dir = {out}\n"
    )
    cfg_path, out_dir = run_config(tmp_path, template, "no_radii")
    assert main(["run", str(cfg_path)]) == 0
    before = sorted(os.listdir(out_dir))
    capsys.readouterr()
    assert main(["blowup", str(out_dir)]) == 2
    assert capsys.readouterr() == (
        "", "sdflow: error: no radii given and none recorded in the run config\n"
    )
    assert sorted(os.listdir(out_dir)) == before


def test_blowup_without_config_exit_2(tmp_path, capsys):
    run_dir = synthetic_csv(tmp_path, [1.0, 0.5])
    assert main(["blowup", str(run_dir), "--radii", "0.5", "--eps1", "0"]) == 2
    assert f"missing config.cfg in {run_dir}" in capsys.readouterr().err
    assert sorted(os.listdir(run_dir)) == ["diagnostics.csv"]


@pytest.mark.parametrize("command", ["analyze", "blowup"])
def test_eta_columns_without_config_name_it(dumbbell_cli_run, tmp_path, capsys, command):
    run_dir = tmp_path / "run"
    shutil.copytree(dumbbell_cli_run[1], run_dir)
    (run_dir / "config.cfg").unlink()
    capsys.readouterr()
    if command == "analyze":
        # a record's eta values need no radii: analyze prints the summary
        # but for its concentration events, which come from the snapshots
        assert main([command, str(run_dir)]) == 0
        summary = (run_dir / "summary.txt").read_text().splitlines(keepends=True)
        events = [ln for ln in summary if ln.startswith("concentration_event:")]
        assert events and capsys.readouterr().out == "".join(
            ln for ln in summary if ln not in events
        )
        return
    assert main([command, str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert f"missing config.cfg in {run_dir}" in err
    assert "3 eta columns" in err


def test_analyze_and_blowup_read_config_with_retired_keys(dumbbell_cli_run, tmp_path, capsys):
    retired = "".join(f"{key} = {value}\n" for key, value in RETIRED_KEYS.items())
    outputs = []
    for name, extra in (("current", ""), ("old", retired)):
        run_dir = tmp_path / name
        shutil.copytree(dumbbell_cli_run[1], run_dir)
        for frame in run_dir.glob("frame_*"):
            frame.unlink()
        with open(run_dir / "config.cfg", "a", encoding="utf-8") as fh:
            fh.write(extra)
        assert main(["analyze", "--json", str(run_dir)]) == 0
        assert main(["blowup", str(run_dir)]) == 0
        frames = {f.name: f.read_bytes() for f in sorted(run_dir.glob("frame_*"))}
        outputs.append((capsys.readouterr().out, frames))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]


def test_blowup_sphere_no_concentration(tmp_path, capsys):
    cfg_path, out_dir = run_config(tmp_path, SPHERE_CFG, "sphere2")
    assert main(["run", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["blowup", str(out_dir), "--radii", "0.1"]) == 0
    assert "no concentration detected" in capsys.readouterr().out


def test_blowup_eps1_zero_triggers_everything(tmp_path, capsys):
    cfg_path, out_dir = run_config(tmp_path, SPHERE_CFG, "sphere3")
    assert main(["run", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["blowup", str(out_dir), "--eps1", "0"]) == 0
    out = capsys.readouterr().out
    assert "frame_00" in out
    assert "untriggered" not in out


def test_analyze_human_and_json(tmp_path, capsys):
    cfg_path, out_dir = run_config(tmp_path, MINI_SEMI_CFG, "mini2")
    assert main(["run", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "audit_area: pass" in text
    assert text == (out_dir / "summary.txt").read_text()
    assert main(["analyze", str(out_dir), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["monotonicity"]["area"]["passed"] is True


def test_analyze_does_not_read_snapshots(tmp_path, capsys):
    cfg_path, out_dir = run_config(tmp_path, SPHERE_CFG, "garbled")
    assert main(["run", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(out_dir), "--json"]) == 0
    clean = capsys.readouterr().out
    (out_dir / "step_00000000.off").write_text("OFF\nnot a mesh\n")
    assert main(["analyze", str(out_dir), "--json"]) == 0
    assert capsys.readouterr().out == clean


def test_analyze_missing_csv_exit_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path)]) == 2
    assert "diagnostics.csv" in capsys.readouterr().err


def test_analyze_single_record_run(tmp_path, capsys):
    template = SPHERE_CFG.replace("solver.max_steps = 40", "solver.max_steps = 0")
    cfg_path, out_dir = run_config(tmp_path, template, "no_steps")
    assert main(["run", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "audit_area: unavailable (need at least two records)" in text
    assert text == (out_dir / "summary.txt").read_text()
    assert main(["analyze", str(out_dir), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"] == 1
    assert payload["monotonicity"]["willmore"] == {"unavailable": "need at least two records"}


def synthetic_csv(tmp_path, tracefree, areas=None, dt=0.05, radii=()):
    """A run directory with only a diagnostics.csv; with radii, also a
    config.cfg that lists them and an eta column of zeros for each."""
    recs = []
    n = len(tracefree)
    areas = areas if areas is not None else [10.0] * n
    for i in range(n):
        recs.append(
            DiagnosticsRecord(
                step=i, t=i * dt, area=float(areas[i]), volume=1.0,
                willmore=4 * math.pi, tracefree_l2=float(tracefree[i]),
                gradH_l2=0.0, lapH_l2=0.0, max_abs_A=1.0, h_min=0.1,
                quality=0.9, sphericity=0.999, li_yau_ok=True,
                smallness_ok=True, eta=(0.0,) * len(radii),
            )
        )
    write_diagnostics_csv(recs, tmp_path / "diagnostics.csv")
    if radii:
        (tmp_path / "config.cfg").write_text(f"monitor.radii = {','.join(map(str, radii))}\n")
    return tmp_path


def test_analyze_header_only_csv_exit_2(tmp_path, capsys):
    run_dir = synthetic_csv(tmp_path, [])
    assert main(["analyze", str(run_dir)]) == 2
    assert "no records" in capsys.readouterr().err


def test_analyze_empty_csv_exit_2(tmp_path, capsys):
    (tmp_path / "diagnostics.csv").write_text("")
    assert main(["analyze", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", "sdflow: error: empty diagnostics CSV\n")


@pytest.mark.parametrize("command", ["analyze", "blowup"])
@pytest.mark.parametrize(
    "name, byte, reason",
    [
        ("config.cfg", b"\xff", UTF8_FF),
        ("summary.txt", b"\xff", UTF8_FF),
        (
            "diagnostics.csv",
            b"\xe9",
            "'ascii' codec can't decode byte 0xe9 in position 0: ordinal not in range(128)",
        ),
    ],
    ids=["config", "summary", "csv"],
)
def test_run_dir_file_not_text_names_the_file(tmp_path, capsys, command, name, byte, reason):
    run_dir = synthetic_csv(tmp_path, [1.0, 0.5])
    path = run_dir / name
    path.write_bytes(byte + (path.read_bytes() if path.exists() else b""))
    assert main([command, str(run_dir)]) == 2
    assert capsys.readouterr().err == f"sdflow: error: {path}: {reason}\n"


def test_analyze_synthetic_exponential_lambda(tmp_path, capsys):
    ts = np.arange(400) * 0.05
    run_dir = synthetic_csv(tmp_path, np.exp(-2 * 0.7 * ts))
    assert main(["analyze", str(run_dir), "--json", "--fit-window", "auto"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["decay_fit"]["lambda"] - 0.7) < 1e-6


@pytest.mark.parametrize(
    "window, message",
    [
        ("5:1", "fit window must satisfy t1 > t0"),
        ("nan:1", "fit window must satisfy t1 > t0"),
        ("1:1", "fit window must satisfy t1 > t0"),
        ("1:2:3", "fit window must be 'auto' or 't0:t1'"),
    ],
    ids=["5:1", "nan:1", "1:1", "1:2:3"],
)
def test_analyze_impossible_fit_window_exit_2(tmp_path, capsys, window, message):
    run_dir = synthetic_csv(tmp_path, np.exp(-np.arange(40) * 0.1))
    assert main(["analyze", str(run_dir), "--fit-window", window]) == 2
    assert capsys.readouterr() == ("", f"sdflow: error: {message}\n")


def test_analyze_fit_window_past_the_run_is_unavailable(tmp_path, capsys):
    run_dir = synthetic_csv(tmp_path, np.exp(-np.arange(40) * 0.1))
    assert main(["analyze", str(run_dir), "--fit-window", "5:6"]) == 0
    assert "decay_fit: unavailable (empty fit window)\n" in capsys.readouterr().out
    assert main(["analyze", str(run_dir), "--json", "--fit-window", "5:6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["decay_fit"] == {"unavailable": "empty fit window"}


@pytest.mark.parametrize(
    "tracefree",
    [
        np.concatenate(([math.inf], np.exp(-np.arange(1, 40) * 0.1))),
        -1.0 - 0.1 * np.arange(40),
    ],
    ids=["inf_first", "negative"],
)
def test_analyze_initial_energy_not_positive_finite_is_unavailable(tmp_path, capsys, tracefree):
    reason = "initial energy not positive and finite"
    run_dir = synthetic_csv(tmp_path, tracefree)
    assert main(["analyze", str(run_dir)]) == 0
    out, err = capsys.readouterr()
    assert f"\ndecay_fit: unavailable ({reason})\n" in out and err == ""
    assert main(["analyze", str(run_dir), "--json"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["decay_fit"] == {"unavailable": reason} and err == ""


@pytest.mark.parametrize("window", ["0.01:0.05", "0:inf"])
def test_analyze_fit_window_is_fit_decays_window(tmp_path, capsys, window):
    ts = np.arange(60) * 0.002
    tracefree = np.exp(-1.4 * ts) * (1.0 + 0.01 * np.sin(37.0 * ts))
    run_dir = synthetic_csv(tmp_path, tracefree, dt=0.002)
    recs = read_diagnostics_csv(run_dir / "diagnostics.csv")
    fit = fit_decay(recs, window=tuple(map(float, window.split(":"))))
    assert main(["analyze", str(run_dir), "--fit-window", window]) == 0
    assert (
        f"decay_fit: lambda={fit['lambda']:.17g} r_squared={fit['r_squared']:.6f}"
        f" samples={fit['samples']} window=[{fit['t0']:.6g},{fit['t1']:.6g}]\n"
    ) in capsys.readouterr().out
    assert main(["analyze", str(run_dir), "--json", "--fit-window", window]) == 0
    assert json.loads(capsys.readouterr().out)["decay_fit"] == fit


def test_analyze_reversed_area_fails_with_step(tmp_path, capsys):
    areas = 10.0 * np.exp(-np.arange(30) * 0.05)
    run_dir = synthetic_csv(tmp_path, np.ones(30), areas=areas[::-1])
    assert main(["analyze", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "audit_area: fail violations=29 first_violating_step=1" in out


@pytest.mark.parametrize("row", [11, 20])
def test_analyze_nan_energy_fails_the_tracefree_audits(tmp_path, capsys, row):
    # a nan decides no comparison: the two steps next to it count as
    # violations, and best_constant is taken over the other steps, so it
    # does not depend on the row (the first step of the rate window at 11)
    ts, tracefree = np.arange(40) * 0.05, np.exp(-0.2 * np.arange(40))
    tracefree[row] = math.nan
    run_dir = synthetic_csv(tmp_path, tracefree)
    # lapH_l2 is 0, so each step's constant is its decay rate over the 1e-10
    # floor, least at the last step
    best = -(tracefree[39] - tracefree[38]) / (ts[39] - ts[38]) / 1e-10
    assert main(["analyze", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert f"\naudit_tracefree_l2: fail violations=2 first_violating_step={row}\n" in out
    assert f"\naudit_tracefree_rate: fail violations=2 best_constant={best:.6g}\n" in out
    assert main(["analyze", str(run_dir), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["monotonicity"]["tracefree_l2"] == {
        "passed": False, "violations": 2, "max_violation": None, "first_violating_step": row,
    }
    rate = payload["dissipation"]["tracefree_rate"]
    assert rate == {
        "passed": False, "violations": 2, "best_constant": rate["best_constant"], "samples": 29,
    }
    assert rate["best_constant"] == pytest.approx(best, rel=1e-12)


def reject_constant(name):
    """json.loads hook: NaN, Infinity and -Infinity are not JSON."""
    raise ValueError(f"not JSON: {name}")


@pytest.mark.parametrize("case", ["area_rises_once", "exponential"])
def test_audit_report_is_the_audits_and_analyze_json(tmp_path, capsys, case):
    ts = np.arange(40) * 0.05
    areas = 10.0 * np.exp(-ts)
    if case == "area_rises_once":
        areas[20] = areas[18]
    run_dir = synthetic_csv(tmp_path, np.exp(-2 * 0.7 * ts), areas=areas)
    recs = read_diagnostics_csv(run_dir / "diagnostics.csv")
    report = audit_report(recs)
    assert report == {
        "monotonicity": {q: audit_monotone(recs, q) for q in (AREA, TRACEFREE_L2, WILLMORE)},
        "dissipation": {w: audit_dissipation(recs[10:], w) for w in (AREA_RATE, TRACEFREE_RATE)},
        "decay_fit": fit_decay(recs),
    }
    area = report["monotonicity"]["area"]
    if case == "area_rises_once":
        assert area["violations"] == 1 and area["first_violating_step"] == 20
    else:
        assert area["passed"] and "first_violating_step" not in area
    assert report["decay_fit"]["lambda"] == pytest.approx(0.7, abs=1e-6)
    assert main(["analyze", str(run_dir), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert list(payload) == ["records", "stop_reason", *report]
    # NaN and the infinities are printed as null, so read them back as None
    nulled = json.loads(json.dumps(report, default=float), parse_constant=lambda _: None)
    assert json.dumps({k: payload[k] for k in report}) == json.dumps(nulled)
    assert main(["analyze", str(run_dir)]) == 0
    text = capsys.readouterr().out
    if case == "area_rises_once":
        assert "\naudit_area: fail violations=1 first_violating_step=20\n" in text
    else:
        assert "\naudit_area: pass violations=0\n" in text


def test_analyze_json_prints_nonfinite_numbers_as_null(tmp_path, capsys, monkeypatch):
    run_dir = synthetic_csv(tmp_path, [1.0, 0.5])
    report = {
        "nan": math.nan,
        "inner": {"nan": math.nan, "inf": math.inf, "minus_inf": -math.inf, "finite": 0.5},
        "minus_inf": -math.inf,
    }
    monkeypatch.setattr("sdflow.monitors.audit_report", lambda recs, window: report)
    assert main(["analyze", str(run_dir), "--json"]) == 0
    assert capsys.readouterr() == (
        "{\n"
        '  "records": 2,\n'
        '  "stop_reason": null,\n'
        '  "nan": null,\n'
        '  "inner": {\n'
        '    "nan": null,\n'
        '    "inf": null,\n'
        '    "minus_inf": null,\n'
        '    "finite": 0.5\n'
        "  },\n"
        '  "minus_inf": null\n'
        "}\n",
        "",
    )


def test_analyze_and_blowup_garbled_csv_value_exit_2(tmp_path, capsys):
    run_dir = synthetic_csv(tmp_path, [1.0, 0.5, 0.25])
    path = run_dir / "diagnostics.csv"
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace(",0.050000000000000003,", ",abc,", 1)
    assert ",abc," in lines[2]
    path.write_text("\n".join(lines) + "\n")
    for command in ("analyze", "blowup"):
        assert main([command, str(run_dir)]) == 2
        assert "diagnostics CSV line 3:" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["area", "volume"])
def test_analyze_csv_row_without_positive_area_or_volume_exit_2(tmp_path, capsys, field):
    run_dir = synthetic_csv(tmp_path, [1.0, 0.5, 0.25])
    path = run_dir / "diagnostics.csv"
    header, *rows = path.read_text().splitlines()
    column = header.split(",").index(field)
    cells = rows[0].split(",")
    cells[column] = "0"
    path.write_text("\n".join([header, ",".join(cells), *rows[1:]]) + "\n")
    assert main(["analyze", str(run_dir)]) == 2
    assert capsys.readouterr() == (
        "",
        "sdflow: error: diagnostics CSV line 2: area and volume must be positive\n",
    )


def test_analyze_records_at_one_time_exit_0(tmp_path, capsys):
    run_dir = synthetic_csv(tmp_path, np.ones(25), dt=0.0)
    assert main(["analyze", str(run_dir)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "audit_area_rate: unavailable (record times must increase)" in out
    assert "audit_tracefree_rate: unavailable (record times must increase)" in out


# the fit is refused before np.polyfit, whose LAPACK call would print to the
# process's stderr (capfd reads the file descriptors)
def test_analyze_fit_over_records_at_one_time_exit_0(tmp_path, capfd):
    run_dir = synthetic_csv(tmp_path, np.exp(-0.2 * np.arange(40)), dt=0.0)
    assert main(["analyze", str(run_dir)]) == 0
    out, err = capfd.readouterr()
    assert "decay_fit: unavailable (record times must increase)" in out.splitlines()
    assert err == ""


# one audit dict of each kind that audit_report collects, for every audit
# name, and the audit lines that _record_lines prints for them
RECORD_LINE_CASES = {
    "pass": (
        {"passed": True, "violations": 0, "max_violation": 0.0},
        {"passed": True, "median_rel_error": 0.0022727249, "samples": 30},
        {"passed": True, "violations": 0, "best_constant": 0.96435912, "samples": 30},
        [
            "audit_area: pass violations=0",
            "audit_tracefree_l2: pass violations=0",
            "audit_willmore: pass violations=0",
            "audit_area_rate: pass median_rel_error=0.00227272",
            "audit_tracefree_rate: pass violations=0 best_constant=0.964359",
        ],
    ),
    "violating": (
        {"passed": False, "violations": 2, "max_violation": 0.5, "first_violating_step": 7},
        {"passed": False, "median_rel_error": 0.86734712, "samples": 85},
        {"passed": False, "violations": 85, "best_constant": -0.0, "samples": 85},
        [
            "audit_area: fail violations=2 first_violating_step=7",
            "audit_tracefree_l2: fail violations=2 first_violating_step=7",
            "audit_willmore: fail violations=2 first_violating_step=7",
            "audit_area_rate: fail median_rel_error=0.867347",
            "audit_tracefree_rate: fail violations=85 best_constant=-0",
        ],
    ),
    "unavailable": (
        {"unavailable": "need at least two records"},
        {"unavailable": "record times must increase"},
        {"unavailable": "nonuniform dt window"},
        [
            "audit_area: unavailable (need at least two records)",
            "audit_tracefree_l2: unavailable (need at least two records)",
            "audit_willmore: unavailable (need at least two records)",
            "audit_area_rate: unavailable (record times must increase)",
            "audit_tracefree_rate: unavailable (nonuniform dt window)",
        ],
    ),
}


@pytest.mark.parametrize("case", list(RECORD_LINE_CASES))
def test_record_lines_print_each_audit_field_its_dict_holds(tmp_path, monkeypatch, case):
    monotone, area_rate, tracefree_rate, audit_lines = RECORD_LINE_CASES[case]
    report = {
        "monotonicity": {q: monotone for q in (AREA, TRACEFREE_L2, WILLMORE)},
        "dissipation": {AREA_RATE: area_rate, TRACEFREE_RATE: tracefree_rate},
        "decay_fit": {"unavailable": "no post-transient tail: energy never halved"},
    }
    monkeypatch.setattr("sdflow.monitors.audit_report", lambda recs, window: report)
    trajectory = load_run_records(synthetic_csv(tmp_path, [1.0, 0.5, 0.25]))
    assert _record_lines(trajectory) == [
        "stop_reason: None",
        "steps: 2",
        "t_final: 0.10000000000000001",
        "area_initial: 10",
        "area_final: 10",
        "area_drift_rel: 0.000000e+00",
        "volume_drift_rel: 0.000000e+00",
        "tracefree_initial: 1",
        "tracefree_final: 0.25",
        "sphericity_final: 0.999",
        "li_yau_ok_all: True",
        "smallness_ok_all: True",
        *audit_lines,
        "decay_fit: unavailable (no post-transient tail: energy never halved)",
    ]


@pytest.mark.parametrize("failure", ["unreadable_snapshot", "missing_config"])
def test_failed_blowup_leaves_no_earlier_frames(dumbbell_cli_run, tmp_path, capsys, failure):
    run_dir = tmp_path / "run"
    shutil.copytree(dumbbell_cli_run[1], run_dir)
    assert main(["blowup", str(run_dir), "--eps1", "0"]) == 0
    assert len(list(run_dir.glob("frame_*.off"))) == len(list(run_dir.glob("frame_*.meta"))) == 3
    if failure == "unreadable_snapshot":
        last = sorted(run_dir.glob("step_*.off"))[-1]
        last.write_text("OFF\n99999999999999999999 1 0\n")
        message = f"{last}: truncated OFF file"
    else:
        (run_dir / "config.cfg").unlink()
        message = f"missing config.cfg in {run_dir}: it holds the monitor radii"
    capsys.readouterr()
    assert main(["blowup", str(run_dir), "--eps1", "0"]) == 2
    assert capsys.readouterr().err.startswith(f"sdflow: error: {message}")
    assert not list(run_dir.glob("frame_*"))


def test_blowup_leaves_a_directory_without_a_csv_as_it_is(dumbbell_cli_run, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(dumbbell_cli_run[1], run_dir)
    assert main(["blowup", str(run_dir), "--eps1", "0"]) == 0
    (run_dir / "diagnostics.csv").unlink()
    before = sorted(os.listdir(run_dir))
    assert main(["blowup", str(run_dir), "--eps1", "0"]) == 2
    assert f"missing diagnostics.csv in {run_dir}" in capsys.readouterr().err
    assert sorted(os.listdir(run_dir)) == before

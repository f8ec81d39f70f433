"""Run configuration text format, diagnostics CSV, and run-directory layout.

A run config is flat `key = value` text with section prefixes (initial.,
solver., monitor., output.).  It round-trips losslessly (RunConfig rejects
a path that holds `#` or a line break or has surrounding whitespace),
unknown keys are rejected, and a retired key is accepted at its fixed value
only.  RunConfig extends flow.SolverConfig and checks itself when it is
built, so a config file and a command-line flag pass the same checks; one
table maps each generator kind to its builder; a mesh file must have finite
coordinates and every vertex on a face, and be closed, oriented and
nondegenerate.
The diagnostics CSV columns are the DiagnosticsRecord fields in
declaration order, with eta written as one column per monitor radius in
the config's order; only config.cfg names those radii.  A run
directory holds config.cfg (which blowup needs), diagnostics.csv,
snapshots step_%08d.off, summary.txt, and the blowup frames
frame_%02d.off with their .meta sidecars.  This module alone names,
writes and removes those files: a run written into a directory replaces
an earlier run's snapshots and blowup frames, and a blowup replaces an
earlier blowup's frames.
"""

from __future__ import annotations

import errno
import os
import re
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .blowup import frame_metadata_text
from .flow import CG_RTOL, CURVATURE_SCALE_MAX, QUALITY_MIN, SolverConfig, Trajectory
from .generators import (
    make_dumbbell,
    make_ellipsoid,
    make_icosphere,
    make_perturbed_sphere,
)
from .geometry import enclosed_volume
from .mesh import TriangleMesh, face_geometry, load_mesh_path, save_off, validate
from .monitors import EIGHT_PI, DiagnosticsRecord

SNAPSHOT_PATTERN = "step_%08d.off"
FRAME_PATTERN = "frame_%02d"  # + ".off" and ".meta"
# the names those patterns print
_SNAPSHOT_FILE = re.compile(r"^step_(\d{8,})\.off$")
_FRAME_FILE = re.compile(r"^frame_\d{2,}\.(off|meta)$")
CSV_NAME = "diagnostics.csv"
CONFIG_NAME = "config.cfg"
SUMMARY_NAME = "summary.txt"


class ConfigError(Exception):
    """Malformed, unknown, or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig(SolverConfig):
    """A run as its config file states it: the solver and monitor settings
    it inherits, plus the initial data, the event threshold and the output
    directory."""

    # initial data
    kind: str = "icosphere"
    radius: float = 1.0
    subdiv: int = 4
    modes: tuple = ()  # ((l, m, amp), ...)
    seed: int | None = None
    rx: float = 1.0
    ry: float = 1.0
    rz: float = 1.0
    bulb_radius: float = 1.0
    neck_radius: float = 0.15
    neck_length: float = 2.0
    n_phi: int = 48
    n_rings: int = 96
    mesh_path: str = ""
    # monitors
    eps1: float = EIGHT_PI / 100.0
    # output
    out_dir: str = "run_out"

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in _BUILDERS:
            raise ValueError(f"unknown generator: {self.kind}")
        if not self.eps1 >= 0:
            raise ValueError("eps1 must be nonnegative")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.out_dir:
            raise ValueError("out_dir must not be empty")
        # a config line ends at a line break and a `#`, and its value is stripped
        for name in ("mesh_path", "out_dir"):
            value = getattr(self, name)
            if "#" in value or len(value.splitlines()) > 1 or value != value.strip():
                raise ValueError(
                    f"{name} must not hold '#' or a line break, nor begin or end with"
                    f" whitespace: {value!r}"
                )

    def build_initial(self) -> TriangleMesh:
        return _BUILDERS[self.kind](self)


def _load_initial_mesh(cfg: RunConfig) -> TriangleMesh:
    if not cfg.mesh_path:
        raise ConfigError("initial.kind = mesh requires initial.path")
    mesh = load_mesh_path(cfg.mesh_path)
    if not mesh.num_faces:
        raise ConfigError(f"{cfg.mesh_path}: no faces")
    if not np.isfinite(mesh.vertices).all():
        raise ConfigError(f"{cfg.mesh_path}: non-finite vertex coordinate")
    if len(mesh.topology.rows) < mesh.num_vertices:
        raise ConfigError(f"{cfg.mesh_path}: vertex on no face")
    report = validate(mesh)
    if not (report.is_closed and report.is_oriented):
        raise ConfigError(f"{cfg.mesh_path}: not a closed oriented surface ({report.summary()})")
    fg = face_geometry(mesh)
    if fg.degenerate:
        raise ConfigError(f"{cfg.mesh_path}: degenerate face")
    if not enclosed_volume(fg) > 0:
        raise ConfigError(f"{cfg.mesh_path}: enclosed volume not positive (faces wound inward?)")
    return mesh


# initial.kind -> the builder of its mesh
_BUILDERS = {
    "icosphere": lambda c: make_icosphere(c.radius, c.subdiv),
    "perturbed_sphere": lambda c: make_perturbed_sphere(
        c.radius, c.modes, seed=c.seed, subdivisions=c.subdiv
    ),
    "ellipsoid": lambda c: make_ellipsoid(c.rx, c.ry, c.rz, c.subdiv),
    "dumbbell": lambda c: make_dumbbell(
        c.bulb_radius, c.neck_radius, c.neck_length, n_phi=c.n_phi, n_rings=c.n_rings
    ),
    "mesh": _load_initial_mesh,
}


def _fmt_float(x) -> str:
    """repr of x as a Python float: a numpy scalar's repr, np.float64(...),
    would not parse back."""
    return repr(float(x))


def _fmt_modes(modes) -> str:
    return ";".join(f"{int(l)},{int(m)},{_fmt_float(amp)}" for (l, m, amp) in modes)


def parse_mode(text: str):
    """One `l,m,amp` triple, as initial.modes and `sdflow gen --mode` give it."""
    bits = text.split(",")
    if len(bits) != 3:
        raise ConfigError(f"malformed mode triple: {text!r}")
    return int(bits[0]), int(bits[1]), float(bits[2])


def _parse_tuple(text: str, sep: str, parse_item) -> tuple:
    text = text.strip()
    return tuple(parse_item(part) for part in text.split(sep)) if text else ()


def _fmt_radii(radii) -> str:
    return ",".join(_fmt_float(r) for r in radii)


def parse_radii(text: str):
    """monitor.radii, as the config file and `sdflow blowup --radii` give it."""
    return _parse_tuple(text, ",", float)


def _parse_bool(text: str, true: str = "true", false: str = "false") -> bool:
    if text not in (true, false):
        raise ValueError(f"expected {true}/{false}, got {text!r}")
    return text == true


def _parse_seed(text: str):
    return None if text == "none" else int(text)


# key -> (attribute, to_text, from_text)
_KEY_TABLE = {
    "initial.kind": ("kind", str, str),
    "initial.radius": ("radius", _fmt_float, float),
    "initial.subdiv": ("subdiv", str, int),
    "initial.modes": ("modes", _fmt_modes, lambda t: _parse_tuple(t, ";", parse_mode)),
    "initial.seed": ("seed", lambda s: "none" if s is None else str(s), _parse_seed),
    "initial.rx": ("rx", _fmt_float, float),
    "initial.ry": ("ry", _fmt_float, float),
    "initial.rz": ("rz", _fmt_float, float),
    "initial.bulb_radius": ("bulb_radius", _fmt_float, float),
    "initial.neck_radius": ("neck_radius", _fmt_float, float),
    "initial.neck_length": ("neck_length", _fmt_float, float),
    "initial.n_phi": ("n_phi", str, int),
    "initial.n_rings": ("n_rings", str, int),
    "initial.path": ("mesh_path", str, str),
    "solver.scheme": ("scheme", str, str),
    "solver.dt_policy": ("dt_policy", str, str),
    "solver.dt": ("dt", _fmt_float, float),
    "solver.cfl_sigma": ("cfl_sigma", _fmt_float, float),
    "solver.t_end": ("t_end", _fmt_float, float),
    "solver.max_steps": ("max_steps", str, int),
    "solver.volume_correction": (
        "volume_correction",
        lambda b: "true" if b else "false",
        _parse_bool,
    ),
    "solver.snapshot_every": ("snapshot_every", str, int),
    "monitor.radii": ("monitor_radii", _fmt_radii, parse_radii),
    "monitor.eps1": ("eps1", _fmt_float, float),
    "output.dir": ("out_dir", str, str),
}

# keys earlier versions wrote for settings that are now fixed in the code ->
# the fixed value, the only one a config may still give them
_RETIRED_KEYS = {
    "solver.linear_tol": CG_RTOL,
    "solver.linear_max_iter": 0,  # meant 10 CG iterations per vertex
    "solver.stop_sphericity": 1.0,  # sphericity < 1 on closed surfaces: never fired
    "solver.quality_floor": QUALITY_MIN,
    "solver.curvature_ceiling": CURVATURE_SCALE_MAX,
    "monitor.eps0": EIGHT_PI,
}


def config_to_text(cfg: RunConfig) -> str:
    lines = []
    for key, (attr, to_text, _) in _KEY_TABLE.items():
        lines.append(f"{key} = {to_text(getattr(cfg, attr))}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEY_TABLE and key not in _RETIRED_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        # a retired key is read as a float under its own name, checked below
        attr, _, from_text = _KEY_TABLE.get(key, (key, None, float))
        if attr in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[attr] = from_text(val)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    for key, fixed in _RETIRED_KEYS.items():
        if values.pop(key, fixed) != fixed:
            raise ConfigError(f"{key} is fixed at {fixed!r}")
    try:
        return RunConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read_text(path, encoding: str) -> str:
    """The file's text; a decode error names the file: `<path>: <reason>`."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path) -> RunConfig:
    return parse_config(_read_text(path, "utf-8"))


# ---------------------------------------------------------------------------
# diagnostics CSV (schema frozen; 17 significant digits, flags as 0/1)
# ---------------------------------------------------------------------------


_TO_TEXT = {bool: lambda b: "1" if b else "0", int: str, float: lambda x: f"{x:.17g}"}
_FROM_TEXT = {bool: lambda s: _parse_bool(s, "1", "0"), int: int, float: float}

# every DiagnosticsRecord field but eta, as (name, type); eta becomes one
# eta_r<i> column per monitor radius
_CSV_FIELDS = tuple(
    (name, kind)
    for name, kind in get_type_hints(DiagnosticsRecord).items()
    if name != "eta"
)
CSV_FIXED_COLUMNS = tuple(name for name, _ in _CSV_FIELDS)


def csv_header(n_radii: int) -> str:
    extra = [f"eta_r{i+1}" for i in range(n_radii)]
    return ",".join(CSV_FIXED_COLUMNS + tuple(extra))


def record_to_csv_row(rec: DiagnosticsRecord) -> str:
    vals = [_TO_TEXT[kind](getattr(rec, name)) for name, kind in _CSV_FIELDS]
    vals.extend(f"{val:.17g}" for val in rec.eta)
    return ",".join(vals)


def write_diagnostics_csv(records, path) -> None:
    n_radii = len(records[0].eta) if records else 0
    lines = [csv_header(n_radii)]
    lines.extend(record_to_csv_row(rec) for rec in records)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_diagnostics_csv(path) -> list:
    """The records of a diagnostics CSV, eta read from its eta_r<i> columns;
    each record's area and volume must be positive."""
    text = _read_text(path, "ascii")
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ConfigError("empty diagnostics CSV")
    header = lines[0][1].split(",")
    if lines[0][1] != csv_header(len(header) - len(CSV_FIXED_COLUMNS)):
        raise ConfigError("diagnostics CSV header does not match the frozen schema")
    if len(lines) == 1:
        raise ConfigError("diagnostics CSV has no records")
    records = []
    for lineno, ln in lines[1:]:
        toks = ln.split(",")
        if len(toks) != len(header):
            raise ConfigError(
                f"diagnostics CSV line {lineno}: expected {len(header)} values, found {len(toks)}"
            )
        try:
            values = {name: _FROM_TEXT[kind](tok) for (name, kind), tok in zip(_CSV_FIELDS, toks)}
            eta = tuple(map(float, toks[len(CSV_FIXED_COLUMNS) :]))
        except ValueError as exc:
            raise ConfigError(f"diagnostics CSV line {lineno}: {exc}") from exc
        # monitors.diagnostics records neither: the run stops first
        if not (values["area"] > 0 and values["volume"] > 0):
            raise ConfigError(f"diagnostics CSV line {lineno}: area and volume must be positive")
        records.append(DiagnosticsRecord(**values, eta=eta))
    return records


# ---------------------------------------------------------------------------
# run directory
# ---------------------------------------------------------------------------


def _remove_matching(directory, *patterns) -> None:
    for name in os.listdir(directory):
        if any(p.match(name) for p in patterns):
            os.remove(os.path.join(directory, name))


def check_out_dir(out_dir) -> None:
    """Refuse, before a run and creating nothing, an out_dir that is or lies
    under a file that is not a directory: write_run_dir could not make it."""
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def write_run_dir(out_dir, trajectory: Trajectory, summary: str) -> None:
    """Write a run directory; trajectory.config must be the run's RunConfig.
    The snapshots and frames an earlier run left in it are removed first."""
    os.makedirs(out_dir, exist_ok=True)
    _remove_matching(out_dir, _SNAPSHOT_FILE, _FRAME_FILE)
    with open(os.path.join(out_dir, CONFIG_NAME), "w", encoding="utf-8") as fh:
        fh.write(config_to_text(trajectory.config))
    write_diagnostics_csv(trajectory.records, os.path.join(out_dir, CSV_NAME))
    for step in sorted(trajectory.snapshots):
        save_off(
            trajectory.snapshots[step], os.path.join(out_dir, SNAPSHOT_PATTERN % step)
        )
    with open(os.path.join(out_dir, SUMMARY_NAME), "w", encoding="utf-8") as fh:
        fh.write(summary)


def load_run_records(run_dir) -> Trajectory:
    """Reload a run directory's trajectory without its snapshots: the
    diagnostics records, the stop reason from summary.txt, and as config
    the parsed config.cfg, or None without one; its radii must number the
    CSV's eta columns."""
    cfg_path = os.path.join(run_dir, CONFIG_NAME)
    csv_path = os.path.join(run_dir, CSV_NAME)
    if not os.path.exists(csv_path):
        raise ConfigError(f"missing {CSV_NAME} in {run_dir}")
    cfg = load_config(cfg_path) if os.path.exists(cfg_path) else None
    records = read_diagnostics_csv(csv_path)
    n_eta = len(records[0].eta)
    if cfg is not None and len(cfg.monitor_radii) != n_eta:
        raise ConfigError(
            f"CSV has {n_eta} eta columns but {CONFIG_NAME} has"
            f" {len(cfg.monitor_radii)} monitor radii"
        )
    stop_reason = None
    summary_path = os.path.join(run_dir, SUMMARY_NAME)
    if os.path.exists(summary_path):
        for line in _read_text(summary_path, "utf-8").splitlines():
            if line.startswith("stop_reason:"):
                stop_reason = line.split(":", 1)[1].strip()
                break
    return Trajectory(
        records=records,
        snapshots={},
        stop_reason=stop_reason,
        config=cfg,
    )


def load_run_dir(run_dir) -> Trajectory:
    """load_run_records plus the snapshot meshes, read from their OFF files;
    the run directory must hold its config.cfg.  Every snapshot is read
    with the first as loads_off's `like`: it shares the first's faces and
    MeshTopology only if it holds their face block as save_off wrote it."""
    trajectory = load_run_records(run_dir)
    if trajectory.config is None:
        raise ConfigError(
            f"missing {CONFIG_NAME} in {run_dir}: it holds the monitor radii of the"
            f" CSV's {len(trajectory.records[0].eta)} eta columns"
        )
    first = None
    for name in sorted(os.listdir(run_dir)):
        match = _SNAPSHOT_FILE.match(name)
        if match:
            mesh = load_mesh_path(os.path.join(run_dir, name), like=first)
            if first is None:
                first = mesh
            trajectory.snapshots[int(match.group(1))] = mesh
    return trajectory


def write_frames(run_dir, frames) -> None:
    """Replace the blowup frames in a run directory: remove every frame an
    earlier blowup left, then write frame_%02d.off and its .meta for each
    of `frames` in order."""
    _remove_matching(run_dir, _FRAME_FILE)
    for i, frame in enumerate(frames):
        base = os.path.join(run_dir, FRAME_PATTERN % i)
        save_off(frame.mesh, base + ".off")
        with open(base + ".meta", "w", encoding="utf-8") as fh:
            fh.write(frame_metadata_text(frame))

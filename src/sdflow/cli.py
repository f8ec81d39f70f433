"""Command-line front end: gen, run, analyze, blowup.

The `gen` flags and `blowup --radii/--eps1` set run-config values, which
RunConfig (and for `gen` the generator) checks.  `--mode` and `--radii` go
through the config file's parsers; the numeric flags are argparse's.

Exit codes: 0 clean stop, 2 usage, config, initial-data or output error (an
initial record or a blowup frame that is not finite included), 3
singularity-proxy stop (quality floor or curvature ceiling), 4 divergence.
The commands raise their input and output failures; `main` alone turns
them into `sdflow: error: <message>` and exit 2.  The names of run-directory
files, snapshots and blowup frames alike, belong to `runio`.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

from . import blowup as blowup_mod
from . import flow, monitors, runio
from .mesh import MeshError, is_obj_path, save_off, validate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SINGULARITY = 3
EXIT_DIVERGED = 4

# an audit line's fields after pass or fail, in order, each with its format;
# a line prints the ones its audit's dict holds
_AUDIT_FIELDS = (
    ("median_rel_error", ".6g"),
    ("violations", ""),
    ("best_constant", ".6g"),
    ("first_violating_step", ""),
)


def cmd_gen(args) -> int:
    # gen writes OFF, which a name that reads as OBJ could not load back
    if is_obj_path(args.output):
        raise MeshError(f"{args.output}: gen writes OFF; an .obj name is read as OBJ")
    # only the flags given, each stored under its RunConfig field; RunConfig
    # holds every default
    fields = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "generator", "output") and value is not None
    }
    if "modes" in fields:
        fields["modes"] = tuple(runio.parse_mode(m) for m in fields["modes"])
    mesh = runio.RunConfig(kind=args.generator, **fields).build_initial()
    save_off(mesh, args.output)
    report = validate(mesh)
    print(f"{args.output}: V={mesh.num_vertices} F={mesh.num_faces} {report.summary()}")
    return EXIT_OK


def _record_lines(trajectory: flow.Trajectory, window=None) -> list:
    """summary.txt's run totals, audit lines and decay fit over `window`,
    which `sdflow analyze` prints: all but the concentration events."""
    recs = trajectory.records
    first, last = recs[0], recs[-1]
    lines = [
        f"stop_reason: {trajectory.stop_reason}",
        f"steps: {last.step}",
        f"t_final: {last.t:.17g}",
        f"area_initial: {first.area:.17g}",
        f"area_final: {last.area:.17g}",
        f"area_drift_rel: {(last.area - first.area) / first.area:.6e}",
        f"volume_drift_rel: {(last.volume - first.volume) / first.volume:.6e}",
        f"tracefree_initial: {first.tracefree_l2:.17g}",
        f"tracefree_final: {last.tracefree_l2:.17g}",
        f"sphericity_final: {last.sphericity:.17g}",
        f"li_yau_ok_all: {all(r.li_yau_ok for r in recs)}",
        f"smallness_ok_all: {all(r.smallness_ok for r in recs)}",
    ]
    report = monitors.audit_report(recs, window=window)
    for name, audit in (*report["monotonicity"].items(), *report["dissipation"].items()):
        if "unavailable" in audit:
            lines.append(f"audit_{name}: unavailable ({audit['unavailable']})")
            continue
        fields = "".join(f" {k}={audit[k]:{spec}}" for k, spec in _AUDIT_FIELDS if k in audit)
        lines.append(f"audit_{name}: {'pass' if audit['passed'] else 'fail'}{fields}")
    fit = report["decay_fit"]
    if "unavailable" in fit:
        lines.append(f"decay_fit: unavailable ({fit['unavailable']})")
    else:
        lines.append(
            f"decay_fit: lambda={fit['lambda']:.17g} r_squared={fit['r_squared']:.6f}"
            f" samples={fit['samples']} window=[{fit['t0']:.6g},{fit['t1']:.6g}]"
        )
    return lines


def _summarize(trajectory: flow.Trajectory) -> str:
    cfg = trajectory.config
    lines = _record_lines(trajectory)
    if trajectory.stop_reason in flow.SINGULARITY_STOPS and cfg.monitor_radii:
        events = blowup_mod.detect(trajectory, cfg.monitor_radii, cfg.eps1)
        for ev in events:
            if ev.triggered:
                lines.append(
                    f"concentration_event: r={ev.r:g} t_j={ev.t:.6g}"
                    f" x_j=({ev.center[0]:.4g},{ev.center[1]:.4g},{ev.center[2]:.4g})"
                    f" eta={ev.eta_at_t:.6g}"
                )
            else:
                lines.append(f"concentration_event: r={ev.r:g} untriggered")
    return "\n".join(lines) + "\n"


def cmd_run(args) -> int:
    try:
        cfg = runio.load_config(args.config)
    except (OSError, runio.ConfigError) as exc:
        raise runio.ConfigError(f"bad config: {exc}") from exc
    out_dir = args.out or cfg.out_dir
    runio.check_out_dir(out_dir)
    trajectory = flow.run(cfg.build_initial(), cfg)
    summary = _summarize(trajectory)
    runio.write_run_dir(out_dir, trajectory, summary)
    print(summary, end="")
    if trajectory.stop_reason == flow.DIVERGED:
        return EXIT_DIVERGED
    if trajectory.stop_reason in flow.SINGULARITY_STOPS:
        return EXIT_SINGULARITY
    return EXIT_OK


def _fit_window(text: str):
    if text == "auto":
        return None
    bits = text.split(":")
    if len(bits) != 2:
        raise ValueError("fit window must be 'auto' or 't0:t1'")
    t0, t1 = float(bits[0]), float(bits[1])
    if not t1 > t0:
        raise ValueError("fit window must satisfy t1 > t0")
    return t0, t1


def cmd_analyze(args) -> int:
    window = _fit_window(args.fit_window)
    trajectory = runio.load_run_records(args.run_dir)
    if not args.json:
        print(*_record_lines(trajectory, window), sep="\n")
        return EXIT_OK
    recs = trajectory.records
    out = {
        "records": len(recs),
        "stop_reason": trajectory.stop_reason,
        **monitors.audit_report(recs, window=window),
    }
    # parse_constant reads json's NaN, Infinity and -Infinity back as null
    print(json.dumps(json.loads(json.dumps(out), parse_constant=lambda _: None), indent=2))
    return EXIT_OK


def cmd_blowup(args) -> int:
    overrides = {"monitor_radii": runio.parse_radii(args.radii)} if args.radii else {}
    if args.eps1 is not None:
        overrides["eps1"] = args.eps1
    # the flags pass the checks of the config values they override before a
    # run directory's earlier frames go, so a blowup that fails leaves none
    runio.RunConfig(**overrides)
    if os.path.isfile(os.path.join(args.run_dir, runio.CSV_NAME)):
        runio.write_frames(args.run_dir, [])
    trajectory = runio.load_run_dir(args.run_dir)
    cfg = replace(trajectory.config, **overrides)
    if not cfg.monitor_radii:
        raise runio.ConfigError("no radii given and none recorded in the run config")
    events = blowup_mod.detect(trajectory, cfg.monitor_radii, cfg.eps1)
    frames = [blowup_mod.rescale_frame(trajectory, ev) for ev in events if ev.triggered]
    runio.write_frames(args.run_dir, frames)
    print(f"radius    t_j         eta          center")
    for ev in events:
        if ev.triggered:
            print(
                f"{ev.r:<9g} {ev.t:<11.5g} {ev.eta_at_t:<12.6g}"
                f" ({ev.center[0]:.4g}, {ev.center[1]:.4g}, {ev.center[2]:.4g})"
            )
        else:
            print(f"{ev.r:<9g} untriggered")
    if not frames:
        print("no concentration detected")
    for i, frame in enumerate(frames):
        print(
            f"{runio.FRAME_PATTERN % i}: r={frame.event.r:g}"
            f" unit_ball_curvature={frame.unit_ball_curvature:.6g}"
            f" residual_normalized={frame.residual_normalized:.6g}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdflow",
        description="Surface diffusion flow laboratory on closed triangle meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an initial mesh and write OFF")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    g_ico = gen_sub.add_parser("icosphere")
    g_ico.add_argument("--radius", type=float)
    g_ico.add_argument("--subdiv", type=int)
    g_pert = gen_sub.add_parser("perturbed_sphere")
    g_pert.add_argument("--radius", type=float)
    g_pert.add_argument("--subdiv", type=int)
    g_pert.add_argument(
        "--mode", action="append", dest="modes", metavar="l,m,amp",
        help="spherical harmonic mode, repeatable",
    )
    g_pert.add_argument("--seed", type=int)
    g_ell = gen_sub.add_parser("ellipsoid")
    g_ell.add_argument("--rx", type=float)
    g_ell.add_argument("--ry", type=float)
    g_ell.add_argument("--rz", type=float)
    g_ell.add_argument("--subdiv", type=int)
    g_dumb = gen_sub.add_parser("dumbbell")
    g_dumb.add_argument("--bulb", type=float, dest="bulb_radius", metavar="BULB")
    g_dumb.add_argument("--neck", type=float, dest="neck_radius", metavar="NECK")
    g_dumb.add_argument("--len", type=float, dest="neck_length", metavar="LEN")
    g_dumb.add_argument("--n-phi", type=int)
    g_dumb.add_argument("--n-rings", type=int)
    for sp in (g_ico, g_pert, g_ell, g_dumb):
        sp.add_argument("-o", "--output", required=True)

    runp = sub.add_parser("run", help="run a flow from a config file")
    runp.add_argument("config")
    runp.add_argument("--out", default=None, help="override output.dir")

    ana = sub.add_parser("analyze", help="audits and decay fits for a run directory")
    ana.add_argument("run_dir")
    ana.add_argument("--json", action="store_true")
    ana.add_argument("--fit-window", default="auto", metavar="auto|t0:t1")

    blw = sub.add_parser("blowup", help="detect concentration and write frames")
    blw.add_argument("run_dir")
    blw.add_argument("--eps1", type=float, default=None)
    blw.add_argument("--radii", default=None, metavar="r1,r2,...")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "gen": cmd_gen,
        "run": cmd_run,
        "analyze": cmd_analyze,
        "blowup": cmd_blowup,
    }[args.command]
    try:
        return handler(args)
    except (OSError, ValueError, MeshError, runio.ConfigError, monitors.NumericsError) as exc:
        print(f"sdflow: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""sdflow benchmark: end-to-end cost of fixed workloads, and a traced run
that breaks it down by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the repository root.  Each repetition runs the workload's
`sdflow` command(s) in a fresh child interpreter (`child.py`), one child at a
time, with SDFLOW_THREADS and the BLAS/OpenMP thread variables pinned in the
child's environment.  Repetitions continue until S seconds of measuring have
passed.  Every repetition's outputs are checked; see NOTES.md for the checks,
the workloads and the metrics.

With `--trace 0` the last line of standard output is one JSON object with the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of the
traced repetitions.  The exit code is 1 when an output check failed and 2
when the program under test cannot be found.  `--smoke` runs every workload
at tiny step counts, untraced and traced, as a quick check while developing;
it is not the measured configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402

THREADS = 1
THREAD_VARS = (
    "SDFLOW_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
WORK_DIR = ".perfbench"
MIN_REPS = 3
SETUP_SAMPLES = 3  # set-up-only children per invocation, besides one per repetition
CHILD_TIMEOUT_S = 120
HARD_STOP_S = 150  # start no repetition that would likely end after this
# Median time of child.calibration_samples on the machine the benchmark was
# defined on (2-vCPU Intel Xeon VM, numpy 2.4, one thread).
CALIBRATION_REF_S = 0.014

EXPLICIT_SPHERE = """\
initial.kind = perturbed_sphere
initial.radius = 1.0
initial.subdiv = 4
initial.modes = 2,0,0.1
initial.seed = {seed}
solver.scheme = explicit
solver.dt_policy = cfl
solver.cfl_sigma = 0.005
solver.max_steps = {steps}
solver.snapshot_every = 25
"""

IMPLICIT_SPHERE = """\
initial.kind = perturbed_sphere
initial.radius = 1.0
initial.subdiv = 4
initial.modes = 2,0,0.3
initial.seed = {seed}
solver.scheme = semi_implicit
solver.dt_policy = fixed
solver.dt = 0.00045
solver.volume_correction = true
solver.max_steps = {steps}
solver.snapshot_every = 25
"""

EXPLICIT_DUMBBELL = """\
initial.kind = dumbbell
solver.scheme = explicit
solver.dt_policy = cfl
solver.cfl_sigma = 0.005
solver.max_steps = {steps}
solver.snapshot_every = {snapshot_every}
monitor.radii = 0.4,0.2,0.1
"""

# command: "run" times `sdflow run`; "post" times `sdflow analyze --json` and
# `sdflow blowup` on a copy of a run directory written once per invocation by
# the `source` workload's config.  steps/smoke_steps: accepted steps of the
# (source) run.  volume_drift: bound on |volume_drift_rel| in summary.txt.
WORKLOADS = {
    "explicit_sphere": dict(
        command="run", template=EXPLICIT_SPHERE, seeded=True,
        steps=40, smoke_steps=3, snapshot_every=25, volume_drift=1e-9,
    ),
    "implicit_sphere": dict(
        command="run", template=IMPLICIT_SPHERE, seeded=True,
        steps=12, smoke_steps=2, snapshot_every=25, volume_drift=1e-11,
    ),
    "explicit_dumbbell": dict(
        command="run", template=EXPLICIT_DUMBBELL, seeded=False,
        steps=8, smoke_steps=2, snapshot_every=2, volume_drift=1e-9,
    ),
    "postprocess_dumbbell": dict(
        command="post", template=EXPLICIT_DUMBBELL, seeded=False,
        steps=8, smoke_steps=2, snapshot_every=2, volume_drift=1e-9,
        source="explicit_dumbbell",
    ),
}

# Relative tolerance of the numbers in the outputs against reference.json.
REFERENCE_RTOL = 1e-6
# reference.json holds seeds 0..REFERENCE_SEEDS-1 of the seeded workloads; a
# benchmark seed s runs the workload with initial.seed = s % REFERENCE_SEEDS.
REFERENCE_SEEDS = 100
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


class CheckFailed(Exception):
    pass


def initial_seed(name, seed):
    """The `initial.seed` a benchmark seed gives, or None if the workload has
    no random input."""
    return seed % REFERENCE_SEEDS if WORKLOADS[name]["seeded"] else None


def config_text(name, seed, steps):
    w = WORKLOADS[name]
    init = initial_seed(name, seed)
    return w["template"].format(
        seed="none" if init is None else init, steps=steps, snapshot_every=w["snapshot_every"]
    )


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def run_child(mode, config, run_dir, rep_dir, spans=False):
    """Run child.py once; returns its result dict (with `spans_path`)."""
    os.makedirs(rep_dir, exist_ok=True)
    result_path = os.path.join(rep_dir, "result.json")
    spans_path = os.path.join(rep_dir, "spans.json") if spans else None
    log_path = os.path.join(rep_dir, "child.log")
    argv = [sys.executable, os.path.join(HERE, "child.py"), mode, config, run_dir, result_path]
    with open(log_path, "w", encoding="utf-8") as log:
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        argv.append(repr(t_spawn))
        if spans_path:
            argv.append(spans_path)
        try:
            proc = subprocess.run(
                argv, env=child_env(), stdout=log, stderr=log, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired as exc:
            raise CheckFailed(f"child killed after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        with open(log_path, "r", encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise CheckFailed(f"child exited {proc.returncode}:\n{tail}")
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    result["spans_path"] = spans_path
    return result


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def read_summary(path):
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, val = line.partition(":")
            out.setdefault(key.strip(), val.strip())
    return out


def final_row(csv_path):
    with open(csv_path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    return dict(zip(lines[0].split(","), lines[-1].split(",")))


def sha256_of(*paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def load_reference(name, seed):
    """The stored outputs of this workload for this seed: the final
    diagnostics row of a "run" workload, the post-processing outputs of a
    "post" one (see `read_post`)."""
    init = initial_seed(name, seed)
    key = "*" if init is None else str(init)
    with open(os.path.join(HERE, "reference.json"), "r", encoding="utf-8") as fh:
        table = json.load(fh).get(name, {})
    if key not in table:
        raise CheckFailed(f"reference.json has no entry {key!r} for {name}")
    return table[key]


def close(got, want):
    return abs(got - want) <= REFERENCE_RTOL * abs(want) + 1e-300


def check_text(what, got, want):
    """`got` reads as `want` with every number in it within REFERENCE_RTOL."""
    got_n, want_n = NUMBER.findall(got), NUMBER.findall(want)
    if NUMBER.sub("#", got) != NUMBER.sub("#", want) or len(got_n) != len(want_n):
        raise CheckFailed(f"{what}: text differs from reference.json")
    for g, w in zip(got_n, want_n):
        if not close(float(g), float(w)):
            raise CheckFailed(f"{what}: {g}, reference {w}")


def check_run_dir(name, run_dir, steps, reference):
    """Checks on a run directory written by `sdflow run`; returns the sha256
    of its diagnostics.csv."""
    w = WORKLOADS[name]
    summary = read_summary(os.path.join(run_dir, "summary.txt"))
    if summary.get("stop_reason") != "max_steps":
        raise CheckFailed(f"stop_reason {summary.get('stop_reason')!r}, expected max_steps")
    if summary.get("steps") != str(steps):
        raise CheckFailed(f"steps {summary.get('steps')!r}, expected {steps}")
    if not summary.get("audit_area", "").startswith("pass"):
        raise CheckFailed(f"audit_area {summary.get('audit_area')!r}")
    drift = abs(float(summary["volume_drift_rel"]))
    if not drift <= w["volume_drift"]:
        raise CheckFailed(f"volume drift {drift:.3e} above {w['volume_drift']:.0e}")
    csv_path = os.path.join(run_dir, "diagnostics.csv")
    if reference is not None:
        row = final_row(csv_path)
        if set(row) != set(reference):
            raise CheckFailed("diagnostics columns differ from the reference")
        for col, ref in reference.items():
            if not close(float(row[col]), float(ref)):
                raise CheckFailed(f"final {col} = {row[col]}, reference {ref}")
    return sha256_of(csv_path)


def read_post(rep_dir, run_dir):
    """The outputs of `analyze --json` and `blowup`: the analysis, the number
    of triggered events in blowup's table, and the lines of each frame's
    `.meta` file.  Each `.meta` file must have its `.off` frame."""
    with open(os.path.join(rep_dir, "analyze.json"), "r", encoding="utf-8") as fh:
        analysis = json.load(fh)
    with open(os.path.join(rep_dir, "blowup.txt"), "r", encoding="utf-8") as fh:
        table = fh.read().splitlines()
    events = sum(1 for ln in table[1:] if ln and ln[0].isdigit() and "untriggered" not in ln)
    files = os.listdir(run_dir)
    metas = sorted(f for f in files if f.startswith("frame_") and f.endswith(".meta"))
    offs = sorted(f for f in files if f.startswith("frame_") and f.endswith(".off"))
    if [f[: -len(".meta")] for f in metas] != [f[: -len(".off")] for f in offs]:
        raise CheckFailed(f"blowup: frames {offs} do not match metadata {metas}")
    frames = []
    for f in metas:
        with open(os.path.join(run_dir, f), "r", encoding="utf-8") as fh:
            frames.append(fh.read().splitlines())
    return {"events": events, "analyze": analysis, "frames": frames}


def check_post(post, steps, reference):
    """Checks on the outputs `read_post` returns; returns their digest.  One
    frame must be written per triggered concentration event, and with a
    reference the event count, the analysis and every frame's metadata must
    match it."""
    analysis = post["analyze"]
    if analysis["records"] != steps + 1 or analysis["stop_reason"] != "max_steps":
        raise CheckFailed(f"analyze: {analysis['records']} records, {analysis['stop_reason']}")
    if not analysis["monotonicity"]["area"]["passed"]:
        raise CheckFailed("analyze: area monotonicity audit failed")
    if len(post["frames"]) != post["events"]:
        raise CheckFailed(f"blowup: {post['events']} events, {len(post['frames'])} frames")
    if reference is not None:
        if post["events"] != reference["events"]:
            raise CheckFailed(f"blowup: {post['events']} events, reference {reference['events']}")
        check_text(
            "analyze --json",
            json.dumps(analysis, sort_keys=True),
            json.dumps(reference["analyze"], sort_keys=True),
        )
        for got, want in zip(post["frames"], reference["frames"]):
            check_text("frame metadata", "\n".join(got), "\n".join(want))
    return hashlib.sha256(json.dumps(post, sort_keys=True).encode()).hexdigest()


def dir_stats(run_dir):
    files = os.listdir(run_dir) if os.path.isdir(run_dir) else []
    size = sum(os.path.getsize(os.path.join(run_dir, f)) for f in files)
    snaps = [f for f in files if f.startswith("step_") and f.endswith(".off")]
    read_set = snaps + [f for f in ("config.cfg", "diagnostics.csv", "summary.txt") if f in files]
    read = sum(os.path.getsize(os.path.join(run_dir, f)) for f in read_set)
    return {"bytes": size, "read_bytes": read, "snapshots": len(snaps)}


# ---------------------------------------------------------------------------
# per-layer metrics from one traced repetition
# ---------------------------------------------------------------------------

LAYER_UNITS = {
    "calls_per_step": "count",
    "iters_per_step": "count",
    "nnz_per_step": "count_computed",
    "bytes": "B",
    "snapshots": "count",
    "frames": "count",
    "rejected_frac": "ratio",
    "overhead_frac": "ratio",
}


def layer_unit(metric):
    return LAYER_UNITS.get(metric.rsplit(".", 1)[1], "ms")


def layer_metrics(spans, steps, stats_before, stats_after, frames):
    """Per-step metrics are self time (or counts) divided by accepted steps;
    `*.ms` metrics are inclusive time of one command."""
    agg = tracer.aggregate(spans)

    def calls(*names):
        return sum(agg.get(n, {}).get("calls", 0) for n in names)

    def self_ms(*names):
        return sum(agg.get(n, {}).get("self_ns", 0) for n in names) / 1e6

    def incl_ms(*names):
        return sum(agg.get(n, {}).get("incl_ns", 0) for n in names) / 1e6

    cg = [s[4] for s in spans if s[0] == "flow.cg"]
    steppers = calls("flow.step_explicit", "flow.step_semi_implicit")
    builds = calls("generators.build_initial")
    return {
        "mesh.edges.calls_per_step": calls("mesh.edges") / steps,
        "mesh.edges.ms_per_step": self_ms("mesh.edges") / steps,
        "mesh.half_edges.calls_per_step": calls("mesh.half_edges") / steps,
        "mesh.face_corner_vertices.calls_per_step": calls("mesh.face_corner_vertices") / steps,
        "mesh.face_areas_normals.calls_per_step": calls("mesh.face_areas_normals") / steps,
        "mesh.edge_lengths.calls_per_step": calls("mesh.edge_lengths") / steps,
        "mesh.face_geometry.ms_per_step": self_ms(
            "mesh.face_corner_vertices", "mesh.face_areas_normals",
            "mesh.edge_lengths", "mesh.face_qualities",
        ) / steps,
        "geometry.lumped_mass.ms_per_step": self_ms("geometry.lumped_mass") / steps,
        "geometry.cotan_laplacian.ms_per_step": self_ms("geometry.cotan_laplacian") / steps,
        "geometry.curvature_field.ms_per_step": self_ms("geometry.curvature_field") / steps,
        "geometry.operators.calls_per_step": calls("geometry.cotan_laplacian") / steps,
        "geometry.enclosed_volume.calls_per_step": calls(
            "geometry.enclosed_volume", "geometry.enclosed_volume_of"
        ) / steps,
        "geometry.enclosed_volume.ms_per_step": self_ms(
            "geometry.enclosed_volume", "geometry.enclosed_volume_of"
        ) / steps,
        "flow.step.rejected_frac": (steppers - steps) / steppers if steppers else 0.0,
        "flow.cg.calls_per_step": len(cg) / steps,
        "flow.cg.iters_per_step": sum(e["iters"] for e in cg) / steps,
        "flow.cg.ms_per_step": self_ms("flow.cg") / steps,
        "flow.cg.nnz_per_step": sum(e["iters"] * e["nnz"] for e in cg) / steps,
        "flow.correct_volume.ms_per_step": self_ms("flow.correct_volume") / steps,
        "flow.run.self_ms_per_step": self_ms("flow.run") / steps,
        "monitors.diagnostics.calls_per_step": calls("monitors.diagnostics") / steps,
        "monitors.diagnostics.ms_per_step": self_ms("monitors.diagnostics") / steps,
        "monitors.concentration.calls_per_step": calls("monitors.concentration") / steps,
        "monitors.concentration.ms_per_step": self_ms("monitors.concentration") / steps,
        "runio.write.ms": incl_ms("runio.write_run_dir"),
        "runio.write.bytes": (
            stats_after["bytes"] - stats_before["bytes"] if calls("runio.write_run_dir") else 0
        ),
        "runio.snapshots": stats_after["snapshots"],
        "runio.read.ms": incl_ms("runio.load_run_dir"),
        "runio.read.bytes": calls("runio.load_run_dir") * stats_before["read_bytes"],
        "cli.summarize.ms": tracer.inclusive_excluding(
            spans, {"cli.summarize", "cli.cmd_analyze"}, {"runio.load_run_dir"}
        ) / 1e6,
        "blowup.detect.ms": incl_ms("blowup.detect"),
        "blowup.rescale_frame.ms": incl_ms("blowup.rescale_frame"),
        "blowup.frames": frames,
        "generators.build_initial.ms": incl_ms("generators.build_initial") / max(builds, 1),
    }


def tail_percentile(values):
    """Median and the highest of p99/p95/p90/p75 with at least ten samples
    beyond it (p50 when there are fewer than twenty samples)."""
    pct = next((p for p in (99, 95, 90, 75) if len(values) * (100 - p) / 100 >= 10), 50)
    p50 = statistics.median(values)
    if pct == 50:
        return p50, p50, pct
    return p50, statistics.quantiles(values, n=100, method="inclusive")[pct - 1], pct


# ---------------------------------------------------------------------------
# one invocation
# ---------------------------------------------------------------------------


def environment(args):
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = os.path.join("src", "sdflow")
    digest = sha256_of(*(os.path.join(src, f) for f in sorted(os.listdir(src)) if f.endswith(".py")))

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "initial_seed": initial_seed(args.workload, args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "commit": commit,
        "src_sha256": digest,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: str(THREADS) for var in THREAD_VARS},
        "loadavg_start": list(os.getloadavg()),
    }


def speed_factor(result):
    """CALIBRATION_REF_S over the median calibration time the child measured
    around its work.  Multiplying a measured time by it gives the time at the
    reference machine speed; it cancels most of the slow drift of a shared
    host's speed (see NOTES.md)."""
    return CALIBRATION_REF_S / statistics.median(result["calibration_s"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Invocation:
    def __init__(self, args):
        self.args = args
        self.name = args.workload
        self.w = WORKLOADS[args.workload]
        self.steps = self.w["smoke_steps"] if args.smoke else self.w["steps"]
        self.work = os.path.join(
            WORK_DIR, f"{self.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
        )
        # reference outputs, loaded in prepare(); none at smoke step counts
        self.reference = None
        self.source_reference = None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.setup = []  # per child: (setup_s, speed factor)
        self.digests = {}  # digest -> repetitions
        self.untraced = []  # per repetition: (wall_s, speed factor, peak_rss_mb)
        self.traced = []  # per repetition: (layer metrics, step ns, wall_s, speed factor)

    def prepare(self):
        os.makedirs(self.work, exist_ok=True)
        if not self.args.smoke:
            self.reference = load_reference(self.name, self.args.seed)
            if self.w["command"] == "post":
                self.source_reference = load_reference(self.w["source"], self.args.seed)
        self.config = os.path.abspath(os.path.join(self.work, "workload.cfg"))
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(config_text(self.name, self.args.seed, self.steps))
        # warm-up: compiles byte code and fills the file cache; not measured
        run_child("setup", self.config, "-", os.path.join(self.work, "warmup"))
        if self.w["command"] == "post":
            self.source = os.path.join(self.work, "source", "run")
            res = run_child("run", self.config, self.source, os.path.join(self.work, "source"))
            if res["exit_codes"] != [0]:
                raise CheckFailed(f"source run exited {res['exit_codes']}")
            check_run_dir(self.name, self.source, self.steps, self.source_reference)
            self.post_config = os.path.abspath(os.path.join(self.source, "config.cfg"))
        for i in range(0 if self.args.smoke else SETUP_SAMPLES):
            res = run_child("setup", self.config, "-", os.path.join(self.work, f"setup{i}"))
            self.setup.append((res["setup_s"], speed_factor(res)))

    def repetition(self, index, traced):
        rep_dir = os.path.abspath(os.path.join(self.work, f"rep{index:03d}"))
        run_dir = os.path.join(rep_dir, "run")
        os.makedirs(rep_dir)
        if self.w["command"] == "post":
            shutil.copytree(self.source, run_dir)
            config = self.post_config
        else:
            config = self.config
        before = dir_stats(run_dir)
        self.attempted += 1
        try:
            res = run_child(self.w["command"], config, run_dir, rep_dir, spans=traced)
            want = [0] if self.w["command"] == "run" else [0, 0]
            if res["exit_codes"] != want:
                raise CheckFailed(f"exit codes {res['exit_codes']}, expected {want}")
            frames = 0
            if self.w["command"] == "run":
                digest = check_run_dir(self.name, run_dir, self.steps, self.reference)
            else:
                post = read_post(rep_dir, run_dir)
                digest = check_post(post, self.steps, self.reference)
                frames = len(post["frames"])
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            # missing or malformed output files fail the repetition, too
            self.failed += 1
            self.errors.append(f"rep {index}: {exc!r}")
            return
        self.digests.setdefault(digest, []).append(index)
        factor = speed_factor(res)
        self.setup.append((res["setup_s"], factor))
        if traced:
            spans = tracer.load_spans(res["spans_path"])
            metrics = layer_metrics(spans, self.steps, before, dir_stats(run_dir), frames)
            self.traced.append((metrics, tracer.step_durations_ns(spans), res["wall_s"], factor))
        else:
            self.untraced.append((res["wall_s"], factor, res["peak_rss_mb"]))
        shutil.rmtree(rep_dir)

    def measure(self):
        start = time.monotonic()
        index = 0
        longest = 0.0
        min_reps = 2 if self.args.smoke else MIN_REPS
        while True:
            elapsed = time.monotonic() - start
            if self.attempted >= min_reps and elapsed >= self.args.seconds:
                break
            if self.attempted and elapsed + longest > HARD_STOP_S:
                break
            # traced repetitions alternate with untraced ones, which give the
            # tracing overhead
            traced = bool(self.args.trace) and index % 2 == 1
            t0 = time.monotonic()
            self.repetition(index, traced)
            longest = max(longest, time.monotonic() - t0)
            index += 1

    def check_determinism(self):
        if len(self.digests) > 1:
            majority = max(self.digests.values(), key=len)
            for reps in self.digests.values():
                if reps is not majority:
                    self.failed += len(reps)
                    self.errors.append(f"reps {reps}: outputs differ from reps {majority}")

    def samples(self):
        """Raw per-child samples, for the results record."""
        return {
            "setup": self.setup,
            "untraced": self.untraced,
            "traced_wall_s": [(t[2], t[3]) for t in self.traced],
        }

    def end_to_end(self):
        """Medians over repetitions.  Times are calibrated: each child's
        measured time times its speed factor (see `speed_factor`)."""
        metrics, lines = {}, []
        series = {
            "setup_s": ("s", self.setup, 1.0),
            "wall_s": ("s", [(w, f) for w, f, _ in self.untraced], 1.0),
            "step_ms": ("ms", [(w, f) for w, f, _ in self.untraced], 1000.0 / self.steps),
            "peak_rss_mb": ("MB", [(m, 1.0) for _, _, m in self.untraced], 1.0),
        }
        for name, (unit, pairs, scale) in series.items():
            if not pairs:
                continue
            values = [scale * x * f for x, f in pairs]
            q1, q3 = quartiles(values)
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            line = f"{name:12s} {statistics.median(values):12.6g} {unit:3s}  n={len(values)}"
            line += f" q1={q1:.6g} q3={q3:.6g}"
            if name != "peak_rss_mb":
                line += f" uncalibrated={statistics.median(scale * x for x, _ in pairs):.6g}"
            lines.append(line)
        return metrics, lines

    def per_layer(self):
        metrics, lines = {}, []
        if not self.traced:
            return metrics, lines
        names = list(self.traced[0][0])
        for name in names:
            value = statistics.median(t[0][name] for t in self.traced)
            metrics[name] = {"value": value, "unit": layer_unit(name)}
        durations = [d / 1e6 for t in self.traced for d in t[1]]
        if durations:
            p50, tail, pct = tail_percentile(durations)
        else:
            p50, tail, pct = 0.0, 0.0, 50
        metrics["flow.step.ms_p50"] = {"value": p50, "unit": "ms"}
        metrics["flow.step.ms_tail"] = {"value": tail, "unit": "ms"}
        traced_wall = statistics.median(t[2] * t[3] for t in self.traced)
        plain = [w * f for w, f, _ in self.untraced]
        overhead = traced_wall / statistics.median(plain) - 1.0 if plain else 0.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        for name, entry in metrics.items():
            lines.append(f"{name:44s} {entry['value']:14.6g} {entry['unit']}")
        lines.append(
            f"(per-layer: n={len(self.traced)} traced reps, {len(durations)} steps;"
            f" flow.step.ms_tail is p{pct})"
        )
        return metrics, lines


def invoke(args):
    """Run one workload; returns (result dict, report lines, environment)."""
    env = environment(args)
    inv = Invocation(args)
    try:
        inv.prepare()
        inv.measure()
    except (CheckFailed, OSError, KeyError, ValueError) as exc:
        inv.errors.append(repr(exc))
        inv.attempted = max(inv.attempted, 1)
        inv.failed = inv.attempted
    finally:
        shutil.rmtree(inv.work, ignore_errors=True)
    inv.check_determinism()
    if args.trace:
        metrics, lines = inv.per_layer()
    else:
        metrics, lines = inv.end_to_end()
    failed = min(inv.failed, inv.attempted)
    lines.append(f"failed_frac  {failed / inv.attempted:12.6g}      n={inv.attempted}")
    lines.extend(f"CHECK FAILED: {e}" for e in inv.errors)
    result = {
        "correct": failed == 0 and not inv.errors,
        "attempted": inv.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    env["samples"] = inv.samples()
    return result, lines, env


def record(env, result):
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(os.path.join(WORK_DIR, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env, "result": result}) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny step counts, all workloads")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "sdflow", "cli.py")):
        print("perfbench: src/sdflow not found; run from the repository root", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required")
    result, lines, env = invoke(args)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("\n".join(lines))
    print("env " + json.dumps(env))
    record(env, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def smoke(args):
    ok = True
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        for trace in (0, 1):
            sub = argparse.Namespace(**vars(args))
            sub.workload, sub.trace, sub.seconds = name, trace, 0.0
            t0 = time.monotonic()
            result, lines, _ = invoke(sub)
            print(f"== {name} trace={trace}: correct={result['correct']}"
                  f" ({time.monotonic() - t0:.1f} s)")
            print("\n".join(lines))
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

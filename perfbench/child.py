"""One repetition of a workload, run by `run.py` in a fresh interpreter.

    python3 perfbench/child.py MODE CONFIG RUN_DIR RESULT_JSON T_SPAWN [SPANS_JSON]

MODE is `setup` (set-up only), `run` (`sdflow run CONFIG --out RUN_DIR`) or
`post` (`sdflow analyze --json RUN_DIR`, then `sdflow blowup RUN_DIR`).
T_SPAWN is the parent's CLOCK_MONOTONIC reading just before it started this
process, so `setup_s` spans interpreter start, importing `sdflow`, parsing
the config and `RunConfig.build_initial`.  With SPANS_JSON the layers are
traced (see `tracer.py`) and the spans are written there.

The command's standard output goes to files in RUN_DIR's parent directory:
`run.txt`, or `analyze.json` and `blowup.txt`.
"""

import contextlib
import json
import os
import resource
import sys
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibration_samples(count):
    """Times of a fixed NumPy and Python kernel shaped like a mesh step
    (sort + unique of index triples, gather, cross product, scatter-add and
    an interpreted loop).  The first call warms up and is dropped."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.random(30000)
    idx = rng.integers(0, 30000, size=(15000, 3))
    times = []
    for _ in range(count + 1):
        t0 = time.perf_counter()
        np.unique(np.sort(idx, axis=1), axis=0)
        v = x[idx]
        c = np.cross(v, v[:, ::-1])
        acc = np.zeros(len(x))
        np.add.at(acc, idx[:, 0], c[:, 0])
        s = 0
        for k in range(20000):
            s += k
        times.append(time.perf_counter() - t0)
    return times[1:]


def main(argv):
    mode, config, run_dir, result_path, t_spawn = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import sdflow
    from sdflow import cli, runio

    if not os.path.abspath(sdflow.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"sdflow imported from {sdflow.__file__}, not from ./src")

    tracer = None
    if spans_path:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = runio.load_config(config)
    cfg.build_initial()
    t_ready = _now()
    result = {"setup_s": t_ready - float(t_spawn)}

    calibration = calibration_samples(3)
    if mode != "setup":
        out_base = os.path.dirname(os.path.abspath(run_dir))
        t0 = time.perf_counter()
        if mode == "run":
            with open(os.path.join(out_base, "run.txt"), "w", encoding="utf-8") as fh:
                with contextlib.redirect_stdout(fh):
                    result["exit_codes"] = [cli.main(["run", config, "--out", run_dir])]
        else:
            codes = []
            for name, argv_cmd in (
                ("analyze.json", ["analyze", "--json", run_dir]),
                ("blowup.txt", ["blowup", run_dir]),
            ):
                with open(os.path.join(out_base, name), "w", encoding="utf-8") as fh:
                    with contextlib.redirect_stdout(fh):
                        codes.append(cli.main(argv_cmd))
            result["exit_codes"] = codes
        result["wall_s"] = time.perf_counter() - t0
        calibration += calibration_samples(3)
    result["calibration_s"] = calibration

    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])

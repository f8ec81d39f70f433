"""Regenerate reference.json: the final diagnostics row of each "run"
workload's run, for seeds 0..REFERENCE_SEEDS-1 of the seeded workloads and
once ("*") for the seed-free ones, and the outputs of each "post" workload
(blowup's event count, the analysis and the frame metadata).  From the
repository root:

    python3 perfbench/make_reference.py

`run.py` compares each repetition's outputs with the stored ones to a
relative tolerance of REFERENCE_RTOL.  Regenerate only when a change is
meant to alter what the flow computes, and say so in the change.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402


def write_run(name, seed, work):
    """Run `name`'s config for `seed` in a new directory under `work` and
    check it; returns (its directory, the run directory)."""
    steps = bench.WORKLOADS[name]["steps"]
    rep_dir = os.path.abspath(os.path.join(work, f"{name}-{seed}"))
    config = os.path.join(rep_dir, "ref.cfg")
    os.makedirs(rep_dir)
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(bench.config_text(name, seed, steps))
    run_dir = os.path.join(rep_dir, "run")
    res = bench.run_child("run", config, run_dir, rep_dir)
    if res["exit_codes"] != [0]:
        raise bench.CheckFailed(f"{name} seed {seed}: exit codes {res['exit_codes']}")
    bench.check_run_dir(name, run_dir, steps, None)
    return rep_dir, run_dir


def reference_entry(name, seed, work):
    w = bench.WORKLOADS[name]
    if w["command"] == "run":
        rep_dir, run_dir = write_run(name, seed, work)
        entry = bench.final_row(os.path.join(run_dir, "diagnostics.csv"))
    else:
        rep_dir, run_dir = write_run(w["source"], seed, work)
        config = os.path.join(run_dir, "config.cfg")
        res = bench.run_child("post", config, run_dir, rep_dir)
        if res["exit_codes"] != [0, 0]:
            raise bench.CheckFailed(f"{name}: exit codes {res['exit_codes']}")
        entry = bench.read_post(rep_dir, run_dir)
        bench.check_post(entry, w["steps"], None)
    shutil.rmtree(rep_dir)
    return entry


def main():
    work = os.path.join(bench.WORK_DIR, "reference")
    os.makedirs(work, exist_ok=True)
    table = {}
    try:
        for name, w in bench.WORKLOADS.items():
            seeds = range(bench.REFERENCE_SEEDS) if w["seeded"] else [None]
            table[name] = {
                "*" if seed is None else str(seed): reference_entry(name, seed, work)
                for seed in seeds
            }
            print(f"{name}: {len(table[name])} entries", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Tests of the benchmark's layer tracer.  From the repository root:

    python3 -m pytest -q perfbench/test_tracer.py

They run short workloads (the smoke step counts) in child processes.
"""

import importlib
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def _namespaces():
    mods = [importlib.import_module(f"sdflow.{name}") for name in LAYERS + ("generators",)]
    mesh, runio = mods[0], mods[4]
    return mods + [mesh.TriangleMesh, runio.RunConfig]


def _bindings():
    return {(id(ns), attr): obj for ns in _namespaces() for attr, obj in vars(ns).items()}


def test_uninstall_restores_every_patched_name():
    from sdflow import flow, geometry, mesh

    before = _bindings()
    tr = Tracer()
    tr.install()
    try:
        patched = {(id(owner), attr) for owner, attr, _ in tr.patched()}
        # imported names are patched in every module that binds them
        assert geometry.face_areas_normals is flow.face_areas_normals
        assert geometry.face_areas_normals is not before[(id(mesh), "face_areas_normals")]
        assert (id(flow), "cg") in patched
        assert (id(mesh.TriangleMesh), "edges") in patched
        assert len(patched) == len(tr.patched())
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, obj in before.items() if after[key] is not obj]
    assert changed == []
    assert tr.patched() == []


def _run(tmp_path, name, tag, traced):
    steps = bench.WORKLOADS[name]["smoke_steps"]
    config = tmp_path / f"{name}.cfg"
    config.write_text(bench.config_text(name, 3, steps))
    rep_dir = tmp_path / tag
    run_dir = rep_dir / "run"
    res = bench.run_child("run", str(config), str(run_dir), str(rep_dir), spans=traced)
    assert res["exit_codes"] == [0]
    csv = (run_dir / "diagnostics.csv").read_bytes()
    if not traced:
        return None, csv
    spans = bench.tracer.load_spans(res["spans_path"])
    before = bench.dir_stats(str(tmp_path / "missing"))
    metrics = bench.layer_metrics(spans, steps, before, bench.dir_stats(str(run_dir)), 0)
    return metrics, csv


@pytest.mark.parametrize("name", ["implicit_sphere", "explicit_dumbbell"])
def test_traced_runs_repeat_counts_and_outputs(tmp_path, monkeypatch, name):
    monkeypatch.chdir(ROOT)
    first, csv_first = _run(tmp_path, name, "traced1", True)
    second, csv_second = _run(tmp_path, name, "traced2", True)
    _, csv_plain = _run(tmp_path, name, "plain", False)

    counted = [k for k in first if k.endswith("calls_per_step")]
    counted += ["flow.cg.iters_per_step", "flow.cg.nnz_per_step", "runio.snapshots"]
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    assert first["mesh.edges.calls_per_step"] > 0
    if name == "implicit_sphere":
        assert first["flow.cg.calls_per_step"] == 3
        assert first["flow.cg.iters_per_step"] > 0
    else:
        assert first["flow.cg.calls_per_step"] == 0
        # three monitor radii: one concentration call per radius and record
        records = first["monitors.diagnostics.calls_per_step"]
        assert first["monitors.concentration.calls_per_step"] == 3 * records
    assert csv_first == csv_second == csv_plain

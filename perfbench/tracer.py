"""Outside-in span tracer for the sdflow layers.

The tracer wraps the public functions of the layer modules from outside the
package.  Several modules bind imported names into their own namespaces
(`from .mesh import face_areas_normals`), so a function is replaced under
every name, in every loaded `sdflow` module, that refers to it.  It also
wraps the `TriangleMesh.edges` and `half_edges` cached properties, the
`RunConfig.build_initial` method, the private audit assembly
`cli._summarize` and the scipy `cg` that `flow` calls.  The `cg` wrapper
chains the caller's callback to count iterations.

Spans are kept in memory as `[name, parent, start_ns, end_ns, extra]` and
written once, by `dump`.  `uninstall` puts back every original object.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from functools import cached_property

LAYERS = ("mesh", "geometry", "flow", "monitors", "runio", "blowup", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original), in install order

    def _wrap(self, name, func, on_call=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                if on_call is not None:
                    args, kwargs = on_call(span, args, kwargs)
                return func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {short: importlib.import_module(f"sdflow.{short}") for short in LAYERS}
        runio, flow, mesh = mods["runio"], mods["flow"], mods["mesh"]

        wrappers = {}  # id(original function) -> traced wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        summarize = mods["cli"]._summarize
        wrappers[id(summarize)] = self._wrap("cli.summarize", summarize)
        wrappers[id(flow.cg)] = self._wrap("flow.cg", flow.cg, on_call=_count_cg_iterations)

        loaded = [m for n, m in sorted(sys.modules.items()) if n.startswith("sdflow.")]
        for mod in loaded:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])

        for attr in ("edges", "half_edges"):
            prop = mesh.TriangleMesh.__dict__[attr]
            traced = cached_property(self._wrap(f"mesh.{attr}", prop.func))
            traced.__set_name__(mesh.TriangleMesh, attr)
            self._patch(mesh.TriangleMesh, attr, traced)
        build = runio.RunConfig.__dict__["build_initial"]
        self._patch(
            runio.RunConfig, "build_initial", self._wrap("generators.build_initial", build)
        )

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self):
        """(owner, attribute, original) for every replacement in place."""
        return list(self._patches)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def _count_cg_iterations(span, args, kwargs):
    """Chain a counter in front of the caller's cg callback; record nnz(A)."""
    extra = span[4] = {"iters": 0, "nnz": int(args[0].nnz)}
    user_cb = kwargs.get("callback")

    def counting(xk):
        extra["iters"] += 1
        if user_cb is not None:
            user_cb(xk)

    return args, dict(kwargs, callback=counting)


def load_spans(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def aggregate(spans):
    """Per span name: calls, inclusive ns and self ns (inclusive minus the
    time its direct children cover)."""
    child_ns = [0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for i, (name, _, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["incl_ns"] += end - start
        entry["self_ns"] += end - start - child_ns[i]
    return out


def inclusive_excluding(spans, roots, excluded):
    """Inclusive ns of spans named in `roots`, minus the inclusive ns of their
    descendants named in `excluded` (outermost such descendant only)."""
    total = 0
    for i, (name, parent, start, end, _) in enumerate(spans):
        if name in roots:
            total += end - start
        elif name in excluded:
            under_root, under_excluded = False, False
            p = parent
            while p >= 0:
                pname = spans[p][0]
                if pname in excluded:
                    under_excluded = True
                if pname in roots:
                    under_root = True
                    break
                p = spans[p][1]
            if under_root and not under_excluded:
                total -= end - start
    return total


def step_durations_ns(spans):
    """Wall ns of each accepted step of `flow.run`: the gap between the ends
    of consecutive `monitors.diagnostics` records taken directly in the loop."""
    runs = {i for i, s in enumerate(spans) if s[0] == "flow.run"}
    ends = sorted(s[3] for s in spans if s[0] == "monitors.diagnostics" and s[1] in runs)
    return [b - a for a, b in zip(ends, ends[1:])]

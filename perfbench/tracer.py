"""Span tracing of posekit's public functions, installed from outside.

Run one posekit entry point under tracing:

    python perfbench/tracer.py --spans OUT.npz cli <posekit CLI args...>
    python perfbench/tracer.py --spans OUT.npz setup <setup_dataset.py args...>

Every public module-level function of the posekit modules is replaced by a
wrapper that records a span (name, start, end, parent) in memory. The
wrapper is installed at every module-level binding that refers to the
function, not only in the defining module: ``fusion.geodesic_distances``
or ``cli.angle_to_bin`` are separate names for ``so3`` and ``viewpoint``
functions, and calls through them would otherwise go untraced. The
original bindings are restored before the spans are written out.

A few wrappers also count work where it happens: bank rows compared by
``geodesic_distances``, neighbour-set sizes and nearest-entry fallbacks,
uniform-prior fallbacks, VKRM and JSONL bytes read, and APK hypotheses.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

MODULES = ("so3", "viewpoint", "fusion", "metrics", "diagnostics", "dataio", "synth", "cli")

# Functions whose spans count as the load and render stages of a command;
# everything else under cli.main is compute.
LOAD_PREFIXES = ("dataio.load_", "dataio.read_")
RENDER_PREFIXES = ("dataio.render_", "dataio.write_", "dataio.save_")

Hook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """In-memory span recorder; spans are (name id, start ns, end ns, parent)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.stack: list[int] = [-1]
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        counters = self.counters
        raised = f"{name}.raised"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counters[raised] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def save(self, path: str | Path) -> None:
        rows = [s for s in self.spans if s is not None]
        spans = np.array(rows, dtype=np.int64).reshape(len(rows), 4)
        np.savez(
            path,
            spans=spans,
            names=np.array(self.names, dtype=str),
            counter_names=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=np.float64),
        )


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _hooks(modules: dict) -> dict[str, Hook]:
    so3, fusion, dataio = modules["so3"], modules["fusion"], modules["dataio"]
    distances = so3.geodesic_distances  # the original, captured before install

    def rows(t: Tracer, args, kwargs, result) -> None:
        t.counters["so3.geodesic_distances.rows"] += len(_arg(args, kwargs, 1, "rs"))

    def neighbors(t: Tracer, args, kwargs, result) -> None:
        t.counters["fusion.neighbors_total"] += result.size
        if result.size == 1:
            r, bank = _arg(args, kwargs, 0, "r"), _arg(args, kwargs, 1, "bank")
            threshold = _arg(args, kwargs, 2, "threshold", fusion.NEIGHBOR_THRESHOLD)
            if distances(r, bank.rotations[result])[0] >= threshold:
                t.counters["fusion.nearest_fallbacks"] += 1

    def vkrm(t: Tracer, args, kwargs, result) -> None:
        t.counters["dataio.vkrm_bytes"] += dataio._HEADER.size + result[1].nbytes

    def jsonl(t: Tracer, args, kwargs, result) -> None:
        t.counters["dataio.jsonl_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def hypotheses(t: Tracer, args, kwargs, result) -> None:
        dets = _arg(args, kwargs, 0, "detections")
        if isinstance(dets, (list, tuple)):
            t.counters["metrics.apk.hypotheses"] += sum(
                len(d.keypoint_hypotheses) for d in dets
            )

    return {
        "so3.geodesic_distances": rows,
        "fusion.neighbor_set": neighbors,
        "dataio.read_response_map": vkrm,
        "dataio.load_instances": jsonl,
        "dataio.load_detections": jsonl,
        "dataio.load_prior_banks": jsonl,
        "dataio.load_keypoint_predictions": jsonl,
        "metrics.apk": hypotheses,
    }


def public_functions(module) -> dict[str, Callable]:
    """Public functions defined in a module (not re-exported ones)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every public posekit function at every module-level binding.

    Returns a function that puts the original bindings back.
    """
    package = importlib.import_module("posekit")
    modules = {m: importlib.import_module(f"posekit.{m}") for m in MODULES}
    hooks = _hooks(modules)
    wrappers: dict[int, Callable] = {}
    for short, module in modules.items():
        for name, fn in public_functions(module).items():
            qual = f"{short}.{name}"
            wrappers[id(fn)] = tracer.wrap(qual, fn, hooks.get(qual))
    patched: list[tuple[object, str, Callable]] = []
    for module in (package, *modules.values()):
        for name, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None and wrapper.__wrapped__ is obj:
                setattr(module, name, wrapper)
                patched.append((module, name, obj))

    def restore() -> None:
        for module, name, original in reversed(patched):
            setattr(module, name, original)

    return restore


@dataclass
class Summary:
    """Per-function totals of one or more traced processes."""

    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    stages: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def add(self, other: "Summary") -> None:
        """Add another process's calls, self times and counters (not stages)."""
        for mine, theirs in (
            (self.calls, other.calls),
            (self.self_s, other.self_s),
            (self.counters, other.counters),
        ):
            for key, value in theirs.items():
                mine[key] += value

    def scale_times(self, factor: float) -> None:
        """Multiply the self times and stage times by factor."""
        for table in (self.self_s, self.stages):
            for key in table:
                table[key] *= factor


def summarize(path: str | Path) -> Summary:
    """Calls, self time, counters and the load/compute/render split of a span file.

    Self time is a span's duration minus the durations of its direct
    children (calls are synchronous, so children never overlap). The
    stage split covers the outermost ``dataio`` load and render spans
    under ``cli.main``; compute is the rest of ``cli.main``.
    """
    with np.load(path) as data:
        spans = data["spans"]
        names = [str(n) for n in data["names"]]
        counters = dict(zip(data["counter_names"].tolist(), data["counter_values"].tolist()))
    out = Summary()
    out.counters.update(counters)
    if spans.size == 0:
        return out
    nid, start, end, parent = spans.T
    dur = (end - start).astype(np.float64) / 1e9
    has_parent = parent >= 0
    child = np.zeros(len(spans))
    np.add.at(child, parent[has_parent], dur[has_parent])
    calls = np.bincount(nid, minlength=len(names))
    self_s = np.bincount(nid, weights=dur - child, minlength=len(names))
    for i, name in enumerate(names):
        if calls[i]:
            out.calls[name] = int(calls[i])
            out.self_s[name] = float(self_s[i])

    is_dataio = np.array([n.startswith("dataio.") for n in names])[nid]
    outer = is_dataio & ~(has_parent & is_dataio[np.where(has_parent, parent, 0)])
    main = np.array([n == "cli.main" for n in names])[nid]
    for stage, prefixes in (("load_s", LOAD_PREFIXES), ("render_s", RENDER_PREFIXES)):
        kind = np.array([n.startswith(prefixes) for n in names])[nid]
        out.stages[stage] = float(dur[outer & kind].sum())
    if main.any():
        out.stages["compute_s"] = float(
            dur[main].sum() - out.stages["load_s"] - out.stages["render_s"]
        )
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run a posekit entry point under tracing")
    parser.add_argument("--spans", required=True, help="span file to write (.npz)")
    parser.add_argument("target", choices=("cli", "setup"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    tracer = Tracer()
    restore = install(tracer)
    try:
        if args.target == "cli":
            from posekit import cli as entry
        else:
            import setup_dataset as entry
        code = entry.main(args.args)
    finally:
        restore()
    tracer.save(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing of esdsim from outside the program.

`Tracer.install` wraps every public function of each esdsim module and
puts the wrapper in place of the original in every esdsim module namespace
that holds it (modules bind names with `from .x import y`, so patching only
the defining module would let internal calls escape), plus the function
references kept in `verification.SUITES`.  Each call records a span (id,
name, start, end, parent span, command id) and adds to per-function call
counts and times.  Self time is a span's duration minus the durations of
its direct child spans; one thread, so children never overlap.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "dynamics", "concurrence", "channels", "states", "linalg", "verification", "sampling")

# The unit of a per-layer metric, by the last part of its name.  The names
# themselves are the `per_layer` list of BENCHMARK.json:
#   <layer>.calls | .self_s | .self_share
#   <layer>.<fn>.calls | .self_us_per_call | .calls_per_op
#   verification.suite.<name>.s
#   trace.ops | trace.wall_s | trace.overhead_s
UNITS = {
    "calls": "count",
    "self_s": "s",
    "self_share": "frac",
    "self_us_per_call": "us",
    "calls_per_op": "calls/op",
    "s": "s",
    "ops": "count",
    "wall_s": "s",
    "overhead_s": "s",
}

# Spans kept for the trace file; counts and times cover every call.
MAX_SPANS = 500_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.command = 0
        self.next_id = 0
        self.dropped = 0
        self._stack: list[list] = []  # [span id, child seconds] per open span
        self._spans = {
            "id": array("I"),
            "name": array("H"),
            "start": array("d"),
            "end": array("d"),
            "parent": array("i"),
            "command": array("I"),
        }
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: sys.modules[f"esdsim.{layer}"] for layer in LAYERS}
        suites = {fn: name for name, fn, _, _ in modules["verification"].SUITES}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                label = f"verification.suite.{suites[obj]}" if obj in suites else f"{layer}.{attr}"
                wrappers[id(obj)] = self._wrap(obj, label, layer)
        for name, mod in list(sys.modules.items()):
            if name != "esdsim" and not name.startswith("esdsim."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        verification = modules["verification"]
        self._patches.append((verification, "SUITES", verification.SUITES))
        verification.SUITES = tuple(
            (name, wrappers.get(id(fn), fn), scale, tol) for name, fn, scale, tol in verification.SUITES
        )

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, fn, label: str, layer: str):
        fid = len(self.names)
        self.names.append(label)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        calls, self_s, total_s, stack = self.calls, self.self_s, self.total_s, self._stack
        spans = self._spans
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                calls[fid] += 1
                self_s[fid] += dur - frame[1]
                total_s[fid] += dur
                if stack:
                    stack[-1][1] += dur
                if len(spans["id"]) < MAX_SPANS:
                    spans["id"].append(sid)
                    spans["name"].append(fid)
                    spans["start"].append(t0)
                    spans["end"].append(t1)
                    spans["parent"].append(parent)
                    spans["command"].append(self.command)
                else:
                    self.dropped += 1

        return traced

    # -- results ------------------------------------------------------------

    def metrics(self, names, ops: int, wall_s: float, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
        """The named per-layer metrics; `wall_s` is the traced time inside the
        CLI calls and `untraced_wall_s` the time the same commands took
        untraced.  A function that was never wrapped or never called counts 0."""
        return {name: (self._value(name, ops, wall_s, untraced_wall_s), UNITS[name.rsplit(".", 1)[1]]) for name in names}

    def _value(self, name: str, ops: int, wall_s: float, untraced_wall_s: float) -> float:
        head, kind = name.rsplit(".", 1)
        if kind not in UNITS:
            raise ValueError(f"unknown per-layer metric {name!r}")
        if head == "trace":
            return {"ops": ops, "wall_s": wall_s, "overhead_s": wall_s - untraced_wall_s}[kind]
        if head in LAYERS:
            ids = [i for i, owner in enumerate(self.layer_of) if owner == head]
        else:
            ids = [i for i, label in enumerate(self.names) if label == head]
        calls = sum(self.calls[i] for i in ids)
        self_s = sum(self.self_s[i] for i in ids)
        if kind == "calls":
            return calls
        if kind == "self_s":
            return self_s
        if kind == "self_share":
            return self_s / wall_s
        if kind == "self_us_per_call":
            return self_s / calls * 1e6 if calls else 0.0
        if kind == "calls_per_op":
            return calls / ops
        if kind == "s" and head.startswith("verification.suite."):
            return sum(self.total_s[i] for i in ids)
        raise ValueError(f"unknown per-layer metric {name!r}")

    def write(self, path: Path, seed: int) -> None:
        """Write the kept spans and the name table as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            seed=np.array(seed),
            names=np.array(self.names),
            dropped=np.array(self.dropped),
            **{key: np.frombuffer(col, dtype=col.typecode) for key, col in self._spans.items()},
        )

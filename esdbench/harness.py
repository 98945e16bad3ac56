"""Driving, timing and scoring one benchmark run.

Imported by run.py once `src/` is on the path, so `esdsim` here is the
checkout's own copy.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

import esdsim
import esdsim.cli
from refclock import RefClock
from tracer import LAYERS, Tracer
from workloads import KNOWN_DEFECT, WORKLOADS, Command, Outcome, Verdict

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Fresh interpreters started per run to time `import esdsim.cli`; the
# median is reported.
SETUP_SAMPLES = 9
# A percentile is reported only with at least ten samples beyond it.
P99_MIN_COMMANDS = 1000
# Before each command the reference kernel runs once for every
# TICK_EVERY_S that passed since its last run, up to MAX_TICKS at a time:
# it samples the machine's speed at a steady rate, for a few percent of a
# run's time, whether commands take milliseconds or most of a second.
TICK_EVERY_S = 0.025
MAX_TICKS = 16
DIGEST_BYTES = 16


class Log:
    """The timed commands of a run, one slot per command in flat arrays.

    `peak_rss_mb` is the peak memory of this process, and a faster program
    fits more commands into a run, so what the benchmark keeps per command
    must stay small: about 50 bytes here.  The argv is not kept, and a
    message only for a command that fails other than as the known defect."""

    def __init__(self) -> None:
        self.ops = array("q")
        self.failed_ops = array("q")  # operations failing the gate
        self.known_ops = array("q")  # of which the known defect
        self.start = array("d")
        self.seconds = array("d")
        self.ref_seconds = array("d")
        self.digests = bytearray()
        self.mix: Counter[str] = Counter()
        self.tags: Counter[str] = Counter()
        self.details: dict[int, str] = {}
        # commands whose output differed between identical invocations;
        # each fails all of its operations
        self.nondeterministic: set[int] = set()

    def __len__(self) -> int:
        return len(self.ops)

    def add(self, cmd: Command, out_digest: bytes, verdict: Verdict, start: float, seconds: float) -> None:
        if verdict.failed > verdict.known_defect:
            self.details[len(self)] = verdict.detail or f"{verdict.failed} operations failed"
        self.ops.append(cmd.ops)
        self.failed_ops.append(verdict.failed)
        self.known_ops.append(verdict.known_defect)
        self.start.append(start)
        self.seconds.append(seconds)
        self.digests += out_digest
        self.mix[cmd.mix] += 1
        if verdict.tag:
            self.tags[verdict.tag] += 1

    def digest(self, i: int) -> bytes:
        return bytes(self.digests[i * DIGEST_BYTES : (i + 1) * DIGEST_BYTES])

    def gate_failed(self) -> int:
        return sum(self.failed_ops) + sum(self.ops[i] - self.failed_ops[i] for i in self.nondeterministic)

    def known_defect(self) -> int:
        return sum(self.known_ops) - sum(self.known_ops[i] for i in self.nondeterministic)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    report: list[str]

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def execute(workload, cmd: Command, table: Path) -> tuple[Outcome, float]:
    """Run one command through `esdsim.cli.main`; the time covers the call only."""
    argv = list(cmd.argv)
    if workload.writes_table:
        argv += ["--out", str(table)]
        table.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    # looked up per call so that a traced run goes through the wrapper
    main = esdsim.cli.main
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
    except Exception as exc:  # a raising command fails all of its operations
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    artifact = ""
    if workload.writes_table and table.is_file():
        artifact = table.read_text()
    return Outcome(rc, stdout.getvalue(), stderr.getvalue(), error, artifact), seconds


def digest(outcome: Outcome) -> bytes:
    h = hashlib.sha256()
    for part in (repr(outcome.rc), outcome.stdout, outcome.stderr, repr(outcome.error), outcome.artifact):
        h.update(part.encode())
        h.update(b"\0")
    return h.digest()[:DIGEST_BYTES]


def measure(
    workload, cmds: Iterator[Command], budget_s: float, table: Path, setup_samples: int = 0
) -> tuple[Log, list[tuple[float, float]]]:
    """Closed loop over fresh commands, in blocks of `workload.block_size`,
    until the budget is spent; at least one block.  No input repeats, so a
    result cache in the program has nothing to hit.  The blocks of a
    workload are equal in expected cost, and a run ends on a block boundary.

    The first command of each block runs twice, untimed and then timed; the
    two outputs must be the same.  The first of these runs is the warm-up.

    The reference kernel runs between commands (see refclock.py), and each
    command's time is also given in reference seconds.  The set-up samples
    are taken between commands, spread evenly over the budget, each with
    kernel runs on both sides; they come back as (seconds, reference
    seconds) pairs."""
    clock = RefClock()
    log = Log()
    setup: list[tuple[float, float]] = []
    block = workload.block_size
    clock.tick()
    start = time.perf_counter()
    for i, cmd in enumerate(cmds):
        now = time.perf_counter()
        if len(setup) < setup_samples and now >= start + budget_s * len(setup) / setup_samples:
            setup.append(_timed_setup(clock))
        if i % block == 0:
            # stop at the block boundary nearest the end of the budget
            if i and now + (now - start) / i * block / 2 >= start + budget_s:
                break
            untimed, _ = execute(workload, cmd, table)
        for _ in range(min(MAX_TICKS, int(clock.since_tick() / TICK_EVERY_S))):
            clock.tick()
        t0 = time.perf_counter()
        outcome, seconds = execute(workload, cmd, table)
        out_digest = digest(outcome)
        if i % block == 0 and digest(untimed) != out_digest:
            log.nondeterministic.add(i)
        log.add(cmd, out_digest, workload.check(cmd, outcome), t0, seconds)
    clock.tick()
    setup += [_timed_setup(clock) for _ in range(setup_samples - len(setup))]
    log.ref_seconds = array("d", (sec * clock.scale(t0, t0 + sec) for t0, sec in zip(log.start, log.seconds)))
    setup = [(sec, sec * clock.scale(t0, t0 + sec)) for t0, sec in setup]
    return log, setup


def _timed_setup(clock: RefClock) -> tuple[float, float]:
    """(start, seconds) of one set-up sample, with a kernel run on each side."""
    clock.tick()
    t0 = time.perf_counter()
    seconds = time_setup()
    clock.tick()
    return t0, seconds


def time_setup() -> float:
    """Wall time to start an interpreter and finish `import esdsim.cli`."""
    src = str(Path(esdsim.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import esdsim.cli"
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls with sleeps of up to 50 ms, which
    # would be timed too
    subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def environment() -> list[str]:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    blas = lapack = "unknown"
    with contextlib.suppress(TypeError, KeyError):
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
        lapack = f"{deps['lapack']['name']} {deps['lapack'].get('version', '')}".strip()
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    return [
        f"env cpu={cpu!r} nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={np.__version__} esdsim={esdsim.__version__}",
        f"env blas={blas!r} lapack={lapack!r} {threads}",
    ]


def _p99(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def traced_pass(workload, cmds: Iterator[Command], log: Log, table: Path) -> tuple[Tracer, list[float]]:
    """Replay the timed commands with the tracer installed; each output must
    match the untraced one."""
    tracer = Tracer()
    seconds = []
    tracer.install()
    try:
        for i, cmd in zip(range(len(log)), cmds):
            tracer.command = i
            outcome, sec = execute(workload, cmd, table)
            seconds.append(sec)
            if digest(outcome) != log.digest(i):
                log.nondeterministic.add(i)
    finally:
        tracer.uninstall()
    return tracer, seconds


def end_to_end(log: Log, setup: list[tuple[float, float]], unit: str) -> tuple[dict, list[str]]:
    """The end-to-end metrics, in reference seconds (see refclock.py); the
    report also gives the wall-clock figures."""
    ref, wall = log.ref_seconds, log.seconds
    ref_setup = [r for _, r in setup]
    wall_setup = [w for w, _ in setup]
    metrics = {
        "setup_s": (statistics.median(ref_setup), "s"),
        "ops_per_s": (sum(log.ops) / sum(ref), "ops/s"),
        "cmd_p50_ms": (statistics.median(ref) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    ops = sum(log.ops)
    p99 = f"{_p99(ref) * 1e3:.4f} ms (wall {_p99(wall) * 1e3:.4f} ms)" if len(ref) >= P99_MIN_COMMANDS else "n/a"
    report = [
        "times in reference seconds; wall-clock figures in parentheses",
        f"setup_s     {metrics['setup_s'][0]:.4f} s (wall {statistics.median(wall_setup):.4f} s)"
        f"     median of {len(setup)} interpreter starts",
        f"ops_per_s   {metrics['ops_per_s'][0]:.4f} {unit}/s (wall {ops / sum(wall):.4f})"
        f"     over the {sum(ref):.3f} s ({sum(wall):.3f} s wall) the commands took in main",
        f"cmd_p50_ms  {metrics['cmd_p50_ms'][0]:.4f} ms (wall {statistics.median(wall) * 1e3:.4f} ms)"
        f"     n={len(ref)} commands",
        f"cmd_p99_ms  {p99}     n={len(ref)} commands; reported from {P99_MIN_COMMANDS} up",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.2f} MB",
    ]
    return metrics, report


def per_layer(log: Log, tracer: Tracer, traced_seconds: list[float]) -> tuple[dict, list[str]]:
    names = [m["name"] for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]]
    untraced = sum(log.seconds)
    traced = sum(traced_seconds)
    metrics = tracer.metrics(names, sum(log.ops), traced, untraced)
    layers = tracer.metrics([f"{layer}.{s}" for layer in LAYERS for s in ("calls", "self_s", "self_share")], 1, traced, untraced)
    report = [
        f"trace wall={traced:.3f} s untraced={untraced:.3f} s "
        f"overhead={traced - untraced:.3f} s spans_kept={tracer.next_id - tracer.dropped}"
    ]
    for layer in LAYERS:
        report.append(
            f"layer {layer:<13} calls={layers[layer + '.calls'][0]:<10} "
            f"self_s={layers[layer + '.self_s'][0]:.4f} share={layers[layer + '.self_share'][0]:.3f}"
        )
    return metrics, report


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    workload=None,
    setup_samples: int = SETUP_SAMPLES,
) -> Result:
    """One benchmark run.  `workload` overrides the default-size instance
    (the benchmark's tests pass tiny ones)."""
    wl = workload if workload is not None else WORKLOADS[workload_name]()
    out_dir.mkdir(parents=True, exist_ok=True)
    table = out_dir / f"{wl.name}-table.out"

    # a traced run times one block untraced, then replays it traced
    log, setup = measure(wl, wl.commands(seed), 0.0 if trace else seconds, table, 0 if trace else setup_samples)
    if trace:
        # the same seed gives the same commands
        tracer, traced_seconds = traced_pass(wl, wl.commands(seed), log, table)
        tracer.write(out_dir / "trace" / f"{wl.name}.npz", seed)
        metrics, metric_lines = per_layer(log, tracer, traced_seconds)
    else:
        metrics, metric_lines = end_to_end(log, setup, wl.op_unit)

    attempted = sum(log.ops)
    gate_failed = log.gate_failed()
    known = log.known_defect()
    # Operations that fail only as the known defect (workloads.KNOWN_DEFECT)
    # are reported on their own below and left out of `failed`; any other
    # failure counts and makes the run incorrect.
    failed = gate_failed - known
    correct = failed == 0
    report = [f"esdbench workload={wl.name} seed={seed} seconds={seconds:g} trace={int(trace)}", *environment()]
    report.append(
        f"commands={len(log)}, {wl.op_unit}={attempted}, failed_gate={gate_failed}, "
        f"known_defect={known}, failed={failed}, fail_frac={gate_failed / attempted:.6g}, correct={correct}"
    )
    if known:
        report.append(
            f"known defect: {known} {wl.op_unit} ({known / attempted:.4%}) fail the gate and are {KNOWN_DEFECT}"
        )
    for i in sorted(log.nondeterministic | log.details.keys()):
        detail = "output differs between identical invocations" if i in log.nondeterministic else log.details[i]
        report.append(f"FAILURE command {i}: {detail}")
    for label, counts in (("mix", log.mix), ("outputs", log.tags)):
        shares = " ".join(f"{k}={v / len(log):.3f}" for k, v in sorted(counts.items()))
        if shares:
            report.append(f"{label} {shares}")
    return Result(correct, attempted, failed, metrics, report + metric_lines)

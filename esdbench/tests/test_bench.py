"""Tiny runs of each workload, the correctness gate, and traced/untraced parity.

    python3 -m pytest esdbench/tests -q
"""
from __future__ import annotations

import itertools
from array import array
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import workloads
from refclock import REF_KERNEL_S, RefClock
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "trajectory": lambda: workloads.Trajectory(points=64),
    "esd_sweep": lambda: workloads.EsdSweep(block_size=24),
    "verify": lambda: workloads.Verify(cases=3),
}


def _first(wl, mix: str | None = None, seed: int = 3):
    cmds = wl.commands(seed)
    return next(c for c in cmds if mix is None or c.mix == mix)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reports_every_metric_with_its_unit(name, trace, tmp_path):
    result = harness.run(name, 5, 0.2, trace, tmp_path, workload=TINY[name](), setup_samples=1)
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: unit for k, (_, unit) in result.metrics.items()} == expected
    summary = json.loads(json.dumps(result.summary()))
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["attempted"] >= 1
    assert summary["failed"] >= 0
    assert set(summary["metrics"]) == set(expected)


def test_traced_ratios_on_tiny_runs(tmp_path):
    traj = harness.run("trajectory", 5, 0.0, True, tmp_path, workload=workloads.Trajectory(points=64))
    ratio = {k: v for k, (v, _) in traj.metrics.items()}
    # three eigendecompositions and two validations per row, plus one of each
    # per command for the initial state
    assert ratio["linalg.hermitian_eig.calls_per_op"] == pytest.approx(3 + 1 / 64)
    assert ratio["states.validate_density_matrix.calls_per_op"] == pytest.approx(2 + 1 / 64)
    assert ratio["channels.completeness_residual.calls_per_op"] == 2

    esd = harness.run("esd_sweep", 5, 0.0, True, tmp_path, workload=workloads.EsdSweep(block_size=24))
    calls = {k: v for k, (v, _) in esd.metrics.items() if k.endswith(".calls")}
    for layer in ("linalg", "states", "channels", "sampling", "verification"):
        assert calls[f"{layer}.calls"] == 0
    assert calls["concurrence.concurrence_wootters.calls"] == 0
    assert calls["dynamics.numeric_trajectory.calls"] == 0
    assert esd.metrics["cli.build_parser.calls_per_op"][0] == 1


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


def test_same_seed_gives_same_inputs():
    for make in TINY.values():
        a = list(itertools.islice(make().commands(11), 13))
        b = list(itertools.islice(make().commands(11), 13))
        c = list(itertools.islice(make().commands(12), 13))
        assert [x.argv for x in a] == [x.argv for x in b]
        assert [x.argv for x in a] != [x.argv for x in c]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_outputs_match(name, tmp_path):
    wl = TINY[name]()
    cmds = list(itertools.islice(wl.commands(7), 3))
    table = tmp_path / "table.out"
    plain = [harness.digest(harness.execute(wl, c, table)[0]) for c in cmds]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [harness.digest(harness.execute(wl, c, table)[0]) for c in cmds]
    finally:
        tracer.uninstall()
    assert traced == plain
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls["cli.main"] == len(cmds)
    assert calls["dynamics.closed_form_concurrence"] > 0


def test_tracer_reaches_calls_bound_by_from_import(tmp_path):
    # numeric_trajectory calls apply_channel and concurrence_wootters through
    # names dynamics imported; each evaluation must still be counted
    wl = workloads.Trajectory(points=16)
    cmd = _first(wl, "xstate/phase")
    tracer = Tracer()
    tracer.install()
    try:
        harness.execute(wl, cmd, tmp_path / "t.out")
    finally:
        tracer.uninstall()
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls["channels.apply_channel"] == 16
    assert calls["concurrence.concurrence_wootters"] == 16
    # x_state validates once; apply_channel and spin_flip_spectrum once per point each
    assert calls["states.validate_density_matrix"] == 1 + 2 * 16
    import esdsim.dynamics

    assert not hasattr(esdsim.dynamics.apply_channel, "__wrapped__")


# -- the correctness gate ---------------------------------------------------


def _rewrite_row(artifact: str, index: int, new: str | None) -> str:
    lines = artifact.split("\n")
    if new is None:
        del lines[1 + index]
    else:
        lines[1 + index] = new
    return "\n".join(lines)


def test_trajectory_gate_trips_on_corrupted_rows(tmp_path):
    wl = workloads.Trajectory(points=64)
    cmd = _first(wl, "pure/phase")
    out, _ = harness.execute(wl, cmd, tmp_path / "t.out")
    assert wl.check(cmd, out).failed == 0

    tau, cc, cw, _ = out.artifact.split("\n")[5].split(",")
    off = float(cw) + 1e-6
    bad = _rewrite_row(out.artifact, 4, f"{tau},{cc},{off!r},{abs(float(cc) - off)!r}")
    verdict = wl.check(cmd, replace(out, artifact=bad))
    assert (verdict.failed, verdict.known_defect) == (1, 0)

    inconsistent = _rewrite_row(out.artifact, 4, f"{tau},{cc},{cw},0.5")
    verdict = wl.check(cmd, replace(out, artifact=inconsistent))
    assert (verdict.failed, verdict.known_defect) == (1, 0)

    assert wl.check(cmd, replace(out, artifact=_rewrite_row(out.artifact, 10, None))).failed >= 1
    assert wl.check(cmd, replace(out, artifact=_rewrite_row(out.artifact, 10, "x,y"))).failed == 1
    assert wl.check(cmd, replace(out, rc=2)).failed == 64
    assert wl.check(cmd, replace(out, error="RuntimeError: boom")).failed == 64


def test_trajectory_known_defect_is_counted_but_kept_apart(tmp_path):
    wl = workloads.Trajectory(points=64)
    cmd = _first(wl, "xstate/amplitude")
    out, _ = harness.execute(wl, cmd, tmp_path / "t.out")
    rows = out.artifact.split("\n")[1:-1]
    early = next(i for i, r in enumerate(rows) if float(r.split(",")[0]) > 1.0)
    tau, cc, _, _ = rows[early].split(",")
    off = float(cc) + 1e-7
    bad = _rewrite_row(out.artifact, early, f"{tau},{cc},{off!r},{abs(float(cc) - off)!r}")
    before = wl.check(cmd, out)
    after = wl.check(cmd, replace(out, artifact=bad))
    # an amplitude row off by 1e-7 before tau 20 is not the known defect
    assert after.failed == before.failed + 1
    assert after.known_defect == before.known_defect


def test_esd_gate_trips_on_corrupted_results(tmp_path):
    wl = workloads.EsdSweep()
    cmd = next(c for c in wl.commands(3) if c.expected and c.expected[0] == "SuddenDeath")
    out, _ = harness.execute(wl, cmd, tmp_path / "t.out")
    assert wl.check(cmd, out).failed == 0
    assert wl.check(cmd, replace(out, stdout=out.stdout.replace("SuddenDeath", "AsymptoticDecay"))).failed == 1
    fields = dict(line.split(": ", 1) for line in out.stdout.splitlines())
    shifted = repr(float(fields["tau_death_bisection"]) + 1e-6)
    bad = out.stdout.replace(f"tau_death_bisection: {fields['tau_death_bisection']}", f"tau_death_bisection: {shifted}")
    assert wl.check(cmd, replace(out, stdout=bad)).failed == 1
    assert wl.check(cmd, replace(out, stdout="")).failed == 1
    assert wl.check(cmd, replace(out, error="RuntimeError: concurrence revived")).failed == 1


def test_verify_gate_counts_failing_cases(tmp_path):
    wl = workloads.Verify(cases=3)
    cmd = _first(wl)
    out, _ = harness.execute(wl, cmd, tmp_path / "t.out")
    assert out.rc == 0 and wl.check(cmd, out).failed == 0
    lines = out.stdout.splitlines()
    first = lines[0].replace(": PASS ", ": FAIL ")
    failing = [first, "  err=1.0e-03 injected", "  err=2.0e-03 injected", "  ... 4 more failing cases"]
    n = len(wl.suite_cases)
    bad = "\n".join(failing + lines[1:-1] + [f"{n - 1}/{n} suites passed"]) + "\n"
    assert wl.check(cmd, replace(out, rc=1, stdout=bad)).failed == 6
    # the same text with a success exit code is inconsistent: every case fails
    assert wl.check(cmd, replace(out, stdout=bad)).failed == cmd.ops
    assert wl.check(cmd, replace(out, stdout="\n".join(lines[:-3]) + "\n")).failed == cmd.ops


def test_runs_whole_blocks_of_fresh_inputs(tmp_path, monkeypatch):
    wl = workloads.EsdSweep(block_size=24)
    argvs = []

    def execute(w, c, t):
        argvs.append(c.argv)
        return workloads.Outcome(0, "", "", None), 1e-4

    monkeypatch.setattr(harness, "execute", execute)
    log, _ = harness.measure(wl, wl.commands(3), 0.01, tmp_path / "t.out")
    assert len(log) >= 24 and len(log) % 24 == 0
    # no input repeats across timed commands, so a result cache in the
    # program has nothing to hit; only each block's first command runs twice
    timed = [a for i, a in enumerate(argvs) if i % 25 != 0]
    assert len(set(timed)) == len(timed) == len(log)
    assert argvs[::25] == timed[::24]


def test_output_that_changes_on_a_repeat_fails_its_command(tmp_path, monkeypatch):
    wl = workloads.Verify(cases=3)
    outputs = itertools.count()
    monkeypatch.setattr(harness, "execute", lambda w, c, t: (workloads.Outcome(0, str(next(outputs)), "", None), 1e-4))
    monkeypatch.setattr(wl, "check", lambda c, o: workloads.Verdict(0))
    log, _ = harness.measure(wl, itertools.islice(wl.commands(3), 12), math.inf, tmp_path / "t.out")
    assert log.nondeterministic == {0, 6}
    assert log.gate_failed() == 2 * log.ops[0] > 0


def test_speed_figures_cover_every_command_in_reference_seconds():
    log = harness.Log()
    cmd = workloads.Command(("esd",), 10, "m")
    # wall seconds are half the reference seconds, as on a machine at twice
    # the reference speed; the metrics follow the reference seconds
    for s in (4.0, 1.0, 2.0, 3.0, 10.0):
        log.add(cmd, bytes(harness.DIGEST_BYTES), workloads.Verdict(0), 0.0, s / 2)
    log.ref_seconds = array("d", (4.0, 1.0, 2.0, 3.0, 10.0))
    metrics, _ = harness.end_to_end(log, [(0.25, 0.5), (0.35, 0.7), (0.3, 0.6)], "ops")
    assert metrics["ops_per_s"] == (50 / 20.0, "ops/s")
    assert metrics["cmd_p50_ms"] == (3000.0, "ms")
    assert metrics["setup_s"] == (0.6, "s")


def test_reference_clock_scales_by_the_kernel_runs_near_an_interval():
    clock = RefClock()
    # kernel runs at t = 0..9 s: 1 ms each up to t = 4, then 2 ms (half speed)
    clock._mid = [float(t) for t in range(10)]
    clock._dur = [1e-3] * 5 + [2e-3] * 5
    assert clock.scale(1.0, 2.0) == pytest.approx(REF_KERNEL_S / 1e-3)
    assert clock.scale(7.0, 8.0) == pytest.approx(REF_KERNEL_S / 2e-3)
    # a window across the change takes the median of the runs in it
    assert clock.scale(3.0, 3.5) == pytest.approx(REF_KERNEL_S / 1e-3)
    assert clock.scale(4.0, 6.0) == pytest.approx(REF_KERNEL_S / 2e-3)


def test_measure_times_every_command_against_the_kernel(tmp_path):
    wl = workloads.EsdSweep(block_size=24)
    log, setup = harness.measure(wl, wl.commands(3), 0.0, tmp_path / "t.out")
    assert len(log) == len(log.ref_seconds) == 24 and setup == []
    assert min(log.ref_seconds) > 0 and min(log.seconds) > 0


def test_known_defect_is_reported_but_not_counted_as_failed(tmp_path, monkeypatch):
    wl = workloads.Trajectory(points=8)
    verdicts = iter([workloads.Verdict(3, known_defect=3), workloads.Verdict(0)] * 6)
    monkeypatch.setattr(wl, "check", lambda c, o: next(verdicts))
    result = harness.run("trajectory", 5, 0.0, False, tmp_path, workload=wl, setup_samples=1)
    assert (result.correct, result.attempted, result.failed) == (True, 12 * 8, 0)
    assert any(line.startswith("known defect: 18 rows") for line in result.report)

    # any other failure counts, and makes the run incorrect
    verdicts = iter([workloads.Verdict(3, known_defect=2)] * 12)
    result = harness.run("trajectory", 5, 0.0, False, tmp_path, workload=wl, setup_samples=1)
    assert (result.correct, result.failed) == (False, 12)


def test_unknown_per_layer_metric_is_refused():
    with pytest.raises(ValueError):
        Tracer().metrics(["linalg.hermitian_eig.self_ms"], 1, 1.0, 1.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "esdbench", tmp_path / "esdbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "esdbench/run.py", "--workload", "esd_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_log_keeps_little_per_command():
    # peak_rss_mb is the process's, and a faster program fits more commands
    # into a run, so the log must not grow much with them
    import tracemalloc

    log = harness.Log()
    cmd = workloads.Command(("esd",), 1, "xstate/phase")
    verdict = workloads.Verdict(0, tag="SuddenDeath")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(20_000):
            log.add(cmd, bytes(harness.DIGEST_BYTES), verdict, float(i), 1e-3)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown / len(log) < 100

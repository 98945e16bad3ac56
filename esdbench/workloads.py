"""The three benchmark workloads: inputs drawn from a seed, and the gate.

Every workload is a closed loop with one client: the harness issues one
CLI command, waits for it, checks it, then issues the next.  Inputs come
from this module's own numpy Generator, never from `esdsim.sampling`, so
a change to the program's samplers cannot change what is measured.

An operation is the unit `ops_per_s` and the failure counts are taken in:
one table row on `trajectory`, one classified scenario on `esd_sweep`,
and one property case on `verify`.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from esdsim.channels import NoiseKind, NoiseSpec
from esdsim.dynamics import Classification, Scenario, esd_time_analytic
from esdsim.states import Family, FamilyParams, PureStateParams, XStateParams
from esdsim.verification import SUITES

STATE_KINDS = ("xstate", "pure", "isotropic", "werner")
NOISE_KINDS = ("amplitude", "phase", "depolarizing")
# Command i draws pair i % 12; noise varies fastest, so any prefix of a run
# holds the three noises within one command of each other.
PAIRS = tuple((STATE_KINDS[p // 3], NOISE_KINDS[p % 3]) for p in range(12))

# The CLI defaults, passed explicitly so that a change of default cannot
# change the workload.
TAU_MAX = 50.0
POINTS = 2048
VERIFY_CASES = 40

# Commands per block.  A run issues fresh commands block after block for
# its seconds and ends on a block boundary, so that the (state kind x noise)
# pairs are equally many in every run; a traced run is one block.
ESD_BLOCK = 240
VERIFY_BLOCK = 6

# The README's promise: the closed form and the general route agree to 1e-8.
AGREEMENT_TOL = 1e-8
# A row's abs_diff column against |c_closed - c_wootters| recomputed from the
# 12-significant-digit columns.
ROW_CONSISTENCY_TOL = 1e-11

# Known defect: `linalg.psd_sqrt` snaps eigenvalues below 1e-13 of the
# largest to zero, which leaves a square-root-sized residue (<= ~4e-7) in
# the general route on amplitude-noise tails (tau ~ 26-36).  Rows that fail
# the agreement gate only in that way are reported as this defect, apart
# from the run's `failed` count; any other failure counts there and makes
# the run incorrect.
KNOWN_DEFECT = "amplitude-noise tail rows (psd_sqrt eigenvalue snap)"
KNOWN_DEFECT_TAU_MIN = 20.0
KNOWN_DEFECT_GAP_MAX = 1e-6


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what the gate needs to judge it."""

    argv: tuple[str, ...]
    ops: int
    mix: str
    expected: object = None


@dataclass(frozen=True)
class Outcome:
    """What one command produced: exit code or exception, and its output."""

    rc: int | None
    stdout: str
    stderr: str
    error: str | None
    artifact: str = ""


@dataclass(frozen=True)
class Verdict:
    """Failed operations, how many of them are the known defect, the first
    problem found, and a tag for the input-mix report (the classification)."""

    failed: int
    known_defect: int = 0
    detail: str | None = None
    tag: str | None = None


def _num(x: float) -> str:
    # numpy 2 scalars print as np.float64(...), which argparse rejects
    return repr(float(x))


def _draw_scenario(rng: np.random.Generator, state: str, noise: str) -> tuple[list[str], Scenario]:
    """Flags for one random scenario of the given pair, and the same scenario
    built through the library (the reference the esd gate compares with)."""
    spec = NoiseSpec(NoiseKind(noise))
    flags = ["--noise", noise]
    if state in ("xstate", "pure"):
        a, b, c, d = (float(w) for w in rng.dirichlet(np.ones(4)))
        flags += [f"--{state}", "--a", _num(a), "--b", _num(b), "--c", _num(c), "--d", _num(d)]
        if state == "xstate":
            mag = float(rng.uniform()) * math.sqrt(b * c)
            arg = float(rng.uniform(0.0, 2.0 * math.pi))
            flags += ["--zmod", _num(mag), "--zarg", _num(arg)]
            z = mag * complex(math.cos(arg), math.sin(arg))
            return flags, Scenario(XStateParams(a, b, c, d, z), spec)
        f, g, h = (float(v) for v in rng.uniform(0.0, 2.0 * math.pi, size=3))
        flags += ["--f", _num(f), "--g", _num(g), "--h", _num(h)]
        return flags, Scenario(PureStateParams(a, b, c, d, f, g, h), spec)
    x = float(rng.uniform())
    flags += ["--family", state, "--x", _num(x)]
    return flags, Scenario(FamilyParams(Family(state), x), spec)


def _fail_all(cmd: Command, out: Outcome) -> Verdict | None:
    if out.error is not None:
        return Verdict(cmd.ops, detail=f"raised {out.error}")
    return None


class Trajectory:
    """`esdsim evolve` tables; the numeric route does nearly all the work."""

    name = "trajectory"
    op_unit = "rows"
    writes_table = True
    block_size = len(PAIRS)

    def __init__(self, points: int = POINTS) -> None:
        self.points = points
        self.grid = np.linspace(0.0, TAU_MAX, points)

    def commands(self, seed: int) -> Iterator[Command]:
        rng = np.random.default_rng([seed, 1])
        for i in itertools.count():
            state, noise = PAIRS[i % len(PAIRS)]
            flags, _ = _draw_scenario(rng, state, noise)
            argv = ["evolve", *flags, "--tau-max", _num(TAU_MAX), "--points", str(self.points)]
            yield Command(tuple(argv), self.points, f"{state}/{noise}")

    def check(self, cmd: Command, out: Outcome) -> Verdict:
        raised = _fail_all(cmd, out)
        if raised is not None:
            return raised
        if out.rc != 0:
            return Verdict(cmd.ops, detail=f"exit code {out.rc}: {out.stderr.strip()}")
        lines = out.artifact.split("\n")
        if not lines or lines[0] != "tau,c_closed,c_wootters,abs_diff" or lines[-1] != "":
            return Verdict(cmd.ops, detail="missing header or trailing newline")
        rows = lines[1:-1]
        amplitude = cmd.mix.endswith("/amplitude")
        failed = max(0, self.points - len(rows))  # missing rows
        known = 0
        first_bad = None
        for i, row in enumerate(rows[: self.points]):
            verdict = self._check_row(i, row)
            if verdict is None:
                continue
            failed += 1
            tau, gap = verdict
            if amplitude and gap is not None and tau >= KNOWN_DEFECT_TAU_MIN and gap <= KNOWN_DEFECT_GAP_MAX:
                known += 1
            elif first_bad is None:
                first_bad = f"row {i}: {row!r}"
        failed += max(0, len(rows) - self.points)  # surplus rows
        detail = first_bad or ("rows missing or surplus" if failed > known else None)
        return Verdict(failed, known, detail)

    def _check_row(self, i: int, row: str) -> tuple[float, float | None] | None:
        """None for a good row; else (tau, gap), with gap None when the row is
        malformed rather than merely over the agreement tolerance."""
        expected_tau = float(self.grid[i])
        try:
            tau, c_closed, c_wootters, gap = (float(v) for v in row.split(","))
        except ValueError:
            return expected_tau, None
        if (
            not math.isclose(tau, expected_tau, rel_tol=1e-10, abs_tol=1e-12)
            or not 0.0 <= c_closed <= 1.0 + 1e-10
            or not 0.0 <= c_wootters <= 1.0 + 1e-10
            or abs(gap - abs(c_closed - c_wootters)) > ROW_CONSISTENCY_TOL
        ):
            return expected_tau, None
        if gap > AGREEMENT_TOL:
            return tau, gap
        return None


class EsdSweep:
    """`esdsim esd` classifications; never touches the numeric route."""

    name = "esd_sweep"
    op_unit = "scenarios"
    writes_table = False

    def __init__(self, block_size: int = ESD_BLOCK) -> None:
        self.block_size = block_size

    def commands(self, seed: int) -> Iterator[Command]:
        rng = np.random.default_rng([seed, 2])
        for i in itertools.count():
            state, noise = PAIRS[i % len(PAIRS)]
            flags, scenario = _draw_scenario(rng, state, noise)
            argv = ["esd", *flags, "--tau-max", _num(TAU_MAX), "--points", str(POINTS)]
            yield Command(tuple(argv), 1, f"{state}/{noise}", self._reference(scenario))

    @staticmethod
    def _reference(scenario: Scenario) -> tuple[str, float | None] | None:
        """The classification and death time the output must show, from
        `esd_time_analytic`; None where that function has no closed form.
        A death beyond the scan horizon shows as AsymptoticDecay."""
        try:
            analytic = esd_time_analytic(scenario)
        except ValueError:
            return None
        if analytic.tau_death is not None and analytic.tau_death > TAU_MAX:
            return Classification.ASYMPTOTIC_DECAY.value, None
        return analytic.classification.value, analytic.tau_death

    def check(self, cmd: Command, out: Outcome) -> Verdict:
        raised = _fail_all(cmd, out)
        if raised is not None:
            return raised
        if out.rc != 0:
            return Verdict(1, detail=f"exit code {out.rc}: {out.stderr.strip()}")
        fields = {}
        for line in out.stdout.splitlines():
            key, sep, value = line.partition(": ")
            if not sep:
                return Verdict(1, detail=f"unparseable line {line!r}")
            fields[key] = value
        got = fields.get("classification")
        problem = self._problem(cmd.expected, got, fields)
        return Verdict(1, detail=problem, tag=got) if problem else Verdict(0, tag=got)

    @staticmethod
    def _problem(expected, got: str | None, fields: dict[str, str]) -> str | None:
        if got not in {c.value for c in Classification}:
            return f"bad classification {got!r}"
        try:
            tau_b = float(fields["tau_death_bisection"]) if "tau_death_bisection" in fields else None
            gap = float(fields["abs_diff"]) if "abs_diff" in fields else None
            horizon = float(fields["horizon"]) if "horizon" in fields else None
        except ValueError as exc:
            return f"unparseable number: {exc}"
        if (got == Classification.SUDDEN_DEATH.value) != (tau_b is not None):
            return "death time present without SuddenDeath, or missing with it"
        if (got == Classification.ASYMPTOTIC_DECAY.value) != (horizon is not None):
            return "horizon present without AsymptoticDecay, or missing with it"
        if gap is not None and not gap <= AGREEMENT_TOL:
            return f"bisection vs analytic abs_diff {gap!r} > {AGREEMENT_TOL}"
        if expected is None:
            if fields.get("tau_death_analytic") != "n/a (no closed-form threshold)":
                return "analytic line missing where no closed threshold exists"
            return None
        want, tau_a = expected
        if got != want:
            return f"classification {got} disagrees with esd_time_analytic ({want})"
        if tau_a is not None and not abs(tau_b - tau_a) <= AGREEMENT_TOL:
            return f"bisection {tau_b!r} vs analytic {tau_a!r} beyond {AGREEMENT_TOL}"
        return None


_SUITE_LINE = re.compile(r"^suite (\w+): (PASS|FAIL) cases=(\d+) max_error=\S+ tol=\S+$")
_MORE_LINE = re.compile(r"^  \.\.\. (\d+) more failing cases$")
_SUMMARY_LINE = re.compile(r"^(\d+)/(\d+) suites passed$")


class Verify:
    """`esdsim verify` runs; single-point numeric calls, sampling, suites."""

    name = "verify"
    op_unit = "cases"
    writes_table = False
    block_size = VERIFY_BLOCK

    def __init__(self, cases: int = VERIFY_CASES) -> None:
        self.cases = cases
        # the per-suite case counts `verify` runs, from the suite registry
        self.suite_cases = {name: max(1, int(round(cases * scale))) for name, _, scale, _ in SUITES}

    def commands(self, seed: int) -> Iterator[Command]:
        rng = np.random.default_rng([seed, 3])
        ops = sum(self.suite_cases.values())
        while True:
            s = int(rng.integers(0, 2**31 - 1))
            yield Command(("verify", "--seed", str(s), "--cases", str(self.cases)), ops, "verify")

    def check(self, cmd: Command, out: Outcome) -> Verdict:
        raised = _fail_all(cmd, out)
        if raised is not None:
            return raised
        if out.rc not in (0, 1):
            return Verdict(cmd.ops, detail=f"exit code {out.rc}: {out.stderr.strip()}")
        lines = out.stdout.splitlines()
        seen: dict[str, tuple[bool, int]] = {}
        failing = 0
        current = None
        for line in lines[:-1]:
            m = _SUITE_LINE.match(line)
            if m:
                current = m.group(1)
                seen[current] = (m.group(2) == "PASS", int(m.group(3)))
                continue
            m = _MORE_LINE.match(line)
            if m and current is not None:
                failing += int(m.group(1))
            elif line.startswith("  err=") and current is not None:
                failing += 1
            else:
                return Verdict(cmd.ops, detail=f"unparseable line {line!r}")
        summary = _SUMMARY_LINE.match(lines[-1]) if lines else None
        if summary is None or {k: v[1] for k, v in seen.items()} != self.suite_cases:
            return Verdict(cmd.ops, detail="suite lines or case counts do not match the registry")
        passed = sum(1 for ok, _ in seen.values() if ok)
        if (int(summary.group(1)), int(summary.group(2))) != (passed, len(seen)):
            return Verdict(cmd.ops, detail="summary line disagrees with the suite lines")
        if (out.rc == 0) != (passed == len(seen)) or (failing == 0) != (passed == len(seen)):
            return Verdict(cmd.ops, detail="exit code or failure lines disagree with PASS/FAIL")
        return Verdict(failing, detail=f"{failing} failing cases" if failing else None)


WORKLOADS = {w.name: w for w in (Trajectory, EsdSweep, Verify)}

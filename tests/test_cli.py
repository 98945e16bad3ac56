import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdsim.channels import NoiseKind
from esdsim import cli, dynamics, verification
from esdsim.cli import build_parser, main
from esdsim.dynamics import (
    Classification,
    Scenario,
    closed_form_trajectory,
    esd_time_analytic,
    esd_time_bisection,
    numeric_trajectory,
)
from esdsim.states import XStateParams

FIG1_SOLID_FLAGS = [
    "--noise", "amplitude", "--xstate",
    "--a", "0.1", "--b", "0.4", "--c", "0.4", "--d", "0.1", "--zsq", "0.04",
]

HEADER = "tau,c_closed,c_wootters,abs_diff"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_command_is_usage_error(capsys):
    code, _, err = run([], capsys)
    assert code == 2
    assert "usage" in err


def test_unknown_figure_is_usage_error(capsys):
    code, _, _ = run(["figure", "fig9"], capsys)
    assert code == 2


def test_missing_state_selector(capsys):
    code, _, err = run(["evolve", "--noise", "amplitude"], capsys)
    assert code == 2
    assert "exactly one of" in err


def test_conflicting_state_selectors(capsys):
    code, _, err = run(
        ["evolve", "--noise", "phase", "--xstate", "--pure",
         "--a", "0.25", "--b", "0.25", "--c", "0.25", "--d", "0.25"],
        capsys,
    )
    assert code == 2
    assert "exactly one of" in err


def test_z_flag_conflicts(capsys):
    base = ["evolve", "--noise", "phase", "--xstate",
            "--a", "0.2", "--b", "0.3", "--c", "0.3", "--d", "0.2"]
    code, _, err = run(base + ["--zsq", "0.04", "--zmod", "0.2"], capsys)
    assert code == 2 and "mutually exclusive" in err
    code, _, err = run(base + ["--zsq", "0.04", "--zarg", "1.0"], capsys)
    assert code == 2 and "--zmod" in err
    code, _, err = run(base, capsys)
    assert code == 2 and "--zsq or --zmod" in err


FAMILY = ["--family", "werner", "--x", "0.5"]
PURE = ["--pure", "--a", "0.25", "--b", "0.25", "--c", "0.25", "--d", "0.25"]
XSTATE = FIG1_SOLID_FLAGS[2:]


@pytest.mark.parametrize(
    "state, stray, message",
    [
        (FAMILY, ["--a", "0.3"], "--a applies to --xstate and --pure, not --family"),
        (FAMILY, ["--zmod", "0.1"], "--zmod applies to --xstate, not --family"),
        (FAMILY, ["--g", "0.3"], "--g applies to --pure, not --family"),
        (PURE, ["--zsq", "0.5"], "--zsq applies to --xstate, not --pure"),
        (PURE, ["--x", "0.5"], "--x applies to --family, not --pure"),
        (XSTATE, ["--x", "0.9"], "--x applies to --family, not --xstate"),
        (XSTATE, ["--f", "1.0"], "--f applies to --pure, not --xstate"),
        (XSTATE, ["--h", "0.0"], "--h applies to --pure, not --xstate"),
    ],
)
def test_state_flags_of_another_state_kind_exit_2(state, stray, message, capsys):
    for command in ("esd", "evolve"):
        code, out, err = run([command, "--noise", "phase", *state, *stray, "--points", "8"], capsys)
        assert code == 2, (command, stray)
        assert out == ""
        assert err == f"error: {message}\n"


def test_tau_max_must_be_positive_and_finite(capsys):
    # one check in main covers evolve and esd alike
    for command in ("evolve", "esd"):
        for bad in ("0", "-1", "nan", "inf"):
            code, out, err = run(
                [command, *FIG1_SOLID_FLAGS, "--tau-max", bad, "--points", "8"], capsys
            )
            assert code == 2, (command, bad)
            assert out == ""
            assert "--tau-max must be positive and finite" in err


def test_gamma_must_be_positive_and_finite(capsys):
    for command in ("evolve", "esd"):
        for bad in ("0", "-1", "nan", "inf"):
            code, out, err = run(
                [command, *FIG1_SOLID_FLAGS, "--gamma", bad, "--points", "8"], capsys
            )
            assert code == 2, (command, bad)
            assert out == ""
            assert "--gamma must be positive and finite" in err


def test_nonfinite_state_parameters_exit_2(capsys):
    xstate = ["--noise", "phase", "--xstate", "--b", "0.3", "--c", "0.3", "--d", "0.2"]
    pure = ["--noise", "phase", "--pure", "--b", "0.3", "--c", "0.3", "--d", "0.2"]
    cases = [
        ([*xstate, "--a", "nan", "--zsq", "0.09"], "parameter a must be finite"),
        ([*xstate, "--a", "0.2", "--zmod", "nan"], "--zmod must be finite, got nan"),
        ([*xstate, "--a", "0.2", "--zmod", "inf"], "--zmod must be finite, got inf"),
        ([*xstate, "--a", "0.2", "--zmod", "0.1", "--zarg", "nan"], "--zarg must be finite, got nan"),
        ([*xstate, "--a", "0.2", "--zmod", "0.1", "--zarg", "inf"], "--zarg must be finite, got inf"),
        ([*xstate, "--a", "0.2", "--zsq", "nan"], "--zsq must be finite, got nan"),
        ([*xstate, "--a", "0.2", "--zsq", "inf"], "--zsq must be finite, got inf"),
        ([*pure, "--a", "nan"], "parameter a must be finite"),
        ([*pure, "--a", "0.2", "--f", "nan"], "parameter f must be finite"),
        ([*pure, "--a", "0.2", "--h", "inf"], "parameter h must be finite"),
    ]
    for command in ("esd", "evolve"):
        for flags, message in cases:
            code, out, err = run([command, *flags, "--points", "8"], capsys)
            assert code == 2, (command, flags)
            assert out == ""
            assert message in err


def test_evolve_points_validation(capsys):
    code, _, err = run(
        ["evolve", *FIG1_SOLID_FLAGS, "--points", "1"], capsys
    )
    assert code == 2
    assert "points" in err


def test_evolve_stdout_table(capsys):
    code, out, _ = run(
        ["evolve", *FIG1_SOLID_FLAGS, "--tau-max", "3", "--points", "13"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 14
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[1] == "0.2"
    # closed form and the numeric (factor) route agree on every row
    for line in lines[1:]:
        assert float(line.split(",")[3]) <= 1e-8
    # death happens before tau = 3, after which the closed form prints 0
    assert lines[-1].split(",")[1] == "0"
    # every value is printed with 12 significant digits
    _, out, _ = run(["evolve", *FIG1_SOLID_FLAGS, "--tau-max", "2.9", "--points", "13"], capsys)
    lines = out.splitlines()
    scenario = Scenario(XStateParams(0.1, 0.4, 0.4, 0.1, 0.2), NoiseKind.AMPLITUDE)
    grid = np.linspace(0.0, 2.9, 13)
    closed = closed_form_trajectory(scenario, grid).c
    numeric = numeric_trajectory(scenario, grid).c
    for line, *row in zip(lines[1:], grid, closed, numeric, np.abs(closed - numeric)):
        assert line == ",".join(format(float(v), ".12g") for v in row)


def test_evolve_output_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    for path in (out1, out2):
        code, _, _ = run(
            ["evolve", *FIG1_SOLID_FLAGS, "--tau-max", "2", "--points", "64",
             "--out", str(path)],
            capsys,
        )
        assert code == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b"\r" not in b1
    assert b1.endswith(b"\n")


def test_evolve_jsonl(capsys):
    code, out, _ = run(
        ["evolve", *FIG1_SOLID_FLAGS, "--tau-max", "1", "--points", "5",
         "--format", "jsonl"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    for line in lines:
        record = json.loads(line)
        assert list(record) == ["tau", "c_closed", "c_wootters", "abs_diff"]
        assert all(isinstance(v, (int, float)) for v in record.values())
    assert json.loads(lines[0])["c_closed"] == pytest.approx(0.2)


def test_evolve_gamma_rescales_time(capsys):
    argv = ["evolve", *FIG1_SOLID_FLAGS, "--tau-max", "2", "--points", "3"]
    _, plain, _ = run(argv, capsys)
    _, scaled, _ = run(argv + ["--gamma", "2"], capsys)
    plain_rows = [line.split(",") for line in plain.splitlines()[1:]]
    scaled_rows = [line.split(",") for line in scaled.splitlines()[1:]]
    assert [r[0] for r in plain_rows] == ["0", "1", "2"]
    assert [r[0] for r in scaled_rows] == ["0", "0.5", "1"]
    # concurrence columns are untouched by the rate
    for pr, sr in zip(plain_rows, scaled_rows):
        assert pr[1:] == sr[1:]


def test_evolve_out_into_missing_directory(capsys):
    code, _, err = run(
        ["evolve", *FIG1_SOLID_FLAGS, "--out", "/nonexistent-dir/run.csv"], capsys
    )
    assert code == 3
    assert "error" in err


def test_esd_text_sudden_death(capsys):
    code, out, _ = run(
        ["esd", "--noise", "amplitude", "--family", "werner", "--x", "0.4"], capsys
    )
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["classification"] == "SuddenDeath"
    # eta*^2 = 2(1 - 2x)/(1 - x) = 2/3 at x = 0.4
    assert lines["tau_death_analytic"] == "0.405465108108"
    assert abs(float(lines["tau_death_bisection"]) - math.log(1.5)) <= 1e-8
    assert float(lines["abs_diff"]) <= 1e-8


def test_esd_text_analytic_agreement(capsys):
    code, out, _ = run(
        ["esd", "--noise", "depolarizing", "--pure",
         "--a", "0.25", "--b", "0.25", "--c", "0.25", "--d", "0.25",
         "--f", "0.7853981633974483", "--g", "0.7853981633974483",
         "--h", "0.7853981633974483"],
        capsys,
    )
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["classification"] == "SuddenDeath"
    assert abs(float(lines["tau_death_analytic"]) - 2 * math.log(2)) <= 1e-12
    assert float(lines["abs_diff"]) <= 1e-8


def test_esd_text_asymptotic(capsys):
    code, out, _ = run(
        ["esd", "--noise", "amplitude", "--family", "werner", "--x", "0.6"], capsys
    )
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["classification"] == "AsymptoticDecay"
    assert float(lines["horizon"]) == 50.0
    assert "tau_death_bisection" not in lines


def test_esd_text_initially_separable(capsys):
    code, out, _ = run(
        ["esd", "--noise", "phase", "--family", "werner", "--x", "0.2"], capsys
    )
    assert code == 0
    assert out == "classification: InitiallySeparable\n"


def test_esd_jsonl(capsys):
    code, out, _ = run(
        ["esd", "--noise", "amplitude", "--family", "werner", "--x", "0.4",
         "--format", "jsonl"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["classification"] == "SuddenDeath"
    assert record["tau_death_analytic"] == pytest.approx(math.log(1.5), rel=1e-11)
    assert abs(record["tau_death_bisection"] - math.log(1.5)) <= 1e-8


def test_esd_jsonl_bytes(capsys):
    # floats print as the text format's 12 digits ("50", not "50.0");
    # strings are JSON-quoted
    code, out, _ = run(
        ["esd", "--noise", "amplitude", "--family", "werner", "--x", "0.6",
         "--format", "jsonl"],
        capsys,
    )
    assert code == 0
    # x = 0.6 lies beyond the critical x = 1/2, so there is no death time
    assert out == '{"classification": "AsymptoticDecay", "horizon": 50}\n'
    code, out, _ = run(
        ["esd", "--noise", "phase", "--xstate", "--a", "0.2", "--b", "0.3",
         "--c", "0.3", "--d", "0.2", "--zsq", "0.09", "--format", "jsonl"],
        capsys,
    )
    assert code == 0
    assert out.startswith(
        '{"classification": "SuddenDeath", "tau_death_analytic": 0.810930216216, '
        '"tau_death_bisection": 0.810930216216, "abs_diff": '
    )


def test_esd_gamma_rescales_death_time(capsys):
    argv = ["esd", "--noise", "phase", "--xstate",
            "--a", "0.2", "--b", "0.3", "--c", "0.3", "--d", "0.2", "--zsq", "0.09"]
    _, out, _ = run(argv + ["--gamma", "2", "--format", "jsonl"], capsys)
    record = json.loads(out)
    assert record["tau_death_analytic"] == pytest.approx(math.log(2.25) / 2, abs=1e-12)


def test_figure_stdout_sections(capsys):
    code, out, _ = run(["figure", "fig4", "--points", "9"], capsys)
    assert code == 0
    lines = out.splitlines()
    curves = [line for line in lines if line.startswith("# curve: ")]
    assert curves == ["# curve: dashed", "# curve: dot-dashed", "# curve: solid"]
    assert lines.count(HEADER) == 3


def test_figure_writes_files(tmp_path, capsys):
    out_dir = tmp_path / "curves"
    code, _, _ = run(
        ["figure", "fig1", "--points", "17", "--out", str(out_dir)], capsys
    )
    assert code == 0
    names = sorted(os.listdir(out_dir))
    assert names == ["fig1_dashed.csv", "fig1_solid.csv"]
    solid = (out_dir / "fig1_solid.csv").read_text().splitlines()
    assert solid[0] == "# curve: solid"
    assert solid[1] == HEADER
    assert len(solid) == 19
    assert float(solid[2].split(",")[1]) == pytest.approx(0.2)


def test_figure_jsonl_curve_key(capsys):
    code, out, _ = run(
        ["figure", "fig2", "--points", "5", "--format", "jsonl"], capsys
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 10
    assert {r["curve"] for r in records} == {"solid", "dashed"}


def test_verify_rejects_bad_cases(capsys):
    code, _, err = run(["verify", "--cases", "0"], capsys)
    assert code == 2
    assert "cases" in err


def test_verify_rejects_negative_seed(capsys):
    code, out, err = run(["verify", "--seed", "-1", "--cases", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --seed must be nonnegative, got -1\n"


def test_verify_small_run_passes_and_repeats(capsys):
    code, out1, _ = run(["verify", "--seed", "3", "--cases", "40"], capsys)
    assert code == 0
    assert out1.splitlines()[-1] == "18/18 suites passed"
    code, out2, _ = run(["verify", "--seed", "3", "--cases", "40"], capsys)
    assert code == 0
    assert out1 == out2


def test_parser_smoke():
    parser = build_parser()
    args = parser.parse_args(["evolve", *FIG1_SOLID_FLAGS])
    assert args.command == "evolve"
    assert args.tau_max == 50.0
    assert args.points == 2048
    args = parser.parse_args(["verify"])
    assert args.seed == 0 and args.cases == 1000


def test_figure_rejects_tau_max(capsys):
    # each preset fixes its own tau range, so the flag is not accepted
    code, out, err = run(["figure", "fig1", "--tau-max", "5"], capsys)
    assert code == 2
    assert out == ""
    assert "--tau-max" in err


def test_points_validation_is_shared(capsys):
    for argv in (["esd", *FIG1_SOLID_FLAGS], ["figure", "fig1"]):
        code, _, err = run([*argv, "--points", "1"], capsys)
        assert code == 2
        assert "points must be at least 2" in err


def test_tau_max_over_gamma_must_be_finite(capsys):
    # the last evolve time and the esd horizon; inf would print as inf
    # and make the JSONL invalid
    for command in ("evolve", "esd"):
        code, out, err = run(
            [command, "--noise", "phase", *FAMILY, "--points", "3", "--gamma", "1e-310",
             "--format", "jsonl"],
            capsys,
        )
        assert code == 2, command
        assert out == ""
        assert err == "error: --tau-max / --gamma must be finite, got 50.0 / 1e-310\n"


# sha256 of each -h text at COLUMNS=80, taken before the shared flags were
# declared once (argparse parents); the help must read the same
HELP_SHA256 = {
    "-h": "d1b32f0142ad5d34b32ae4a1a0aecbd3ff8d9e71094a6b61d173685bc9fc8d74",
    "evolve -h": "5ca0b8f4977928a03659e1cae7acd2924900907686eb2020fc1775d1eef7cc27",
    "esd -h": "a78d81dfd595a835f5eecc70b247948ba83639946b69e18ffafd4dcb69c9fe4d",
    "figure -h": "d9ef0c2dbd4af115b8a430d6ae61c0e138f55b7a2be346f555c169e865a69376",
    "verify -h": "d6eb4bbd1e24a0072c515249aadeeadafe1a18f8abf85a021f6a9e6a4c07d9f3",
}


@pytest.mark.parametrize("argv", sorted(HELP_SHA256))
def test_help_text_is_pinned(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(argv.split(), capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[argv]


def test_esd_time_that_overflows_at_small_gamma_exits_2(capsys):
    # the closed-form death time (689.4) lies past --tau-max, so the
    # --tau-max / --gamma check passes, but 689.4 / 3e-307 is inf
    argv = ["esd", "--noise", "phase", "--xstate", "--a", "1e-150", "--b", "0.5",
            "--c", "0.5", "--d", "1e-150", "--zsq", "0.25", "--format", "jsonl"]
    code, out, err = run([*argv, "--gamma", "3e-307"], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "error: tau_death_analytic = 689.3892335370938 / --gamma 3e-307 is not finite; "
        "use a larger --gamma\n"
    )
    code, out, _ = run([*argv, "--gamma", "1"], capsys)
    assert code == 0
    assert out == (
        '{"classification": "AsymptoticDecay", "tau_death_analytic": 689.389233537, '
        '"horizon": 50}\n'
    )


def test_esd_phase_death_past_the_float_range_of_the_quotient_exits_0(capsys):
    # |z| / (sqrt(a) sqrt(d)) overflows at subnormal weights; the rule's time
    # (1426.2) lies past every horizon the scan may take, so the scan reads
    # an asymptotic decay beside it
    argv = ["esd", "--noise", "phase", "--xstate", "--a", "1e-310", "--b", "0.5",
            "--c", "0.5", "--d", "1e-310", "--zmod", "0.5"]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out == (
        "classification: AsymptoticDecay\ntau_death_analytic: 1426.2164633\nhorizon: 50\n"
    )


def test_esd_phase_rule_at_a_subnormal_root(capsys):
    # sqrt(a) sqrt(d) is subnormal but |z| over it finite: the rule takes the
    # logarithms apart and reads the 50-digit 1381.5629955165...
    argv = ["esd", "--noise", "phase", "--xstate", "--a", "2e-317", "--b", "0.5",
            "--c", "0.5", "--d", "5e-324", "--zmod", "1e-20", "--tau-max", "1416"]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["classification: SuddenDeath", "tau_death_analytic: 1381.56299552"]


# A corner weight d below half an ulp of b: the amplitude margin at tau = 0
# is |z|^2 - a d, which a(b + d) - a b would round to -a b + a b = 0
TINY_CORNER = ["--noise", "amplitude", "--xstate", "--a", "0.4999999", "--b", "0.5", "--c", "1e-7"]


def test_evolve_keeps_a_corner_weight_below_the_float_spacing(capsys):
    argv = ["evolve", *TINY_CORNER, "--d", "5.5e-17", "--zmod", "2e-4", "--points", "2",
            "--tau-max", "1e-3"]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    tau, closed, _, gap = map(float, out.splitlines()[1].split(","))
    assert tau == 0.0 and gap <= 1e-15
    # 2 (|z| - sqrt(a d)) at 40 digits: 3.999895119125671e-4
    assert abs(closed - 3.999895119125671e-4) <= 1e-15
    s = Scenario(XStateParams(0.4999999, 0.5, 1e-7, 5.5e-17, 2e-4), NoiseKind.AMPLITUDE)
    assert dynamics.closed_form_concurrence(s, 0.0) == pytest.approx(3.999895119125671e-4, rel=1e-15)


def test_esd_reads_a_separable_state_beside_a_tiny_corner_weight(capsys):
    # |z|^2 = 1e-18 < a d = 2.5e-17: separable, where the bisection used to
    # read a death at 3.6e-10 and the rule a time of 0.0
    code, out, err = run(["esd", *TINY_CORNER, "--d", "5e-17", "--zmod", "1e-9"], capsys)
    assert (code, out, err) == (0, "classification: InitiallySeparable\n", "")
    s = Scenario(XStateParams(0.4999999, 0.5, 1e-7, 5e-17, 1e-9), NoiseKind.AMPLITUDE)
    r = dynamics.esd_time_analytic(s)
    assert r.classification is dynamics.Classification.INITIALLY_SEPARABLE


def test_esd_amplitude_death_where_the_margin_cancels_to_1e_15(capsys):
    # |z|^2 and a d agree to 15 digits (3.1e-90), and a(b + d) - |z|^2 is
    # 3e-106: the margin's coefficients are taken as compensated dot products
    # of the record's floats, so both routes find the 50-digit death time
    # 3.1257820627569747884
    argv = ["esd", "--noise", "amplitude", "--xstate", "--a", "6.893893559541884e-90",
            "--b", "1.0161426496739373e-15", "--c", "0.5508894578362661",
            "--d", "0.4491105421637329", "--zmod", "1.7595795731210705e-45", "--format", "jsonl"]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["classification"] == "SuddenDeath"
    for key in ("tau_death_analytic", "tau_death_bisection"):
        assert abs(record[key] - 3.1257820627569747884) <= 1e-11, record


def test_esd_and_evolve_admit_the_same_x_states(capsys):
    # one admission rule, at the record: the central block's least eigenvalue
    # against -PSD_CLAMP_TOL.  Here b c - |z|^2 = -1e-12, but the least
    # eigenvalue is -9.05e-7: both commands refuse it alike
    not_psd = ["--a", "0.9999998", "--b", "1e-7", "--c", "1e-7", "--d", "0",
               "--zmod", "1.0049875621120889e-06"]
    # least eigenvalues -2.5e-11 and -9e-11, within the allowance of every
    # matrix check: both are read at |z| = sqrt(b c), where |z|^2 = a d, so separable
    within = [["--a", "0.25", "--b", "0.25", "--c", "0.25", "--d", "0.25", "--zmod", zmod]
              for zmod in ("0.250000000025", "0.25000000009")]
    for command in ("esd", "evolve"):
        code, out, err = run([command, "--noise", "amplitude", "--xstate", *not_psd], capsys)
        assert (code, out) == (2, ""), command
        assert err == "error: matrix is not PSD: min eigenvalue -9.050e-07 < -1.000e-10\n"
        for state in within:
            code, out, err = run([command, "--noise", "amplitude", "--xstate", *state, "--points", "8"], capsys)
            assert (code, err) == (0, ""), (command, state)
            assert out if command == "evolve" else out == "classification: InitiallySeparable\n"


@pytest.mark.parametrize("noise", [k.value for k in NoiseKind])
def test_a_block_admitted_below_zero_is_one_state_on_both_routes(noise, capsys):
    # b = 0 and |z| = 7e-6 put the central block's least eigenvalue at
    # -9.8e-11, within the allowance.  The record reads the block at |z| =
    # sqrt(b c) = 0, so the closed forms and the numeric route take the same
    # state, separable, and the scan and the rule classify it alike
    state = ["--xstate", "--a", "0.5", "--b", "0", "--c", "0.5", "--d", "0", "--zmod", "7e-6"]
    code, out, err = run(["evolve", "--noise", noise, *state, "--tau-max", "5", "--points", "2001"], capsys)
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 2001
    assert max(float(row.split(",")[3]) for row in rows) <= 1e-8
    scenario = Scenario(XStateParams(0.5, 0.0, 0.5, 0.0, 7e-6), NoiseKind(noise))
    for route in (esd_time_analytic, esd_time_bisection):
        assert route(scenario).classification is Classification.INITIALLY_SEPARABLE, route
    code, out, err = run(["esd", "--noise", noise, *state], capsys)
    assert (code, out, err) == (0, "classification: InitiallySeparable\n", "")
    # the depolarizing margin's double root at p = 3/4 is not a death, and
    # the closed form is defined there
    code, _, err = run(["evolve", "--noise", noise, *state, "--tau-max", "2.772588722239781",
                        "--points", "2"], capsys)
    assert (code, err) == (0, "")


def test_esd_tau_max_past_the_normal_floats_exits_2(capsys):
    # e^(-tau/2) underflows to 0 near tau = 1490, where a pure state under
    # amplitude noise would read as a sudden death
    argv = ["esd", "--noise", "amplitude", "--pure", "--a", "0.5", "--b", "0", "--c", "0",
            "--d", "0.5"]
    code, out, err = run([*argv, "--tau-max", "3000"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: tau_max must be at most 1416.79, ")
    code, out, _ = run([*argv, "--tau-max", "1416"], capsys)
    assert code == 0
    assert out == "classification: AsymptoticDecay\nhorizon: 1416\n"


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_parse_leaves_no_flag_value_behind():
    parser = build_parser()
    given_all = ["esd", *FIG1_SOLID_FLAGS, "--gamma", "2", "--out", "x.csv",
                 "--points", "9", "--format", "jsonl", "--tau-max", "3"]
    args = parser.parse_args(given_all)
    assert (args.gamma, args.out, args.points, args.format, args.tau_max) == (
        2.0, "x.csv", 9, "jsonl", 3.0)
    defaults = ["esd", "--noise", "phase", *FAMILY]
    args = parser.parse_args(defaults)
    assert (args.gamma, args.out, args.points, args.format, args.tau_max) == (
        1.0, None, 2048, "csv", 50.0)
    assert (args.xstate, args.a, args.zsq) == (False, None, None)
    # main reads both through the option tables, to the same Namespace
    for argv in (given_all, defaults):
        table = cli._table_parse(parser, argv)
        assert table is not None
        assert repr(table) == repr(parser.parse_args(argv))


def _session(tmp_path, monkeypatch, capsys):
    # stdout, stderr and exit code of one sequence of main calls in one
    # process; the files written by evolve --out are read back as well
    monkeypatch.setenv("COLUMNS", "80")
    argv_list = [
        ["esd", *FIG1_SOLID_FLAGS, "--gamma", "2", "--format", "jsonl"],
        ["esd", *FIG1_SOLID_FLAGS],
        ["evolve", *FIG1_SOLID_FLAGS, "--points", "9", "--out", str(tmp_path / "run.csv")],
        ["figure", "fig2", "--points", "5"],
        ["verify", "--seed", "1", "--cases", "3"],
        # forms the option tables leave to argparse
        ["esd", "--noise=phase", *FAMILY],
        ["esd", "--noi", "phase", *FAMILY],
        ["esd", "--noise", "phase", *XSTATE[:-2], "--zmod", "0.1", "--zarg", "-1.5"],
        ["esd", "--noise", "phase", *XSTATE[:-2], "--zmod", "0.1", "--zarg=-1e-3"],
        ["esd", "--noise", "phase", "--xstate", "--pure"],
        ["evolve", "--points", "9"],
        ["esd", "--noise", "phase", *FAMILY, "--bogus"],
    ]
    seen = [(run(argv, capsys), (tmp_path / "run.csv").read_text() if "--out" in argv else None)
            for argv in argv_list]
    for columns in ("80", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["-h"], ["esd", "-h"], ["evolve", "-h"]):
            seen.append((run(argv, capsys), None))
    return seen


def test_cached_parser_matches_a_fresh_one(tmp_path, monkeypatch, capsys):
    cached = _session(tmp_path, monkeypatch, capsys)
    # main looks build_parser up per call; the uncached one builds afresh
    monkeypatch.setattr("esdsim.cli.build_parser", build_parser.__wrapped__)
    fresh = _session(tmp_path, monkeypatch, capsys)
    assert cached == fresh
    codes = [code for (code, _, _), _ in cached]
    assert codes == [0] * 9 + [2, 2, 2] + [0] * 6
    # the help pages follow COLUMNS at print time
    assert cached[-5][0][1] != cached[-2][0][1]


def test_evolve_at_its_defaults_agrees_everywhere(tmp_path, capsys):
    # the amplitude tail of fig1-solid (tau ~ 26-36) included
    path = tmp_path / "fig1.csv"
    assert main(["evolve", *FIG1_SOLID_FLAGS, "--out", str(path)]) == 0
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == 2048
    assert max(float(row.split(",")[3]) for row in rows) <= 1e-8


NEAR_PRODUCT_PURE_FLAGS = [
    "--pure", "--a", "0.40389553676605316", "--b", "0.11176780010956844",
    "--c", "0.3793587841892353", "--d", "0.1049778789351431",
    "--f", "2.048604842356715", "--g", "2.8713455886352186", "--h", "4.919950430991934",
]


def test_pure_closed_form_near_a_product_state(capsys):
    # the exact concurrence of this record is 2.4e-17; the radicand form
    # ad + bc - 2 sqrt(abcd) cos(theta) cancelled and printed c_closed
    # 1.05367121277e-08 and abs_diff 1.05e-8 at tau = 0
    for argv in (["--points", "3", "--tau-max", "0.01"], []):
        code, out, _ = run(["evolve", "--noise", "phase", *NEAR_PRODUCT_PURE_FLAGS, *argv], capsys)
        assert code == 0
        rows = [[float(v) for v in row.split(",")] for row in out.splitlines()[1:]]
        assert len(rows) == (3 if argv else 2048)
        assert max(row[1] for row in rows) <= 1e-15
        assert max(row[3] for row in rows) <= 1e-15


def _tau_fields(text: str, fmt: str) -> list[str]:
    # the printed tau text of every row of a csv or jsonl table
    if fmt == "csv":
        return [line.split(",")[0] for line in text.splitlines() if line[:1].isdigit()]
    return [line.split('"tau": ')[1].split(",")[0] for line in text.splitlines()]


def test_every_tau_field_is_the_grid_over_gamma(capsys):
    # evolve on three grids, each twice in csv and jsonl, then figure fig4:
    # every printed tau is _fmt(grid / gamma)
    flags = ["evolve", *FIG1_SOLID_FLAGS]
    for tau_max, points, gamma in ((50.0, 2048, 1.0), (10.0, 11, 1.0), (50.0, 2048, 0.3)):
        want = [cli._fmt(t) for t in np.linspace(0.0, tau_max, points) / gamma]
        grid = ["--tau-max", repr(tau_max), "--points", str(points), "--gamma", repr(gamma)]
        for fmt in ("csv", "jsonl", "csv", "jsonl"):
            code, out, _ = run([*flags, *grid, "--format", fmt], capsys)
            assert code == 0
            assert _tau_fields(out, fmt) == want
    # figure fig4: three curves on one grid over [0, 2]
    want = [cli._fmt(t) for t in np.linspace(0.0, 2.0, 2048)] * 3
    for fmt in ("csv", "jsonl"):
        code, out, _ = run(["figure", "fig4", "--format", fmt], capsys)
        assert code == 0
        assert _tau_fields(out, fmt) == want


def test_kept_tau_text_leaves_every_table_unchanged(capsys):
    # the default grid, another grid, then the default grid again in one
    # process: each table equals the same command's table with nothing kept,
    # and the cache holds one grid's text, a str, after every command
    default = ([], np.linspace(0.0, 50.0, 2048))
    other = (["--tau-max", "3", "--points", "301", "--gamma", "0.5"], np.linspace(0.0, 3.0, 301) / 0.5)
    for fmt in ("csv", "jsonl"):
        for flags, taus in (default, other, default):
            argv = ["evolve", *FIG1_SOLID_FLAGS, *flags, "--format", fmt]
            code, kept, _ = run(argv, capsys)
            assert code == 0
            info = cli._tau_text.cache_info()
            assert (info.maxsize, info.currsize) == (1, 1)
            # the kept entry is this grid's: reading it is a hit
            text = cli._tau_text(taus.tobytes())
            assert cli._tau_text.cache_info().hits == info.hits + 1
            assert isinstance(text, str) and sys.getsizeof(text) < 16 * len(taus)
            cli._tau_text.cache_clear()
            code, fresh, _ = run(argv, capsys)
            assert code == 0
            assert kept == fresh


def test_figure_formats_its_tau_column_once(capsys):
    # fig4's three curves share one grid: one miss, then two hits
    cli._tau_text.cache_clear()
    code, out, _ = run(["figure", "fig4"], capsys)
    assert code == 0 and out.count("# curve: ") == 3
    info = cli._tau_text.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_kept_tau_text_tells_signed_zeros_apart():
    # 0.0 and -0.0 compare equal but print apart: the key is the bytes
    for first, second in (([0.0, 1.0], [-0.0, 1.0]), ([-0.0, 1.0], [0.0, 1.0])):
        for tau in (first, second):
            stream = io.StringIO()
            cli._write_rows(stream, [(t, 0.5, 0.5, 0.0) for t in tau], "csv")
            assert stream.getvalue().splitlines()[1:] == [f"{cli._fmt(t)},0.5,0.5,0" for t in tau]


def test_a_table_is_written_in_one_call():
    class Counted:
        def __init__(self):
            self.calls = []

        def write(self, text):
            self.calls.append(text)

    rows = [(0.0, 0.2, 0.2, 0.0), (1.5, 0.125, 0.125, 1e-17)]
    for fmt, curve in (("csv", None), ("csv", "solid"), ("jsonl", None), ("jsonl", "solid")):
        stream = Counted()
        cli._write_rows(stream, rows, fmt, curve)
        assert len(stream.calls) == 1
    assert stream.calls[0].count("\n") == 2
    stream = Counted()
    cli._write_rows(stream, rows, "csv", "solid")
    assert stream.calls == ["# curve: solid\n" + HEADER + "\n0,0.2,0.2,0\n1.5,0.125,0.125,1e-17\n"]


# signed zeros, the least subnormal and normal floats, and values whose 12th
# significant digit sits on a rounding tie or carries into a new exponent
AWKWARD = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e16, 123456789012.5,
           0.1234567890125, 9.999999999995e-05]


LABELS = (None, "solid", '50% "dash\\dot" ψ %s %%')


def _per_value_table(table, fmt, curve):
    # the table as _fmt and _json_line print it, one value at a time
    if fmt == "csv":
        head = f"# curve: {curve}\n" if curve is not None else ""
        return head + HEADER + "\n" + "".join(",".join(map(cli._fmt, row)) + "\n" for row in table)
    tag = [("curve", curve)] if curve is not None else []
    return "".join(cli._json_line([*tag, *zip(cli._COLUMNS, row)]) for row in table.tolist())


def _assert_per_value(table):
    # in both formats, under every label, with rows as an array and as 4-tuples
    for curve in LABELS:
        for fmt in ("csv", "jsonl"):
            for rows in (table, [tuple(row) for row in table.tolist()]):
                stream = io.StringIO()
                cli._write_rows(stream, rows, fmt, curve)
                assert stream.getvalue() == _per_value_table(table, fmt, curve)


def test_one_pass_table_matches_per_value_formatting():
    # the writer fills one row template for the whole table; it prints the
    # bytes of formatting each value on its own, and a label's %, quotes,
    # backslashes and non-ASCII text pass through the JSONL template intact
    rng = np.random.default_rng(27)
    draws = rng.standard_normal(62) * 10.0 ** rng.integers(-320, 300, 62)
    _assert_per_value(np.concatenate([AWKWARD, np.negative(AWKWARD), draws]).reshape(-1, 4))


def test_trailing_zero_rows_match_per_value_formatting():
    # a trailing run of rows whose three values are +0.0 prints from the kept
    # tau text with a constant suffix: the JSONL label is not %-escaped
    # there; -0.0, the least subnormal and NaN print as themselves and end
    # the run
    taus = np.linspace(0.0, 3.0, 7)
    live = np.column_stack((taus, np.full((7, 3), 0.25)))
    dead = np.column_stack((taus, np.zeros((7, 3))))
    tables = [
        np.concatenate((live[:3], dead[3:])),
        dead,
        dead[:1],
        live[:1],
        np.concatenate((live[:1], dead[1:])),
        np.concatenate((dead[:4], live[4:])),
    ]
    for value in (-0.0, 5e-324, math.nan):
        for column in (1, 2, 3):
            end = dead.copy()
            end[-1, column] = value
            tables += [end, end[-1:]]
        middle = dead.copy()
        middle[3, 2] = value
        tables.append(middle)
    for table in tables:
        _assert_per_value(table)
    stream = io.StringIO()
    cli._write_rows(stream, tables[0], "jsonl", LABELS[2])
    assert stream.getvalue().splitlines()[-1] == (
        '{"curve": "50% \\"dash\\\\dot\\" \\u03c8 %s %%", "tau": 3, "c_closed": 0, "c_wootters": 0, "abs_diff": 0}'
    )


CELL_FLAGS = {
    "xstate": ["--xstate", "--a", "0.1", "--b", "0.4", "--c", "0.4", "--d", "0.1",
               "--zmod", "0.2", "--zarg", "1"],
    "pure": ["--pure", "--a", "0.1", "--b", "0.2", "--c", "0.3", "--d", "0.4",
             "--f", "1", "--g", "2", "--h", "3"],
    "isotropic": ["--family", "isotropic", "--x", "0.8"],
    "werner": ["--family", "werner", "--x", "0.7"],
}


def _csv_records(text: str) -> list[list]:
    # each CSV row as the (key, text) pairs of its JSONL line, curve first
    records, tag = [], []
    for line in text.splitlines():
        if line.startswith("# curve: "):
            tag = [("curve", line[len("# curve: "):])]
        elif line != HEADER:
            records.append([*tag, *zip(cli._COLUMNS, line.split(","))])
    return records


def test_csv_and_jsonl_tables_agree_field_for_field(capsys):
    # evolve at the CLI defaults in each (state kind x noise) cell, then
    # every figure: each JSONL line is strict JSON whose keys and number
    # texts are those of the CSV row
    def reject(name):
        raise ValueError(f"non-finite number {name}")

    argvs = [["evolve", "--noise", noise.value, *flags] for flags in CELL_FLAGS.values() for noise in NoiseKind]
    argvs += [["figure", f"fig{i}"] for i in range(1, 5)]
    assert len(argvs) == 16
    for argv in argvs:
        code, csv_text, _ = run(argv, capsys)
        assert code == 0
        code, jsonl_text, _ = run([*argv, "--format", "jsonl"], capsys)
        assert code == 0
        records = _csv_records(csv_text)
        assert len(records) == 2048 * (1 if argv[0] == "evolve" else csv_text.count("# curve: "))
        lines = jsonl_text.splitlines()
        assert [
            json.loads(line, object_pairs_hook=list, parse_float=str, parse_int=str, parse_constant=reject)
            for line in lines
        ] == records


def test_main_reads_sys_argv(monkeypatch, capsys):
    # argv=None means sys.argv[1:], on the table route and on argparse's
    routes = []
    table_parse = cli._table_parse

    def spy(parser, argv):
        routes.append(table_parse(parser, argv))
        return routes[-1]

    monkeypatch.setattr(cli, "_table_parse", spy)
    readme = ["--xstate", "--a", "0.2", "--b", "0.3", "--c", "0.3", "--d", "0.2", "--zsq", "0.09"]
    outputs = []
    for noise in (["--noise", "phase"], ["--noise=phase"]):
        monkeypatch.setattr(sys, "argv", ["esdsim", "esd", *noise, *readme])
        code, out, err = run(None, capsys)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert routes[0] is not None and routes[1] is None
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("classification: SuddenDeath\ntau_death_analytic: 0.810930216216\n")


def test_cli_import_leaves_the_verify_stack_unloaded():
    # evolve, esd and figure never verify, so starting the CLI loads
    # neither the verify suites, their samplers nor numpy.random; the
    # package still resolves the verify names on first use
    code = (
        "import sys, esdsim.cli; "
        "print(sorted({'numpy.random', 'esdsim.sampling', 'esdsim.verification'} & set(sys.modules))); "
        "import esdsim; esdsim.run_all, esdsim.run_suite, esdsim.SuiteResult; "
        "print('esdsim.verification' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "True"]


def test_oversized_points_exit_2(monkeypatch, capsys):
    # numpy raises MemoryError for a grid it cannot allocate; none is
    # allocated here
    message = ("Unable to allocate 72.8 TiB for an array with shape (10000000000000,) "
               "and data type float64")

    def linspace(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(np, "linspace", linspace)
    dynamics._scan_grid.cache_clear()
    for argv in (["esd", *FIG1_SOLID_FLAGS], ["evolve", *FIG1_SOLID_FLAGS], ["figure", "fig1"]):
        code, out, err = run([*argv, "--points", "10000000000000"], capsys)
        assert (code, out) == (2, ""), argv
        assert err == f"error: --points 10000000000000 is too large: {message}\n"
    # esd looked its scan grid up once, and the failed build kept no entry
    info = dynamics._scan_grid.cache_info()
    assert (info.misses, info.currsize) == (1, 0)


def test_oversized_cases_exit_2(monkeypatch, capsys):
    # verify stacks each suite's draws, so a --cases too large for memory
    # fails at a suite's first allocation; none is allocated here
    message = ("Unable to allocate 1.14 PiB for an array with shape (5000000000000, 4, 2, 2, 2) "
               "and data type float64")

    def suite(rng, res):
        raise MemoryError(message)

    monkeypatch.setattr(verification, "SUITES", (("kron_algebra", suite, 0.5, 1e-12),))
    code, out, err = run(["verify", "--cases", "10000000000000"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --cases 10000000000000 is too large: {message}\n"


def _subparsers() -> dict:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _texts(action) -> tuple[list[str], list[str]]:
    # values for one flag: those it accepts, and invalid, "-"-leading or
    # empty ones
    if action.choices is not None:
        return list(action.choices), ["bogus", "-phase", ""]
    if action.type is int:
        return ["9", "2048", "0", " 12", "1_0"], ["1.5", "-1", "x", ""]
    if action.type is float:
        return ["0.2", "1e-3", "50", "nan", "inf", " 2"], ["-1.5", "-1e-3", "x", ""]
    return ["x.csv", "a=b", ""], ["-", "-x.csv"]


@st.composite
def _argv(draw) -> list[str]:
    subparsers = _subparsers()
    name = draw(st.sampled_from(list(subparsers)))
    # -h and --help come in as strays
    actions = [a for a in subparsers[name]._actions if a.option_strings and a.dest != "help"]
    argv = [draw(st.sampled_from([name] * 19 + ["bogus"]))] if draw(st.integers(0, 49)) < 49 else []
    if "--noise" in subparsers[name]._option_string_actions and draw(st.integers(0, 3)) < 3:
        argv += ["--noise", draw(st.sampled_from(["phase", "amplitude", "bogus"]))]
    for _ in range(draw(st.integers(0, 8))):
        action = draw(st.sampled_from(actions))
        option = draw(st.sampled_from(action.option_strings))
        valid, invalid = _texts(action)
        value = [] if action.nargs == 0 else [
            draw(st.sampled_from(valid if draw(st.integers(0, 9)) < 9 else invalid))]
        form = draw(st.sampled_from(["exact"] * 27 + ["equals", "abbreviated", "stray"]))
        if form == "equals":
            argv.append(f"{option}={value[0] if value else ''}")
        elif form == "abbreviated":
            argv += [option[: draw(st.integers(2, len(option)))], *value]
        elif form == "stray":
            argv.append(draw(st.sampled_from(["--", "-h", "--help", "--bogus", "-", "0.5", "fig1"])))
        else:
            argv += [option, *value]
    if name == "figure" and draw(st.booleans()):
        argv.insert(draw(st.integers(min(1, len(argv)), len(argv))), draw(st.sampled_from(["fig1", "fig9"])))
    return argv


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return repr(parse(argv)), out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def test_table_route_matches_argparse():
    # main parses with the option tables, else with argparse; the tables read
    # argparse's private `_actions` and action classes, which this pins
    parser = build_parser()
    taken = []

    def main_parse(argv):
        args = cli._table_parse(parser, argv)
        taken.append(args is not None)
        return args if args is not None else parser.parse_args(argv)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_argv())
    def check(argv):
        assert _outcome(main_parse, argv) == _outcome(parser.parse_args, argv)

    check()
    # both routes are well represented among the argv drawn
    assert len(taken) // 8 <= sum(taken) <= len(taken) - len(taken) // 8

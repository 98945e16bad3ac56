"""Command-line front end.

Four subcommands: `evolve` writes a trajectory table computed by both the
closed form and the general route, `esd` reports the decay classification
and death times, `figure` emits the preset curve tables, and `verify` runs
the randomized property suites.

All numbers are printed with 12 significant digits, rows end with LF, and
identical flags plus seed give byte-identical output.  Times are the
dimensionless tau unless `--gamma` supplies a decay rate, in which case
every time value is divided by it (column names stay the same).

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error,
3 output I/O failure.

`main` reads the common argv shape through option tables built once per
process from the parser's own actions: a subcommand without positionals
(`evolve`, `esd`, `verify`), then only exact option strings, each store
flag followed by a value that does not start with "-", every value
converting and passing its choices, and every required flag given.  That
gives the Namespace argparse would.  Every other argv goes to argparse:
help, `--flag=value`, abbreviations, dash-leading values such as
`--zarg -1.5`, `--`, unknown or missing flags, bad values, and `figure`.
So help pages, usage errors and exit codes are argparse's.  Each option
of a table is a plain tuple of what parsing reads (dest, flag or not,
const, type, choices), so no argparse attribute is read per token; and
the state flags that each state kind rejects are listed once, with their
messages.  The tables save an in-process caller (a benchmark loop, a
notebook, the tests) most of the time an `esd` command spends in argparse
(BENCH_cli_table_route.json, BENCH_esd_fixed_cost.json); a shell user
gains nothing, as process start-up costs far more.

`evolve` and `figure` tables print in one write.  The tau column's text is
kept for the next table on the same grid, and a table's trailing run of
rows whose values are all +0.0 prints from that text with a constant
suffix.  After a sudden death that run is most of a table, and all of it
for a separable state, so a caller printing many such tables in one
process (the benchmark's trajectory stream, a figure's curves) skips most
of the per-value formatting (BENCH_dead_rows.json).
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from .channels import NoiseKind
from .dynamics import (
    DEFAULT_TAU_MAX,
    FIGURE_PRESETS,
    SCAN_POINTS,
    Classification,
    Scenario,
    closed_form_trajectory,
    esd_time_analytic,
    esd_time_bisection,
    numeric_trajectory,
)
from .states import FamilyParams, Family, PureStateParams, XStateParams

MAX_FAILURES_SHOWN = 5


def _check_positive(flag: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"--{flag} must be positive and finite, got {value!r}")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _json_line(pairs) -> str:
    # floats keep the 12-digit text of _fmt (json.dumps would print 50 as
    # 50.0); strings are quoted and escaped by json.dumps
    body = ", ".join(
        f'"{key}": {_fmt(v) if isinstance(v, float) else json.dumps(v)}' for key, v in pairs
    )
    return "{" + body + "}\n"


# Each state flag, in -h order: its help text, and the state kinds it
# belongs to (the other kinds reject it).
_STATE_FLAGS = {
    **dict.fromkeys("abcd", (None, ("xstate", "pure"))),
    **dict.fromkeys("fgh", (None, ("pure",))),
    "x": ("family mixing weight", ("family",)),
    "zsq": ("|z|^2 (as in the curve presets)", ("xstate",)),
    "zmod": ("|z|", ("xstate",)),
    "zarg": ("arg(z), radians; with --zmod", ("xstate",)),
}


# Per state kind: the flags it rejects, in -h order, with their messages.
_FOREIGN_FLAGS = {
    kind: [
        (name, f"--{name} applies to {' and '.join(f'--{k}' for k in kinds)}, not --{kind}")
        for name, (_, kinds) in _STATE_FLAGS.items()
        if kind not in kinds
    ]
    for kind in ("xstate", "pure", "family")
}


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    chosen = [bool(args.xstate), bool(args.pure), args.family is not None]
    if sum(chosen) != 1:
        raise ValueError("specify exactly one of --xstate, --pure, --family")
    kind = "xstate" if args.xstate else "pure" if args.pure else "family"
    for name, message in _FOREIGN_FLAGS[kind]:
        if getattr(args, name) is not None:
            raise ValueError(message)
    noise = NoiseKind(args.noise)

    if args.family is not None:
        if args.x is None:
            raise ValueError("--family requires --x")
        return Scenario(FamilyParams(Family(args.family), args.x), noise)

    for name in ("a", "b", "c", "d"):
        if getattr(args, name) is None:
            raise ValueError(f"--{kind} requires --{name}")

    if args.pure:
        phases = (0.0 if value is None else value for value in (args.f, args.g, args.h))
        return Scenario(PureStateParams(args.a, args.b, args.c, args.d, *phases), noise)

    for name in ("zsq", "zmod", "zarg"):
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{name} must be finite, got {value!r}")
    if args.zsq is not None and args.zmod is not None:
        raise ValueError("--zsq and --zmod are mutually exclusive")
    if args.zsq is not None:
        if args.zarg is not None:
            raise ValueError("--zarg applies to --zmod, not --zsq")
        if args.zsq < 0.0:
            raise ValueError(f"--zsq must be nonnegative, got {args.zsq!r}")
        z = complex(math.sqrt(args.zsq))
    elif args.zmod is not None:
        if args.zmod < 0.0:
            raise ValueError(f"--zmod must be nonnegative, got {args.zmod!r}")
        arg = args.zarg if args.zarg is not None else 0.0
        z = args.zmod * complex(math.cos(arg), math.sin(arg))
    else:
        raise ValueError("--xstate requires --zsq or --zmod")
    return Scenario(XStateParams(args.a, args.b, args.c, args.d, z), noise)


def _open_out(path: str | None):
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


def _trajectory_rows(scenario: Scenario, grid: np.ndarray, scale: float = 1.0) -> np.ndarray:
    # the (n, 4) float64 table in _COLUMNS order; tau is printed over scale (--gamma)
    closed = closed_form_trajectory(scenario, grid).c
    numeric = numeric_trajectory(scenario, grid).c
    return np.column_stack((grid / scale, closed, numeric, np.abs(closed - numeric)))


_COLUMNS = ("tau", "c_closed", "c_wootters", "abs_diff")


@functools.lru_cache(maxsize=1)
def _tau_text(column: bytes) -> str:
    # the printed tau column, keyed by its float64 bytes (so -0.0 and 0.0
    # stay apart): each value's "%.12g" text (that of _fmt), joined by "\0",
    # which "%.12g" never prints.  _write_rows fills the live rows' template
    # from it and prints a trailing run of all-zero rows from it directly.
    # One grid is kept: about 14 B per point of text and 8 B per point of
    # key.
    taus = np.frombuffer(column)
    return "\0".join(["%.12g"] * len(taus)) % tuple(taus.tolist())


def _write_rows(stream, rows, fmt: str, curve: str | None = None) -> None:
    # rows (an (n, 4) array or 4-tuples) print the bytes of _fmt and
    # _json_line, in one call.  The first k rows, up to the last one with a
    # value other than +0.0 (compared bitwise, so -0.0, a subnormal or NaN
    # counts), fill one template built from the kept tau text with one
    # replace, and one % pass fills their values; only that template needs
    # the row prefix's % doubled.  The trailing run of all-zero rows after
    # them prints as its kept tau text with one constant suffix: after a
    # sudden death that run is most of a table, and a separable state's
    # table is all of it.  A table whose last row is live (a state that
    # never dies) is all template, with no search for k or for its row in
    # the text.
    table = np.asarray(rows, dtype=float)
    if fmt == "csv":
        head = (f"# curve: {curve}\n" if curve is not None else "") + ",".join(_COLUMNS) + "\n"
        start, end = "", ",%.12g,%.12g,%.12g\n"
    else:
        tag = f'"curve": {json.dumps(curve)}, ' if curve is not None else ""
        head, start = "", "{" + tag + f'"{_COLUMNS[0]}": '
        end = "".join(f', "{key}": %.12g' for key in _COLUMNS[1:]) + "}\n"
    text = _tau_text(table[:, 0].tobytes())
    values = table[:, 1:].ravel()
    bits = values.view(np.uint64)
    n = len(table)
    if bits[-3:].any():
        k, cut = n, len(text) + 1
    else:
        live = np.flatnonzero(bits)
        k = int(live[-1]) // 3 + 1 if live.size else 0
        # row k's tau text starts one past the k-th "\0"
        cut = int(np.flatnonzero(np.frombuffer(text.encode("ascii"), np.uint8) == 0)[k - 1]) + 1 if k else 0
    out = head
    if k:
        template = start.replace("%", "%%")
        rows_text = template + text[: cut - 1].replace("\0", end + template) + end
        out += rows_text % tuple(values[: 3 * k].tolist())
    if k < n:
        dead = end.replace("%.12g", "0")
        out += start + text[cut:].replace("\0", dead + start) + dead
    stream.write(out)


def cmd_evolve(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    grid = np.linspace(0.0, args.tau_max, args.points)
    rows = _trajectory_rows(scenario, grid, args.gamma)
    with _open_out(args.out) as stream:
        _write_rows(stream, rows, args.format)
    return 0


def cmd_esd(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    numeric = esd_time_bisection(scenario, tau_max=args.tau_max, points=args.points)
    a_tau = esd_time_analytic(scenario).tau_death

    # every float here is a time in tau, scaled below
    pairs: list[tuple[str, str | float]] = [("classification", numeric.classification.value)]
    if a_tau is not None:
        pairs.append(("tau_death_analytic", a_tau))
    if numeric.tau_death is not None:
        pairs.append(("tau_death_bisection", numeric.tau_death))
        if a_tau is not None:
            pairs.append(("abs_diff", abs(a_tau - numeric.tau_death)))
    if numeric.classification is Classification.ASYMPTOTIC_DECAY:
        pairs.append(("horizon", numeric.horizon))
    # the closed-form death time is not bounded by --tau-max, so the check
    # of --tau-max / --gamma in main does not cover it
    for i, (key, value) in enumerate(pairs):
        if isinstance(value, float):
            scaled = value / args.gamma
            if not math.isfinite(scaled):
                raise ValueError(
                    f"{key} = {value!r} / --gamma {args.gamma!r} is not finite; "
                    "use a larger --gamma"
                )
            pairs[i] = (key, scaled)

    with _open_out(args.out) as stream:
        if args.format == "jsonl":
            stream.write(_json_line(pairs))
        else:
            for key, value in pairs:
                stream.write(f"{key}: {_fmt(value) if isinstance(value, float) else value}\n")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    preset = FIGURE_PRESETS[args.name]
    grid = np.linspace(0.0, preset.tau_max, args.points)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
    for curve in preset.curves:
        # the rows first: a failed computation leaves no empty file
        rows = _trajectory_rows(curve.scenario, grid)
        name = f"{args.name}_{curve.label}.{args.format}"
        with _open_out(None if args.out is None else os.path.join(args.out, name)) as stream:
            _write_rows(stream, rows, args.format, curve=curve.label)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # imported here: the other commands never load the verify stack
    from .verification import run_all

    results = run_all(args.seed, args.cases)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"suite {res.name}: {status} cases={res.cases} "
            f"max_error={_fmt(res.max_error)} tol={_fmt(res.tolerance)}"
        )
        for failure in res.failures[:MAX_FAILURES_SHOWN]:
            print(f"  {failure}")
        if len(res.failures) > MAX_FAILURES_SHOWN:
            print(f"  ... {len(res.failures) - MAX_FAILURES_SHOWN} more failing cases")
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} suites passed")
    return 0 if passed == len(results) else 1


_COMMANDS = {"evolve": cmd_evolve, "esd": cmd_esd, "figure": cmd_figure, "verify": cmd_verify}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `esdsim` parser, built on the first call and shared after it.

    Sharing it saves in-process callers of `main` (a benchmark loop, a
    notebook, the tests) about 1 ms of argparse set-up per command; a shell
    user builds it once per process anyway.  argparse keeps no state between
    `parse_args` calls and builds a new help formatter for each help or
    usage text, so `COLUMNS` is still read when the text is printed.
    """
    parser = argparse.ArgumentParser(
        prog="esdsim",
        description="Two-qubit entanglement decay under one local noise channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by subcommands, declared once and inherited through parents=
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--noise", choices=[k.value for k in NoiseKind], required=True)
    scenario.add_argument("--xstate", action="store_true", help="cross-pattern state from --a..--d and z flags")
    scenario.add_argument("--pure", action="store_true", help="pure state from --a..--d and --f --g --h")
    scenario.add_argument("--family", choices=[f.value for f in Family])
    for name, (text, _) in _STATE_FLAGS.items():
        scenario.add_argument(f"--{name}", type=float, help=text)
    scenario.add_argument("--gamma", type=float, default=1.0, help="decay rate; output times become tau/gamma")
    scenario.add_argument("--tau-max", dest="tau_max", type=float, default=DEFAULT_TAU_MAX)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--points", type=int, default=SCAN_POINTS)
    output.add_argument("--out", default=None)
    output.add_argument("--format", choices=["csv", "jsonl"], default="csv")

    both = [scenario, output]
    sub.add_parser("evolve", parents=both, help="trajectory table, closed form vs general route")
    sub.add_parser("esd", parents=both, help="decay classification and death time")

    # figure presets fix their own tau range
    p_fig = sub.add_parser("figure", parents=[output], help="preset curve tables")
    p_fig.add_argument("name", choices=sorted(FIGURE_PRESETS))

    p_verify = sub.add_parser("verify", help="run the randomized property suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--cases", type=int, default=1000)

    return parser


# argparse keeps a parser's actions in the private list `_actions`, and its
# store, store-true and subparsers actions are the private classes below;
# test_table_route_matches_argparse pins what the table reads from them.
_PLAIN_ACTIONS = (argparse._StoreAction, argparse._StoreTrueAction)


def _defaults(actions) -> dict:
    # what parse_args puts in the Namespace before it reads a token
    return {
        a.dest: a.default
        for a in actions
        if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS
    }


@functools.lru_cache(maxsize=1)
def _option_tables(parser: argparse.ArgumentParser) -> dict[str, tuple]:
    """Per subcommand without positionals: option string -> a plain tuple
    (action, dest, is_flag, const, type, choices) copied once from the store
    or store-true action that declared it, the Namespace defaults in the
    order argparse sets them, and the required actions.

    Built from the parser's own actions, once per parser.
    """
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    tables = {}
    for name, subparser in sub.choices.items():
        actions = subparser._actions
        if not all(a.option_strings for a in actions):
            continue
        options = {
            option: (a, a.dest, a.nargs == 0, a.const, a.type, a.choices)
            for a in actions
            # a store flag with one value, or a store-true flag
            if type(a) in _PLAIN_ACTIONS and a.nargs in (None, 0)
            for option in a.option_strings
        }
        defaults = {**_defaults(parser._actions), sub.dest: name, **_defaults(actions)}
        tables[name] = (options, defaults, [a for a in actions if a.required])
    return tables


def _table_parse(parser: argparse.ArgumentParser, argv: list) -> argparse.Namespace | None:
    """The Namespace `parser.parse_args(argv)` returns, read through the
    option tables, or None when argv is not of the one shape they read (see
    the module docstring); argparse parses any other argv.  Each option
    token unpacks its tuple from the table, reading no argparse attribute.
    """
    table = _option_tables(parser).get(argv[0]) if argv else None
    if table is None:
        return None
    options, defaults, required = table
    values = defaults.copy()
    seen = set()
    i, n = 1, len(argv)
    while i < n:
        entry = options.get(argv[i])
        if entry is None:
            return None
        action, dest, is_flag, const, convert, choices = entry
        if is_flag:
            value = const
            i += 1
        else:
            text = argv[i + 1] if i + 1 < n else None
            if not isinstance(text, str) or text.startswith("-"):
                return None
            try:
                value = text if convert is None else convert(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                # argparse reports these as an invalid value
                return None
            if choices is not None and value not in choices:
                return None
            i += 2
        values[dest] = value
        seen.add(action)
    if not seen.issuperset(required):
        return None
    args = argparse.Namespace()
    vars(args).update(values)
    return args


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _table_parse(parser, argv)
    if args is None:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else 0
    try:
        if args.command in ("evolve", "esd"):
            _check_positive("tau-max", args.tau_max)
            _check_positive("gamma", args.gamma)
            # the last printed evolve time and the esd horizon
            if not math.isfinite(args.tau_max / args.gamma):
                raise ValueError(
                    f"--tau-max / --gamma must be finite, got {args.tau_max!r} / {args.gamma!r}"
                )
        if args.command == "verify":
            if args.seed < 0:
                raise ValueError(f"--seed must be nonnegative, got {args.seed!r}")
        elif args.points < 2:
            raise ValueError(f"points must be at least 2, got {args.points!r}")
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # verify sizes its stacks by --cases, and evolve, esd and figure
        # their arrays by --points; numpy's message names the allocation
        # that failed
        flag = "cases" if args.command == "verify" else "points"
        print(f"error: --{flag} {getattr(args, flag)!r} is too large: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""esdsim benchmark: CLI commands issued in-process, timed and checked.

    python3 esdbench/run.py --workload {trajectory,esd_sweep,verify} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root.  Each workload is a closed loop with one
client: commands go one after another through `esdsim.cli.main(argv)` in
this process, so the timing covers what a shell user waits for minus the
interpreter start-up, which `setup_s` reports on its own.

With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` the same commands run untraced and then traced,
and the JSON carries the per-layer metrics and the tracing overhead.  The
lines before it are a readable report.  Files the run leaves behind go to
`.esdbench_out/` in the repository root.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

# BLAS and OpenMP pools are pinned to one thread before numpy is imported,
# here and in the set-up interpreters started below.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".esdbench_out"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("trajectory", "esd_sweep", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "esdsim" / "cli.py").is_file():
        print(f"error: no esdsim sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # deferred: imports numpy and esdsim from SRC

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    for line in result.report:
        print(line)
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

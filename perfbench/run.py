"""spectrawl benchmark entry point.

    python3 perfbench/run.py --workload pair_large --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the library is imported from ./src,
nothing needs installing. Prints a provenance line, a table with every metric
(unit and sample count), and, last, one JSON object with `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics; `--trace 1` runs the same ops untraced and then traced and reports
the per-layer metrics. `--workload all` runs each workload in its own process.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("pair_large", "pair_small", "csl", "closed_walk")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes; not comparable to full runs")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so peak memory is per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import spectrawl
    except ImportError as exc:
        print(f"cannot import spectrawl from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(spectrawl.__file__).resolve().is_relative_to(src):
        print(f"spectrawl was imported from {spectrawl.__file__}, not from {src}", file=sys.stderr)
        return 2
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

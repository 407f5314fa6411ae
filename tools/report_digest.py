"""One digest over the reports of every benchmark pair: an identity check for refactors.

Builds perfbench's pair_small and pair_large workloads at seeds 7, 11 and 23,
collects the (g1, g2, config) each op passes to discriminate_pair, and runs
every pair with its own config and with check_conditions flipped. Prints the
case count and one sha256 over the reports' JSON. Two checkouts that print
the same line give byte-identical reports on every case.

Run from anywhere, on the checkout that holds this file:

    python3 tools/report_digest.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (7, 11, 23)


def benchmark_pairs(discriminate):
    """(g1, g2, config) of every pair_small and pair_large op at SEEDS, as each op passes them."""
    build = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["build"]
    calls = []
    original = discriminate.discriminate_pair
    discriminate.discriminate_pair = lambda g1, g2, config: calls.append((g1, g2, config))
    try:
        for seed in SEEDS:
            for name in ("pair_small", "pair_large"):
                for op in build(name, seed).ops:
                    op.run()
    finally:
        discriminate.discriminate_pair = original
    return calls


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from spectrawl import discriminate

    digest, count = hashlib.sha256(), 0
    for g1, g2, config in benchmark_pairs(discriminate):
        for c in (config, dataclasses.replace(config, check_conditions=not config.check_conditions)):
            digest.update(discriminate.discriminate_pair(g1, g2, c).to_json().encode() + b"\n")
            count += 1
    print(count, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())

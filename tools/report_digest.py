"""Two digests over every benchmark pair: an identity check for refactors.

Builds perfbench's pair_small and pair_large workloads at seeds 7, 11 and 23,
and collects the (g1, g2, config) each op passes to discriminate_pair.
- Reports: runs every pair with its own config and with check_conditions
  flipped, and prints the case count and one sha256 over the reports' JSON.
- 1-WL: prints "wl", the item count and one sha256 over wl_refine's colors
  and stable_at for both graphs of every pair at both inits, and
  wl._certify's verdict and map for every pair. Reports carry no colorings,
  so this line is what pins them.
Two checkouts that print the same lines give byte-identical reports and
colorings on every case.

Run from anywhere:

    python3 tools/report_digest.py [CHECKOUT]

CHECKOUT (default: the checkout that holds this file) is the tree whose src
and perfbench/workloads.py are imported, so one copy of this tool digests a
parent commit's checkout as well as its own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import runpy
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (7, 11, 23)


def benchmark_pairs(root: Path, discriminate):
    """(g1, g2, config) of every pair_small and pair_large op at SEEDS, as each op of root's workloads passes them."""
    build = runpy.run_path(str(root / "perfbench" / "workloads.py"))["build"]
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


def wl_digest(wl, pairs) -> tuple[int, str]:
    """Item count and sha256 over 1-WL's colorings and certificates of pairs."""
    digest, count = hashlib.sha256(), 0
    for g1, g2, _ in pairs:
        for g in (g1, g2):
            for init in ("uniform", "degree"):
                coloring = wl.wl_refine(g, init)
                digest.update(np.array(coloring.colors, dtype=np.int64).tobytes())
                digest.update(f"{coloring.stable_at}\n".encode())
                count += 1
        colorings, mapping = wl._certify(g1, g2)
        digest.update(f"{colorings is None} {None if mapping is None else mapping.tolist()}\n".encode())
        count += 1
    return count, digest.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        sys.exit(f"usage: {Path(__file__).name} [CHECKOUT]")
    root = Path(argv[0]).resolve() if argv else ROOT
    sys.path.insert(0, str(root / "src"))
    from spectrawl import discriminate, wl

    pairs = benchmark_pairs(root, discriminate)
    digest, count = hashlib.sha256(), 0
    for g1, g2, config in pairs:
        for c in (config, dataclasses.replace(config, check_conditions=not config.check_conditions)):
            digest.update(discriminate.discriminate_pair(g1, g2, c).to_json().encode() + b"\n")
            count += 1
    print(count, digest.hexdigest())
    print("wl", *wl_digest(wl, pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

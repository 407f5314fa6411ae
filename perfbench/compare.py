"""Compare two commits with the benchmark, by the rule in choosing-metrics section 8.

    python3 perfbench/compare.py run PARENT_DIR CHANGE_DIR OUT_DIR --seed 100
    python3 perfbench/compare.py report OUT_DIR

PARENT_DIR and CHANGE_DIR are source checkouts of the two commits (for
example made with `git archive`); both must hold the same perfbench files and
BENCHMARK.json. `run` makes 10 pairs of untraced runs of `run_seconds` each
per workload, alternating which side runs first, with pair i on seed SEED+i
for both sides, then one traced run per side and workload. Results are
appended to OUT_DIR/results.jsonl.

`report` prints one row per workload and end-to-end metric:
- gain: the change wins at least 9/10 of the pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile range; void
  when the change fails more ops;
- regression: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: either side's spread (IQR / median) exceeds the bound, unless
  every change run beats every parent run;
- within bound: none of the above.
Then the per-layer deltas from the traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10


def load_spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def bench_digest(checkout: Path) -> str:
    """Digest of the benchmark code and of BENCHMARK.json, which picks the metrics each side reports."""
    h = hashlib.sha256()
    for path in [checkout / "BENCHMARK.json"] + sorted((checkout / "perfbench").rglob("*.py")):
        h.update(path.relative_to(checkout).as_posix().encode() + path.read_bytes())
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    provenance = next(json.loads(line)["provenance"] for line in lines if line.startswith('{"provenance"'))
    return {"result": json.loads(lines[-1]), "provenance": provenance}


def cmd_run(args) -> int:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    if bench_digest(sides["parent"]) != bench_digest(sides["change"]):
        print("the two checkouts hold different benchmark code; compare with identical perfbench files")
        return 2
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.jsonl", "a") as fh:
        def record(side, workload, pair, seed, trace):
            row = run_once(sides[side], workload, seed, spec["run_seconds"], trace)
            row.update(side=side, workload=workload, pair=pair, seed=seed, trace=trace)
            fh.write(json.dumps(row) + "\n")
            fh.flush()
            print(f"pair {pair} {workload:12s} {side:6s} trace={trace} done", flush=True)

        for pair in range(MIN_PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    record(side, workload, pair, args.seed + pair, 0)
        for workload in workloads:
            for side in ("parent", "change"):
                record(side, workload, MIN_PAIRS, args.seed, 1)
    return 0


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return q1, med, q3


def classify(parent, change, better, bound, more_failures) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if len(parent) < MIN_PAIRS:
        return f"too few pairs (<{MIN_PAIRS})", wins
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if spread > bound and not all_better:
        return "unresolved", wins
    if wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1:
        return ("gain void: more ops failed" if more_failures else "gain"), wins
    if sign * (pm - cm) > bound * abs(pm):
        return "regression", wins
    return "within bound", wins


def cmd_report(args) -> int:
    spec = load_spec()
    rows = [json.loads(line) for line in open(Path(args.out) / "results.jsonl")]
    for workload in [w["name"] for w in spec["workloads"]]:
        timed = {(r["side"], r["pair"]): r["result"] for r in rows if r["workload"] == workload and not r["trace"]}
        pairs = sorted({p for side, p in timed if (("parent", p) in timed and ("change", p) in timed)})
        if not pairs:
            continue
        failed = {s: sum(timed[s, p]["failed"] for p in pairs) for s in ("parent", "change")}
        attempted = {s: sum(timed[s, p]["attempted"] for p in pairs) for s in ("parent", "change")}
        print(f"\n{workload}: {len(pairs)} pairs; failed ops parent {failed['parent']}/{attempted['parent']},"
              f" change {failed['change']}/{attempted['change']}")
        print(f"  {'metric':14s} {'unit':6s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s}"
              f" {'delta':>8s} {'wins':>6s}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [timed["parent", p]["metrics"][name]["value"] for p in pairs]
            change = [timed["change", p]["metrics"][name]["value"] for p in pairs]
            verdict, wins = classify(parent, change, metric["better"], metric["bound"],
                                     failed["change"] > failed["parent"])
            (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
            print(f"  {name:14s} {metric['unit']:6s} {pm:10.4g} [{p1:.4g}, {p3:.4g}]".ljust(58)
                  + f" {cm:10.4g} [{c1:.4g}, {c3:.4g}]".ljust(35)
                  + f" {(cm - pm) / pm:+8.1%} {wins:>3d}/{len(pairs):<2d}  {verdict}")
        traced = {r["side"]: r["result"]["metrics"] for r in rows if r["workload"] == workload and r["trace"]}
        if len(traced) == 2:
            print("  per-layer (traced, one run per side; counts are computed):")
            for metric in spec["per_layer"]:
                p, c = traced["parent"][metric["name"]]["value"], traced["change"][metric["name"]]["value"]
                if p or c:
                    delta = f"{(c - p) / p:+8.1%}" if p else "     new"
                    print(f"    {metric['name']:46s} {p:12.4g} -> {c:12.4g} {metric['unit']:9s} {delta}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="compare two commits with the spectrawl benchmark")
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="alternating pairs of runs of two checkouts")
    r.add_argument("parent")
    r.add_argument("change")
    r.add_argument("out")
    r.add_argument("--seed", type=int, required=True, help="pair i runs on seed SEED+i")
    r.set_defaults(func=cmd_run)
    s = sub.add_parser("report", help="apply the comparison rule to OUT_DIR/results.jsonl")
    s.add_argument("out")
    s.set_defaults(func=cmd_report)
    args = p.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

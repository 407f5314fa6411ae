"""Measurement for one workload: timed workers, cold starts, traced rounds.

Ops run in a closed loop on one thread: the next op starts when the previous
one returns. Ops repeat in rounds over the op list.

Timed runs use several fresh worker processes, one after another, each
running at least one whole round. Identical inputs run measurably faster in
some processes than in others on a shared machine, so a figure from one
process says as much about that process as about the code; per-input medians
pooled over at least three processes do not.

Every child process (workers and cold starts) is started with
subprocess.run, which waits for it to end, and kills it first if it times
out or the parent is interrupted; nothing outlives a run.

    python3 perfbench/harness.py WORKLOAD SEED TINY SECONDS

runs one timed worker and prints its result as JSON; `end_to_end` starts it.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads

COLD_STARTS = 7
MIN_WORKERS = 3  # so each input's median is taken over at least three processes
WORKER_SLICES = 5  # a worker runs for seconds / WORKER_SLICES, and at least one round
CLI_ARGS = ("-m", "spectrawl.cli", "discriminate", "prism", "k33")
CHILD_TIMEOUT_S = 150  # a run must end within 180 s; a child that takes this long is killed

#: every metric the benchmark can report, with its unit; BENCHMARK.json picks
#: the ones the last line carries. op_s_tail and error_rate are printed only:
#: the tail is undefined where a run has too few ops, and error_rate is 0 on
#: most workloads (its counts travel as `attempted` and `failed`).
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}
_PER_LAYER_STATS = {"calls": "count/op", "self_s": "s/op", "distinct_ratio": "ratio", "errors": "count/op"}
_WORK_METRIC = {"spectral.eigh": ("work_n3", "n3/op"), "gnn.diag_powers": ("flops", "flop/op"),
                "gnn.stochastic_variance": ("flops", "flop/op")}
PER_LAYER_UNITS = {f"{span}.{stat}": unit for span in spans.SPAN_NAMES for stat, unit in _PER_LAYER_STATS.items()}
PER_LAYER_UNITS.update({f"{span}.{stat}": unit for span, (stat, unit) in _WORK_METRIC.items()})
PER_LAYER_UNITS["trace.overhead_frac"] = "ratio"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)  # failures other than the known defect
    reasons: dict = field(default_factory=dict)     # reason -> count

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        for reason, count in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + count

    def record(self, failure: workloads.Failure | None) -> None:
        self.attempted += 1
        if failure is None:
            return
        self.failed += 1
        self.reasons[failure.reason] = self.reasons.get(failure.reason, 0) + 1
        if not failure.known:
            self.unexpected.append(failure.reason)


def run_ops(ops, tally: Tally, stop, tracer=None):
    """Run the op list over and over until stop(ops done, seconds elapsed).

    Returns per-op latency lists, wall seconds and the number of ops run.
    """
    latencies = [[] for _ in ops]
    start = perf_counter()
    done = 0
    while not stop(done, perf_counter() - start):
        i = done % len(ops)
        op = ops[i]
        ctx = tracer.op(done) if tracer else nullcontext()
        t0 = perf_counter()
        try:
            with ctx:
                out = op.run()
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op, not a crash
            failure = workloads.Failure(f"{op.label} raised {exc!r}")
        else:
            failure = None
        latencies[i].append(perf_counter() - t0)
        tally.record(failure or op.check(out))
        done += 1
    return latencies, perf_counter() - start, done


class ColdStarts:
    """Wall time of a fresh `python -m spectrawl.cli discriminate prism k33`.

    The timed starts are spread over the run, so they see the same outside
    load as the ops rather than one short moment of it.
    """

    def __init__(self, root: Path, tally: Tally, seconds: float):
        self.cmd = [sys.executable, *CLI_ARGS]
        self.root, self.tally, self.interval = root, tally, seconds / COLD_STARTS
        self.env = child_env(root)
        self.times: list[float] = []
        self.once()  # fills the bytecode cache; not timed

    def once(self) -> float:
        t0 = perf_counter()
        proc = subprocess.run(self.cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        elapsed = perf_counter() - t0
        try:
            overall = json.loads(proc.stdout)["overall"]
        except (json.JSONDecodeError, KeyError):
            overall = None
        if proc.returncode != 0 or overall != "separable":
            self.tally.unexpected.append(f"CLI cold start returned {proc.returncode}, overall={overall}")
        return elapsed

    def due(self, elapsed: float) -> None:
        while len(self.times) < COLD_STARTS and elapsed >= len(self.times) * self.interval:
            self.times.append(self.once())

    def finish(self) -> list[float]:
        while len(self.times) < COLD_STARTS:
            self.times.append(self.once())
        return self.times


def child_env(root: Path) -> dict:
    """The parent's environment (BLAS threads included) with the library on the path."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def timed_worker(workload: str, seed: int, tiny: bool, seconds: float) -> dict:
    """One fresh process: warm up, then whole rounds until `seconds` have passed."""
    wl = workloads.build(workload, seed, tiny)
    tally = Tally()
    wl.ops[0].run()  # warm-up, untimed and unchecked
    size = len(wl.ops)
    latencies, _, _ = run_ops(wl.ops, tally, lambda done, t: done % size == 0 and done and t >= seconds)
    return {"latencies": latencies, "tally": asdict(tally),
            "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def spawn_worker(workload: str, seed: int, tiny: bool, seconds: float, root: Path):
    """Run `timed_worker` in a fresh interpreter and wait for it to end."""
    cmd = [sys.executable, str(Path(__file__).resolve()), workload, str(seed), str(int(tiny)), repr(seconds)]
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {cmd[2:]} exited with {proc.returncode}: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["latencies"], Tally(**out["tally"]), out["peak_mb"]


def end_to_end(wl: workloads.Workload, seed: int, tiny: bool, seconds: float, root: Path, tally: Tally) -> dict:
    setup = ColdStarts(root, tally, seconds)
    latencies = [[] for _ in wl.ops]
    peaks = []
    start = perf_counter()
    # one process at a time
    while len(peaks) < MIN_WORKERS or perf_counter() - start < seconds:
        worker_latencies, worker_tally, peak = spawn_worker(wl.name, seed, tiny, seconds / WORKER_SLICES, root)
        for pooled, more in zip(latencies, worker_latencies):
            pooled.extend(more)
        tally.merge(worker_tally)
        peaks.append(peak)
        setup.due(perf_counter() - start)
    starts = setup.finish()
    flat = [t for per_op in latencies for t in per_op]
    per_input = [statistics.median(per_op) for per_op in latencies]
    note = f"{len(wl.ops)} inputs, {len(flat)} ops in {len(peaks)} processes"
    values = {
        "setup_s": (statistics.median(starts), f"median of {len(starts)} cold starts"),
        "ops_per_s": (len(wl.ops) / sum(per_input), note),
        "op_s_p50": (statistics.median(per_input), f"median of per-input medians, {note}"),
        "error_rate": (tally.failed / tally.attempted, f"{tally.failed}/{tally.attempted} ops failed"),
        "peak_rss_mb": (max(peaks), f"largest of {len(peaks)} processes"),
    }
    if wl.tail_pct is not None:
        beyond = int(len(flat) * (1 - wl.tail_pct / 100))
        values["op_s_tail"] = (float(np.percentile(flat, wl.tail_pct)),
                               f"p{wl.tail_pct:g} of {len(flat)} ops, {beyond} beyond")
    return values


def per_layer(wl: workloads.Workload, seconds: float, spans_path: Path, tally: Tally) -> dict:
    """Untraced whole rounds for half the time, then as many rounds traced.

    Both halves run in this one process, so the overhead compares like with
    like. Whole rounds keep the per-op counters independent of the run length.
    """
    wl.ops[0].run()
    size = len(wl.ops)
    _, wall_plain, n_ops = run_ops(wl.ops, tally, lambda done, t: done % size == 0 and done and t >= seconds / 2)
    tracer = spans.Tracer()
    with tracer.installed():
        _, wall_traced, _ = run_ops(wl.ops, tally, lambda done, t: done == n_ops, tracer=tracer)
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    rounds = n_ops // size
    sample = f"{n_ops} traced ops ({rounds} rounds), computed"
    values = {"trace.overhead_frac": (wall_traced / wall_plain - 1, f"{wall_traced:.3f} s traced / {wall_plain:.3f} s")}
    for name, t in tracer.layer_totals().items():
        values[f"{name}.calls"] = (t["calls"] / n_ops, sample)
        values[f"{name}.self_s"] = (t["self_s"] / n_ops, f"{t['calls']} spans")
        values[f"{name}.distinct_ratio"] = (t["distinct"] / t["calls"] if t["calls"] else 0.0, sample)
        values[f"{name}.errors"] = (t["errors"] / n_ops, sample)
        if name in _WORK_METRIC:
            values[f"{name}.{_WORK_METRIC[name][0]}"] = (t["work"] / n_ops, sample)
    return values


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def llc_bytes() -> int | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
                return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        except (OSError, ValueError):
            continue
    return None


def provenance(wl: workloads.Workload, seed: int, root: Path, tiny: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    llc = llc_bytes()
    matrix = wl.largest_matrix_bytes
    fits = llc is not None and matrix <= llc
    return {
        "commit": git_commit(root),
        "workload": wl.name,
        "seed": seed,
        "tiny": tiny,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset (OpenBLAS default)"),
        "nproc": len(os.sched_getaffinity(0)),
        "llc_mib": None if llc is None else llc / (1 << 20),
        "largest_matrix_mib": matrix / (1 << 20),
        "cache_note": (f"every matrix (at most {matrix / (1 << 20):.2f} MiB) fits in the "
                       f"{llc / (1 << 20):.0f} MiB LLC, so no bandwidth figure is claimed, only computed flops"
                       if fits else "LLC size unknown or smaller than the largest matrix"),
        "loop": "closed loop, one op at a time; timed runs in sequential fresh worker processes",
        "wait_s": None,  # no layer has queues or retries: waiting is absent, not zero
    }


def selected(root: Path, key: str) -> list[str]:
    with open(root / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[key]]


def run(workload: str, seed: int, seconds: float, traced: bool, tiny: bool, root: Path) -> dict:
    wl = workloads.build(workload, seed, tiny)
    print(json.dumps({"provenance": provenance(wl, seed, root, tiny)}), flush=True)
    tally = Tally()
    if traced:
        spans_path = root / "perfbench" / "out" / f"spans-{workload}-seed{seed}.json.gz"
        values, units, key = per_layer(wl, seconds, spans_path, tally), PER_LAYER_UNITS, "per_layer"
    else:
        values, units, key = end_to_end(wl, seed, tiny, seconds, root, tally), END_TO_END_UNITS, "end_to_end"
    for name, (value, sample) in values.items():
        print(f"  {name:45s} {value:14.6g} {units[name]:9s} ({sample})")
    for reason, count in tally.reasons.items():
        print(f"  failed x{count}: {reason}")
    for reason in tally.unexpected:
        print(f"  UNEXPECTED: {reason}")
    return {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name][0], "unit": units[name]} for name in selected(root, key)},
    }


if __name__ == "__main__":
    workload, seed, tiny, seconds = sys.argv[1:]
    print(json.dumps(timed_worker(workload, int(seed), bool(int(tiny)), float(seconds))))

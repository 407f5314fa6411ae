"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import harness
import spans
import workloads
from spectrawl import discriminate, graphs

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(key):
    return [m["name"] for m in SPEC[key]]


def test_benchmark_json_units_match_the_code():
    for key, units in (("end_to_end", harness.END_TO_END_UNITS), ("per_layer", harness.PER_LAYER_UNITS)):
        for metric in SPEC[key]:
            assert units[metric["name"]] == metric["unit"], metric["name"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_of_every_workload_completes(workload, traced, tmp_path, capsys):
    result = harness.run(workload, 3, 0, traced, True, ROOT)
    assert result["correct"], capsys.readouterr().out
    assert result["attempted"] >= 2
    assert list(result["metrics"]) == names("per_layer" if traced else "end_to_end")
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_command_line_prints_the_result_last():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "closed_walk", "--seed", "1", "--seconds", "0",
           "--trace", "0", "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[0])["provenance"]["seed"] == 1
    result = json.loads(lines[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert all(list(m) == ["value", "unit"] for m in result["metrics"].values())


def session_members(sid):
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(stat.parent.name)
    return members


def test_no_process_outlives_a_run():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "pair_large", "--seed", "2", "--seconds", "0",
           "--trace", "0", "--tiny"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
    assert proc.wait(timeout=120) == 0
    assert session_members(proc.pid) == []


def snapshot():
    holders = spans.package_modules() + [np.linalg, graphs.Graph]
    return {(id(h), key): value for h in holders for key, value in vars(h).items()}


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = snapshot()
    wl = workloads.build("csl", 0, tiny=True)
    harness.per_layer(wl, 0, tmp_path / "spans.json.gz", harness.Tally())
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert (tmp_path / "spans.json.gz").exists()


def test_wrapping_catches_names_imported_by_value():
    original = graphs.from_edge_list
    assert discriminate.from_edge_list is original
    tracer = spans.Tracer()
    with tracer.installed():
        assert discriminate.from_edge_list is not original
        assert discriminate.from_edge_list is graphs.from_edge_list
        with tracer.op(0):
            discriminate.csl_base_graph(41, 2)
    assert discriminate.from_edge_list is original
    totals = tracer.layer_totals()
    assert totals["graphs.from_edge_list"]["calls"] == 1
    assert totals["graphs.graph_init"]["calls"] == 1


def counters(values):
    return {k: v for k, (v, _) in values.items() if not k.endswith(".self_s") and k != "trace.overhead_frac"}


def test_computed_counters_repeat_exactly(tmp_path):
    # different run lengths give different round counts; per-op counters must not move
    first = harness.per_layer(workloads.build("pair_large", 5, tiny=True), 0, tmp_path / "a.json.gz", harness.Tally())
    second = harness.per_layer(workloads.build("pair_large", 5, tiny=True), 1.5, tmp_path / "b.json.gz", harness.Tally())
    assert counters(first) == counters(second)
    assert first["spectral.eigendecompose.calls"][0] == 4.0
    assert first["spectral.eigendecompose.distinct_ratio"][0] == 0.5
    assert first["gnn.diag_powers.distinct_ratio"][0] == 0.5
    small = harness.per_layer(workloads.build("pair_small", 5, tiny=True), 0, tmp_path / "c.json.gz", harness.Tally())
    assert small["spectral.eigendecompose.calls"][0] == 2.0
    assert small["spectral.eigendecompose.distinct_ratio"][0] == 1.0


class FakeReport:
    def __init__(self, overall, wl="indistinguishable"):
        self.overall, self.wl, self.pair = overall, wl, ("a", "b")


def test_false_separation_of_an_isomorphic_pair_counts_as_failed():
    g = workloads.gnp(30, 0.5, np.random.default_rng(0), "g")
    dense = workloads.PairInput(g, g, isomorphic=True, dense=True)
    sparse = workloads.PairInput(g, g, isomorphic=True)
    tally = harness.Tally()
    tally.record(workloads.check_pair(dense, FakeReport("separable")))
    assert (tally.failed, tally.unexpected) == (1, [])
    tally.record(workloads.check_pair(sparse, FakeReport("separable")))
    tally.record(workloads.check_pair(sparse, FakeReport("inconclusive")))
    assert (tally.attempted, tally.failed, len(tally.unexpected)) == (3, 2, 1)


def test_compare_rule():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    faster = [p * 1.3 for p in parent]
    assert compare.classify(parent, faster, "higher", 0.2, False)[0] == "gain"
    assert compare.classify(parent, faster, "higher", 0.2, True)[0].startswith("gain void")
    assert compare.classify(parent, [p * 0.7 for p in parent], "higher", 0.2, False)[0] == "regression"
    assert compare.classify(parent, list(parent), "higher", 0.2, False)[0] == "within bound"
    noisy = [0.5, 1.5] * 5
    assert compare.classify(parent, noisy, "higher", 0.2, False)[0] == "unresolved"
    assert compare.classify(parent[:9], faster[:9], "higher", 0.2, False)[0].startswith("too few")


def test_compare_report_reads_a_results_file(tmp_path, capsys):
    per_layer = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["per_layer"]}
    with open(tmp_path / "results.jsonl", "w") as fh:
        for pair in range(compare.MIN_PAIRS + 1):
            trace = int(pair == compare.MIN_PAIRS)
            for side, scale in (("parent", 1.0), ("change", 1.3)):
                metrics = per_layer if trace else {
                    m["name"]: {"value": scale * (1 + pair / 100), "unit": m["unit"]} for m in SPEC["end_to_end"]}
                result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
                row = {"side": side, "workload": "pair_large", "pair": pair, "trace": trace, "result": result}
                fh.write(json.dumps(row) + "\n")
    assert compare.main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "pair_large: 10 pairs" in out
    assert "ops_per_s" in out and "gain" in out and "regression" in out
    assert "trace.overhead_frac" in out


def test_compare_refuses_checkouts_whose_benchmark_json_differs(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("pass\n")
        (tmp_path / side / "BENCHMARK.json").write_text('{"run_seconds": 40}\n')
    assert compare.bench_digest(tmp_path / "a") == compare.bench_digest(tmp_path / "b")
    (tmp_path / "b" / "BENCHMARK.json").write_text('{"run_seconds": 10}\n')
    assert compare.bench_digest(tmp_path / "a") != compare.bench_digest(tmp_path / "b")

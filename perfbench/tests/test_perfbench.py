"""Tests of the benchmark itself.

Run from the root of the repository: python3 -m pytest perfbench/tests
The last tests run one round of each workload (about half a minute).
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402


def _files(directory: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_gives_same_inputs(workload, tmp_path):
    first = gen.make_inputs(workload, 7, tmp_path / "a", 3)
    second = gen.make_inputs(workload, 7, tmp_path / "b", 3)
    other = gen.make_inputs(workload, 8, tmp_path / "c", 3)
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert first != other


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_every_round_has_the_same_mix(workload, tmp_path):
    rounds = gen.make_inputs(workload, 3, tmp_path, 4)

    def mix(ops):
        return sorted(gen.op_kind(op) for op in ops)

    assert all(mix(ops) == mix(rounds[0]) for ops in rounds)
    assert len(set(mix(rounds[0]))) > 1


def test_expressions_are_passed_after_a_separator(tmp_path):
    ops = [op for ops in gen.make_inputs("session", 1, tmp_path, 5) for op in ops]
    negative = [op for op in ops if op["argv"][0] in ("eval", "mul") and op["argv"][op["argv"].index("--") + 1].startswith("-")]
    assert negative, "the generator must keep expressions with a leading minus"


@pytest.mark.parametrize(
    "letters, max_size, count",
    [(1, 2, 3), (1, 3, 8), (2, 2, 8), (2, 3, 30), (3, 2, 15), (1, 4, 21), (3, 3, 72)],
)
def test_word_count_matches_known_pool_sizes(letters, max_size, count):
    assert gen.word_count(letters, max_size) == count


@pytest.mark.parametrize("n", [11, 12, 20, 57, 100, 1000])
def test_tail_keeps_ten_samples_beyond(n):
    samples = [float(k) for k in reversed(range(n))]
    value, percentile, beyond = run.tail(samples)
    assert beyond == 10
    assert sum(s > value for s in samples) == 10
    assert value == n - 11
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_of_a_small_sample_is_its_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([float(k) for k in range(10)]) == (9.0, 100.0, 0)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == [HERE.name]
    assert {w["name"] for w in spec["workloads"]} <= set(gen.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_one_round_runs_without_errors(workload, tmp_path):
    out = run.run(workload, 5, 1, trace=False, rounds=1)
    result = out["result"]
    assert result["failed"] == 0 and result["correct"]
    plan = gen.make_inputs(workload, 5, tmp_path, run.WARMUP_ROUNDS[workload] + 1)
    ops = sum(len(ops) for ops in plan)
    assert result["attempted"] == ops + len(gen.kernel_ops(tmp_path) if workload == "session" else [])
    assert out["report"]["tail"]["samples"] == len(plan[-1])  # warm-up ops are not timed
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_kernel_ops_cover_every_generator(tmp_path):
    gen.make_inputs("session", 2, tmp_path, 1)
    ops = gen.kernel_ops(tmp_path)
    # 4 algebras each of dimension 2 and 3, with 3 * dim**2 generators each
    assert len(ops) == 4 * 12 + 4 * 27
    assert len({tuple(op["argv"]) for op in ops}) == len(ops)


def test_ops_cut_off_by_the_deadline_are_not_failures(monkeypatch):
    monkeypatch.setattr(run, "OPS_END_S", 0.0)
    out = run.run("sweep", 5, 1, trace=False, rounds=1)
    assert out["result"]["failed"] == 0 and out["result"]["attempted"] == 0
    assert out["report"]["not_run"] == out["report"]["ops"]


def test_same_seed_gives_same_output_digest():
    first = run.run("session", 9, 1, trace=False, rounds=1)["report"]["digest"]
    second = run.run("session", 9, 1, trace=False, rounds=1)["report"]["digest"]
    assert first == second


def test_traced_round_reports_every_layer():
    out = run.run("session", 4, 1, trace=True, rounds=1)
    metrics = out["result"]["metrics"]
    assert out["result"]["failed"] == 0
    assert set(metrics) == set(run.PER_LAYER)
    for layer in ("words", "linalg", "algebra", "relations", "envelope", "parser", "cli"):
        assert metrics[f"{layer}.self_s"]["value"] > 0
    assert metrics["linalg.rref.calls"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 1

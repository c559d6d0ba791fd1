"""Smoke test of the benchmark at its smallest size (one cycle per workload).

Kept out of the Tier-1 suite (pytest collects only tests/); run it with

    python3 -m pytest -q perfbench/test_smoke.py
"""

import copy
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int, seed: int = 1729) -> tuple[dict, str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", ["corpus", "frontier", "search", "genericity"])
def test_one_cycle_is_correct_and_reports_every_metric(workload):
    spec = _spec()
    result, _ = _run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", ["corpus", "genericity"])
def test_traced_self_times_add_up(workload):
    spec = _spec()
    result, text = _run(workload, trace=1, seed=7)
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    self_sum = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    assert abs(self_sum - metrics["trace.op_s"]) <= 1e-6 * max(1.0, metrics["trace.op_s"])
    assert "not applicable" in text


def test_fails_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_expected_values_are_compared_bit_for_bit():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    with open(os.path.join(HERE, "expected.json"), "r", encoding="utf-8") as fh:
        want = next(d for d in json.load(fh)["search"] if not d["certificate"]["signed"])
    search = workloads.WORKLOADS["search"]
    op = {"signed": False}
    assert search.compare(op, want, want) is None
    got = copy.deepcopy(want)
    got["certificate"]["value"] = math.nextafter(got["certificate"]["value"], math.inf)
    assert search.compare(op, got, want) is not None


def test_non_generic_refusal_counts_as_failed_but_not_wrong(tmp_path):
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    # Seed 2, op 718: a corpus instance whose perturbed nodal check
    # reports the documented NonGenericError.
    corpus = workloads.WORKLOADS["corpus"]
    op = corpus.make_ops(2, 718 // corpus.cycle, str(tmp_path))[718 % corpus.cycle]
    d = corpus.digest(op, corpus.run(op), False)
    assert corpus.check(op, d) is not None
    assert workloads.refused(d)
    assert not workloads.refused(dict(d, errors=["nodal: something else"]))


def test_latencies_are_scaled_by_the_median_pace_of_their_cycle():
    sys.path.insert(0, HERE)
    import run

    ref = run.PACE_REFERENCE_S
    got = run.at_reference_pace([1.0, 2.0, 3.0], [ref, ref, 2 * ref], cycle=2)
    assert got == [1.0, 2.0, 1.5]

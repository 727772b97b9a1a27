"""Workload-level self-tests: the serve-cold split, its cache tiers and
its digest, the result line, and the benchmark's refusal to run without
the sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import serve_cold, stats
from perfbench.report import END_TO_END, Outcome, per_layer_units, \
    result_line

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def cold_runs(tmp_path_factory):
    """Two short traced serve-cold runs of one seed."""
    return [serve_cold.run(ROOT, tmp_path_factory.mktemp(f"cold{i}"), seed=3,
                           seconds=5.0, trace=True, setup_reps=1)
            for i in range(2)]


def test_serve_cold_computes_every_request_without_sim(cold_runs):
    for out in cold_runs:
        assert out.problems == [] and out.failed == 0
        m = out.metrics
        assert m["serve.jobs_executed"] == m["latency.samples"] > 0
        assert m["sim.self_s"] == 0 and m["sim.calls"] == 0
        assert m["measure.io.calls"] > 0 and m["causal.calls"] > 0


def test_serve_cold_rereads_time_both_cache_tiers(cold_runs):
    m = cold_runs[0].metrics
    assert m["serve.mem_hit_ratio"] == 0.5
    assert m["serve.store_read_ms"] > 0 and m["serve.mem_read_ms"] > 0
    assert m["serve.upload_ms"] > 0 and m["serve.cache.calls"] > 0


def test_digest_repeats_for_a_seed(cold_runs):
    assert cold_runs[0].digest == cold_runs[1].digest


def test_split_adds_up_to_wall_time(cold_runs):
    from perfbench.tap import LAYERS

    m = cold_runs[0].metrics
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert total + m["unattributed.self_s"] == pytest.approx(m["wall_s"])


def test_result_line_has_every_metric():
    out = Outcome(attempted=3, metrics={k: 1.0 for k in per_layer_units()})
    doc = json.loads(result_line(out, trace=True))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert set(doc["metrics"]) == set(per_layer_units())
    out = Outcome(attempted=3, metrics={k: 1.0 for k in END_TO_END})
    out.fail("wrong bytes")
    doc = json.loads(result_line(out, trace=False))
    assert doc["correct"] is False and doc["failed"] == 1
    assert set(doc["metrics"]) == set(END_TO_END)


def test_tail_rule():
    assert stats.tail(list(range(100)))[:2] == (89.0, 90.0)
    assert stats.tail([5.0, 1.0])[:2] == (5.0, 100.0)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")

"""Tests of the benchmark harness at a tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

TINY = {
    "tiny_fluid": {
        "scenario": "figure3",
        "substrate": "fluid",
        "duration": 3.0,
        "reference": True,
    },
    "tiny_churn": {
        "scenario": "scale40",
        "substrate": "fluid",
        "duration": 2.0,
        "churn": "poisson:rate=2,mean_hold=1,hold=exp,max_flows=3",
        "reference": False,
    },
}


def declared(kind: str) -> dict[str, str]:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in benchmark[kind]}


def invoke(workload: str, trace: int, expected: dict | None = None) -> tuple[dict, str]:
    buffer = io.StringIO()
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    with redirect_stdout(buffer):
        run.main(argv, workloads=TINY, expected={} if expected is None else expected)
    text = buffer.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def test_declared_metrics_match_the_harness():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, text = invoke(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_REPS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END
    for name in (*run.END_TO_END, *run.OUTCOME):
        assert name in text
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_prints_every_per_layer_metric(workload):
    result, text = invoke(workload, 1)
    # One untraced and one traced repetition, with the same outcome.
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.PER_LAYER
    # GMP over the fluid substrate enumerates cliques twice today: once
    # in the runner (for FluidMac) and once in GmpProtocol.__init__.
    assert metrics["topology.clique_enumerations"] == 2
    # setup + kernel + finalize is the traced wall, read off one clock.
    parts = metrics["trace.setup_s"] + metrics["sim.kernel.run_s"] + metrics["trace.finalize_s"]
    assert parts == pytest.approx(metrics["trace.wall_s"], abs=1e-9)
    assert metrics["setup.self_s"] >= 0 and metrics["sim.kernel.self_s"] >= 0
    assert "largest set-up span" in text


@pytest.mark.parametrize("workload", sorted(TINY))
def test_host_speed_samples_leave_the_outcome_unchanged(workload, monkeypatch):
    monkeypatch.setattr(worker, "SAMPLE_PERIOD_S", 0.002)
    sampled = worker.run_once(TINY[workload], 3, traced=False)
    assert sampled["samples"] > 10
    assert sampled["reference"]["wall_s"] > 0 and sampled["calibration_s"] > 0
    traced = worker.run_once(TINY[workload], 3, traced=True)
    for key in ("events", "rates_sha256"):
        assert sampled[key] == traced[key]


def test_planted_outcome_mismatch_is_a_failed_operation():
    honest, _ = invoke("tiny_fluid", 0)
    assert honest["failed"] == 0
    planted = {"tiny_fluid": {"3": {"events": 1, "rates_sha256": "0" * 64}}}
    result, text = invoke("tiny_fluid", 0, expected=planted)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert result["metrics"] == {}
    assert "FAILED: events" in text


def test_wrappers_cover_every_binding_and_are_restored():
    import repro.core.protocol as protocol
    import repro.mac.fluid as fluid
    import repro.scenarios.runner as runner
    import repro.topology.cliques as cliques

    original = cliques.maximal_cliques
    uninstall = spans.install(spans.SpanRecorder())
    try:
        for module in (runner, protocol, fluid, cliques):
            assert module.maximal_cliques is not original
        assert runner.ROUTING_PROTOCOLS["link_state"] is runner.link_state_routes
        assert runner.link_state_routes.__wrapped__ is not None
    finally:
        uninstall()
    for module in (runner, protocol, fluid, cliques):
        assert module.maximal_cliques is original
    assert not hasattr(runner.ROUTING_PROTOCOLS["link_state"], "__wrapped__")


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3_fluid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

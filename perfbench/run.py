"""Repository benchmark: set-up, steady-state and outcome metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig3_fluid --seed 1 --seconds 40 --trace 0

Each repetition runs the workload alone in a fresh worker process
(``worker.py``) through ``repro.scenarios.runner.run_scenario``.
``--trace 0`` repeats the workload as often as fits in ``--seconds``
(and at least three times) and reports each end-to-end metric over
the repetitions as ``summarize`` says.  ``--trace 1`` runs it once
untraced and once with layer wrappers installed, and reports the
per-layer metrics of the traced run.

Every repetition passes through the correctness gate: the worker must
not raise (a kernel watchdog raises), the fluid substrate's strict
invariant audit must pass, churn must leave no GMP residues, and the
dispatched-event count and the hash of the per-flow delivered rates
must equal the pinned values in ``expected.json`` for the
(workload, seed) when pinned, and otherwise the first repetition's.
A repetition that fails the gate counts in ``failed`` and its timings
are dropped.  The last line of output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Hard ceiling on one benchmark invocation, in seconds.
TIME_LIMIT = 170.0

#: Fewest untraced repetitions per invocation: set-up is measured
#: several times and the median reported.
MIN_REPS = 3

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_rate": "sim-s/s",
    "peak_rss_mb": "MiB",
}


def summarize(passed: list[dict[str, Any]]) -> dict[str, float]:
    """Each end-to-end metric over an invocation's repetitions: the
    median of the repetitions' times in reference seconds (see
    ``worker.py``) and the largest peak memory."""
    return {
        **{
            metric: statistics.median(rep["reference"][metric] for rep in passed)
            for metric in ("wall_s", "setup_s", "sim_rate")
        },
        "peak_rss_mb": max(rep["peak_rss_mb"] for rep in passed),
    }


#: Simulated outcome of a run; deterministic per (workload, seed).
OUTCOME = {
    "outcome.goodput_pps": "pkt/s",
    "outcome.fairness_imm": "ratio",
    "outcome.maxmin_gap": "ratio",
}

#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER = {
    "scenarios.build_s": "s",
    "routing.tables_s": "s",
    "routing.destinations": "count",
    "routing.useful_ratio": "ratio",
    "routing.validate_s": "s",
    "topology.contention_s": "s",
    "topology.cliques_s": "s",
    "topology.clique_enumerations": "count",
    "topology.links": "count",
    "topology.cliques": "count",
    "mac.fluid.start_s": "s",
    "mac.fluid.rounds": "count",
    "mac.fluid.round_s": "s",
    "mac.fluid.round_self_s": "s",
    "mac.fluid.round_p50_ms": "ms",
    "mac.fluid.round_p99_ms": "ms",
    "mac.fluid.solve_s": "s",
    "mac.fluid.alloc_cache_hit_ratio": "ratio",
    "mac.fluid.rounds_skipped": "count",
    "mac.dcf.rts_attempts": "count",
    "mac.dcf.data_sent": "count",
    "mac.dcf.drops": "count",
    "mac.channel.delivery_ratio": "ratio",
    "core.gmp.init_s": "s",
    "core.gmp.init_self_s": "s",
    "core.gmp.boundary_s": "s",
    "core.gmp.requests_issued": "count",
    "core.gmp.violations_found": "count",
    "sim.kernel.run_s": "s",
    "sim.kernel.events": "count",
    "sim.kernel.events_per_s": "1/s",
    "sim.kernel.self_s": "s",
    "churn.arrivals": "count",
    "churn.departures": "count",
    "churn.inject_s": "s",
    "faults.audit_s": "s",
    "buffers.drops": "count",
    "mac.drops": "count",
    "setup.self_s": "s",
    "finalize.self_s": "s",
    "trace.wall_s": "s",
    "trace.setup_s": "s",
    "trace.finalize_s": "s",
    "trace.overhead_s": "s",
    **OUTCOME,
}

#: Spans that make up set-up, for naming the largest one.
SETUP_SPANS = (
    "scenarios.build_s",
    "routing.tables_s",
    "routing.validate_s",
    "topology.contention_s",
    "topology.cliques_s",
    "mac.fluid.start_s",
    "core.gmp.init_self_s",
    "setup.self_s",
)


#: Self times that make up the kernel run, likewise.
KERNEL_SPANS = (
    "mac.fluid.round_self_s",
    "mac.fluid.solve_s",
    "core.gmp.boundary_s",
    "churn.inject_s",
    "sim.kernel.self_s",
)


def load_expected() -> dict[str, Any]:
    path = HERE / "expected.json"
    return json.loads(path.read_text()) if path.exists() else {}


def run_worker(
    workload: dict[str, Any], seed: int, traced: bool, timeout: float, spans_out: Path | None
) -> dict[str, Any]:
    """One repetition in a fresh process; a crash or timeout comes
    back as ``{"error": ...}``."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload-json",
        json.dumps(workload, sort_keys=True),
        "--seed",
        str(seed),
        "--trace",
        str(int(traced)),
    ]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if not lines:
        return {"error": f"worker exited {done.returncode}: {done.stderr.strip()[-500:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unreadable worker output: {lines[-1][:200]}"}


def gate(rep: dict[str, Any], reference: dict[str, Any] | None) -> str | None:
    """Why ``rep`` fails the correctness gate, or None if it passes."""
    if "error" in rep:
        return rep["error"]
    if rep["audit_strict"] and not rep["audit_ok"]:
        return "strict invariant audit failed"
    if rep["residues"]:
        return f"churn left GMP state behind for {rep['residues']} flows"
    if reference is not None:
        for key in ("events", "rates_sha256"):
            if rep[key] != reference[key]:
                return f"{key} {rep[key]} differs from expected {reference[key]}"
    return None


def measure(
    name: str,
    workload: dict[str, Any],
    seed: int,
    seconds: float,
    traced: bool,
    expected: dict[str, Any],
) -> dict[str, Any]:
    """Run the repetitions, gate them and build the result object."""
    started = time.perf_counter()
    reference = expected.get(name, {}).get(str(seed))
    attempted = 0
    failed = 0

    def attempt(with_trace: bool) -> dict[str, Any] | None:
        """One gated repetition; None when it failed."""
        nonlocal reference, attempted, failed
        spans_out = HERE / "out" / f"{name}-seed{seed}-spans.json" if with_trace else None
        timeout = TIME_LIMIT - (time.perf_counter() - started)
        rep = run_worker(workload, seed, with_trace, timeout, spans_out)
        attempted += 1
        reason = gate(rep, reference)
        if reason is not None:
            failed += 1
            print(f"# {name} seed {seed} rep {attempted}: FAILED: {reason}")
            return None
        if reference is None:
            reference = {key: rep[key] for key in ("events", "rates_sha256")}
        return rep

    metrics: dict[str, dict[str, Any]] = {}
    passed: list[dict[str, Any]] = []
    if traced:
        untraced = attempt(False)
        rep = attempt(True)
        passed = [r for r in (untraced, rep) if r is not None]
        if rep is not None:
            layers = dict(rep["layers"])
            layers["trace.overhead_s"] = (
                rep["wall_s"] - untraced["wall_s"] if untraced is not None else 0.0
            )
            for key, value in rep["outcome"].items():
                layers[f"outcome.{key}"] = value
            metrics = {
                metric: {"value": layers[metric], "unit": unit}
                for metric, unit in PER_LAYER.items()
            }
            report_trace(name, layers)
    else:
        last_rep = 0.0
        while True:
            elapsed = time.perf_counter() - started
            # Start no repetition that would end past ``--seconds``,
            # judged by the last one, once MIN_REPS are done.
            if attempted >= MIN_REPS and elapsed + last_rep > seconds:
                break
            if attempted and elapsed + 1.5 * last_rep > TIME_LIMIT:
                break
            rep = attempt(False)
            last_rep = time.perf_counter() - started - elapsed
            if rep is not None:
                passed.append(rep)
        if passed:
            summary = summarize(passed)
            metrics = {
                metric: {"value": summary[metric], "unit": unit}
                for metric, unit in END_TO_END.items()
            }
            report_untraced(name, passed, summary)
    return {
        "correct": failed == 0 and bool(passed),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def report_untraced(
    name: str, passed: list[dict[str, Any]], summary: dict[str, float]
) -> None:
    """Human-readable lines: each end-to-end metric as reported, with
    the min, median and max of its repetitions in host wall time, the
    calibration loop's median time, and the simulated outcome
    (identical across repetitions)."""
    print(f"# {name}: {len(passed)} repetitions; host wall times in parentheses")
    for metric, unit in END_TO_END.items():
        values = [rep[metric] for rep in passed]
        print(
            f"{metric:<28} {summary[metric]:12.6g} {unit:<8} (min {min(values):.6g}, "
            f"median {statistics.median(values):.6g}, max {max(values):.6g})"
        )
    calibration = statistics.median(rep["calibration_s"] for rep in passed)
    print(f"{'calibration loop':<28} {1e3 * calibration:12.6g} ms       "
          f"(reference {1e3 * REFERENCE_S:g} ms)")
    outcome = passed[0]["outcome"]
    for metric, unit in OUTCOME.items():
        value = outcome.get(metric.split(".", 1)[1])
        shown = f"{value:12.6g}" if value is not None else f"{'n/a':>12}"
        print(f"{metric:<28} {shown} {unit}")


def report_trace(name: str, layers: dict[str, float]) -> None:
    """Human-readable per-layer table and the clock reconciliation."""
    print(f"# {name}: traced run")
    for metric, unit in PER_LAYER.items():
        print(f"{metric:<34} {layers[metric]:14.6g} {unit}")
    largest = max(SETUP_SPANS, key=lambda metric: layers[metric])
    print(f"# largest set-up span: {largest}")
    largest = max(KERNEL_SPANS, key=lambda metric: layers[metric])
    print(f"# largest kernel span (self time): {largest}")
    parts = layers["trace.setup_s"] + layers["sim.kernel.run_s"] + layers["trace.finalize_s"]
    print(f"# setup + kernel + finalize = {parts:.6f} s; wall = {layers['trace.wall_s']:.6f} s")


def main(
    argv: list[str] | None = None,
    workloads: dict[str, Any] | None = None,
    expected: dict[str, Any] | None = None,
) -> int:
    workloads = WORKLOADS if workloads is None else workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "scenarios" / "runner.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = measure(
        args.workload,
        workloads[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        load_expected() if expected is None else expected,
    )
    print(json.dumps(result))
    return 0 if result["attempted"] > result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())

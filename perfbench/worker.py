"""One benchmark repetition, run in a fresh process.

Usage (normally spawned by ``run.py``)::

    python3 perfbench/worker.py --workload-json '{...}' --seed 1 --trace 0

Builds the workload's scenario, runs it through
``repro.scenarios.runner.run_scenario`` and prints one JSON object:
host timings, the simulated outcome and its fingerprint (the inputs of
the correctness gate), and with ``--trace 1`` the per-layer figures.

The run reads the clock at the start of scenario construction, at
entry to and exit from ``Simulator.run`` (its only probe in the
program) and when ``run_scenario`` returns.  Everything after that
(the outcome fingerprint, the maxmin reference) is outside the timed
region.

An untraced run also samples the host's speed (``HostSpeed``): it
times a fixed calibration loop at each of those four points and, from
an interval timer, every ``SAMPLE_PERIOD_S`` of wall time in between.
Other tenants of a shared host change its speed by up to 2x within a
fraction of a second, and the calibration loop slows with it.  The
program runs in the gaps between samples, and each gap is also
reported in reference seconds: its wall time scaled by ``REFERENCE_S``
over the mean of the two calibrations around it, that is, the time the
gap would take on a host that runs the calibration loop in
``REFERENCE_S``.  Host wall times leave the samples out.  A traced run
takes no samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Iterations of the calibration loop: about 1.6 ms on an undisturbed
#: 2.1 GHz Xeon vCPU.
CALIBRATION_LOOPS = 20_000

#: The calibration loop's time on the reference host, in seconds.
REFERENCE_S = 2.0e-3

#: Wall seconds of program run between two host-speed samples.
SAMPLE_PERIOD_S = 0.05


def calibrate() -> float:
    """Seconds the calibration loop takes now: dict updates and integer
    arithmetic in pure Python, like the simulator's inner loops."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CALIBRATION_LOOPS):
        key = i % 257
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


class HostSpeed:
    """Clock marks of one run, with host-speed samples when calibrated.

    ``mark()`` reads the clock and, when calibrated, times the
    calibration loop.  While armed, a one-shot ``SIGALRM`` interval
    timer, re-armed after each sample, takes one more every
    ``SAMPLE_PERIOD_S``.  Python runs the handler between bytecodes of
    the main thread, so a sample only ever sits between two steps of
    the program and the program runs in the gaps between samples.
    """

    def __init__(self, calibrated: bool) -> None:
        self.calibrated = calibrated
        #: (clock before, calibration seconds, clock after) per sample.
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False
        self._previous: Any = None

    def mark(self) -> int:
        """Take a sample now; returns its index."""
        self._busy = True
        try:
            index = len(self.samples)
            before = time.perf_counter()
            seconds = calibrate() if self.calibrated else 0.0
            self.samples.append((before, seconds, time.perf_counter()))
        finally:
            self._busy = False
        return index

    def _on_alarm(self, signum: int, frame: Any) -> None:
        if not self._busy:
            self.mark()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)

    def __enter__(self) -> "HostSpeed":
        if self.calibrated:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.calibrated:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def between(self, first: int, last: int) -> tuple[float, float]:
        """Host wall seconds and reference seconds the program ran
        between samples ``first`` and ``last``."""
        wall = reference = 0.0
        for (_, before, gap_start), (gap_end, after, _) in zip(
            self.samples[first:last], self.samples[first + 1 : last + 1]
        ):
            wall += gap_end - gap_start
            if self.calibrated:
                reference += (gap_end - gap_start) * REFERENCE_S * 2.0 / (before + after)
        return wall, reference


def _import_repro() -> None:
    """Put the checkout's ``src`` first on the path and check that
    ``repro`` really comes from it."""
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")


def rates_fingerprint(rates: dict[int, float]) -> str:
    """SHA-256 over the exact per-flow delivered rates."""
    text = ";".join(f"{flow_id}={rate!r}" for flow_id, rate in sorted(rates.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def maxmin_gap(scenario: Any, rates: dict[int, float], routes: Any, cliques: Any) -> float:
    """Largest relative gap between a static flow's delivered rate and
    its weighted-maxmin reference rate on the same routes and cliques."""
    from repro.analysis.maxmin_reference import weighted_maxmin_rates
    from repro.mac.phy import DEFAULT_PHY

    capacity = DEFAULT_PHY.saturation_rate(
        max(flow.packet_bytes for flow in scenario.flows), contenders=3
    )
    reference = weighted_maxmin_rates(scenario.flows, routes, cliques, capacity).rates
    return max(abs(rates[flow_id] - ref) / ref for flow_id, ref in reference.items())


def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def run_once(workload: dict[str, Any], seed: int, traced: bool) -> dict[str, Any]:
    """Run the workload once; see the module docstring for the fields."""
    from repro.analysis.fairness import maxmin_fairness_index
    from repro.churn.spec import parse_churn_spec
    from repro.scenarios.runner import run_scenario
    from repro.sim.kernel import Simulator

    from workloads import build_scenario

    churn = parse_churn_spec(workload["churn"]) if workload.get("churn") else None
    host = HostSpeed(calibrated=not traced)
    marks: list[int] = []
    original_run = Simulator.run

    def timed_run(self: Any, *args: Any, **kwargs: Any) -> Any:
        marks.append(host.mark())
        try:
            return original_run(self, *args, **kwargs)
        finally:
            marks.append(host.mark())

    recorder = None
    uninstall = None
    if traced:
        import spans

        recorder = spans.SpanRecorder()
        uninstall = spans.install(recorder)
    Simulator.run = timed_run  # type: ignore[method-assign]
    try:
        with host:
            marks.append(host.mark())
            if recorder is not None:
                scenario = recorder.wrap("scenarios.build", build_scenario)(workload)
            else:
                scenario = build_scenario(workload)
            result = run_scenario(
                scenario,
                protocol="gmp",
                substrate=workload["substrate"],
                duration=workload["duration"],
                seed=seed,
                churn=churn,
            )
            marks.append(host.mark())
    finally:
        Simulator.run = original_run  # type: ignore[method-assign]
        if uninstall is not None:
            uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Marks: start, Simulator.run entry and exit, return.
    phases = [host.between(a, b) for a, b in zip(marks, marks[1:])]
    (setup_s, ref_setup), (kernel_s, ref_kernel), (finalize_s, ref_finalize) = phases
    rates = result.flow_rates
    churn_report = result.extras.get("churn")
    audit = result.extras["invariants"]
    out: dict[str, Any] = {
        "wall_s": setup_s + kernel_s + finalize_s,
        "setup_s": setup_s,
        "sim_rate": workload["duration"] / kernel_s,
        "samples": len(host.samples),
        "peak_rss_mb": peak_rss_mb,
        "events": result.extras["events_processed"],
        "rates_sha256": rates_fingerprint(rates),
        "audit_ok": audit.ok,
        "audit_strict": workload["substrate"] == "fluid",
        "residues": len(churn_report.residues) if churn_report is not None else 0,
        "outcome": {
            "goodput_pps": result.effective_throughput,
            "fairness_imm": maxmin_fairness_index(rates.values()),
        },
    }
    if host.calibrated:
        out["reference"] = {
            "wall_s": ref_setup + ref_kernel + ref_finalize,
            "setup_s": ref_setup,
            "sim_rate": workload["duration"] / ref_kernel,
        }
        out["calibration_s"] = statistics.median(sample[1] for sample in host.samples)
    if recorder is not None:
        routes = recorder.captured["routing.tables"]
        cliques = recorder.captured["topology.cliques"]
        out["outcome"]["maxmin_gap"] = maxmin_gap(scenario, rates, routes, cliques)
        clock = tuple(host.samples[index][0] for index in marks)
        out["layers"] = layer_metrics(recorder, result, out, clock)
        out["spans"] = recorder.spans
    elif workload.get("reference"):
        from repro.routing.link_state import link_state_routes
        from repro.topology.cliques import maximal_cliques
        from repro.topology.contention import ContentionGraph

        routes = link_state_routes(scenario.topology)
        cliques = maximal_cliques(ContentionGraph(scenario.topology))
        out["outcome"]["maxmin_gap"] = maxmin_gap(scenario, rates, routes, cliques)
    return out


def layer_metrics(
    recorder: Any, result: Any, out: dict[str, Any], clock: tuple[float, float, float, float]
) -> dict[str, float]:
    """Per-layer figures of a traced run, by metric name."""
    start, enter, leave, end = clock
    total = {name: sum(recorder.durations(name)) for name in {s[0] for s in recorder.spans}}
    self_times = recorder.self_times()

    def span_total(name: str) -> float:
        return total.get(name, 0.0)

    def top_level_in(lo: float, hi: float) -> float:
        return sum(
            span_end - span_start
            for _, span_start, span_end, parent in recorder.spans
            if parent is None and lo <= span_start < hi
        )

    routes = recorder.captured["routing.tables"]
    routed = set()
    for node_id in routes.node_ids():
        routed.update(routes.table(node_id).destinations())
    flow_destinations = {path[-1][1] for path in result.extras["flow_paths"].values() if path}
    graph = recorder.captured.get("topology.contention")
    cliques = recorder.captured.get("topology.cliques") or []

    metrics: dict[str, float] = {
        "scenarios.build_s": span_total("scenarios.build"),
        "routing.tables_s": span_total("routing.tables"),
        "routing.destinations": len(routed),
        "routing.useful_ratio": len(flow_destinations) / len(routed),
        "routing.validate_s": span_total("routing.validate"),
        "topology.contention_s": span_total("topology.contention"),
        "topology.cliques_s": span_total("topology.cliques"),
        "topology.clique_enumerations": recorder.calls["topology.cliques"],
        "topology.links": len(graph.links) if graph is not None else 0,
        "topology.cliques": len(cliques),
        "core.gmp.init_s": span_total("core.gmp.init"),
        "core.gmp.init_self_s": self_times.get("core.gmp.init", 0.0),
        "core.gmp.boundary_s": span_total("core.gmp.boundary"),
        "core.gmp.requests_issued": result.extras.get("requests_issued", 0),
        "core.gmp.violations_found": result.extras.get("violations_found", 0),
        "churn.inject_s": span_total("churn.inject"),
        "faults.audit_s": span_total("faults.audit"),
        "buffers.drops": result.buffer_drops,
        "mac.drops": result.mac_drops,
    }

    fluid = recorder.captured.get("mac.fluid.start")
    rounds = recorder.durations("mac.fluid.round")
    lookups = fluid.alloc_cache_hits + fluid.alloc_cache_misses if fluid is not None else 0
    metrics.update(
        {
            "mac.fluid.start_s": span_total("mac.fluid.start"),
            "mac.fluid.rounds": len(rounds),
            "mac.fluid.round_s": sum(rounds),
            "mac.fluid.round_self_s": self_times.get("mac.fluid.round", 0.0),
            "mac.fluid.round_p50_ms": 1e3 * statistics.median(rounds) if rounds else 0.0,
            "mac.fluid.round_p99_ms": 1e3 * _percentile(rounds, 0.99) if rounds else 0.0,
            "mac.fluid.solve_s": span_total("mac.fluid.solve"),
            "mac.fluid.alloc_cache_hit_ratio": (
                fluid.alloc_cache_hits / lookups if lookups else 0.0
            ),
            "mac.fluid.rounds_skipped": fluid.rounds_skipped if fluid is not None else 0,
        }
    )

    dcf = recorder.captured.get("mac.dcf.start")
    node_stats = (
        [dcf.node_stats(node_id) for node_id in sorted(dcf.topology.node_ids)]
        if dcf is not None
        else []
    )
    channel = dcf.channel if dcf is not None else None
    metrics.update(
        {
            "mac.dcf.rts_attempts": sum(s["rts_attempts"] for s in node_stats),
            "mac.dcf.data_sent": sum(s["data_sent"] for s in node_stats),
            "mac.dcf.drops": sum(s["drops"] for s in node_stats),
            # Share of receptions that decoded cleanly.  The channel
            # counts a reception at every radio in range of the sender,
            # so delivered / sent would count overhearing as well.
            "mac.channel.delivery_ratio": (
                channel.frames_delivered / (channel.frames_delivered + channel.frames_corrupted)
                if channel is not None and channel.frames_delivered
                else 0.0
            ),
        }
    )

    churn_report = result.extras.get("churn")
    kernel_s = leave - enter
    setup_s = enter - start
    metrics.update(
        {
            "churn.arrivals": churn_report.arrivals if churn_report is not None else 0,
            "churn.departures": churn_report.departures if churn_report is not None else 0,
            "sim.kernel.run_s": kernel_s,
            "sim.kernel.events": out["events"],
            "sim.kernel.events_per_s": out["events"] / kernel_s,
            "sim.kernel.self_s": kernel_s - top_level_in(enter, leave),
            "setup.self_s": setup_s - top_level_in(start, enter),
            "finalize.self_s": (end - leave) - top_level_in(leave, end),
            "trace.wall_s": end - start,
            "trace.setup_s": setup_s,
            "trace.finalize_s": end - leave,
        }
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload-json", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="write the traced run's spans here (JSON)")
    args = parser.parse_args(argv)
    try:
        _import_repro()
        out = run_once(json.loads(args.workload_json), args.seed, bool(args.trace))
    except Exception as error:  # reported as a failed operation by run.py
        traceback.print_exc()
        print(json.dumps({"error": f"{type(error).__name__}: {error}"}))
        return 1
    spans_list = out.pop("spans", None)
    if args.spans_out and spans_list is not None:
        Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.spans_out, "w") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": spans_list}, handle
            )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

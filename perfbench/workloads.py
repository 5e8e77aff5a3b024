"""Workload definitions of the repository benchmark.

A workload is a plain dict (so it can be handed to a worker process as
JSON): which scenario to build, which substrate to run it on, how many
simulated seconds, and an optional churn spec.  ``--seed`` is the run
seed given to :func:`repro.scenarios.runner.run_scenario`; it drives
every random draw of the run (start jitter, GMP, churn arrivals,
departures and endpoints).  The city topology is the fixed seeded
instance ``scale_scenario(n, seed=TOPOLOGY_SEED)``, the same draw the
repository's ``scale300`` / ``scale1000`` factories use, so the amount
of set-up work does not change with ``--seed``.  WORKLOADS.md records
why each workload exists.
"""

from __future__ import annotations

from typing import Any

#: Topology seed of the city workload (the repository's scaleN seed).
TOPOLOGY_SEED = 7

#: Churn of ``city300_churn``: Poisson arrivals at 4/s with 3 s mean
#: exponential holding offer 12 concurrent flows against a cap of 6, so
#: about 6 churned flows are live at any time and about 2 are replaced
#: per second.  The cap keeps the amount of work per run nearly the same
#: from seed to seed; which flows come and go is what the seed changes.
CITY_CHURN = "poisson:rate=4,mean_hold=3,hold=exp,max_flows=6"

WORKLOADS: dict[str, dict[str, Any]] = {
    "fig3_fluid": {
        "scenario": "figure3",
        "substrate": "fluid",
        "duration": 300.0,
        "reference": True,
    },
    "fig3_dcf": {
        "scenario": "figure3",
        "substrate": "dcf",
        "duration": 30.0,
        "reference": True,
    },
    "city300_churn": {
        "scenario": "scale300",
        "substrate": "fluid",
        "duration": 10.0,
        "churn": CITY_CHURN,
        "reference": False,
    },
}


def build_scenario(workload: dict[str, Any]) -> Any:
    """The :class:`~repro.scenarios.figures.Scenario` a workload names:
    ``figure3`` or ``scale<N>`` (the seeded random city topology)."""
    from repro.scenarios.figures import figure3
    from repro.scenarios.scale import scale_scenario

    name = workload["scenario"]
    if name == "figure3":
        return figure3()
    if name.startswith("scale") and name[len("scale"):].isdigit():
        return scale_scenario(int(name[len("scale"):]), seed=TOPOLOGY_SEED)
    raise ValueError(f"unknown benchmark scenario {name!r}")

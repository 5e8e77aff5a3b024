"""The shared per-topology clique-capacity model: one enumeration per
run, one link→clique index, the same objects in every consumer."""

import sys

import pytest

import repro.topology.cliques as cliques_module
from repro.core.protocol import GmpProtocol
from repro.mac.fluid import FluidMac
from repro.scenarios.figures import figure2, figure3, figure4
from repro.scenarios.runner import run_scenario
from repro.scenarios.scale import scale_scenario
from repro.telemetry import Telemetry
from repro.topology.model import TopologyModel

SCENARIOS = {
    "figure2": figure2,
    "figure3": figure3,
    "figure4": figure4,
    "scale100": lambda: scale_scenario(100, seed=7),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_memberships_equal_the_brute_force_scan(name):
    topology = SCENARIOS[name]().topology
    model = TopologyModel(topology)
    cliques = model.cliques
    directed = [
        (node_id, neighbor)
        for node_id in topology.node_ids
        for neighbor in sorted(topology.neighbors(node_id))
    ]
    # Exactly the directed topology links are keys ...
    assert set(model.memberships) == set(directed)
    # ... and each maps to what a scan of every clique finds.
    for link in directed:
        expected = tuple(i for i, c in enumerate(cliques) if link in c)
        assert model.memberships[link] == expected


def test_model_parts_are_built_once():
    model = TopologyModel(figure3().topology)
    assert model.contention is model.contention
    assert model.cliques is model.cliques
    assert model.memberships is model.memberships


@pytest.fixture
def enumerations(monkeypatch):
    """Count ``maximal_cliques`` calls through every module binding."""
    original = cliques_module.maximal_cliques
    calls = []

    def counted(graph):
        calls.append(graph)
        return original(graph)

    patched = []
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro") and module is not None:
            if getattr(module, "maximal_cliques", None) is original:
                monkeypatch.setattr(module, "maximal_cliques", counted)
                patched.append(module_name)
    assert "repro.topology.model" in patched
    return calls


def _capture_started(monkeypatch, cls):
    started = []
    original = cls.start

    def start(self):
        started.append(self)
        return original(self)

    monkeypatch.setattr(cls, "start", start)
    return started


def test_gmp_fluid_run_enumerates_cliques_once_and_shares_them(
    enumerations, monkeypatch
):
    macs = _capture_started(monkeypatch, FluidMac)
    protocols = _capture_started(monkeypatch, GmpProtocol)
    result = run_scenario(
        figure3(),
        protocol="gmp",
        substrate="fluid",
        duration=2.0,
        seed=1,
        telemetry=Telemetry(enabled=True),
    )
    assert len(enumerations) == 1
    (mac,) = macs
    (gmp,) = protocols
    assert mac.model is gmp.model
    assert mac._cliques is gmp.cliques is result.extras["cliques"]


def test_dcf_80211_run_enumerates_no_cliques(enumerations):
    run_scenario(
        figure3(), protocol="802.11", substrate="dcf", duration=1.0, seed=1
    )
    assert enumerations == []

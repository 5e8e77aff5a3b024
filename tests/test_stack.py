"""Tests for the node stack over the fluid substrate."""

import pytest

from repro.buffers.backpressure import OracleGate
from repro.buffers.queues import PerDestinationBuffer, SharedFifoBuffer
from repro.errors import ProtocolError
from repro.flows.flow import Flow
from repro.flows.packet import Packet
from repro.flows.traffic import CbrSource
from repro.mac.fluid import FluidMac
from repro.routing.link_state import link_state_routes
from repro.sim.kernel import Simulator
from repro.stack import NodeStack
from repro.topology.builders import chain_topology
from repro.topology.model import TopologyModel


def build_chain_stacks(num_nodes=3, capacity=5, capacity_pps=200.0):
    topology = chain_topology(num_nodes)
    routes = link_state_routes(topology)
    sim = Simulator(seed=2)
    mac = FluidMac(sim, TopologyModel(topology), capacity_pps=capacity_pps, round_interval=0.01)
    stacks = {}

    def lookup(neighbor, dest):
        return stacks[neighbor].buffer.has_free(dest)

    for node_id in topology.node_ids:
        buffer = PerDestinationBuffer(
            node_id,
            lambda dest, node_id=node_id: routes.next_hop(node_id, dest),
            OracleGate(lookup),
            per_dest_capacity=capacity,
        )
        stacks[node_id] = NodeStack(sim, node_id, buffer, mac)
        stacks[node_id].attach()
    mac.start()
    return sim, mac, stacks


def test_end_to_end_forwarding_and_delivery():
    sim, mac, stacks = build_chain_stacks()
    flow = Flow(flow_id=1, source=0, destination=2, desired_rate=100.0)
    source = CbrSource(sim, flow, stacks[0].admit_local)
    source.start()
    sim.run(until=5.0)
    delivered = stacks[2].delivered.get(1, 0)
    assert delivered == pytest.approx(500, rel=0.05)
    # Arrivals recorded per (upstream, dest) at each hop.
    assert stacks[1].arrivals[(0, 2)] >= delivered
    assert stacks[2].arrivals[(1, 2)] == delivered
    assert stacks[1].forwards[(2, 2)] >= delivered


def test_backpressure_prevents_drops():
    sim, mac, stacks = build_chain_stacks(capacity=3, capacity_pps=50.0)
    flow = Flow(flow_id=1, source=0, destination=2, desired_rate=400.0)
    source = CbrSource(sim, flow, stacks[0].admit_local)
    source.start()
    sim.run(until=5.0)
    # Every queue respects its capacity (fluid oracle gate is exact).
    for stack in stacks.values():
        assert stack.buffer.overshoot == 0
        assert stack.buffer.drops == 0
    # The source was slowed down by refusals, not by losses.
    assert source.rejected > 0
    delivered = stacks[2].delivered.get(1, 0)
    # The chain's two links contend (one clique of capacity 50 pps),
    # so the end-to-end rate is ~25 pps.
    assert delivered == pytest.approx(125, rel=0.1)


def test_delivery_stamps_packet():
    sim, mac, stacks = build_chain_stacks()
    packet = Packet(flow_id=1, source=0, destination=2, size_bytes=10, created_at=0.0)
    stacks[0].admit_local(packet)
    sim.run(until=1.0)
    assert packet.delivered_at is not None
    assert packet.delay > 0


def test_admit_local_validates_source():
    sim, mac, stacks = build_chain_stacks()
    foreign = Packet(flow_id=1, source=1, destination=2, size_bytes=10, created_at=0.0)
    with pytest.raises(ProtocolError):
        stacks[0].admit_local(foreign)


def test_observer_hooks_called():
    events = []

    class Recorder:
        def on_forward(self, node_id, packet, next_hop):
            events.append(("fwd", node_id, next_hop))

        def on_receive(self, node_id, packet, from_node):
            events.append(("rcv", node_id, from_node))

    sim, mac, stacks = build_chain_stacks()
    for stack in stacks.values():
        stack.observer = Recorder()
    packet = Packet(flow_id=1, source=0, destination=2, size_bytes=10, created_at=0.0)
    stacks[0].admit_local(packet)
    sim.run(until=1.0)
    assert ("fwd", 0, 1) in events
    assert ("rcv", 1, 0) in events
    assert ("fwd", 1, 2) in events
    assert ("rcv", 2, 1) in events


def test_shared_fifo_stack_drops_on_overload():
    topology = chain_topology(3)
    routes = link_state_routes(topology)
    sim = Simulator(seed=2)
    mac = FluidMac(sim, TopologyModel(topology), capacity_pps=50.0, round_interval=0.01)
    stacks = {}
    for node_id in topology.node_ids:
        buffer = SharedFifoBuffer(
            node_id,
            lambda dest, node_id=node_id: routes.next_hop(node_id, dest),
            capacity=5,
        )
        stacks[node_id] = NodeStack(sim, node_id, buffer, mac)
        stacks[node_id].attach()
    mac.start()
    flow = Flow(flow_id=1, source=0, destination=2, desired_rate=400.0)
    relay_flow = Flow(flow_id=2, source=1, destination=2, desired_rate=400.0)
    CbrSource(sim, flow, stacks[0].admit_local).start()
    CbrSource(sim, relay_flow, stacks[1].admit_local).start()
    sim.run(until=5.0)
    # Forwarded arrivals at node 1 overwrite under overload.
    assert stacks[1].buffer.drops > 0

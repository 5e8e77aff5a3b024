"""One topology's clique-capacity model, built once and shared.

The paper's capacity model (§3.3) is a fixed artifact of a static
topology: the contention graph, its maximal cliques (ids by smallest
node and sequence number), and the answer to "which cliques contain
this link?".  The fluid MAC, GMP's bandwidth-saturated condition, the
2PP baseline and the maxmin reference all read the same artifact, so a
run builds one :class:`TopologyModel` and hands it to each of them.

Every part is built lazily on first access and kept: a run that never
asks for cliques (packet-level DCF with plain 802.11) never enumerates
them.  Consumers share the very same objects, so they must treat them
as read-only.
"""

from __future__ import annotations

from functools import cached_property

from repro.topology.cliques import Clique, clique_index_positions, maximal_cliques
from repro.topology.contention import ContentionGraph
from repro.topology.network import Link, Topology


class TopologyModel:
    """The contention graph, maximal cliques and link→clique index of
    one topology.

    Attributes:
        topology: the wireless network the model describes.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    @cached_property
    def contention(self) -> ContentionGraph:
        """Contention graph over all of the topology's links."""
        return ContentionGraph(self.topology)

    @cached_property
    def cliques(self) -> list[Clique]:
        """Maximal contention cliques, in id order."""
        return maximal_cliques(self.contention)

    @cached_property
    def memberships(self) -> dict[Link, tuple[int, ...]]:
        """Positions in :attr:`cliques` of the cliques containing each
        *directed* link, ascending (so in clique order).

        Both directions of every member link are keys, so hot paths
        look a directed link up without canonicalizing it; a link in
        no clique is absent (``get(link, ())``).  Entry for entry this
        equals ``tuple(i for i, c in enumerate(cliques) if link in c)``.
        """
        positions = clique_index_positions(self.cliques)
        directed = dict(positions)
        for (i, j), members in positions.items():
            directed[(j, i)] = members
        return directed

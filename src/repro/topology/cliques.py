"""Maximal contention cliques.

"A set of mutually contending wireless links forms a contention
clique.  A proper clique is a clique that is not contained by a larger
clique." (paper §3.3).  Whenever the paper — and this library — says
*clique*, a maximal clique of the contention graph is meant.

Cliques are enumerated with Bron–Kerbosch with pivoting (implemented
here rather than via networkx so the substrate is self-contained; the
test-suite cross-validates against ``networkx.find_cliques``).

Each clique receives the paper's system-wide identifier: the smallest
node id appearing in the clique plus a sequence number (paper §6.3).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.topology.contention import ContentionGraph
from repro.topology.network import Link


@dataclass(frozen=True)
class Clique:
    """A maximal set of mutually contending links.

    Attributes:
        clique_id: ``(smallest node id in the clique, sequence number)``.
        links: canonical undirected links, as a frozenset.
    """

    clique_id: tuple[int, int]
    links: frozenset[Link]

    def __contains__(self, a_link: Link) -> bool:
        i, j = a_link
        canon = (i, j) if i <= j else (j, i)
        return canon in self.links

    def sorted_links(self) -> list[Link]:
        """Member links in deterministic order."""
        return sorted(self.links)

    def nodes(self) -> frozenset[int]:
        """All node ids touched by member links."""
        return frozenset(node for a_link in self.links for node in a_link)


def _bron_kerbosch(
    adjacency: list[int],
    r: int,
    p: int,
    x: int,
    out: list[int],
) -> None:
    """Bron–Kerbosch with pivoting over bitmask vertex sets.

    Vertex sets are arbitrary-precision integers (bit ``v`` set ⇔
    vertex ``v`` present), so intersections and unions are single
    CPython big-int operations instead of per-element hash-set work —
    the difference between minutes and seconds on city-scale
    contention graphs.  On top of Tomita-style pivoting (branch only
    on ``p - N(pivot)``), the single scan that selects the pivot also
    applies two exact reductions that collapse the dense disc-shaped
    neighborhoods geometric contention graphs are made of:

    * **domination prune** — an excluded vertex adjacent to *all* of
      ``p`` would extend any clique this subtree could report, so
      nothing here is maximal and the node dies without branching;
    * **forced absorption** — a candidate adjacent to all *other*
      candidates belongs to every maximal clique of the subproblem
      (any clique missing it could be extended by it), so it moves
      straight into ``r`` without a branch, and the scan restarts on
      the reduced problem.

    The enumerated *set* of maximal cliques is an invariant of the
    graph, so callers that sort the output are unaffected by visit
    order; equivalence with the historical all-at-once set-based
    enumeration is pinned by the spatial property tests.
    """
    while True:
        if not p:
            if not x:
                out.append(r)
            return
        p_size = p.bit_count()
        best = -1
        pivot_adjacency = 0
        excluded = x
        while excluded:
            bit = excluded & -excluded
            excluded ^= bit
            candidate = adjacency[bit.bit_length() - 1]
            count = (candidate & p).bit_count()
            if count == p_size:
                return
            if count > best:
                best = count
                pivot_adjacency = candidate
        forced = 0
        candidates = p
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            candidate = adjacency[bit.bit_length() - 1]
            count = (candidate & p).bit_count()
            if count == p_size - 1:
                forced |= bit
            elif count > best:
                best = count
                pivot_adjacency = candidate
        if not forced:
            break
        r |= forced
        p &= ~forced
        while forced:
            bit = forced & -forced
            forced ^= bit
            x &= adjacency[bit.bit_length() - 1]
    extension = p & ~pivot_adjacency
    while extension:
        bit = extension & -extension
        extension ^= bit
        neighbors = adjacency[bit.bit_length() - 1]
        _bron_kerbosch(adjacency, r | bit, p & neighbors, x & neighbors, out)
        p &= ~bit
        x |= bit


def _components(adjacency: list[int]) -> list[int]:
    """Connected components of the contention graph as bitmasks,
    ordered by smallest member."""
    unvisited = (1 << len(adjacency)) - 1
    components: list[int] = []
    while unvisited:
        start = unvisited & -unvisited
        component = start
        frontier = start
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            fresh = adjacency[bit.bit_length() - 1] & unvisited & ~component
            component |= fresh
            frontier |= fresh
        unvisited &= ~component
        components.append(component)
    return components


def _bit_positions(mask: int, num_bytes: int) -> tuple[int, ...]:
    """Set-bit positions of ``mask``, ascending (vectorized — cliques
    in dense city-scale contention graphs run to ~100 members)."""
    packed = np.frombuffer(mask.to_bytes(num_bytes, "little"), np.uint8)
    return tuple(
        np.flatnonzero(np.unpackbits(packed, bitorder="little")).tolist()
    )


def maximal_cliques(graph: ContentionGraph) -> list[Clique]:
    """All proper (maximal) contention cliques of ``graph``.

    Isolated links (no contenders) form singleton cliques, matching
    the definition: a lone link still shares the channel with itself.

    Bron–Kerbosch runs per connected component of the contention
    graph, over bitmask vertex sets (links mapped to bit positions in
    sorted-link order — see :func:`_bron_kerbosch`); a clique can
    never span components, so the union of per-component enumerations
    is exactly the global enumeration.  The enumerated set of maximal
    cliques is a graph invariant, and the global sort below fixes the
    numbering, so ids are bit-identical to the historical
    all-at-once set-based run.

    Results are deterministic: cliques are sorted by their link sets
    and numbered in that order.
    """
    links = graph.links
    adjacency = graph.contender_masks()
    raw_masks: list[int] = []
    for component in _components(adjacency):
        _bron_kerbosch(adjacency, 0, component, 0, raw_masks)
    # Bit positions follow sorted-link order, so ascending-bit
    # extraction yields each clique's links already sorted, and
    # sorting the position tuples equals sorting by link sets.  The
    # owner (smallest node id) is the first endpoint of the first
    # link: links are canonical (i < j) and sorted by (i, j).
    num_bytes = (len(links) + 7) // 8
    raw = sorted(_bit_positions(members, num_bytes) for members in raw_masks)

    sequence_by_owner: dict[int, int] = {}
    cliques: list[Clique] = []
    for key in raw:
        owner = links[key[0]][0]
        sequence = sequence_by_owner.get(owner, 0)
        sequence_by_owner[owner] = sequence + 1
        members = frozenset(links[index] for index in key)
        cliques.append(Clique(clique_id=(owner, sequence), links=members))
    return cliques


def clique_index_positions(cliques: list[Clique]) -> dict[Link, tuple[int, ...]]:
    """Map each canonical link to the *positions* (indices into
    ``cliques``) of the cliques containing it, ascending.

    This is the one link→clique index: the water-filling solvers, the
    maxmin reference, 2PP and :class:`~repro.topology.model.TopologyModel`
    all read it.  Looking a link up here (after canonicalizing) yields
    exactly the tuple that scanning ``enumerate(cliques)`` with
    ``a_link in clique`` would, without the per-link O(cliques) rescan.
    """
    positions: dict[Link, list[int]] = defaultdict(list)
    for index, clique in enumerate(cliques):
        for member in clique.sorted_links():
            positions[member].append(index)
    return {a_link: tuple(ids) for a_link, ids in positions.items()}

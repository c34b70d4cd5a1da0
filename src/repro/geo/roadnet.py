"""Road-network generation over a synthetic county.

The sampling frame in the paper is "all roadways" in the two study
counties.  We synthesize a road network per county on a jittered
lattice:

* a sparse arterial grid of multilane roads through urban/commercial
  zones,
* a denser lattice of local single-lane roads,
* rural connector roads meandering between zone centers.

Each edge carries a ``RoadClass`` that the scene generator uses to
decide lane count, shoulder type, and roadside furniture.  The result
is a frozen :class:`RoadNetwork`: the county name and the edge list of
the lattice's largest connected component, sorted once by
``(start, end)``.  The sampling frame reads nothing else, so that sort
is the frame's order.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .coordinates import LatLon
from .county import County, ZoneKind


class RoadClass(enum.Enum):
    """Functional classification of a road edge."""

    LOCAL = "local"  # single-lane residential / rural road
    COLLECTOR = "collector"  # mixed; usually single-lane per direction
    ARTERIAL = "arterial"  # multilane road

    @property
    def is_multilane(self) -> bool:
        return self is RoadClass.ARTERIAL


@dataclass(frozen=True)
class RoadEdge:
    """One edge of the road network with its classification."""

    start: LatLon
    end: LatLon
    road_class: RoadClass

    @property
    def length_m(self) -> float:
        return self.start.distance_m(self.end)

    @property
    def bearing(self) -> float:
        return self.start.bearing_to(self.end)


#: Probability that a lattice edge is kept, per zone kind.  Urban areas
#: have denser street grids than rural ones.
_KEEP_PROBABILITY = {
    ZoneKind.RURAL: 0.35,
    ZoneKind.SUBURBAN: 0.60,
    ZoneKind.URBAN: 0.85,
    ZoneKind.COMMERCIAL: 0.80,
}

#: Probability that a kept edge is an arterial, per zone kind.
_ARTERIAL_PROBABILITY = {
    ZoneKind.RURAL: 0.14,
    ZoneKind.SUBURBAN: 0.44,
    ZoneKind.URBAN: 0.74,
    ZoneKind.COMMERCIAL: 0.90,
}


@dataclass(frozen=True)
class RoadNetwork:
    """A county's generated road network, frozen.

    ``edges`` is every road of the largest connected component, each
    with its endpoints normalized (lexicographically smaller endpoint
    first), sorted by ``(start, end)``.
    """

    county: str
    edges: tuple[RoadEdge, ...]


def largest_component(
    n_nodes: int, links: Iterable[tuple[int, int]]
) -> frozenset[int]:
    """The node indices of the largest connected component.

    Union-find over ``0 .. n_nodes - 1`` joined by ``links``.  Among
    components of equal size the one holding the lowest node index
    wins: the pick of ``max(components, key=len)`` over components
    listed in order of their lowest node.
    """
    parent = list(range(n_nodes))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for a, b in links:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            # The lower index stays the root, so a root is its
            # component's lowest node.
            parent[max(root_a, root_b)] = min(root_a, root_b)
    roots = [find(node) for node in range(n_nodes)]
    sizes: dict[int, int] = {}
    for root in roots:
        sizes[root] = sizes.get(root, 0) + 1
    best = min(sizes, key=lambda root: (-sizes[root], root))
    return frozenset(node for node, root in enumerate(roots) if root == best)


def build_road_network(
    county: County,
    lattice_rows: int = 14,
    lattice_cols: int = 14,
    seed: int = 0,
) -> RoadNetwork:
    """Generate the road network for ``county``.

    The network is built on a jittered lattice clipped to the county
    extent.  Edge retention and classification follow the land-use zone
    at the edge midpoint, then the largest connected component is kept
    so every road is reachable (GSV coverage follows drivable roads).
    """
    if lattice_rows < 2 or lattice_cols < 2:
        raise ValueError("lattice must be at least 2x2")
    rng = np.random.default_rng(seed)
    lat_step = (county.north - county.south) / (lattice_rows - 1)
    lon_step = (county.east - county.west) / (lattice_cols - 1)

    # Jittered lattice nodes, row by row: regular spacing with a
    # bounded random displacement so roads are not perfectly
    # rectilinear.  Node ``i * lattice_cols + j`` sits at row i, col j.
    nodes: list[LatLon] = []
    for i in range(lattice_rows):
        for j in range(lattice_cols):
            jlat = float(rng.uniform(-0.22, 0.22)) * lat_step
            jlon = float(rng.uniform(-0.22, 0.22)) * lon_step
            nodes.append(
                LatLon(
                    county.south + i * lat_step + jlat,
                    county.west + j * lon_step + jlon,
                )
            )

    kept: list[tuple[int, int, RoadClass]] = []

    def consider(a: int, b: int) -> None:
        pa, pb = nodes[a], nodes[b]
        zone = county.zone_at(pa.toward(pb, 0.5))
        if rng.random() > _KEEP_PROBABILITY[zone.kind]:
            return
        if rng.random() < _ARTERIAL_PROBABILITY[zone.kind]:
            road_class = RoadClass.ARTERIAL
        elif rng.random() < 0.5:
            road_class = RoadClass.COLLECTOR
        else:
            road_class = RoadClass.LOCAL
        kept.append((a, b, road_class))

    for i in range(lattice_rows):
        for j in range(lattice_cols):
            node = i * lattice_cols + j
            if j + 1 < lattice_cols:
                consider(node, node + 1)
            if i + 1 < lattice_rows:
                consider(node, node + lattice_cols)

    # Keep the largest connected component; prune isolated stubs.
    if not kept:
        raise RuntimeError(
            f"road network generation for {county.name!r} produced no "
            "edges; increase lattice density or keep probabilities"
        )
    largest = largest_component(len(nodes), ((a, b) for a, b, _ in kept))
    edges = [
        RoadEdge(*sorted((nodes[a], nodes[b])), road_class)
        for a, b, road_class in kept
        if a in largest
    ]
    edges.sort(key=lambda e: (e.start, e.end))
    return RoadNetwork(county=county.name, edges=tuple(edges))


def iter_edges(network: RoadNetwork) -> list[RoadEdge]:
    """The network's edges as ``RoadEdge`` records, in frame order.

    Edge direction is normalized (lexicographically smaller endpoint
    first) and edges are sorted by ``(start, end)``, so iteration order
    is deterministic across runs.
    """
    return list(network.edges)

"""Roadway segmentation and street-view sampling frame.

Reproduces the paper's data-collection protocol (Section IV-A):

    "We randomly selected 1,200 images from the locations where we
    segment all roadways with an interval of 50 feet across two
    counties ... We obtained the coordinates for each location and
    request images ... from all four directions."

``build_sampling_frame`` indexes every 50-foot sample point on a
county's road network without building them; ``select_survey_locations``
draws the random subset of locations and builds only those; each
selected location expands into four ``CaptureRequest`` records (one per
cardinal heading).
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import overload

import numpy as np

from .coordinates import (
    CARDINAL_HEADINGS,
    SEGMENT_INTERVAL_M,
    LatLon,
    SegmentedEdge,
)
from .county import County, ZoneKind
from .roadnet import RoadClass, RoadNetwork, build_road_network


@dataclass(frozen=True)
class SamplePoint:
    """One 50-foot roadway sample point and its local context."""

    location: LatLon
    county: str
    zone_kind: ZoneKind
    road_class: RoadClass
    road_bearing: float


@dataclass(frozen=True)
class CaptureRequest:
    """A single street-view image request (location + heading)."""

    point: SamplePoint
    heading: int

    @property
    def location(self) -> LatLon:
        return self.point.location


class SamplingFrame(Sequence[SamplePoint]):
    """A county's 50-foot sampling frame, built one point at a time.

    Holds one record per road edge (its :class:`SegmentedEdge`, class,
    bearing and the frame index of its first point), so building it
    costs O(edges) and ``len`` is O(1).  ``frame[i]`` bisects to the
    edge, places the one point with :meth:`SegmentedEdge.point` and
    zones it; slicing and iteration materialize only what they visit.
    The points are exactly those of segmenting every edge with
    :func:`segment_points`, in the network's edge order (sorted by
    ``(start, end)``, see :func:`~repro.geo.roadnet.iter_edges`).
    """

    __slots__ = ("_county", "_edges", "_classes", "_bearings", "_starts", "_len")

    def __init__(
        self,
        county: County,
        network: RoadNetwork,
        interval_m: float = SEGMENT_INTERVAL_M,
    ) -> None:
        edges = network.edges
        self._county = county
        self._edges = tuple(
            SegmentedEdge(edge.start, edge.end, interval_m) for edge in edges
        )
        self._classes = tuple(edge.road_class for edge in edges)
        self._bearings = tuple(edge.bearing for edge in edges)
        starts = tuple(accumulate((e.count for e in self._edges), initial=0))
        self._starts = starts[:-1]
        self._len = starts[-1]

    def __len__(self) -> int:
        return self._len

    @overload
    def __getitem__(self, index: int) -> SamplePoint: ...

    @overload
    def __getitem__(self, index: slice) -> list[SamplePoint]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._len))]
        index = operator.index(index)
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("sampling frame index out of range")
        k = bisect_right(self._starts, index) - 1
        return self._point(k, index - self._starts[k])

    def __iter__(self) -> Iterator[SamplePoint]:
        for k, edge in enumerate(self._edges):
            for j in range(edge.count):
                yield self._point(k, j)

    def _point(self, k: int, j: int) -> SamplePoint:
        location = self._edges[k].point(j)
        return SamplePoint(
            location=location,
            county=self._county.name,
            zone_kind=self._county.zone_at(location).kind,
            road_class=self._classes[k],
            road_bearing=self._bearings[k],
        )


def build_sampling_frame(
    county: County,
    network: RoadNetwork,
    interval_m: float = SEGMENT_INTERVAL_M,
) -> SamplingFrame:
    """Segment every road edge of ``network`` at ``interval_m``.

    Returns the full deterministic sampling frame for the county as a
    lazy, immutable sequence (see :class:`SamplingFrame`).
    """
    return SamplingFrame(county, network, interval_m)


def select_survey_locations(
    frames: Mapping[str, Sequence[SamplePoint]],
    n_locations: int,
    seed: int = 0,
) -> list[SamplePoint]:
    """Randomly select survey locations across counties.

    Locations are drawn without replacement, proportionally to each
    county's share of the combined sampling frame, mirroring a uniform
    draw over the pooled frame.  Raises ``ValueError`` if the pooled
    frame is smaller than ``n_locations``.

    The draw is over the summed frame lengths in sorted-county order,
    so only the chosen points are ever built.
    """
    ordered = [frames[name] for name in sorted(frames)]
    starts = list(accumulate((len(frame) for frame in ordered), initial=0))
    total = starts.pop()
    if n_locations > total:
        raise ValueError(
            f"requested {n_locations} locations but the sampling frame "
            f"only has {total} points"
        )
    rng = np.random.default_rng(seed)
    indices = rng.choice(total, size=n_locations, replace=False)
    chosen = []
    for index in sorted(int(i) for i in indices):
        k = bisect_right(starts, index) - 1
        chosen.append(ordered[k][index - starts[k]])
    return chosen


def require_distinct_counties(counties: Iterable[County]) -> None:
    """Raise ``ValueError`` if two counties share a name.

    Sampling frames are keyed by county name, so a repeated name would
    silently drop every county but the last one of that name.
    """
    seen: set[str] = set()
    for county in counties:
        if county.name in seen:
            raise ValueError(f"duplicate county name: {county.name!r}")
        seen.add(county.name)


def plan_survey_points(
    counties: list[County],
    n_locations: int,
    seed: int = 0,
) -> list[SamplePoint]:
    """Plan a deterministic survey frame across one or many counties.

    This is the single sampling entry point shared by the survey
    engine and multi-county callers: each county's road network is
    built from ``seed + 17`` and the pooled draw uses ``seed + 23``,
    exactly matching the historical single-county path — so a
    one-county plan is byte-identical to what ``decoder.survey``
    samples, and a multi-county plan is the natural generalization
    (pooled proportional draw over the combined frame).

    Returns an empty list when every county yields an empty frame;
    raises ``ValueError`` when two counties share a name or (from
    :func:`select_survey_locations`) when the pooled frame is smaller
    than ``n_locations``.
    """
    require_distinct_counties(counties)
    frames: dict[str, Sequence[SamplePoint]] = {}
    for county in counties:
        network = build_road_network(county, seed=seed + 17)
        frames[county.name] = build_sampling_frame(county, network)
    if not any(frames.values()):
        return []
    return select_survey_locations(frames, n_locations, seed=seed + 23)


def expand_to_captures(
    points: list[SamplePoint],
    headings: tuple[int, ...] = CARDINAL_HEADINGS,
) -> list[CaptureRequest]:
    """Expand survey locations into per-heading capture requests."""
    return [
        CaptureRequest(point=point, heading=heading)
        for point in points
        for heading in headings
    ]

"""Geographic coordinate primitives for the sampling frame.

The paper samples Google Street View locations by segmenting every
roadway in two North Carolina counties at 50-foot intervals and
requesting imagery for the four cardinal headings at each point.  This
module provides the small amount of geodesy needed to do that on a
synthetic county: a ``LatLon`` value type, distance/bearing math on a
local flat-earth approximation (counties are ~30 miles across, so the
approximation error is far below the 50-foot segment length), and the
cardinal heading set used throughout the reproduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Mean earth radius in meters (IUGG value).
EARTH_RADIUS_M = 6_371_008.8

#: One US survey foot in meters.
FOOT_M = 0.3048

#: Sampling interval used by the paper: 50 feet, expressed in meters.
SEGMENT_INTERVAL_M = 50 * FOOT_M

#: The four cardinal headings requested per location (degrees clockwise
#: from north), matching the paper's ``0 = north, 90 = east, 180 =
#: south, 270 = west`` convention.
CARDINAL_HEADINGS = (0, 90, 180, 270)


def normalize_heading(heading_deg: float) -> float:
    """Fold an arbitrary heading into the ``[0, 360)`` range."""
    folded = math.fmod(heading_deg, 360.0)
    if folded < 0:
        folded += 360.0
    if folded >= 360.0:  # tiny negative inputs round up to exactly 360
        folded = 0.0
    return folded


@dataclass(frozen=True, order=True)
class LatLon:
    """A WGS-84 style latitude/longitude pair in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")

    def offset(self, north_m: float, east_m: float) -> "LatLon":
        """Return the point displaced by the given local offsets.

        Uses the equirectangular (flat-earth) approximation around
        ``self``; accurate to millimeters at county scale.
        """
        dlat = math.degrees(north_m / EARTH_RADIUS_M)
        dlon = math.degrees(
            east_m / (EARTH_RADIUS_M * math.cos(math.radians(self.lat)))
        )
        return LatLon(self.lat + dlat, self.lon + dlon)

    def distance_m(self, other: "LatLon") -> float:
        """Great-circle distance to ``other`` in meters (haversine)."""
        phi1 = math.radians(self.lat)
        phi2 = math.radians(other.lat)
        dphi = phi2 - phi1
        dlmb = math.radians(other.lon - self.lon)
        a = (
            math.sin(dphi / 2) ** 2
            + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2) ** 2
        )
        return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))

    def bearing_to(self, other: "LatLon") -> float:
        """Initial bearing from ``self`` to ``other`` in degrees."""
        phi1 = math.radians(self.lat)
        phi2 = math.radians(other.lat)
        dlmb = math.radians(other.lon - self.lon)
        y = math.sin(dlmb) * math.cos(phi2)
        x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(
            phi2
        ) * math.cos(dlmb)
        return normalize_heading(math.degrees(math.atan2(y, x)))

    def toward(self, other: "LatLon", fraction: float) -> "LatLon":
        """Linearly interpolate toward ``other`` (fraction in [0, 1])."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")
        return LatLon(
            self.lat + (other.lat - self.lat) * fraction,
            self.lon + (other.lon - self.lon) * fraction,
        )


class SegmentedEdge:
    """The fixed-interval sample points of one ``start``→``end`` edge.

    The one statement of the paper's "segment all roadways with an
    interval of 50 feet" formula: ``count`` points, the ``index``-th at
    ``index * interval_m`` along the edge, ``start`` alone for a
    zero-length edge.  :func:`segment_points` lists them all; the lazy
    sampling frame builds one at a time with :meth:`point`.
    """

    __slots__ = ("start", "end", "interval_m", "length_m", "count")

    def __init__(
        self, start: LatLon, end: LatLon, interval_m: float = SEGMENT_INTERVAL_M
    ) -> None:
        if interval_m <= 0:
            raise ValueError(f"interval must be positive: {interval_m}")
        self.start = start
        self.end = end
        self.interval_m = interval_m
        self.length_m = start.distance_m(end)
        self.count = max(1, int(self.length_m // interval_m))

    def point(self, index: int) -> LatLon:
        """The ``index``-th sample point, ``0 <= index < count``."""
        if self.length_m == 0.0:
            return self.start
        return self.start.toward(
            self.end, index * self.interval_m / self.length_m
        )


def segment_points(
    start: LatLon, end: LatLon, interval_m: float = SEGMENT_INTERVAL_M
) -> list[LatLon]:
    """Segment the ``start``→``end`` road edge at a fixed interval.

    Returns the ordered sample points, always including ``start`` and
    never duplicating ``end`` (the next edge will contribute it).  This
    is the paper's "segment all roadways with an interval of 50 feet"
    operation.
    """
    edge = SegmentedEdge(start, end, interval_m)
    return [edge.point(i) for i in range(edge.count)]

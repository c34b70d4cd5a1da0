"""Geography substrate: counties, road networks, and the GSV sampling frame."""

from .coordinates import (
    CARDINAL_HEADINGS,
    EARTH_RADIUS_M,
    FOOT_M,
    SEGMENT_INTERVAL_M,
    LatLon,
    normalize_heading,
    segment_points,
)
from .county import (
    ZONE_PRIORS,
    County,
    Zone,
    ZoneKind,
    make_durham_like,
    make_robeson_like,
    study_counties,
)
from .roadnet import (
    RoadClass,
    RoadEdge,
    RoadNetwork,
    build_road_network,
    iter_edges,
)
from .sampling import (
    CaptureRequest,
    SamplePoint,
    SamplingFrame,
    build_sampling_frame,
    expand_to_captures,
    plan_survey_points,
    select_survey_locations,
)

__all__ = [
    "CARDINAL_HEADINGS",
    "EARTH_RADIUS_M",
    "FOOT_M",
    "SEGMENT_INTERVAL_M",
    "LatLon",
    "normalize_heading",
    "segment_points",
    "ZONE_PRIORS",
    "County",
    "Zone",
    "ZoneKind",
    "make_durham_like",
    "make_robeson_like",
    "study_counties",
    "RoadClass",
    "RoadEdge",
    "RoadNetwork",
    "build_road_network",
    "iter_edges",
    "CaptureRequest",
    "SamplePoint",
    "SamplingFrame",
    "build_sampling_frame",
    "expand_to_captures",
    "plan_survey_points",
    "select_survey_locations",
]

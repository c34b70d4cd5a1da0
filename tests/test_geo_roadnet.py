"""Tests for road-network generation and the sampling frame."""

import networkx as nx
import numpy as np
import pytest

from repro.geo import (
    CARDINAL_HEADINGS,
    County,
    RoadClass,
    SamplePoint,
    build_road_network,
    build_sampling_frame,
    expand_to_captures,
    frame_statistics,
    iter_edges,
    make_durham_like,
    make_robeson_like,
    multilane_fraction,
    plan_survey_points,
    segment_points,
    select_survey_locations,
    total_length_m,
)
from repro.gsv import build_survey_dataset


@pytest.fixture(scope="module")
def county():
    return make_robeson_like(seed=2)


@pytest.fixture(scope="module")
def graph(county):
    return build_road_network(county, seed=9)


class TestRoadNetwork:
    def test_connected(self, graph):
        assert nx.is_connected(graph)

    def test_has_edges_with_attributes(self, graph):
        for _, _, data in graph.edges(data=True):
            assert isinstance(data["road_class"], RoadClass)
            assert data["length_m"] > 0

    def test_deterministic(self, county):
        a = build_road_network(county, seed=4)
        b = build_road_network(county, seed=4)
        assert set(a.edges) == set(b.edges)

    def test_rejects_tiny_lattice(self, county):
        with pytest.raises(ValueError):
            build_road_network(county, lattice_rows=1, lattice_cols=5)

    def test_total_length_positive(self, graph):
        assert total_length_m(graph) > 100_000  # county-scale network

    def test_multilane_fraction_in_range(self, graph):
        assert 0.0 < multilane_fraction(graph) < 1.0

    def test_urban_county_has_more_multilane(self):
        rural = build_road_network(make_robeson_like(seed=2), seed=3)
        urban = build_road_network(make_durham_like(seed=2), seed=3)
        assert multilane_fraction(urban) > multilane_fraction(rural)

    def test_iter_edges_deterministic_order(self, graph):
        first = iter_edges(graph)
        second = iter_edges(graph)
        assert first == second


class TestSamplingFrame:
    def test_frame_covers_all_edges(self, county, graph):
        frame = build_sampling_frame(county, graph)
        # Every edge contributes at least one sample point.
        assert len(frame) >= graph.number_of_edges()

    def test_frame_statistics_fractions_sum(self, county, graph):
        frame = build_sampling_frame(county, graph)
        stats = frame_statistics(frame)
        zone_total = sum(
            value for key, value in stats.items() if key.startswith("zone_")
        )
        road_total = sum(
            value for key, value in stats.items() if key.startswith("road_")
        )
        assert zone_total == pytest.approx(1.0)
        assert road_total == pytest.approx(1.0)

    def test_empty_frame_statistics(self):
        assert frame_statistics([]) == {"n_points": 0}

    def test_select_is_deterministic(self, county, graph):
        frame = build_sampling_frame(county, graph)
        a = select_survey_locations({"X": frame}, 50, seed=1)
        b = select_survey_locations({"X": frame}, 50, seed=1)
        assert a == b

    def test_select_without_replacement(self, county, graph):
        frame = build_sampling_frame(county, graph)
        chosen = select_survey_locations({"X": frame}, 100, seed=1)
        assert len({p.location for p in chosen}) == len(chosen)

    def test_select_rejects_oversized_request(self, county, graph):
        frame = build_sampling_frame(county, graph)[:10]
        with pytest.raises(ValueError):
            select_survey_locations({"X": frame}, 11, seed=0)

    def test_expand_to_captures_four_headings(self, county, graph):
        frame = build_sampling_frame(county, graph)
        points = select_survey_locations({"X": frame}, 5, seed=0)
        captures = expand_to_captures(points)
        assert len(captures) == 20
        headings = {c.heading for c in captures}
        assert headings == set(CARDINAL_HEADINGS)


def eager_frame(county, graph):
    """Reference frame: every 50-ft point built and zoned up front."""
    return [
        SamplePoint(
            location=location,
            county=county.name,
            zone_kind=county.zone_at(location).kind,
            road_class=edge.road_class,
            road_bearing=edge.bearing,
        )
        for edge in iter_edges(graph)
        for location in segment_points(edge.start, edge.end)
    ]


def eager_pool(counties, seed):
    """Reference pooled frame of a plan, in sorted-county order."""
    frames = {
        county.name: eager_frame(
            county, build_road_network(county, seed=seed + 17)
        )
        for county in counties
    }
    return [point for name in sorted(frames) for point in frames[name]]


def eager_draw(pooled, n_locations, seed):
    """Reference draw: one ``rng.choice`` over the pooled list."""
    rng = np.random.default_rng(seed + 23)
    indices = rng.choice(len(pooled), size=n_locations, replace=False)
    return [pooled[int(i)] for i in sorted(indices)]


PIN_COUNTIES = [(make_robeson_like, 2), (make_durham_like, 3)]


class TestLazyFrameIdentity:
    """The lazy frame and draw equal the eager reference, point for point."""

    @pytest.mark.parametrize("make, county_seed", PIN_COUNTIES)
    def test_frame_equals_eager(self, make, county_seed):
        county = make(seed=county_seed)
        graph = build_road_network(county, seed=9)
        frame = build_sampling_frame(county, graph)
        eager = eager_frame(county, graph)
        assert len(frame) == len(eager)
        assert list(frame) == eager
        assert frame[-1] == eager[-1]
        assert frame[-len(eager)] == eager[0]
        assert frame[:10] == eager[:10]
        assert frame[5:200:7] == eager[5:200:7]
        assert frame[len(eager) - 3 :] == eager[len(eager) - 3 :]
        for index in (len(eager), -len(eager) - 1):
            with pytest.raises(IndexError):
                frame[index]

    @pytest.mark.parametrize("make, county_seed", PIN_COUNTIES)
    @pytest.mark.parametrize("seed", [0, 5, 1000])
    def test_plan_equals_eager(self, make, county_seed, seed):
        county = make(seed=county_seed)
        pooled = eager_pool([county], seed)
        for n in (1, 8, 800):
            assert plan_survey_points([county], n, seed) == eager_draw(
                pooled, n, seed
            )

    def test_full_frame_plan_equals_eager(self):
        county = make_robeson_like(seed=2)
        pooled = eager_pool([county], 0)
        assert plan_survey_points([county], len(pooled), 0) == eager_draw(
            pooled, len(pooled), 0
        )

    def test_two_county_plan_equals_eager(self):
        counties = [make_durham_like(seed=3), make_robeson_like(seed=7)]
        plan = plan_survey_points(counties, 60, seed=4)
        assert plan == eager_draw(eager_pool(counties, 4), 60, 4)
        assert {point.county for point in plan} == {"Durham", "Robeson"}

    def test_plan_zones_only_the_drawn_points(self, monkeypatch):
        # O(edges + n): the road-network builder zones each candidate
        # lattice edge once (364 on the default 14x14 lattice) and the
        # plan zones only the n points it draws, never the ~46k-point
        # frame.
        calls = []
        zone_at = County.zone_at

        def counting_zone_at(self, point):
            calls.append(point)
            return zone_at(self, point)

        monkeypatch.setattr(County, "zone_at", counting_zone_at)
        points = plan_survey_points([make_durham_like(seed=3)], 8, 1)
        assert len(points) == 8
        assert len(calls) <= 8 + 2 * 14 * 13


class TestDuplicateCountyNames:
    def test_plan_rejects_duplicate_names(self):
        counties = [make_durham_like(seed=3), make_durham_like(seed=4)]
        with pytest.raises(ValueError, match="duplicate county name"):
            plan_survey_points(counties, 20, 1)

    def test_dataset_rejects_duplicate_names(self):
        counties = [make_robeson_like(seed=2), make_robeson_like(seed=5)]
        with pytest.raises(ValueError, match="duplicate county name"):
            build_survey_dataset(n_images=8, seed=0, counties=counties)

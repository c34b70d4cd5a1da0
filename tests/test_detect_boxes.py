"""Unit and property tests for box algebra (IoU, clipping, conversions)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.detect import (
    box_area,
    clip_boxes,
    cxcywh_to_xyxy,
    iou_matrix,
    xyxy_to_cxcywh,
)


@st.composite
def box_arrays(draw, max_boxes=8):
    n = draw(st.integers(1, max_boxes))
    out = []
    for _ in range(n):
        x0 = draw(st.floats(0.0, 0.8))
        y0 = draw(st.floats(0.0, 0.8))
        w = draw(st.floats(0.05, 0.2))
        h = draw(st.floats(0.05, 0.2))
        out.append([x0, y0, min(1.0, x0 + w), min(1.0, y0 + h)])
    return np.asarray(out)


class TestBoxBasics:
    def test_area(self):
        boxes = np.array([[0.0, 0.0, 0.5, 0.5], [0.1, 0.1, 0.2, 0.3]])
        assert box_area(boxes) == pytest.approx([0.25, 0.02])

    def test_iou_matrix_shape(self):
        a = np.zeros((3, 4)) + [0.1, 0.1, 0.2, 0.2]
        b = np.zeros((5, 4)) + [0.1, 0.1, 0.2, 0.2]
        assert iou_matrix(a, b).shape == (3, 5)

    def test_iou_matrix_empty(self):
        assert iou_matrix(np.zeros((0, 4)), np.zeros((2, 4))).shape == (0, 2)

    def test_round_trip_xyxy_cxcywh(self):
        boxes = np.array([[0.1, 0.2, 0.5, 0.8], [0.0, 0.0, 1.0, 1.0]])
        assert np.allclose(cxcywh_to_xyxy(xyxy_to_cxcywh(boxes)), boxes)

    def test_clip_boxes_bounds(self):
        boxes = np.array([[-0.2, 0.5, 1.4, 1.2]])
        clipped = clip_boxes(boxes)
        assert clipped[0, 0] >= 0.0
        assert clipped[0, 2] <= 1.0
        assert clipped[0, 2] > clipped[0, 0]

    @given(boxes=box_arrays())
    @settings(max_examples=60)
    def test_iou_diagonal_is_one(self, boxes):
        ious = iou_matrix(boxes, boxes)
        assert np.allclose(np.diag(ious), 1.0)

    @given(boxes=box_arrays())
    @settings(max_examples=60)
    def test_iou_matrix_symmetric(self, boxes):
        ious = iou_matrix(boxes, boxes)
        assert np.allclose(ious, ious.T)

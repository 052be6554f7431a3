"""Interval arithmetic: Boundary and iou."""

import pytest
from hypothesis import given, strategies as st

from morp.core import Boundary, ScoredBoundary, iou
from morp.errors import ContractViolation


def bounds(timeline=50):
    return st.integers(0, timeline - 1).flatmap(
        lambda s: st.integers(s + 1, timeline).map(
            lambda e: Boundary(s, e, timeline)))


class TestBoundary:
    def test_valid(self):
        b = Boundary(2, 7, 10)
        assert (b.start, b.end, b.timeline_len) == (2, 7, 10)

    @pytest.mark.parametrize("s,e,t", [
        (-1, 5, 10), (5, 5, 10), (7, 5, 10), (0, 11, 10), (10, 11, 10),
    ])
    def test_invalid(self, s, e, t):
        with pytest.raises(ContractViolation):
            Boundary(s, e, t)

    def test_non_integer_rejected(self):
        with pytest.raises(ContractViolation):
            Boundary(0.5, 5, 10)

    def test_scored_boundary_confidence_range(self):
        b = Boundary(0, 1, 4)
        ScoredBoundary(b, 0.0)
        ScoredBoundary(b, 1.0)
        with pytest.raises(ContractViolation):
            ScoredBoundary(b, 1.2)
        with pytest.raises(ContractViolation):
            ScoredBoundary(b, -0.1)


class TestIou:
    def test_identity(self):
        assert iou(Boundary(0, 10, 20), Boundary(0, 10, 20)) == 1.0

    def test_disjoint(self):
        assert iou(Boundary(0, 10, 20), Boundary(10, 20, 20)) == 0.0

    def test_partial(self):
        # intersection [5,10) = 5 frames, union [0,15) = 15 frames
        assert iou(Boundary(0, 10, 20), Boundary(5, 15, 20)) == pytest.approx(5 / 15)

    def test_timeline_mismatch(self):
        with pytest.raises(ContractViolation):
            iou(Boundary(0, 5, 10), Boundary(0, 5, 12))

    @given(bounds(), bounds())
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(bounds())
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == 1.0

    @given(bounds(), bounds())
    def test_zero_iff_disjoint(self, a, b):
        disjoint = a.end <= b.start or b.end <= a.start
        assert (iou(a, b) == 0.0) == disjoint


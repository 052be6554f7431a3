"""Temporal interval arithmetic on integer frame timelines.

All temporal math in this package runs on half-open integer frame
intervals ``[start, end)``.  Lengths, overlaps and IoU are frame counts;
conversion between seconds and frames happens at the I/O edges only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolation


@dataclass(frozen=True, order=True)
class Boundary:
    """Half-open frame interval ``[start, end)`` on a T-frame timeline."""

    start: int
    end: int
    timeline_len: int

    def __post_init__(self):
        if not (
            isinstance(self.start, int)
            and isinstance(self.end, int)
            and isinstance(self.timeline_len, int)
        ):
            raise ContractViolation(
                "boundary endpoints must be integers",
                start=self.start,
                end=self.end,
            )
        if not (0 <= self.start < self.end <= self.timeline_len):
            raise ContractViolation(
                "boundary must satisfy 0 <= start < end <= timeline_len",
                start=self.start,
                end=self.end,
                timeline_len=self.timeline_len,
            )

    @property
    def length(self) -> int:
        return self.end - self.start

    def as_tuple(self):
        return (self.start, self.end)


@dataclass(frozen=True)
class ScoredBoundary:
    """A boundary paired with a confidence in [0, 1]."""

    boundary: Boundary
    confidence: float

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise ContractViolation(
                "confidence must lie in [0, 1]", confidence=self.confidence
            )


def iou(a: Boundary, b: Boundary) -> float:
    """Intersection-over-union of two boundaries, on frame counts.

    Returns 0 for disjoint intervals; symmetric in its arguments.
    Raises ContractViolation when the boundaries live on timelines of
    different lengths.
    """
    if a.timeline_len != b.timeline_len:
        raise ContractViolation(
            "IoU requires a shared timeline",
            a_timeline=a.timeline_len,
            b_timeline=b.timeline_len,
        )
    inter = min(a.end, b.end) - max(a.start, b.start)
    if inter <= 0:
        return 0.0
    union = a.length + b.length - inter
    return inter / union


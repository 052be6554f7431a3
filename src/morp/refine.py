"""Semantics-guided refinement: similarity tracks, contrastive scoring,
corpus cleaning and iterative boundary adjustment.

The per-frame relevance of a query to a video is the cosine similarity
between the query embedding and each frame embedding, affinely mapped to
[0, 1] (``(s + 1) / 2``) so that the contrastive ratio below stays
sign-stable.  A track holds only these mapped values and their prefix
sums.  The moment contrastive score of a boundary is the mapped mass
inside the boundary divided by the mass outside it; prefix sums make
each evaluation O(1).

:func:`compute_tracks` builds the tracks of a whole corpus a video at a
time: each feature file is read once and its frame norms are taken once,
and the tracks of all annotations whose video has T frames are rows of
one (annotations, T) block, clipped and mapped in place, so no raw
cosines are kept.  :func:`frame_similarities` is the single-query form
of the same arithmetic, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import Boundary
from .errors import ContractViolation
from .featstore import (
    CorpusManifest,
    FrameFeatureMatrix,
    QueryFeature,
    with_updated_boundary,
)

EPS_DENOM = 1e-8
GAMMA_CAP = 1e6


@dataclass(frozen=True)
class SimilarityTrack:
    """Per-frame query relevance: [0,1]-mapped cosines and their prefix sums."""

    mapped: np.ndarray
    prefix: np.ndarray

    @classmethod
    def from_raw(cls, raw) -> "SimilarityTrack":
        """The track of a vector of cosines in [-1, 1]."""
        raw = np.asarray(raw, dtype=np.float64)
        if raw.ndim != 1 or raw.size < 1:
            raise ContractViolation("similarity track must be a 1-D vector")
        mapped = (raw + 1.0) / 2.0
        prefix = np.concatenate(([0.0], np.cumsum(mapped)))
        return cls(mapped=mapped, prefix=prefix)

    @property
    def num_frames(self) -> int:
        return self.mapped.shape[0]

    def mass(self, start: int, end: int) -> float:
        """Sum of mapped values over [start, end)."""
        return float(self.prefix[end] - self.prefix[start])

    def window_mean(self, start: int, end: int) -> float:
        return self.mass(start, end) / (end - start)


def frame_similarities(query: QueryFeature, frames: FrameFeatureMatrix) -> SimilarityTrack:
    """Cosine similarity between a query and every frame of a video."""
    if query.dim != frames.dim:
        raise ContractViolation("query and frame dimensions differ",
                                query_dim=query.dim, frame_dim=frames.dim)
    q = query.data.astype(np.float64)
    v = frames.data.astype(np.float64)
    raw = (v @ q) / (np.linalg.norm(v, axis=1) * np.linalg.norm(q))
    return SimilarityTrack.from_raw(np.clip(raw, -1.0, 1.0))


def moment_contrast(track: SimilarityTrack, b: Boundary) -> float:
    """Mapped similarity mass inside the boundary over the mass outside it.

    Returns the cap 1e6 when the outside mass is below 1e-8 (full-span or
    zero-outside-mass boundaries).
    """
    if b.timeline_len != track.num_frames:
        raise ContractViolation("boundary timeline does not match track",
                                boundary=b.as_tuple(),
                                track_len=track.num_frames)
    inside = track.mass(b.start, b.end)
    outside = track.mass(0, track.num_frames) - inside
    if outside < EPS_DENOM:
        return GAMMA_CAP
    return inside / outside


@dataclass(frozen=True)
class CleanParams:
    """Fraction of lowest-scored annotations to drop."""

    ratio: float = 0.40

    def __post_init__(self):
        if not (0.0 <= self.ratio < 1.0):
            raise ContractViolation("cleaning ratio must lie in [0, 1)",
                                    ratio=self.ratio)


@dataclass(frozen=True)
class AdjustParams:
    """Step size and thresholds for iterative boundary adjustment."""

    delta: int = 5
    alpha1: float = 0.22
    alpha2: float = 0.92
    max_iters: int = 64
    min_len: Optional[int] = None

    def __post_init__(self):
        if self.min_len is None:
            object.__setattr__(self, "min_len", self.delta)
        if self.delta < 1:
            raise ContractViolation("delta must be >= 1", delta=self.delta)
        if not (0 < self.alpha1 < self.alpha2):
            raise ContractViolation("thresholds must satisfy 0 < alpha1 < alpha2",
                                    alpha1=self.alpha1, alpha2=self.alpha2)
        if self.max_iters < 1:
            raise ContractViolation("max_iters must be positive")
        if self.min_len < self.delta:
            raise ContractViolation("min_len must be >= delta",
                                    min_len=self.min_len, delta=self.delta)


def clean_corpus(scored_annotations, params: CleanParams):
    """Drop the floor(N * ratio) lowest-scored annotations.

    Input is a list of (annotation, gamma) pairs.  Ranking is by gamma
    descending with ties broken by annotation_id ascending, so results
    are stable across runs and platforms.  Returns (kept, dropped): the
    input annotation objects themselves, unchanged, in rank order.
    """
    items = list(scored_annotations)
    for _, g in items:
        if not math.isfinite(g):
            raise ContractViolation("non-finite gamma in cleaning input")
    order = [a for a, _ in sorted(items,
                                  key=lambda ag: (-ag[1], ag[0].annotation_id))]
    n_keep = len(order) - math.floor(len(order) * params.ratio)
    return order[:n_keep], order[n_keep:]


def adjust_boundary(track: SimilarityTrack, b: Boundary,
                    params: AdjustParams) -> Boundary:
    """Iteratively expand or shrink each boundary side in steps of delta.

    Per iteration and side, with mu the mean mapped similarity inside the
    current moment: the side expands outward by delta when the adjacent
    outside window is nearly as strong as the moment (mean >= alpha2*mu),
    otherwise it shrinks inward by delta when the adjacent inside window
    is very weak (mean < alpha1*mu) and the moment stays longer than
    min_len.  The start side is evaluated before the end side; iteration
    stops at a fixpoint or after max_iters rounds.
    """
    if b.timeline_len != track.num_frames:
        raise ContractViolation("boundary timeline does not match track")
    T = track.num_frames
    d = params.delta
    s, e = b.start, b.end

    for _ in range(params.max_iters):
        moved = False

        mu = track.window_mean(s, e)
        pre_lo = max(0, s - d)
        if pre_lo < s and track.window_mean(pre_lo, s) >= params.alpha2 * mu:
            s = max(0, s - d)
            moved = True
        elif e - s > params.min_len + d and \
                track.window_mean(s, s + d) < params.alpha1 * mu:
            s = s + d
            moved = True

        mu = track.window_mean(s, e)
        post_hi = min(T, e + d)
        if post_hi > e and track.window_mean(e, post_hi) >= params.alpha2 * mu:
            e = min(T, e + d)
            moved = True
        elif e - s > params.min_len + d and \
                track.window_mean(e - d, e) < params.alpha1 * mu:
            e = e - d
            moved = True

        if not moved:
            break

    return Boundary(s, e, T)


@dataclass(frozen=True)
class RefineRecord:
    annotation_id: str
    gamma: float
    decision: str  # "kept" or "dropped"
    boundary_before_frames: tuple
    boundary_after_frames: Optional[tuple]

    def to_json_obj(self):
        return {
            "annotation_id": self.annotation_id,
            "gamma": self.gamma,
            "decision": self.decision,
            "boundary_before_frames": list(self.boundary_before_frames),
            "boundary_after_frames": (list(self.boundary_after_frames)
                                      if self.boundary_after_frames else None),
        }


@dataclass
class RefineReport:
    records: list = field(default_factory=list)

    def to_json_obj(self):
        return {"annotations": [r.to_json_obj() for r in self.records]}


def compute_tracks(manifest: CorpusManifest):
    """Similarity track per annotation, keyed by annotation_id.

    Each video's frame count in the manifest is first checked against
    its feature file's header, before any block is allocated.  Videos
    are visited in sorted order and each feature file is read once: the
    float64 cast and the frame norms are computed once per
    video, then one matrix-vector product per annotation fills a row of
    the preallocated (annotations, T) block of its timeline length T.
    Each block is then clipped and mapped by ``(s + 1) / 2`` in place,
    its prefix sums go to one more block, and every returned track holds
    row views into these two; each track equals ``frame_similarities``
    for its query bit for bit.
    """
    queries = manifest.load_query_features()
    by_video = {}
    for ann in manifest.annotations:
        by_video.setdefault(ann.video_id, []).append(ann)
    counts = {}
    for video_id in sorted(by_video):
        # the blocks are sized from the headers' frame counts, so a
        # manifest cannot ask for more than the feature files hold
        T = manifest.video_frames(video_id)
        counts[T] = counts.get(T, 0) + len(by_video[video_id])
    mapped = {T: np.empty((n, T)) for T, n in counts.items()}
    rows = {}  # annotation_id -> (T, row)
    filled = dict.fromkeys(counts, 0)

    for video_id in sorted(by_video):
        frames = manifest.load_video_features(video_id)
        if queries.dim != frames.dim:
            raise ContractViolation("query and frame dimensions differ",
                                    query_dim=queries.dim,
                                    frame_dim=frames.dim)
        v = frames.data.astype(np.float64)
        v_norm = np.linalg.norm(v, axis=1)
        T = frames.num_frames
        block = mapped[T]
        for ann in by_video[video_id]:
            q = queries.data[ann.query_feature_ref].astype(np.float64)
            row = filled[T]
            np.divide(v @ q, v_norm * np.linalg.norm(q), out=block[row])
            rows[ann.annotation_id] = (T, row)
            filled[T] = row + 1

    prefix = {}
    for T, block in mapped.items():
        # in place, so that no block-sized temporary raises peak memory
        np.clip(block, -1.0, 1.0, out=block)
        block += 1.0
        block /= 2.0
        prefix[T] = p = np.empty((block.shape[0], T + 1))
        p[:, 0] = 0.0
        np.cumsum(block, axis=1, out=p[:, 1:])
    return {
        aid: SimilarityTrack(mapped=mapped[T][row], prefix=prefix[T][row])
        for aid, (T, row) in rows.items()
    }


def refine_corpus(manifest: CorpusManifest, clean_params: CleanParams,
                  adjust_params: AdjustParams,
                  tracks: Optional[dict] = None):
    """Score, clean, then adjust a raw corpus.

    Returns (refined_manifest, report).  The refined manifest keeps only
    surviving annotations, by id, each built once with status ``adjusted``
    and the adjusted boundary; the report records gamma, the keep/drop
    decision and the boundary delta for every input annotation, in
    manifest order.  ``tracks`` holds the similarity tracks of
    ``compute_tracks(manifest)`` when the caller has them already.
    """
    if tracks is None:
        tracks = compute_tracks(manifest)
    gammas = [moment_contrast(tracks[ann.annotation_id], ann.boundary_frames)
              for ann in manifest.annotations]
    kept, _ = clean_corpus(zip(manifest.annotations, gammas), clean_params)
    kept_ids = {ann.annotation_id for ann in kept}

    adjusted, records = [], []
    for ann, gamma in zip(manifest.annotations, gammas):
        after = None
        if ann.annotation_id in kept_ids:
            after = adjust_boundary(tracks[ann.annotation_id],
                                    ann.boundary_frames, adjust_params)
            adjusted.append(with_updated_boundary(
                ann, after, manifest.video_by_id(ann.video_id),
                status="adjusted"))
        records.append(RefineRecord(
            annotation_id=ann.annotation_id,
            gamma=gamma,
            decision="dropped" if after is None else "kept",
            boundary_before_frames=ann.boundary_frames.as_tuple(),
            boundary_after_frames=None if after is None else after.as_tuple(),
        ))

    adjusted.sort(key=lambda a: a.annotation_id)
    return (replace(manifest, annotations=tuple(adjusted)),
            RefineReport(records=records))

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
of the same arithmetic, bit for bit.  The pipeline and correction keep
these mapped blocks beside the per-length prefix blocks, because
proposals find their support runs in the mapped rows and gather their
prefix sums from the blocks by row; standalone refinement reads only
prefix sums, so it keeps nothing else: each track's cosines are written
where its prefix sums go and turned into them in place.

:func:`refine_corpus` scores and adjusts the annotation columns of a
manifest against these tracks: :func:`batch_contrast` and
:func:`batch_adjust` gather prefix sums from one flat array by index
and do the arithmetic of :func:`moment_contrast` and
:func:`adjust_boundary`, which stay the per-boundary reference, over
all boundaries of a corpus at once, whatever their timeline lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from .core import Boundary
from .errors import ContractViolation
from .featstore import (
    CorpusManifest,
    FrameFeatureMatrix,
    QueryFeature,
    atomic_write,
    json_objects,
    json_pair,
    json_text,
)

EPS_DENOM = 1e-8
GAMMA_CAP = 1e6
# the most bytes of one prefix block that one cumsum call reads
_CUMSUM_BYTES = 1 << 20


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


def check_delta(delta):
    """Raise ContractViolation unless 1 <= delta < 2**32: a feature
    header's frame count is a uint32, so no timeline is longer, and a
    boundary moved by delta stays inside int64."""
    if not 1 <= delta < 2 ** 32:
        raise ContractViolation("delta must lie in [1, 2**32)", delta=delta)


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
        check_delta(self.delta)
        if not (0 < self.alpha1 < self.alpha2):
            raise ContractViolation("thresholds must satisfy 0 < alpha1 < alpha2",
                                    alpha1=self.alpha1, alpha2=self.alpha2)
        if self.max_iters < 1:
            raise ContractViolation("max_iters must be positive")
        if self.min_len < self.delta:
            raise ContractViolation("min_len must be >= delta",
                                    min_len=self.min_len, delta=self.delta)


def clean_corpus(annotation_ids, gammas, params: CleanParams):
    """Split off the floor(N * ratio) lowest-scored annotations.

    ``gammas[i]`` scores ``annotation_ids[i]``.  Ranking is by gamma
    descending with ties broken by annotation_id ascending, in a Python
    sort, so results are stable across runs and platforms.  Returns
    (kept, dropped): row indices into the inputs, in rank order.
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    if not np.all(np.isfinite(gammas)):
        raise ContractViolation("non-finite gamma in cleaning input")
    # the row index decides only between equal ids, as a stable sort does
    order = [i for _, _, i in sorted(zip(
        (-gammas).tolist(), annotation_ids, range(len(gammas))))]
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


def batch_contrast(prefix: np.ndarray, base, T, start, end) -> np.ndarray:
    """:func:`moment_contrast` of each boundary ``[start[k], end[k])`` on
    the track of ``T[k]`` frames whose prefix sums are
    ``prefix[base[k]:base[k] + T[k] + 1]`` of a flat array."""
    inside = prefix[base + end] - prefix[base + start]
    outside = (prefix[base + T] - prefix[base]) - inside
    gamma = np.full(len(inside), GAMMA_CAP)
    np.divide(inside, outside, out=gamma, where=~(outside < EPS_DENOM))
    return gamma


def batch_adjust(prefix: np.ndarray, base, T, start, end,
                 params: AdjustParams):
    """:func:`adjust_boundary` of each boundary ``[start[k], end[k])`` on
    the track of ``T[k]`` frames whose prefix sums are
    ``prefix[base[k]:base[k] + T[k] + 1]`` of a flat array.

    Each round updates every boundary still moving with the scalar
    climb's arithmetic, in its order; a boundary leaves once a round
    moves neither side.  Window ends that the scalar climb would not
    evaluate are clipped to the timeline, and their results unused.
    Tracks of any timeline length share the rounds.  Returns the new
    (start, end) int64 arrays.
    """
    d, a1, a2 = params.delta, params.alpha1, params.alpha2
    min_span = params.min_len + d
    start = np.array(start, dtype=np.int64)
    end = np.array(end, dtype=np.int64)
    base, T = np.asarray(base), np.asarray(T)
    live = np.arange(len(start))
    for _ in range(params.max_iters):
        if not live.size:
            break
        b, t, s, e = base[live], T[live], start[live], end[live]
        at_s, at_e = prefix[b + s], prefix[b + e]

        mu = (at_e - at_s) / (e - s)
        lo = np.maximum(s - d, 0)
        grow = (lo < s) & ((at_s - prefix[b + lo])
                           / np.maximum(s - lo, 1) >= a2 * mu)
        shrink = ~grow & (e - s > min_span) & (
            (prefix[b + np.minimum(s + d, t)] - at_s) / d < a1 * mu)
        s = np.where(grow, lo, np.where(shrink, s + d, s))
        moved = grow | shrink

        at_s = prefix[b + s]
        mu = (at_e - at_s) / (e - s)
        hi = np.minimum(e + d, t)
        grow = (hi > e) & ((prefix[b + hi] - at_e)
                           / np.maximum(hi - e, 1) >= a2 * mu)
        shrink = ~grow & (e - s > min_span) & (
            (at_e - prefix[b + np.maximum(e - d, 0)]) / d < a1 * mu)
        e = np.where(grow, hi, np.where(shrink, e - d, e))
        moved |= grow | shrink

        start[live], end[live] = s, e
        live = live[moved]
    return start, end


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
    """Per input annotation, in manifest order, as columns: its gamma,
    whether cleaning kept it, and its frame boundary before and after
    adjustment (the after arrays hold the before boundary where it was
    dropped).  :attr:`records` builds the :class:`RefineRecord` view."""

    ids: list
    gamma: np.ndarray
    kept: np.ndarray
    before_start: np.ndarray
    before_end: np.ndarray
    after_start: np.ndarray
    after_end: np.ndarray

    @property
    def records(self):
        return [
            RefineRecord(aid, g, "kept" if k else "dropped", (bs, be),
                         (as_, ae) if k else None)
            for aid, g, k, bs, be, as_, ae in zip(
                self.ids, self.gamma.tolist(), self.kept.tolist(),
                self.before_start.tolist(), self.before_end.tolist(),
                self.after_start.tolist(), self.after_end.tolist())
        ]

    def to_json_obj(self):
        return {"annotations": [r.to_json_obj() for r in self.records]}

    def write(self, path, provenance: Optional[dict] = None) -> None:
        """Write :meth:`to_json_obj`, with ``provenance`` appended when
        given, as ``json.dumps(obj, indent=2) + "\\n"``, formatted from
        the columns."""
        before = map(json_pair, map(str, self.before_start.tolist()),
                     map(str, self.before_end.tolist()))
        after = map(json_pair, map(str, self.after_start.tolist()),
                    map(str, self.after_end.tolist()))
        kept = self.kept.tolist()
        items = json_objects({
            "annotation_id": list(map(encode_basestring_ascii, self.ids)),
            "gamma": list(map(float.__repr__, self.gamma.tolist())),
            "decision": ['"kept"' if k else '"dropped"' for k in kept],
            "boundary_before_frames": list(before),
            "boundary_after_frames": [p if k else "null"
                                      for p, k in zip(after, kept)]})
        doc = {"annotations": None}
        if provenance is not None:
            doc["provenance"] = provenance
        text = json_text(doc, {"annotations": items})
        with atomic_write(path) as fh:
            fh.write(text)


class CorpusTracks:
    """The similarity tracks of a corpus, by manifest row.

    The tracks of all annotations on timelines of T frames are the rows
    of ``mapped[T]``, an (n, T) block of mapped values, and of
    ``blocks[T]``, the (n, T + 1) block of their prefix sums.  The prefix
    blocks lie one after the other in one flat array, ``prefix``.  Row i
    of the manifest the tracks were computed for is row ``row[i]`` of the
    blocks of ``frames[i]`` frames, and its prefix sums start at
    ``prefix[base[i]]``.  :meth:`positions` finds the manifest rows of
    annotation ids.

    Tracks that :func:`refine_corpus` builds for itself keep only the
    prefix sums: their ``mapped`` is None.  Those of
    :func:`compute_tracks`, which the pipeline and correction use, keep
    both.
    """

    def __init__(self, ids, mapped, prefix, blocks, frames, row, base):
        self.mapped, self.prefix, self.blocks = mapped, prefix, blocks
        self.frames, self.row, self.base = frames, row, base
        self._position = {aid: i for i, aid in enumerate(ids)}

    def positions(self, ids) -> np.ndarray:
        """The manifest rows of the given ids."""
        return np.fromiter(map(self._position.__getitem__, ids),
                           dtype=np.int64, count=len(ids))


def compute_tracks(manifest: CorpusManifest) -> CorpusTracks:
    """The similarity tracks of every annotation of a manifest: mapped
    values and prefix sums.

    Each video's frame count in the manifest is first checked against
    its feature file's header, before any block is allocated.  Videos
    are visited in sorted order and each feature file is read once: the
    float64 cast and the frame norms are computed once per
    video, then one matrix-vector product per annotation fills a row of
    the preallocated (annotations, T) block of its timeline length T.
    Each block is then clipped and mapped by ``(s + 1) / 2`` in place,
    and its prefix sums go to its own stretch of one flat array; each
    track equals ``frame_similarities`` for its query bit for bit.
    :func:`refine_corpus` builds the same prefix sums, and no mapped
    blocks, when it is not given tracks.
    """
    return _tracks(manifest, keep_mapped=True)


def _tracks(manifest: CorpusManifest, keep_mapped: bool) -> CorpusTracks:
    """:func:`compute_tracks`; without ``keep_mapped``, each row's
    cosines are written to the columns of its prefix row that will hold
    its prefix sums, and clipped, mapped and summed there in place, so
    the tracks hold the same prefix sums and no ``mapped`` blocks."""
    queries = manifest.load_query_features()
    table = manifest.annotations
    by_video = {}
    for i, v in enumerate(table.video.tolist()):
        by_video.setdefault(v, []).append(i)
    order = sorted(by_video, key=lambda v: manifest.videos[v].video_id)
    counts = {}
    for v in order:
        # the blocks are sized from the headers' frame counts, so a
        # manifest cannot ask for more than the feature files hold
        T = manifest.video_frames(manifest.videos[v].video_id)
        counts[T] = counts.get(T, 0) + len(by_video[v])
    offset, size = {}, 0
    for T, n in counts.items():  # where each T's prefix block starts
        offset[T], size = size, size + n * (T + 1)
    prefix = np.empty(size)
    blocks = {T: prefix[offset[T]:offset[T] + n * (T + 1)].reshape(n, T + 1)
              for T, n in counts.items()}
    if keep_mapped:
        mapped = {T: np.empty((n, T)) for T, n in counts.items()}
    else:  # each row's values take the place of its prefix sums
        mapped = {T: p[:, 1:] for T, p in blocks.items()}
    frames = np.zeros(len(table), dtype=np.int64)
    rows = np.zeros(len(table), dtype=np.int64)
    base = np.zeros(len(table), dtype=np.int64)
    filled = dict.fromkeys(counts, 0)
    refs = table.query_ref

    for v in order:
        video = manifest.load_video_features(manifest.videos[v].video_id)
        if queries.dim != video.dim:
            raise ContractViolation("query and frame dimensions differ",
                                    query_dim=queries.dim,
                                    frame_dim=video.dim)
        x = video.data.astype(np.float64)
        x_norm = np.linalg.norm(x, axis=1)
        T = video.num_frames
        block = mapped[T]
        members = by_video[v]
        for i in members:
            q = queries.data[refs[i]].astype(np.float64)
            row = filled[T]
            np.divide(x @ q, x_norm * np.linalg.norm(q), out=block[row])
            filled[T] = row + 1
        frames[members] = T
        rows[members] = np.arange(filled[T] - len(members), filled[T])
        base[members] = offset[T] + rows[members] * (T + 1)

    for T, block in mapped.items():
        # in place, so that no block-sized temporary raises peak memory
        np.clip(block, -1.0, 1.0, out=block)
        block += 1.0
        block /= 2.0
        p = blocks[T]
        p[:, 0] = 0.0
        # a bounded number of rows per call, so that the copy NumPy may
        # make of an input overlapping its output stays small
        step = max(1, _CUMSUM_BYTES // (8 * T))
        for r in range(0, len(p), step):
            np.cumsum(block[r:r + step], axis=1, out=p[r:r + step, 1:])
    return CorpusTracks(table.ids, mapped if keep_mapped else None, prefix,
                        blocks, frames, rows, base)


def refine_corpus(manifest: CorpusManifest, clean_params: CleanParams,
                  adjust_params: AdjustParams,
                  tracks: Optional[CorpusTracks] = None):
    """Score, clean, then adjust a raw corpus.

    Returns (refined_manifest, report).  The refined manifest keeps only
    surviving annotations, by id, with status ``adjusted`` and the
    adjusted boundary; the report records gamma, the keep/drop decision
    and the boundary delta for every input annotation, in manifest
    order.  ``tracks`` holds ``compute_tracks`` of the manifest, or of
    a manifest whose annotations include all of this one's, when the
    caller has it already; rows are found by annotation id.

    The work is on the annotation columns and the tracks' flat prefix
    sums, all timeline lengths at once: :func:`batch_contrast` scores
    every annotation, :func:`clean_corpus` ranks them, and
    :func:`batch_adjust` moves the kept ones.
    """
    if tracks is None:
        tracks = _tracks(manifest, keep_mapped=False)
    table = manifest.annotations
    where = tracks.positions(table.ids)
    T, base = tracks.frames[where], tracks.base[where]
    mismatch = np.flatnonzero(T != table.timeline)
    if mismatch.size:
        i = mismatch[0]
        raise ContractViolation("boundary timeline does not match track",
                                annotation_id=table.ids[i],
                                boundary=(int(table.start_f[i]),
                                          int(table.end_f[i])),
                                track_len=int(T[i]))
    start, end = table.start_f, table.end_f
    gamma = batch_contrast(tracks.prefix, base, T, start, end)
    kept_rows, _ = clean_corpus(table.ids, gamma, clean_params)

    kept = np.zeros(len(table), dtype=bool)
    kept[kept_rows] = True
    after_start, after_end = start.copy(), end.copy()
    after_start[kept], after_end[kept] = batch_adjust(
        tracks.prefix, base[kept], T[kept], start[kept], end[kept],
        adjust_params)

    order = sorted(kept_rows, key=table.ids.__getitem__)
    refined = manifest.with_boundaries(order, after_start[order],
                                       after_end[order], "adjusted")
    return refined, RefineReport(table.ids, gamma, kept, start, end,
                                 after_start, after_end)

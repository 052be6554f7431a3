"""Deterministic sliding-window proposal predictor.

Stands in for a trained localization model during desk-scale correction
runs.  Candidate windows are enumerated at several length fractions of
the timeline, shifted by a seeded epoch-dependent jitter so consecutive
epochs contribute diverse candidates.  A handful of thresholded
"actionness" runs are added to the pool so proposals are not limited to
the quantized fraction lengths.  Windows are scored by their
contrast margin (mean mapped similarity inside minus mean outside),
greedily NMS-suppressed, and the survivors' scores are softmaxed into
confidences.

Scoring note: the raw inside/outside mass ratio is strictly increasing
under window growth whenever every frame carries positive mapped mass,
so ranking mixed-length windows by it always elects the longest window.
The mean-contrast margin keeps the intended ordering (the window hugging
the relevant support scores highest) without that length bias.

Two entry points compute the same proposals.  :func:`propose` handles
one track.  :class:`ProposalBatch` handles every track of a correction
run, one epoch per call: tracks that share a timeline length T are cut
into blocks of at most ``BLOCK_ROWS`` rows, each block's support runs and
prefix sums are stacked once, and every epoch enumerates, scores, ranks
and NMS-suppresses a whole block with array operations.  Per track it
performs the same elementwise arithmetic as :func:`propose`, draws the
jitter offsets from the same generator and takes the softmax over the
same survivor vector, so its output equals :func:`propose`'s bit for
bit; the tests keep :func:`propose` as the reference.

Correction consumes predictions one epoch at a time, as
:class:`EpochPredictions`: padded (A, U) start/end/confidence arrays over
all annotations plus a per-row count.  :class:`ProposalBatch` fills them
directly; :class:`FilePredictor` gathers them from a JSON-lines file it
parses once, and needs only each annotation's timeline length, never its
features; :class:`AnnotationBatch` packs the output of any per-annotation
predictor into them.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import Boundary, ScoredBoundary
from .errors import ContractViolation, NoCandidatesError, PredictorError
from .refine import SimilarityTrack

DEFAULT_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


@dataclass(frozen=True)
class ProposalParams:
    """Window enumeration and suppression knobs."""

    window_fractions: tuple = DEFAULT_FRACTIONS
    stride: int = 5
    nms_iou: float = 0.5
    jitter: int = 5

    def __post_init__(self):
        fr = tuple(float(f) for f in self.window_fractions)
        if not fr or any(not (0.0 < f <= 1.0) for f in fr):
            raise ContractViolation("window fractions must lie in (0, 1]")
        if list(fr) != sorted(fr):
            raise ContractViolation("window fractions must be sorted ascending")
        object.__setattr__(self, "window_fractions", fr)
        if self.stride < 1:
            raise ContractViolation("stride must be >= 1", stride=self.stride)
        if not (0.0 <= self.nms_iou <= 1.0):
            raise ContractViolation("nms_iou must lie in [0, 1]")
        if self.jitter < 0:
            raise ContractViolation("jitter must be >= 0")


class EpochPredictions(NamedTuple):
    """One epoch of predictions for A annotations, as padded arrays.

    Row i holds ``count[i]`` predictions, best first, in columns
    ``[0, count[i])`` of the (A, U) ``start``/``end`` (int64 frames) and
    ``confidence`` (float64) arrays; the columns past ``count[i]`` are
    padding and carry no meaning.
    """

    start: np.ndarray
    end: np.ndarray
    confidence: np.ndarray
    count: np.ndarray

    @classmethod
    def empty(cls, A: int, U: int) -> "EpochPredictions":
        return cls(np.zeros((A, U), dtype=np.int64),
                   np.zeros((A, U), dtype=np.int64),
                   np.zeros((A, U), dtype=np.float64),
                   np.zeros(A, dtype=np.int64))

    def valid(self) -> np.ndarray:
        """(A, U) mask of the slots that hold a prediction."""
        return np.arange(self.start.shape[1]) < self.count[:, None]

    def tuples(self):
        """Per row, the tuple of its (start, end, confidence) predictions."""
        s, e = self.start.tolist(), self.end.tolist()
        c = self.confidence.tolist()
        return [tuple(zip(s[i][:k], e[i][:k], c[i][:k]))
                for i, k in enumerate(self.count.tolist())]


def _support_candidates(track: SimilarityTrack):
    """Maximal runs of high mapped similarity, at a few track-relative levels.

    Sliding windows alone quantize proposal lengths to the configured
    fractions; thresholded "actionness" runs recover moment supports at
    native length, which is what lets consensus correction end up more
    precise than the coarse adjustment stage.
    """
    mapped = track.mapped
    lo, hi = float(mapped.min()), float(mapped.max())
    if hi - lo < 1e-9:
        return []
    out = []
    seen = set()
    for f in (0.35, 0.5, 0.65):
        theta = lo + f * (hi - lo)
        above = np.concatenate(([False], mapped >= theta, [False]))
        edges = np.flatnonzero(above[1:] != above[:-1])
        for s, e in zip(edges[::2], edges[1::2]):
            if (s, e) not in seen:
                seen.add((s, e))
                out.append((int(s), int(e)))
    return out


def _enumerate_windows(track: SimilarityTrack, epoch: int, seed: int,
                       params: ProposalParams):
    """(start, end) candidate arrays, jittered per (seed, epoch)."""
    T = track.num_frames
    rng = np.random.default_rng([seed & 0xFFFFFFFF, epoch])
    starts, ends = [], []
    support = _support_candidates(track)
    if support:
        s, e = zip(*support)
        starts.append(np.asarray(s, dtype=np.int64))
        ends.append(np.asarray(e, dtype=np.int64))
    for f in params.window_fractions:
        length = int(round(f * T))
        if length < 1 or length > T:
            continue
        offset = 0
        if params.jitter > 0:
            offset = int(rng.integers(-params.jitter, params.jitter + 1))
        base = np.arange(0, T - length + 1, params.stride)
        s = np.clip(base + offset, 0, T - length)
        s = np.unique(s)
        starts.append(s)
        ends.append(s + length)
    if not starts:
        raise NoCandidatesError("track too short for every window fraction", T=T)
    return np.concatenate(starts), np.concatenate(ends)


def _contrast_margin(track: SimilarityTrack, starts, ends):
    """Mean mapped similarity inside each window minus the mean outside."""
    T = track.num_frames
    total = track.prefix[T]
    inside = track.prefix[ends] - track.prefix[starts]
    lens = (ends - starts).astype(np.float64)
    out_lens = T - lens
    inside_mean = inside / lens
    outside_mean = np.where(out_lens > 0, (total - inside) / np.maximum(out_lens, 1), inside_mean)
    return inside_mean - outside_mean


def _greedy_nms(starts, ends, order, nms_iou, T):
    """Indices surviving greedy NMS, in ranking order."""
    s = starts[order]
    e = ends[order]
    inter = np.minimum(e[:, None], e[None, :]) - np.maximum(s[:, None], s[None, :])
    inter = np.maximum(inter, 0)
    lens = e - s
    union = lens[:, None] + lens[None, :] - inter
    suppress = inter / union > nms_iou

    keep = []
    dead = np.zeros(len(order), dtype=bool)
    for i in range(len(order)):
        if dead[i]:
            continue
        keep.append(order[i])
        dead |= suppress[i]
    return keep


def propose(track: SimilarityTrack, U: int, epoch: int, seed: int,
            params: Optional[ProposalParams] = None):
    """Return up to U scored boundary proposals for one similarity track.

    Deterministic in (track, U, epoch, seed, params); with jitter 0 the
    output is epoch-invariant.
    """
    if U < 1:
        raise ContractViolation("U must be >= 1", U=U)
    if params is None:
        params = ProposalParams()
    T = track.num_frames
    starts, ends = _enumerate_windows(track, epoch, seed, params)
    scores = _contrast_margin(track, starts, ends)

    # stable ranking: score descending, enumeration index ascending
    order = np.lexsort((np.arange(len(scores)), -scores))
    keep = _greedy_nms(starts, ends, order, params.nms_iou, T)

    kept_scores = scores[keep]
    shifted = kept_scores - np.max(kept_scores)
    weights = np.exp(shifted)
    conf = weights / weights.sum()

    picked = range(min(U, len(keep)))
    return [
        ScoredBoundary(
            boundary=Boundary(int(starts[keep[i]]), int(ends[keep[i]]), T),
            confidence=float(conf[i]),
        )
        for i in picked
    ]


# Rows per ProposalBatch block.  Larger blocks pay the per-rank-position
# NMS loop overhead fewer times but hold larger (rows, candidates)
# arrays.  On `morp pipeline` at 500 videos x 128 frames (600 kept
# tracks) the per-track path peaked at 51.9 MB RSS, 128-row blocks at
# 52.3 MB and one 600-row block at 60.8 MB, though its proposals took
# ~30% less time.
BLOCK_ROWS = 128


class _Block:
    """Up to BLOCK_ROWS tracks of one timeline length, stacked once per run.

    Holds what does not change across epochs: the tracks' prefix sums,
    the support runs padded to a common width, and the unjittered
    sliding-window starts of every usable fraction laid end to end.
    """

    def __init__(self, T, rows, tracks, seeds, params: ProposalParams):
        self.T = T
        self.rows = rows
        self.seeds = [seeds[i] for i in rows]
        self.prefixes = [tracks[i].prefix for i in rows]

        support = [_support_candidates(tracks[i]) for i in rows]
        width = max(len(runs) for runs in support)
        self.sup_start = np.zeros((len(rows), width), dtype=np.int64)
        self.sup_end = np.ones((len(rows), width), dtype=np.int64)
        self.sup_valid = np.zeros((len(rows), width), dtype=bool)
        for r, runs in enumerate(support):
            for k, (s, e) in enumerate(runs):
                self.sup_start[r, k], self.sup_end[r, k] = s, e
                self.sup_valid[r, k] = True

        lengths = [L for L in (int(round(f * T)) for f in params.window_fractions)
                   if 1 <= L <= T]
        bases = [np.arange(0, T - L + 1, params.stride, dtype=np.int64)
                 for L in lengths]
        counts = [len(b) for b in bases]
        self.n_fractions = len(lengths)
        self.win_base = np.concatenate(bases) if bases else \
            np.zeros(0, dtype=np.int64)
        self.win_frac = np.repeat(np.arange(len(lengths)), counts)
        self.win_len = np.repeat(np.asarray(lengths, dtype=np.int64), counts)
        self.win_first = np.cumsum([0] + counts)[:-1]
        # tracks with neither a support run nor a usable window fraction
        self.empty = [] if lengths else \
            [i for i, runs in zip(rows, support) if not runs]

    def _candidates(self, epoch, jitter):
        """(starts, ends, valid) candidate arrays in propose's order.

        Invalid slots are padding or repeated clipped windows; the valid
        slots of a row are that track's candidates, in order.
        """
        A, F = len(self.rows), self.n_fractions
        if jitter > 0 and F:
            # one size-F draw yields the same values as F scalar draws
            offsets = np.stack([
                np.random.default_rng([seed, epoch]).integers(
                    -jitter, jitter + 1, size=F)
                for seed in self.seeds])
        else:
            offsets = np.zeros((A, F), dtype=np.int64)
        win_start = np.clip(self.win_base + offsets[:, self.win_frac], 0,
                            self.T - self.win_len)
        # clipped starts are nondecreasing within a fraction, so dropping
        # repeats of the left neighbour keeps what np.unique keeps
        fresh = np.ones(win_start.shape, dtype=bool)
        fresh[:, 1:] = win_start[:, 1:] != win_start[:, :-1]
        fresh[:, self.win_first] = True
        return (np.concatenate((self.sup_start, win_start), axis=1),
                np.concatenate((self.sup_end, win_start + self.win_len), axis=1),
                np.concatenate((self.sup_valid, fresh), axis=1))

    def propose(self, U, epoch, params: ProposalParams, out: EpochPredictions):
        """Write each row's propose(track, U, epoch, seed, params) into out."""
        T = self.T
        starts, ends, valid = self._candidates(epoch, params.jitter)

        # _contrast_margin, elementwise over the block.  The prefix sums
        # are stacked per call: a stack kept for the whole run would
        # duplicate every track's prefix array.
        prefix = np.stack(self.prefixes)
        inside = np.take_along_axis(prefix, ends, axis=1) - \
            np.take_along_axis(prefix, starts, axis=1)
        lens = (ends - starts).astype(np.float64)
        out_lens = T - lens
        inside_mean = inside / lens
        outside_mean = np.where(
            out_lens > 0,
            (prefix[:, T, None] - inside) / np.maximum(out_lens, 1),
            inside_mean)
        scores = inside_mean - outside_mean

        # score descending, enumeration index ascending; padding ranks last
        order = np.argsort(np.where(valid, -scores, np.inf), axis=1,
                           kind="stable")
        s = np.take_along_axis(starts, order, axis=1)
        e = np.take_along_axis(ends, order, axis=1)
        alive = np.take_along_axis(valid, order, axis=1)
        length = e - s
        for i in range(s.shape[1] - 1):
            rows = np.flatnonzero(alive[:, i])
            if rows.size == 0:
                continue
            later_s, later_e = s[rows, i + 1:], e[rows, i + 1:]
            inter = np.minimum(e[rows, i, None], later_e) - \
                np.maximum(s[rows, i, None], later_s)
            inter = np.maximum(inter, 0)
            union = length[rows, i, None] + length[rows, i + 1:] - inter
            alive[rows, i + 1:] &= ~(inter / union > params.nms_iou)

        for r, i in enumerate(self.rows):
            keep = order[r, alive[r]]
            kept_scores = scores[r, keep]
            shifted = kept_scores - np.max(kept_scores)
            weights = np.exp(shifted)
            conf = weights / weights.sum()
            keep = keep[:U]
            k = len(keep)
            out.start[i, :k] = starts[r, keep]
            out.end[i, :k] = ends[r, keep]
            out.confidence[i, :k] = conf[:k]
            out.count[i] = k


class ProposalBatch:
    """:func:`propose` over a fixed list of tracks, one epoch per call.

    ``propose(U, epoch)`` returns :class:`EpochPredictions` whose row i
    holds exactly what ``propose(tracks[i], U, epoch, seeds[i], params)``
    returns, and raises the error the first failing track would raise.
    Support runs and prefix sums are gathered once, at construction.
    """

    def __init__(self, tracks, seeds, params: Optional[ProposalParams] = None):
        tracks = list(tracks)
        seeds = [int(seed) & 0xFFFFFFFF for seed in seeds]
        if len(seeds) != len(tracks):
            raise ContractViolation("need one seed per track",
                                    tracks=len(tracks), seeds=len(seeds))
        self.params = params or ProposalParams()
        self._size = len(tracks)
        by_len = {}
        for i, track in enumerate(tracks):
            by_len.setdefault(track.num_frames, []).append(i)
        self._blocks = [
            _Block(T, rows[k:k + BLOCK_ROWS], tracks, seeds, self.params)
            for T, rows in by_len.items()
            for k in range(0, len(rows), BLOCK_ROWS)
        ]
        empty = [i for block in self._blocks for i in block.empty]
        self._empty_T = tracks[min(empty)].num_frames if empty else None

    def propose(self, U: int, epoch: int) -> EpochPredictions:
        if U < 1:
            raise ContractViolation("U must be >= 1", U=U)
        if self._empty_T is not None:
            raise NoCandidatesError("track too short for every window fraction",
                                    T=self._empty_T)
        out = EpochPredictions.empty(self._size, U)
        for block in self._blocks:
            block.propose(U, epoch, self.params, out)
        return out


class SlidingWindowPredictor:
    """Predictor-contract adapter around :func:`propose`.

    ``run_correction`` recognizes this class and computes its proposals
    with :class:`ProposalBatch`, which returns the same output.
    """

    def __init__(self, params: Optional[ProposalParams] = None):
        self.params = params or ProposalParams()

    def __call__(self, track: SimilarityTrack, U: int, epoch: int, seed: int):
        return propose(track, U, epoch, seed, self.params)


def _check_scored(preds, U, T, annotation_id, epoch):
    if not preds or len(preds) > U:
        raise PredictorError("predictor returned a bad prediction count",
                             annotation_id=annotation_id, epoch=epoch,
                             count=len(preds) if preds else 0, U=U)
    for p in preds:
        if not isinstance(p, ScoredBoundary):
            raise PredictorError("predictor returned a non-ScoredBoundary",
                                 annotation_id=annotation_id, epoch=epoch)
        if p.boundary.timeline_len != T:
            raise PredictorError("prediction on the wrong timeline",
                                 annotation_id=annotation_id, epoch=epoch,
                                 got=p.boundary.timeline_len, expected=T)


class AnnotationBatch:
    """A per-annotation predictor, asked for a whole epoch at a time.

    The predictor is either an object with ``for_annotation(annotation_id,
    track, U, epoch)`` or a callable ``(track, U, epoch, seed)``; both
    return a list of :class:`ScoredBoundary`.  ``propose(U, epoch)`` asks
    it for every annotation in order, checks each list (1..U entries on
    the annotation's timeline) and packs the lists into
    :class:`EpochPredictions`.
    """

    def __init__(self, predictor, annotation_ids, tracks, seeds):
        self.predictor = predictor
        self.rows = list(zip(annotation_ids, tracks, seeds))

    def _predict(self, annotation_id, track, U, epoch, seed):
        if hasattr(self.predictor, "for_annotation"):
            return self.predictor.for_annotation(annotation_id, track, U, epoch)
        return self.predictor(track, U, epoch, seed)

    def propose(self, U: int, epoch: int) -> EpochPredictions:
        out = EpochPredictions.empty(len(self.rows), U)
        for i, (annotation_id, track, seed) in enumerate(self.rows):
            preds = self._predict(annotation_id, track, U, epoch, seed)
            _check_scored(preds, U, track.num_frames, annotation_id, epoch)
            k = len(preds)
            out.start[i, :k] = [p.boundary.start for p in preds]
            out.end[i, :k] = [p.boundary.end for p in preds]
            out.confidence[i, :k] = [p.confidence for p in preds]
            out.count[i] = k
        return out


class FilePredictor:
    """Replays predictions from a JSON-lines file.

    One record per (epoch, annotation_id); a later record replaces an
    earlier one with the same key:
        {"epoch": j, "annotation_id": id,
         "predictions": [{"start": s, "end": e, "confidence": c}, ...]}

    Lets an external model (for example, exported scores from a trained
    network) drive the correction loop.  The file is parsed once, on
    construction, into flat arrays; a line that is not such a record
    raises a :class:`PredictorError` naming the path and the line.
    :meth:`replay` gathers one epoch for a list of annotations, and
    :meth:`for_annotation` one annotation's list.  Neither reads any
    feature: boundaries are checked against the annotation's timeline
    length by the caller.
    """

    def __init__(self, path):
        self.path = str(path)
        index, lines, offsets = {}, [], [0]
        starts, ends, confs = [], [], []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    key, s, e, c = self._parse(line, lineno)
                    index[key] = len(lines)
                    lines.append(lineno)
                    starts += s
                    ends += e
                    confs += c
                    offsets.append(len(starts))
        except UnicodeDecodeError as exc:
            raise PredictorError("prediction file is not UTF-8 text",
                                 path=self.path, detail=str(exc)) from None
        self._index = index
        self._offsets = np.asarray(offsets, dtype=np.int64)
        # one padding slot at the end, which index -1 selects
        self._start = self._int64(starts + [0], offsets, lines)
        self._end = self._int64(ends + [0], offsets, lines)
        self._confidence = np.asarray(confs + [0.0], dtype=np.float64)

    def _parse(self, line, lineno):
        """((epoch, annotation_id), starts, ends, confidences) of one line."""
        try:
            rec = json.loads(line)
            key = (int(rec["epoch"]), rec["annotation_id"])
            preds = rec["predictions"]
            if not isinstance(key[1], str):
                raise TypeError("annotation_id must be a string")
            if not isinstance(preds, list):
                raise TypeError("predictions must be a list")
            return (key, [int(p["start"]) for p in preds],
                    [int(p["end"]) for p in preds],
                    [float(p["confidence"]) for p in preds])
        except KeyError as exc:
            detail = f"missing key {exc}"
        except (TypeError, ValueError, OverflowError) as exc:
            detail = f"{type(exc).__name__}: {exc}"
        raise PredictorError("malformed prediction record", path=self.path,
                             line=lineno, detail=detail)

    def _int64(self, values, offsets, lines):
        try:
            return np.asarray(values, dtype=np.int64)
        except OverflowError:
            info = np.iinfo(np.int64)
            i = next(i for i, v in enumerate(values)
                     if not info.min <= v <= info.max)
            raise PredictorError("prediction boundary out of range",
                                 path=self.path,
                                 line=lines[bisect_right(offsets, i) - 1],
                                 value=str(values[i])) from None

    def _record(self, annotation_id, epoch):
        row = self._index.get((epoch, annotation_id))
        if row is None:
            raise PredictorError("no prediction record for annotation/epoch",
                                 annotation_id=annotation_id, epoch=epoch)
        return row

    def replay(self, annotation_ids, U: int, epoch: int) -> EpochPredictions:
        """The first U predictions of each annotation's record for the epoch."""
        rows = np.asarray([self._record(a, epoch) for a in annotation_ids],
                          dtype=np.int64)
        first = self._offsets[rows]
        count = np.minimum(self._offsets[rows + 1] - first, U)
        cols = np.arange(U)
        idx = np.where(cols < count[:, None], first[:, None] + cols, -1)
        return EpochPredictions(self._start[idx], self._end[idx],
                                self._confidence[idx], count)

    def for_annotation(self, annotation_id, track, U, epoch):
        row = self._record(annotation_id, epoch)
        lo, hi = self._offsets[row], self._offsets[row + 1]
        hi = min(hi, lo + U)
        return [
            ScoredBoundary(boundary=Boundary(s, e, track.num_frames),
                           confidence=c)
            for s, e, c in zip(self._start[lo:hi].tolist(),
                               self._end[lo:hi].tolist(),
                               self._confidence[lo:hi].tolist())
        ]

"""Deterministic sliding-window proposal predictor.

Stands in for a trained localization model during desk-scale correction
runs.  Candidate windows of the lengths ``WINDOW_FRACTIONS`` of the
timeline start every ``delta`` frames, shifted by a seeded
epoch-dependent jitter of up to ``delta`` frames so consecutive epochs
contribute diverse candidates.  A handful of thresholded "actionness"
runs are added to the pool so proposals are not limited to the quantized
fraction lengths.  Windows are scored by their contrast margin (mean
mapped similarity inside minus mean outside), greedily NMS-suppressed
at IoU ``NMS_IOU``, and the survivors' scores are softmaxed into
confidences.

Scoring note: the raw inside/outside mass ratio is strictly increasing
under window growth whenever every frame carries positive mapped mass,
so ranking mixed-length windows by it always elects the longest window.
The mean-contrast margin keeps the intended ordering (the window hugging
the relevant support scores highest) without that length bias.

Two entry points compute the same proposals.  :func:`propose` handles
one track at one epoch.  :func:`proposal_table` computes a correction
run's whole table at once from a corpus' tracks: a proposal depends on
the track, its seed, the epoch and ``delta``, never on the memory bank,
so every (track, epoch) pair is one row.  The rows of the tracks that
share a timeline length T are laid out epoch after epoch and cut into
blocks of at most ``BLOCK_ROWS`` rows; each track's support runs are
found once in its mapped row, and each block gathers its prefix rows
from the corpus' block of length T, then enumerates, scores, ranks and
NMS-suppresses them with array operations.  Per row it performs the
same elementwise arithmetic as :func:`propose`, so its output equals
:func:`propose`'s bit for bit; the tests keep :func:`propose` as the
reference.  Three steps differ in form only:

- The jitter offsets of every track are drawn at once per epoch by
  :func:`_jitter_offsets`, a numpy replica of ``default_rng([seed,
  epoch]).integers``.  The rare row that hits the bounded draw's
  rejection branch, and every row when the epoch or the jitter span does
  not fit 32 bits, is drawn by ``default_rng`` itself.
- The softmax packs each row's NMS survivors to the left in rank order
  and takes ``exp`` and the row sum on one contiguous (rows, n) array per
  survivor count n, which sums each row as pairwise as the 1-D sum of
  its n survivors does.
- NMS tests ``inter / union > NMS_IOU`` in integers, as ``3 * inter >
  len_i + len_j``.  With ``NMS_IOU`` = 1/2 and frames below 2**53 the
  division rounds correctly, so the two tests agree on every pair, and
  a negative overlap, which :func:`propose` clips to 0, fails both.

A block's memory is bounded by how many (rows, candidates) arrays are
alive at once, so the block path computes in place: the contrast margin
is built up in one scores array with ``out=`` and in-place operators,
and each candidate array is released once its rank-ordered copy exists.
Each score still goes through :func:`propose`'s floating-point
operations in :func:`propose`'s order, so the results are the same.

Correction takes a whole run's predictions at once, as
:class:`EpochPredictions`: padded start/end/confidence arrays over all
epochs and annotations, at most U columns wide, plus a per-row count.
:func:`sliding_windows` computes that (epochs, annotations, W) table
from a corpus' tracks; :class:`FilePredictor` parses a JSON-lines file
once and its :meth:`~FilePredictor.table` gathers the table from it,
needing only each annotation's timeline length, never its features.
Row i of each epoch belongs to the i-th of the ids the table was made
for.
"""

from __future__ import annotations

import json
import zlib
from array import array
from typing import NamedTuple

import numpy as np

from .core import Boundary, ScoredBoundary
from .errors import ContractViolation, PredictorError
from .refine import SimilarityTrack, check_delta

# Window lengths as fractions of T, ascending; a length rounding to 0 is
# skipped.  Every track has windows: round(0.6 * T) >= 1 for T >= 1.
WINDOW_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
NMS_IOU = 0.5

# The most epochs a run may ask for: a run holds (epochs, annotations,
# U) prediction arrays, so the bound keeps an absurd --epochs a
# contract violation instead of a hang or a MemoryError.
MAX_EPOCHS = 2 ** 16


def annotation_seed(base_seed: int, annotation_id: str) -> int:
    """Stable per-annotation seed derivation.

    A lone surrogate, which a JSON ``\\ud800`` escape parses to, is
    encoded as is; every other id hashes its UTF-8 bytes.
    """
    return (base_seed ^ zlib.crc32(annotation_id.encode(
        "utf-8", "surrogatepass"))) & 0xFFFFFFFF


class EpochPredictions(NamedTuple):
    """A run's predictions for A annotations over E epochs, as padded arrays.

    Correction takes this table: (E, A, W) ``start``/``end`` (int64
    frames) and ``confidence`` (float64) arrays and an (E, A) ``count``;
    :meth:`epoch` takes one epoch of it as (A, W) views.  Row i of an
    epoch holds ``count[i]`` predictions, best first, in columns
    ``[0, count[i])``; the columns past ``count[i]`` are padding and
    carry no meaning.  The width W is at least 1 and at least every
    count; :func:`proposal_table` and :meth:`FilePredictor.table` make
    it :meth:`width`, no wider than U or than the most predictions a row
    can hold, so memory follows the output, not U.
    """

    start: np.ndarray
    end: np.ndarray
    confidence: np.ndarray
    count: np.ndarray

    @staticmethod
    def width(U: int, widest: int) -> int:
        """W for U predictions a row, when no row holds more than widest."""
        return max(1, min(U, widest))

    @classmethod
    def empty(cls, shape, W: int) -> "EpochPredictions":
        """A table of zeros for the (E, A) shape."""
        return cls(np.zeros((*shape, W), dtype=np.int64),
                   np.zeros((*shape, W), dtype=np.int64),
                   np.zeros((*shape, W), dtype=np.float64),
                   np.zeros(shape, dtype=np.int64))

    def epoch(self, j: int) -> "EpochPredictions":
        """Epoch j, counted from 1, of a table: views of its rows."""
        if not 1 <= j <= len(self.count):
            raise ContractViolation("epoch outside the proposal table",
                                    epoch=j, epochs=len(self.count))
        return EpochPredictions(*(a[j - 1] for a in self))

    def valid(self) -> np.ndarray:
        """Mask of the slots that hold a prediction, (A, W) or (E, A, W)."""
        return np.arange(self.start.shape[-1]) < self.count[..., None]

    def tuples(self):
        """Per row, the tuple of its (start, end, confidence) predictions."""
        s, e = self.start.tolist(), self.end.tolist()
        c = self.confidence.tolist()
        return [tuple(zip(s[i][:k], e[i][:k], c[i][:k]))
                for i, k in enumerate(self.count.tolist())]


def _support_candidates(mapped: np.ndarray):
    """Maximal runs of high mapped similarity, at a few track-relative
    levels, in a track's 1-D mapped values.

    Sliding windows alone quantize proposal lengths to the
    ``WINDOW_FRACTIONS``; thresholded "actionness" runs recover moment
    supports at native length, which is what lets consensus correction
    end up more precise than the coarse adjustment stage.
    """
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
                       delta: int):
    """(start, end) candidate arrays, jittered per (seed, epoch)."""
    T = track.num_frames
    rng = np.random.default_rng([seed & 0xFFFFFFFF, epoch])
    starts, ends = [], []
    support = _support_candidates(track.mapped)
    if support:
        s, e = zip(*support)
        starts.append(np.asarray(s, dtype=np.int64))
        ends.append(np.asarray(e, dtype=np.int64))
    for f in WINDOW_FRACTIONS:
        length = int(round(f * T))
        if length < 1:
            continue
        offset = int(rng.integers(-delta, delta + 1))
        base = np.arange(0, T - length + 1, delta)
        s = np.clip(base + offset, 0, T - length)
        s = np.unique(s)
        starts.append(s)
        ends.append(s + length)
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


def _greedy_nms(starts, ends, order):
    """Indices surviving greedy NMS, in ranking order."""
    s = starts[order]
    e = ends[order]
    inter = np.minimum(e[:, None], e[None, :]) - np.maximum(s[:, None], s[None, :])
    inter = np.maximum(inter, 0)
    lens = e - s
    union = lens[:, None] + lens[None, :] - inter
    suppress = inter / union > NMS_IOU

    keep = []
    dead = np.zeros(len(order), dtype=bool)
    for i in range(len(order)):
        if dead[i]:
            continue
        keep.append(order[i])
        dead |= suppress[i]
    return keep


def propose(track: SimilarityTrack, U: int, epoch: int, seed: int,
            delta: int):
    """Return up to U scored boundary proposals for one similarity track.

    Deterministic in (track, U, epoch, seed, delta).
    """
    if U < 1:
        raise ContractViolation("U must be >= 1", U=U)
    check_delta(delta)
    T = track.num_frames
    starts, ends = _enumerate_windows(track, epoch, seed, delta)
    scores = _contrast_margin(track, starts, ends)

    # stable ranking: score descending, enumeration index ascending
    order = np.lexsort((np.arange(len(scores)), -scores))
    keep = _greedy_nms(starts, ends, order)

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


# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 0xFFFFFFFF


def _carry(acc):
    """Four 32-bit limbs, low first, from uint64 limb sums; mod 2**128."""
    out, carry = [], 0
    for v in acc:
        v = v + carry
        out.append(v & _M32)
        carry = v >> 32
    return out


def _pcg64_step(state, inc):
    """One PCG64 LCG step, state * multiplier + inc, on 32-bit limbs."""
    acc = list(inc)
    for i in range(4):
        for j in range(4 - i):
            p = state[i] * ((_PCG64_MULT >> 32 * j) & _M32)
            acc[i + j] = acc[i + j] + (p & _M32)
            if i + j < 3:
                acc[i + j + 1] = acc[i + j + 1] + (p >> 32)
    return _carry(acc)


def _replica_draws(seeds, epoch, span, F):
    """(draws in [0, span), rejected) of default_rng([seed, epoch]) per seed.

    Needs 0 <= seed, epoch < 2**32 and span < 2**32.  Row r holds the
    first F values of the buffered Lemire draw from
    ``default_rng([seeds[r], epoch])``; it is valid unless ``rejected[r]``,
    which marks a row that reached the rejection branch and so drew
    further words.
    """
    # SeedSequence: hash the entropy words [seed, epoch] into a 4-word
    # pool, then generate_state(4, uint64) as 8 uint32 words
    hash_a = _SS_INIT_A

    def hashmix(v):
        nonlocal hash_a
        v = v ^ hash_a
        hash_a = hash_a * _SS_MULT_A & _M32
        v = v * hash_a
        return v ^ (v >> 16)

    def mix(x, y):
        v = x * _SS_MIX_L - y * _SS_MIX_R
        return v ^ (v >> 16)

    n = len(seeds)
    pool = [hashmix(w) for w in (seeds.astype(np.uint32),
                                 np.full(n, epoch, dtype=np.uint32),
                                 np.zeros(n, dtype=np.uint32),
                                 np.zeros(n, dtype=np.uint32))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_b, words = _SS_INIT_B, []
    for i in range(8):
        v = pool[i % 4] ^ hash_b
        hash_b = hash_b * _SS_MULT_B & _M32
        v = v * hash_b
        words.append((v ^ (v >> 16)).astype(np.uint64))

    # PCG64 seeding from the uint64 words (w0, w1, w2, w3): the increment
    # is 2 * (w2 << 64 | w3) + 1, and stepping from state 0, adding the
    # seed w0 << 64 | w1 and stepping again gives the first state
    seed128 = [words[2], words[3], words[0], words[1]]
    seq = [words[6], words[7], words[4], words[5]]
    inc = [(seq[0] << 1 | 1) & _M32] + \
        [(seq[k] << 1 | seq[k - 1] >> 31) & _M32 for k in (1, 2, 3)]
    state = _pcg64_step(_carry([a + b for a, b in zip(inc, seed128)]), inc)

    # XSL-RR outputs; next_uint32 hands out the low half of each first
    cols = []
    for _ in range((F + 1) // 2):
        state = _pcg64_step(state, inc)
        x = (state[3] ^ state[1]) << 32 | (state[2] ^ state[0])
        rot = state[3] >> 26
        x = x >> rot | x << ((64 - rot) & 63)
        cols += [x & _M32, x >> 32]
    m = np.stack(cols[:F], axis=1) * span
    rejected = ((m & _M32) < (2 ** 32 - span) % span).any(axis=1)
    return (m >> 32).astype(np.int64), rejected


def _jitter_offsets(seeds, epoch, jitter, F):
    """Row r: ``default_rng([seeds[r], epoch]).integers(-jitter, jitter + 1,
    size=F)``, for seeds in [0, 2**32).

    The rows are computed together by :func:`_replica_draws`; rows it
    cannot reproduce are drawn by ``default_rng`` one at a time.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    span = 2 * jitter + 1
    if 0 <= epoch <= _M32 and span <= _M32:
        draws, rejected = _replica_draws(seeds, epoch, span, F)
        out, redraw = draws - jitter, np.flatnonzero(rejected)
    else:
        out = np.empty((len(seeds), F), dtype=np.int64)
        redraw = range(len(seeds))
    for r in redraw:
        out[r] = np.random.default_rng([int(seeds[r]), epoch]).integers(
            -jitter, jitter + 1, size=F)
    return out


# Rows per block.  A row is one (track, epoch) pair, and a block holds
# rows of one timeline length.  Larger blocks pay the per-rank-position
# NMS loop overhead fewer times but hold larger (rows, candidates)
# arrays.  On `morp pipeline` at 500 videos x 128 frames (600 kept
# tracks, 119 candidates each; medians of 5 runs), 128- and 256-row
# blocks peaked at 41.3 and 41.2 MB RSS, and 256 rows ran 12% faster.  At
# 384 and 600 rows the peak was 42.1 and 43.6 MB, for 4% and 13% less
# wall time than 256 rows (2-CPU x86-64 Linux host, NumPy 2.4).
BLOCK_ROWS = 256


class _LengthGroup:
    """The tracks of one timeline length T, whose (track, epoch) rows are
    computed in blocks of up to BLOCK_ROWS: the ``columns`` of a table
    over manifest rows ``rows`` of a corpus, whose tracks are rows
    ``block_rows`` of the corpus' blocks of length T.

    Holds what no row changes: the tracks' support runs padded to a
    common width, and the unjittered sliding-window starts of every
    usable fraction laid end to end.  The rows run epoch after epoch,
    row k being the group's track ``k % n`` at epoch index ``k // n``,
    and are cut into blocks, so a group of few tracks fills its blocks
    with epochs.

    A block takes its rows' jitter offsets, which :func:`proposal_table`
    draws per epoch for all tracks at once with :func:`_jitter_offsets`
    (``default_rng`` redraws only the rows whose bounded draw was
    rejected), and its rows' prefix sums, one row gather from the
    corpus' (n, T + 1) prefix block of length T.  It scores the
    candidates in place in one (rows, candidates) array, gathers starts,
    ends, the alive mask and the scores into rank order, dropping each
    unsorted array as soon as its sorted copy exists, and runs the NMS
    loop over rank positions; each step tests the later ranks of the rows
    alive at it in integers.  The softmax then packs each row's survivors
    to the left and works on one contiguous array per survivor count, so
    every row's sum rounds as :func:`propose`'s 1-D sum does.
    """

    def __init__(self, T, columns, rows, corpus, delta):
        self.T, self.columns = T, columns
        self.block_rows = corpus.row[rows[columns]]
        self.prefix, mapped = corpus.blocks[T], corpus.mapped[T]
        support = [_support_candidates(mapped[r])
                   for r in self.block_rows.tolist()]
        width = max(map(len, support))
        self.sup_start = np.zeros((len(columns), width), dtype=np.int64)
        self.sup_end = np.ones((len(columns), width), dtype=np.int64)
        self.sup_valid = np.zeros((len(columns), width), dtype=bool)
        for r, runs in enumerate(support):
            for k, (s, e) in enumerate(runs):
                self.sup_start[r, k], self.sup_end[r, k] = s, e
                self.sup_valid[r, k] = True

        lengths = [L for L in (int(round(f * T)) for f in WINDOW_FRACTIONS)
                   if L >= 1]
        bases = [np.arange(0, T - L + 1, delta, dtype=np.int64)
                 for L in lengths]
        counts = [len(b) for b in bases]
        self.n_fractions = len(lengths)
        self.win_base = np.concatenate(bases)
        self.win_frac = np.repeat(np.arange(len(lengths)), counts)
        self.win_len = np.repeat(np.asarray(lengths, dtype=np.int64), counts)
        self.win_first = np.cumsum([0] + counts)[:-1]
        # the most candidates, and so survivors, a row can have
        self.n_candidates = width + len(self.win_base)

    def propose(self, U, offsets, out: EpochPredictions):
        """Write propose(track, U, epoch, seed, delta) of every (track,
        epoch) row of the group into out, given the (epochs, columns,
        fractions) jitter offsets."""
        n = len(self.columns)
        rows = n * len(offsets)
        for lo in range(0, rows, BLOCK_ROWS):
            epoch, pos = np.divmod(np.arange(lo, min(lo + BLOCK_ROWS, rows)),
                                   n)
            self._block(U, self.prefix[self.block_rows[pos]], pos, epoch,
                        offsets[epoch, self.columns[pos], :self.n_fractions],
                        out)

    def _candidates(self, pos, offsets):
        """(starts, ends, valid) candidate arrays in propose's order, for
        the block's group positions and (rows, n_fractions) offsets.

        Invalid slots are padding or repeated clipped windows; the valid
        slots of a row are that track's candidates, in order.
        """
        win_start = np.clip(self.win_base + offsets[:, self.win_frac], 0,
                            self.T - self.win_len)
        # clipped starts are nondecreasing within a fraction, so dropping
        # repeats of the left neighbour keeps what np.unique keeps
        fresh = np.ones(win_start.shape, dtype=bool)
        fresh[:, 1:] = win_start[:, 1:] != win_start[:, :-1]
        fresh[:, self.win_first] = True
        return (np.concatenate((self.sup_start[pos], win_start), axis=1),
                np.concatenate((self.sup_end[pos], win_start + self.win_len),
                               axis=1),
                np.concatenate((self.sup_valid[pos], fresh), axis=1))

    def _block(self, U, prefix, pos, epoch, offsets, out: EpochPredictions):
        """Write the rows (track at group position pos[r], epoch index
        epoch[r], prefix sums prefix[r]) into out."""
        T = self.T
        starts, ends, valid = self._candidates(pos, offsets)

        # _contrast_margin, elementwise over the block and in place:
        # scores holds inside, then inside_mean, then the margin
        scores = np.take_along_axis(prefix, ends, axis=1)
        scores -= np.take_along_axis(prefix, starts, axis=1)
        outside = np.subtract(prefix[:, T, None], scores)
        del prefix
        lens = np.subtract(ends, starts, out=np.empty(scores.shape))
        scores /= lens
        out_lens = np.subtract(T, lens, out=lens)
        has_outside = out_lens > 0
        outside /= np.maximum(out_lens, 1, out=out_lens)
        np.copyto(outside, scores, where=~has_outside)
        scores -= outside
        del outside, lens, out_lens, has_outside

        # score descending, enumeration index ascending; padding ranks last.
        # Each array is gathered into rank order and its unsorted copy
        # released before the next is gathered.
        key = np.negative(scores)
        key[~valid] = np.inf
        order = np.argsort(key, axis=1, kind="stable")
        del key
        scores = np.take_along_axis(scores, order, axis=1)
        alive = np.take_along_axis(valid, order, axis=1)
        del valid
        s = np.take_along_axis(starts, order, axis=1)
        del starts
        e = np.take_along_axis(ends, order, axis=1)
        del ends, order
        length = e - s
        # propose's IoU test in integers, unclipped (module docstring)
        for i in range(s.shape[1] - 1):
            rows = np.flatnonzero(alive[:, i])
            if rows.size == 0:
                continue
            inter = np.minimum(e[rows, i + 1:], e[rows, i, None])
            inter -= np.maximum(s[rows, i + 1:], s[rows, i, None])
            inter *= 3
            alive[rows, i + 1:] &= \
                inter <= length[rows, i + 1:] + length[rows, i, None]
        del length

        # propose's softmax over each row's survivors.  The survivors are
        # packed to the left in rank order, so slot 0 holds the row's
        # maximum.  Packed rows are sorted by survivor count n, and exp
        # and the row sum run on one contiguous (rows, n) array per n,
        # where each row sums as the 1-D sum of its n weights does;
        # trailing padding would regroup NumPy's pairwise sum.  Survivor
        # (r, c) is rank c of block row by_count[r] and lands in slot
        # `slot` of packed row r.
        count = alive.sum(axis=1)
        by_count = np.argsort(count, kind="stable")
        grouped = alive[by_count]
        r, c = np.nonzero(grouped)
        slot = np.cumsum(grouped, axis=1)[r, c] - 1
        row = by_count[r]
        packed = np.empty(alive.shape)
        packed[r, slot] = scores[row, c]
        conf = np.empty((len(pos), min(U, alive.shape[1])))
        sizes, first = np.unique(count[by_count], return_index=True)
        for n, lo, hi in zip(sizes.tolist(), first.tolist(),
                             first[1:].tolist() + [len(pos)]):
            kept = packed[lo:hi, :n]
            weights = np.exp(kept - kept[:, :1])
            k = min(n, U)
            conf[lo:hi, :k] = weights[:, :k] / \
                weights.sum(axis=1, keepdims=True)

        top = slot < U
        r, c, slot, row = r[top], c[top], slot[top], row[top]
        at = epoch[row], self.columns[pos[row]], slot
        out.start[at] = s[row, c]
        out.end[at] = e[row, c]
        out.confidence[at] = conf[r, slot]
        out.count[epoch, self.columns[pos]] = np.minimum(count, U)


def proposal_table(tracks, rows, seeds, delta: int, U: int,
                   epochs: int) -> EpochPredictions:
    """:func:`propose` over manifest rows ``rows`` of a corpus'
    :class:`~morp.refine.CorpusTracks`, every epoch in one call.

    Returns :class:`EpochPredictions` whose :meth:`~EpochPredictions.epoch`
    ``j`` row i holds exactly what ``propose`` returns for the track of
    row ``rows[i]`` at epoch j, seed ``seeds[i]`` and ``delta``, for j
    from 1 to ``epochs``.  Each track's support runs are found once.
    """
    check_delta(delta)
    rows = np.asarray(rows, dtype=np.int64)
    seeds = np.asarray([int(seed) & 0xFFFFFFFF for seed in seeds],
                       dtype=np.int64)
    if len(seeds) != len(rows):
        raise ContractViolation("need one seed per track",
                                tracks=len(rows), seeds=len(seeds))
    if U < 1 or epochs < 1:
        raise ContractViolation("U and epochs must be >= 1", U=U,
                                epochs=epochs)
    frames = tracks.frames[rows]
    # not np.unique: its first call imports numpy.ma, about 0.4 MB of RSS
    groups = [_LengthGroup(T, np.flatnonzero(frames == T), rows, tracks, delta)
              for T in dict.fromkeys(frames.tolist())]
    # a group with fewer usable fractions takes a prefix of each row's
    # draws, as propose's scalar draws are a prefix of the size-F draw
    offsets = np.stack([_jitter_offsets(seeds, epoch, delta,
                                        len(WINDOW_FRACTIONS))
                        for epoch in range(1, epochs + 1)])
    widest = max((g.n_candidates for g in groups), default=0)
    out = EpochPredictions.empty((epochs, len(seeds)),
                                 EpochPredictions.width(U, widest))
    for group in groups:
        group.propose(U, offsets, out)
    return out


def sliding_windows(tracks, ids, seed, delta, U, epochs) -> EpochPredictions:
    """The default predictions: the :func:`proposal_table` over the
    tracks of ``ids``, each seeded by its :func:`annotation_seed`."""
    return proposal_table(tracks, tracks.positions(ids),
                          [annotation_seed(seed, i) for i in ids],
                          delta, U, epochs)


class FilePredictor:
    """Replays predictions from a JSON-lines file.

    One record per (epoch, annotation_id):
        {"epoch": j, "annotation_id": id,
         "predictions": [{"start": s, "end": e, "confidence": c}, ...]}

    Lets an external model (for example, exported scores from a trained
    network) drive the correction loop.  The file is parsed once, on
    construction, line by line with ``json.loads``, into columns: every
    prediction's start, end and confidence, and every record's offset
    into them, with no Python object kept per record or per value.  The
    records are indexed by one sorted int64 key of (epoch, id), on which
    a later record replaces an earlier one with the same key.  A record
    whose epoch lies outside 1 to ``MAX_EPOCHS``, which no run can ask
    for, matches no lookup.  Blank lines are skipped and still counted.

    Errors name the path and, for a bad line, its number: a line that
    is not such a record, whose epoch, starts and ends are JSON integers
    and confidences JSON numbers (a bool, a string or a float where an
    integer belongs is not coerced), or text that is not UTF-8, ends the
    parse at once; a start or end outside int64 is reported after the
    last line, the first such start ahead of the first such end.
    :meth:`table` gathers a run's epochs for a list of annotations, and
    :meth:`for_annotation` one annotation's list.  Neither reads any
    feature: boundaries are checked against the annotation's timeline
    length by the caller.
    """

    def __init__(self, path):
        self.path = str(path)
        self._code, epochs, codes = {}, array("q"), array("q")
        offsets = array("q", [0])
        starts, ends, confs = array("q"), array("q"), array("d")
        bad_start = bad_end = None  # (line, value) of the first overflow
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    (epoch, aid), s, e, c = self._parse(line, lineno)
                    epochs.append(epoch if 1 <= epoch <= MAX_EPOCHS
                                  else 0)
                    codes.append(self._code.setdefault(aid, len(self._code)))
                    bad_start = _extend(starts, s, lineno, bad_start)
                    bad_end = _extend(ends, e, lineno, bad_end)
                    confs.extend(c)
                    offsets.append(len(starts))
        except UnicodeDecodeError as exc:
            raise PredictorError("prediction file is not UTF-8 text",
                                 path=self.path, detail=str(exc)) from None
        if bad_start or bad_end:
            line, value = bad_start or bad_end
            raise PredictorError("prediction boundary out of range",
                                 path=self.path, line=line, value=str(value))
        for column in (starts, ends, confs):
            column.append(0)  # one padding slot, which index -1 selects
        self._start, self._end, self._offsets = (
            np.frombuffer(a, dtype=np.int64) for a in (starts, ends, offsets))
        self._confidence = np.frombuffer(confs, dtype=np.float64)
        self._widest = int(np.diff(self._offsets).max(initial=0))
        # one int64 key per record, epoch * n + code, which MAX_EPOCHS
        # keeps far from overflow; a record whose epoch is out of range,
        # entered as 0, is left out of the index
        n = max(1, len(self._code))
        epoch = np.frombuffer(epochs, dtype=np.int64)
        rows = np.flatnonzero(epoch)
        key = epoch[rows] * n + np.frombuffer(codes, dtype=np.int64)[rows]
        order = np.lexsort((rows, key))
        key, rows = key[order], rows[order]
        last = np.diff(key, append=2 ** 63 - 1) > 0  # last record of a key
        # a sentinel above every key keeps searchsorted inside the array
        self._key = np.append(key[last], 2 ** 63 - 1)
        self._row = rows[last]
        self._last_epoch = int(key[-1]) // n if len(key) else 0

    def _parse(self, line, lineno):
        """((epoch, annotation_id), starts, ends, confidences) of one line."""
        try:
            rec = json.loads(line)
            key = (rec["epoch"], rec["annotation_id"])
            preds = rec["predictions"]
            if not isinstance(key[1], str):
                raise TypeError("annotation_id must be a string")
            if not isinstance(preds, list):
                raise TypeError("predictions must be a list")
            starts = [p["start"] for p in preds]
            ends = [p["end"] for p in preds]
            confs = [p["confidence"] for p in preds]
            if type(key[0]) is not int or \
                    not {int}.issuperset(map(type, starts + ends)):
                raise TypeError("epoch, start and end must be integers")
            if not {int, float}.issuperset(map(type, confs)):
                raise TypeError("confidence must be a number")
            return key, starts, ends, list(map(float, confs))
        except KeyError as exc:
            detail = f"missing key {exc}"
        except (TypeError, ValueError, OverflowError) as exc:
            detail = f"{type(exc).__name__}: {exc}"
        raise PredictorError("malformed prediction record", path=self.path,
                             line=lineno, detail=detail)

    def _rows(self, ids, epochs):
        """(len(epochs), len(ids)) rows of the last record of each
        (epoch, id), found with one ``searchsorted``; the first pair with
        no record, epoch by epoch, raises."""
        code = np.asarray([self._code.get(a, -1) for a in ids],
                          dtype=np.int64)
        epoch = np.asarray(epochs, dtype=np.int64)[:, None]
        ok = (code >= 0) & (epoch >= 1) & (epoch <= MAX_EPOCHS)
        key = np.where(ok, epoch * max(1, len(self._code)) + code, -1)
        pos = np.searchsorted(self._key, key)
        ok &= self._key[pos] == key
        if not ok.all():
            j, i = divmod(int(np.argmin(ok)), len(ids))
            raise PredictorError("no prediction record for annotation/epoch",
                                 annotation_id=ids[i], epoch=epochs[j])
        return self._row[pos]

    def table(self, ids, U, epochs) -> EpochPredictions:
        """The first U predictions of each of ``ids``' records, for
        epochs 1 to ``epochs``.  Every record is looked up, epoch by
        epoch, before any is gathered; no feature file is read.

        No epoch past the highest one in the file has a record, so the
        lookup stops at the first such epoch: it finds the same first
        missing record without an (epochs, ids) key array.  The records
        are gathered into the table an epoch at a time."""
        looked = min(epochs, self._last_epoch + 1) if ids else epochs
        rows = self._rows(ids, range(1, looked + 1))
        first = self._offsets[rows]
        out = EpochPredictions.empty(rows.shape,
                                     EpochPredictions.width(U, self._widest))
        np.minimum(self._offsets[rows + 1] - first, U, out=out.count)
        del rows
        cols = np.arange(out.start.shape[-1])
        for j, (count, lo) in enumerate(zip(out.count, first)):
            # one epoch's (A, W) gather at a time
            idx = np.where(cols < count[:, None], lo[:, None] + cols, -1)
            for column, a in zip((self._start, self._end, self._confidence),
                                 out):
                column.take(idx, out=a[j])
        return out

    def for_annotation(self, annotation_id, track, U, epoch):
        row = self._rows([annotation_id], [epoch])[0, 0]
        lo, hi = self._offsets[row], self._offsets[row + 1]
        hi = min(hi, lo + U)
        return [
            ScoredBoundary(boundary=Boundary(s, e, track.num_frames),
                           confidence=c)
            for s, e, c in zip(self._start[lo:hi].tolist(),
                               self._end[lo:hi].tolist(),
                               self._confidence[lo:hi].tolist())
        ]


def _extend(column, values, lineno, bad):
    """Append int values to an int64 column; one outside int64 goes in
    as 0.  Returns bad, or if it is None, the (line, value) of the first
    value that did not fit."""
    n = len(column)
    try:
        column.extend(values)
        return bad
    except OverflowError:
        del column[n:]
        fits = [-2 ** 63 <= v < 2 ** 63 for v in values]
        column.extend(v if f else 0 for v, f in zip(values, fits))
        return bad or (lineno, values[fits.index(False)])

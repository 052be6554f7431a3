"""Sliding-window proposal predictor contract and reference implementation."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import corpus_tracks
from morp.core import iou
from morp.errors import ContractViolation, PredictorError
from morp.predictor import (
    BLOCK_ROWS,
    MAX_EPOCHS,
    NMS_IOU,
    WINDOW_FRACTIONS,
    FilePredictor,
    _jitter_offsets,
    _replica_draws,
    _support_candidates,
    propose,
    proposal_table,
)
from morp.refine import AdjustParams, SimilarityTrack


def track_from_mapped(mapped):
    return SimilarityTrack.from_raw(2.0 * np.asarray(mapped, float) - 1.0)


class TestDelta:
    # a timeline is at most 2**32 - 1 frames long, as a feature header's
    # uint32 frame count is, and so is a step
    @pytest.mark.parametrize("delta", [0, -1, 2 ** 32, 2 ** 63])
    def test_validation(self, delta):
        t = track_from_mapped(np.full(10, 0.5))
        for make in (lambda: propose(t, 1, 1, 0, delta),
                     lambda: proposal_table(*every_row([t]), [0], delta,
                                            1, 1),
                     lambda: AdjustParams(delta=delta)):
            with pytest.raises(ContractViolation) as err:
                make()
            assert err.value.context == {"delta": delta}

    def test_every_track_has_proposals(self):
        """round(0.6 * T) >= 1 for every T >= 1, so no track, however
        short, runs out of candidate windows."""
        for T in range(1, 40):
            t = track_from_mapped(np.full(T, 0.5))
            for delta in (1, 2, 5, 40):
                assert len(propose(t, 5, 1, T, delta)) >= 1


class TestPropose:
    def test_support_window_is_top1(self):
        mapped = np.zeros(50)
        mapped[10:20] = 1.0
        out = propose(track_from_mapped(mapped), U=3, epoch=1, seed=0, delta=5)
        assert out[0].boundary.as_tuple() == (10, 20)

    def test_uniform_track_equal_confidences(self):
        out = propose(track_from_mapped(np.full(40, 0.6)), U=4, epoch=1, seed=0,
                      delta=5)
        # surviving same-length windows on a flat track tie in confidence
        lengths = {p.boundary.end - p.boundary.start for p in out}
        for length in lengths:
            confs = [p.confidence for p in out
                     if p.boundary.end - p.boundary.start == length]
            assert max(confs) - min(confs) < 1e-12

    def test_deterministic(self):
        mapped = np.linspace(0.1, 0.9, 64)
        t = track_from_mapped(mapped)
        a = propose(t, U=5, epoch=3, seed=11, delta=5)
        c = propose(t, U=5, epoch=3, seed=11, delta=5)
        assert [(p.boundary.as_tuple(), p.confidence) for p in a] == \
            [(p.boundary.as_tuple(), p.confidence) for p in c]

    def test_nms_limits_pairwise_overlap(self):
        rng = np.random.default_rng(8)
        t = track_from_mapped(rng.uniform(0, 1, 60))
        out = propose(t, U=8, epoch=2, seed=3, delta=5)
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert iou(out[i].boundary, out[j].boundary) <= 0.5 + 1e-12

    def test_confidences_positive_and_bounded(self):
        rng = np.random.default_rng(9)
        t = track_from_mapped(rng.uniform(0, 1, 60))
        out = propose(t, U=5, epoch=1, seed=0, delta=5)
        assert all(p.confidence > 0 for p in out)
        assert sum(p.confidence for p in out) <= 1.0 + 1e-12
        assert [p.confidence for p in out] == \
            sorted((p.confidence for p in out), reverse=True)

    def test_count_never_exceeds_u(self):
        rng = np.random.default_rng(10)
        t = track_from_mapped(rng.uniform(0, 1, 30))
        for U in (1, 3, 200):
            out = propose(t, U=U, epoch=1, seed=0, delta=5)
            assert 1 <= len(out) <= U

    def test_u_must_be_positive(self):
        with pytest.raises(ContractViolation):
            propose(track_from_mapped(np.full(10, 0.5)), U=0, epoch=1, seed=0,
                    delta=5)

    @settings(max_examples=100)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_boost_inside_top1_keeps_rank(self, seed):
        """Raising mapped similarity strictly inside the current top-1
        window cannot drop its score below that of a window unaffected
        by the change (one that excludes the boosted frame)."""
        from morp.predictor import _contrast_margin

        rng = np.random.default_rng(seed)
        T = 40
        mapped = rng.uniform(0.05, 0.9, T)
        t = track_from_mapped(mapped)
        top = propose(t, U=1, epoch=1, seed=0, delta=5)[0].boundary
        idx = int(rng.integers(top.start, top.end))
        boosted = mapped.copy()
        boosted[idx] = min(1.0, boosted[idx] + 0.1)
        t2 = track_from_mapped(boosted)
        # any window excluding the boosted frame
        s2, e2 = (0, idx) if idx > 0 else (idx + 1, T)
        starts = np.array([top.start, s2])
        ends = np.array([top.end, e2])
        before = _contrast_margin(t, starts, ends)
        after = _contrast_margin(t2, starts, ends)
        if before[0] >= before[1]:
            assert after[0] >= after[1]


def every_row(tracks):
    """The CorpusTracks of a list of tracks and all its rows, in order:
    proposal_table's first two arguments for propose over the list."""
    return corpus_tracks(tracks), range(len(tracks))


def oracle(tracks, seeds, U, epoch, delta):
    """Per-track propose over a corpus.  Each track's proposals are a
    tuple of (start, end, confidence), the form of
    EpochPredictions.tuples()."""
    return [tuple((p.boundary.start, p.boundary.end, p.confidence)
                  for p in propose(t, U, epoch, s, delta))
            for t, s in zip(tracks, seeds)]


@st.composite
def corpora(draw):
    """Tracks of mixed lengths, some flat, some with tied values, their
    seeds, a permuted subset of their rows, and the order in which the
    corpus lays them out."""
    n = draw(st.integers(1, 12))
    tracks = []
    for _ in range(n):
        T = draw(st.sampled_from([1, 2, 3, 4, 5, 9, 16, 33, 64]))
        kind = draw(st.sampled_from(["uniform", "tied", "flat"]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        if kind == "uniform":
            mapped = rng.uniform(0, 1, T)
        elif kind == "tied":
            mapped = rng.integers(0, 3, T) / 2.0
        else:
            mapped = np.full(T, 0.25)
        tracks.append(track_from_mapped(mapped))
    seeds = draw(st.lists(st.integers(0, 2 ** 40), min_size=n, max_size=n))
    rows = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    return tracks, seeds, rows, draw(st.permutations(range(n)))


# 40 strides past every sampled T but 64
deltas = st.sampled_from([1, 2, 5, 40])


def rng_offsets(seed, epoch, jitter, F):
    return np.random.default_rng([seed, epoch]).integers(
        -jitter, jitter + 1, size=F)


# default_rng([REJECTED_SEED, 1]).integers(-5, 6, size=8) rejects its 6th
# 32-bit word and draws a 9th
REJECTED_SEED = 253736813


class TestJitterOffsets:
    """_jitter_offsets must draw what default_rng([seed, epoch]) draws."""

    @settings(max_examples=300)
    @given(seed=st.integers(0, 2 ** 32 - 1), epoch=st.integers(1, 2 ** 32 - 1),
           jitter=st.one_of(st.integers(1, 64), st.integers(1, 2 ** 33)),
           F=st.integers(1, 12))
    @example(seed=REJECTED_SEED, epoch=1, jitter=5, F=8)
    @example(seed=7, epoch=2 ** 32, jitter=3, F=4)          # 3 entropy words
    @example(seed=0, epoch=1, jitter=2 ** 31 - 1, F=3)      # widest replica span
    @example(seed=0, epoch=1, jitter=2 ** 31, F=3)          # 64-bit bounded draw
    def test_matches_default_rng(self, seed, epoch, jitter, F):
        assert _jitter_offsets([seed], epoch, jitter, F).tolist() == \
            [rng_offsets(seed, epoch, jitter, F).tolist()]

    def test_rejected_draw_is_redrawn(self):
        want = [-3, -4, 5, 1, 2, -1, 0, 4]
        assert rng_offsets(REJECTED_SEED, 1, 5, 8).tolist() == want
        draws, rejected = _replica_draws(np.array([REJECTED_SEED]), 1, 11, 8)
        assert rejected.tolist() == [True]
        assert (draws - 5).tolist() == [[-3, -4, 5, 1, 2, 3, -1, 0]]
        assert _jitter_offsets([REJECTED_SEED], 1, 5, 8).tolist() == [want]

    @pytest.mark.parametrize("jitter", [1, 5, 40, 1000003, 2 ** 30])
    def test_many_pairs(self, jitter):
        """4 x 5 x 1000 = 20,000 (seed, epoch) pairs.  With jitter 1000003
        a few rows take the rejection branch; with 2**30 almost all do."""
        rng = np.random.default_rng(jitter)
        seeds = rng.integers(0, 2 ** 32, size=1000)
        epochs = [1, 15] + rng.integers(16, 2 ** 32, size=2).tolist()
        for epoch in epochs:
            want = [rng_offsets(int(s), epoch, jitter, 8) for s in seeds]
            assert np.array_equal(_jitter_offsets(seeds, epoch, jitter, 8),
                                  np.array(want))


def float_suppress(s1, e1, s2, e2):
    """propose's NMS test on int64 frames: IoU above NMS_IOU."""
    inter = np.maximum(np.minimum(e1, e2) - np.maximum(s1, s2), 0)
    return inter / ((e1 - s1) + (e2 - s2) - inter) > NMS_IOU


def int_suppress(s1, e1, s2, e2):
    """The proposal blocks' NMS test: 3 * overlap above the lengths' sum."""
    return 3 * (np.minimum(e1, e2) - np.maximum(s1, s2)) > \
        (e1 - s1) + (e2 - s2)


# a (start, end) interval with 0 <= start < end <= 2**32
frames_2_32 = st.lists(st.integers(0, 2 ** 32), min_size=2, max_size=2,
                       unique=True).map(sorted)


class TestIntegerSuppression:
    """The blocks' integer NMS test equals propose's float one."""

    def test_threshold_is_one_half(self):
        # the integer form is inter / union > 1/2 and holds for no other
        assert NMS_IOU == 0.5

    def test_every_pair_up_to_64_frames(self):
        """All 2,080 intervals with endpoints in [0, 64], every ordered
        pair of them: 4,326,400 pairs."""
        s, e = (a.astype(np.int64) for a in np.triu_indices(65, 1))
        assert len(s) == 2080
        for lo in range(0, len(s), 160):
            s1, e1 = s[lo:lo + 160, None], e[lo:lo + 160, None]
            assert np.array_equal(int_suppress(s1, e1, s, e),
                                  float_suppress(s1, e1, s, e))

    @settings(max_examples=300)
    @given(frames_2_32, frames_2_32)
    @example((0, 2), (0, 4))                                # IoU exactly 1/2
    @example((0, 2 ** 32), (1, 2 ** 31 + 1))                # 1/2 at 2**32
    @example((0, 2 ** 32), (0, 2 ** 31 + 1))                # just above 1/2
    @example((0, 2 ** 31), (2 ** 31, 2 ** 32))              # touching
    @example((0, 1), (2 ** 32 - 1, 2 ** 32))                # far apart
    def test_endpoints_up_to_2_32(self, first, second):
        (s1, e1), (s2, e2) = (np.asarray(p, dtype=np.int64)
                              for p in (first, second))
        assert int_suppress(s1, e1, s2, e2) == float_suppress(s1, e1, s2, e2)


class TestProposalTable:
    """proposal_table must return exactly what per-track propose returns."""

    @settings(max_examples=300)
    @given(corpora(), deltas, st.integers(1, 40), st.integers(1, 20))
    def test_matches_propose(self, corpus, delta, U, epoch):
        """Row i of the table is manifest row rows[i], whose track lies
        at another place of the corpus' flat arrays: the layout order
        is drawn apart from the manifest rows, so ``base`` need not
        grow with the row."""
        tracks, seeds, rows, layout = corpus
        seeds = [seeds[r] for r in rows]
        # float equality compares confidences exactly
        assert proposal_table(corpus_tracks(tracks, layout), rows, seeds,
                              delta, U, epoch).epoch(epoch).tuples() == \
            oracle([tracks[r] for r in rows], seeds, U, epoch, delta)

    def test_offset_draw_matches_scalar_draws(self):
        """The table draws each track's F jitter offsets with one size-F
        call; propose draws them one at a time.  NumPy does not document
        that the two agree, so check it over many seeds."""
        rng = np.random.default_rng(0)
        for seed in rng.integers(0, 2 ** 32, size=3000).tolist():
            jitter = seed % 7 + 1
            epoch = seed % 15 + 1
            one = np.random.default_rng([seed, epoch])
            many = np.random.default_rng([seed, epoch])
            assert many.integers(-jitter, jitter + 1, size=8).tolist() == \
                [int(one.integers(-jitter, jitter + 1)) for _ in range(8)]

    def test_full_length(self):
        rng = np.random.default_rng(0)
        tracks = [track_from_mapped(rng.uniform(0, 1, 128)) for _ in range(8)]
        seeds = rng.integers(0, 2 ** 32, size=8).tolist()
        table = proposal_table(*every_row(tracks), seeds, 5, 5, 15)
        for epoch in (1, 2, 15):
            assert table.epoch(epoch).tuples() == \
                oracle(tracks, seeds, 5, epoch, 5)

    def test_more_tracks_than_one_block(self):
        rng = np.random.default_rng(1)
        lengths = [32, 48] * BLOCK_ROWS
        tracks = [track_from_mapped(rng.uniform(0, 1, T)) for T in lengths]
        seeds = list(range(len(tracks)))
        assert proposal_table(*every_row(tracks), seeds, 5, 5, 3).epoch(
            3).tuples() == \
            oracle(tracks, seeds, 5, 3, 5)

    def test_more_than_one_pairwise_block_of_survivors(self):
        """Rows with more than 128 survivors: their softmax sums take
        NumPy's recursive pairwise branch."""
        rng = np.random.default_rng(2)
        tracks = [track_from_mapped(rng.uniform(0, 1, T))
                  for T in (512, 512, 600, 700)]
        tracks.append(track_from_mapped(np.full(512, 0.3)))
        seeds = rng.integers(0, 2 ** 32, size=len(tracks)).tolist()
        got = proposal_table(*every_row(tracks), seeds, 1, 1000, 4).epoch(4)
        assert got.count.max() > 128
        assert got.tuples() == oracle(tracks, seeds, 1000, 4, 1)

    def test_u_above_survivor_count(self):
        rng = np.random.default_rng(3)
        tracks = [track_from_mapped(rng.uniform(0, 1, T)) for T in (17, 40, 64)]
        got = proposal_table(*every_row(tracks), [5, 6, 7], 5, 300,
                             2).epoch(2)
        assert (got.count < 300).all()
        assert got.tuples() == oracle(tracks, [5, 6, 7], 300, 2, 5)

    @pytest.mark.parametrize("delta", [1, 5, 40])
    def test_flat_tracks(self, delta):
        tracks = [track_from_mapped(np.full(T, v))
                  for T, v in ((128, 0.5), (128, 0.0), (64, 1.0), (300, 0.7))]
        table = proposal_table(*every_row(tracks), [1, 2, 3, 4], delta, 7, 9)
        for epoch in (1, 9):
            assert table.epoch(epoch).tuples() == \
                oracle(tracks, [1, 2, 3, 4], 7, epoch, delta)

    def test_padding_slot_outscoring_every_candidate(self):
        """The second track has one support run, (0, 2), so the block pads
        its support slots with the window (0, 1), which outscores all its
        candidates; the softmax shift must still be its top survivor."""
        many = track_from_mapped(np.tile([0.0, 1.0, 0.0, 0.6], 25))
        peak = np.zeros(100)
        peak[:2] = (1.0, 0.7)
        tracks = [many, track_from_mapped(peak)]
        got = proposal_table(*every_row(tracks), [1, 2], 5, 10, 3).epoch(3)
        assert got.tuples() == oracle(tracks, [1, 2], 10, 3, 5)

    def test_rejected_jitter_draw(self):
        rng = np.random.default_rng(4)
        tracks = [track_from_mapped(rng.uniform(0, 1, 128)) for _ in range(3)]
        seeds = [11, REJECTED_SEED, 2 ** 32 + REJECTED_SEED]
        assert proposal_table(*every_row(tracks), seeds, 5, 40, 1).epoch(
            1).tuples() == \
            oracle(tracks, seeds, 40, 1, 5)

    def test_huge_u_is_no_wider_than_the_candidates(self):
        """The arrays are as wide as the most candidates a row can have,
        not U, so a huge U costs no memory."""
        rng = np.random.default_rng(5)
        tracks = [track_from_mapped(rng.uniform(0, 1, T))
                  for T in (64, 64, 40)]
        got = proposal_table(*every_row(tracks), [1, 2, 3], 5, 10 ** 6,
                             1).epoch(1)
        assert got.tuples() == oracle(tracks, [1, 2, 3], 10 ** 6, 1, 5)
        # the unjittered windows of the longest track, one every 5 frames;
        # jitter can only merge clipped starts
        windows = sum(len(range(0, 64 - round(f * 64) + 1, 5))
                      for f in WINDOW_FRACTIONS)
        support = max(len(_support_candidates(t.mapped)) for t in tracks)
        assert got.count.max() <= got.start.shape[1] <= windows + support

    def test_u_must_be_positive(self):
        tracks = [track_from_mapped(np.full(10, 0.5))]
        with pytest.raises(ContractViolation):
            proposal_table(*every_row(tracks), [0], 5, 0, 1)
        with pytest.raises(ContractViolation):
            proposal_table(*every_row(tracks), [0], 5, 1, 0)

    def test_empty(self):
        assert proposal_table(*every_row([]), [], 5, 5, 1).epoch(
            1).tuples() == []

    def test_mixed_lengths_match_propose(self):
        """Rows are (track, epoch) pairs: each timeline length lays its
        tracks' epochs end to end and cuts them into blocks, so blocks
        straddle epochs, and a length with few tracks fills its blocks
        with epochs."""
        rng = np.random.default_rng(7)
        # one length with more tracks than a block, one pair, four singletons
        lengths = [24] * (BLOCK_ROWS + 3) + [48, 48, 17, 40, 64, 100]
        rng.shuffle(lengths)
        tracks = [track_from_mapped(rng.uniform(0, 1, T)) for T in lengths]
        seeds = rng.integers(0, 2 ** 32, size=len(tracks)).tolist()
        table = proposal_table(*every_row(tracks), seeds, 5, 5, 15)
        assert table.count.shape == (15, len(tracks))
        for epoch in range(1, 16):
            assert table.epoch(epoch).tuples() == \
                oracle(tracks, seeds, 5, epoch, 5)

    @pytest.mark.parametrize("epoch", [0, 4])
    def test_epoch_outside_the_table(self, epoch):
        table = proposal_table(
            *every_row([track_from_mapped(np.full(10, 0.5))]), [0],
                               5, 5, 3)
        with pytest.raises(ContractViolation):
            table.epoch(epoch)


class TestSplitLengthGroup:
    """A timeline length whose tracks span several blocks, the last one
    partial, with tracks of another length interleaved among them."""

    def test_matches_propose_at_correction_shape(self):
        # one plateau per track: one support run plus 118 windows, about
        # 34 NMS survivors, as on the 500 x 128 synthetic corpus
        rng = np.random.default_rng(6)

        def plateau(T):
            mapped = rng.uniform(0.1, 0.2, T)
            start = int(rng.integers(0, T // 2))
            mapped[start:start + int(rng.integers(8, T // 2))] += 0.6
            return track_from_mapped(mapped)

        lengths = [128] * (2 * BLOCK_ROWS + 37)
        for i in (len(lengths), BLOCK_ROWS + 5, 100, 0):
            lengths.insert(i, 96)
        tracks = [plateau(T) for T in lengths]
        seeds = rng.integers(0, 2 ** 32, size=len(tracks)).tolist()
        table = proposal_table(*every_row(tracks), seeds, 5, 5, 15)
        for epoch in (1, 15):
            got = table.epoch(epoch)
            assert got.tuples() == oracle(tracks, seeds, 5, epoch, 5)
        survivors = proposal_table(*every_row(tracks), seeds, 5, 200, 1).count[
            0, np.array(lengths) == 128]
        assert 30 <= np.median(survivors) <= 38


class TestFilePredictor:
    def test_replays_records(self, tmp_path):
        import json

        path = tmp_path / "preds.jsonl"
        rec = {"epoch": 1, "annotation_id": "a0",
               "predictions": [{"start": 2, "end": 9, "confidence": 0.8},
                               {"start": 0, "end": 4, "confidence": 0.2}]}
        path.write_text(json.dumps(rec) + "\n")
        fp = FilePredictor(path)
        t = track_from_mapped(np.full(16, 0.5))
        out = fp.for_annotation("a0", t, U=5, epoch=1)
        assert [(p.boundary.as_tuple(), p.confidence) for p in out] == \
            [((2, 9), 0.8), ((0, 4), 0.2)]

    def test_missing_record(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text("")
        fp = FilePredictor(path)
        t = track_from_mapped(np.full(16, 0.5))
        with pytest.raises(PredictorError):
            fp.for_annotation("a0", t, U=5, epoch=1)

    def test_table_arrays_match_for_annotation(self, tmp_path):
        import json

        recs = [(1, "a0", [(2, 9, 0.8), (0, 4, 0.2), (1, 3, 0.1)]),
                (1, "a1", [(5, 7, 1.0)]),
                (2, "a0", [(0, 1, 0.5)]),
                (1, "a1", [(6, 8, 0.3), (6, 8, 0.3)])]  # replaces a1 @ 1
        path = tmp_path / "preds.jsonl"
        path.write_text("\n\n".join(json.dumps(
            {"epoch": j, "annotation_id": a,
             "predictions": [{"start": s, "end": e, "confidence": c}
                             for s, e, c in preds]}) for j, a, preds in recs))
        fp = FilePredictor(path)
        t = track_from_mapped(np.full(16, 0.5))
        got = fp.table(["a1", "a0"], 2, 1).epoch(1)
        assert got.count.tolist() == [2, 2]
        assert got.tuples() == [
            tuple((p.boundary.start, p.boundary.end, p.confidence)
                  for p in fp.for_annotation(aid, t, 2, 1))
            for aid in ("a1", "a0")]
        assert got.tuples() == [((6, 8, 0.3), (6, 8, 0.3)),
                                ((2, 9, 0.8), (0, 4, 0.2))]
        with pytest.raises(PredictorError) as err:
            fp.table(["a0", "a1"], 2, 2)
        assert err.value.context == {"annotation_id": "a1", "epoch": 2}
        assert fp.table([], 3, 1).start.shape == (1, 0, 3)
        # a huge U: as wide as the longest record, not U
        huge = fp.table(["a1", "a0"], 10 ** 6, 1)
        assert huge.start.shape == (1, 2, 3)
        assert huge.epoch(1).tuples() == \
            fp.table(["a1", "a0"], 3, 1).epoch(1).tuples()

    @pytest.mark.parametrize("line", [
        '{"epoch": 1, "annotation_id": "a0", "predictions": [',  # bad JSON
        '[1, 2]',                                                # not an object
        '{"epoch": 1, "annotation_id": "a0"}',                   # no predictions
        '{"annotation_id": "a0", "predictions": []}',            # no epoch
        '{"epoch": "one", "annotation_id": "a0", "predictions": []}',
        '{"epoch": 1, "annotation_id": 7, "predictions": []}',
        '{"epoch": 1, "annotation_id": "a0", "predictions": {}}',
        '{"epoch": 1, "annotation_id": "a0", "predictions": [3]}',
        '{"epoch": 1, "annotation_id": "a0", "predictions": '
        '[{"start": "x", "end": 4, "confidence": 0.5}]}',
        '{"epoch": 1, "annotation_id": "a0", "predictions": '
        '[{"start": 0, "end": 4}]}',
        '{"epoch": 1, "annotation_id": "a0", "predictions": '
        '[{"start": 0, "end": Infinity, "confidence": 0.5}]}',
        '{"epoch": 1, "annotation_id": "a0", "predictions": '
        '[{"start": 0, "end": 4, "confidence": null}]}',
        '{"epoch": 1, "annotation_id": "a0", "predictions": '
        '[{"start": 0, "end": 99999999999999999999, "confidence": 0.5}]}',
        # JSON values of the wrong type, which no parse coerces
        '{"epoch": 1.5, "annotation_id": "a0", "predictions": []}',
        '{"epoch": true, "annotation_id": "a0", "predictions": []}',
        '{"epoch": 1, "annotation_id": "a0", "predictions": '
        '[{"start": 2.5, "end": 4, "confidence": 0.5}]}',
        '{"epoch": 1, "annotation_id": "a0", "predictions": '
        '[{"start": 0, "end": "9", "confidence": 0.5}]}',
        '{"epoch": 1, "annotation_id": "a0", "predictions": '
        '[{"start": 0, "end": 4, "confidence": true}]}',
        '{"epoch": 1, "annotation_id": "a0", "predictions": '
        '[{"start": 0, "end": 4, "confidence": "0.5"}]}',
    ])
    def test_malformed_line_names_path_and_line(self, tmp_path, line):
        good = ('{"epoch": 1, "annotation_id": "a1", "predictions": '
                '[{"start": 0, "end": 4, "confidence": 0.5}]}')
        path = tmp_path / "preds.jsonl"
        path.write_text(good + "\n\n" + line + "\n" + good + "\n")
        with pytest.raises(PredictorError) as err:
            FilePredictor(path)
        assert err.value.context["path"] == str(path)
        assert err.value.context["line"] == 3

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_bytes(b'{"epoch": 1, "annotation_id": "\xff"}\n')
        with pytest.raises(PredictorError) as err:
            FilePredictor(path)
        assert err.value.context["path"] == str(path)


def replay_oracle(lines):
    """(epoch, annotation_id) -> the (start, end, confidence) list of the
    last record with that key, kept in a plain dict."""
    import json

    records = {}
    for line in lines:
        if line.strip():
            rec = json.loads(line)
            records[(int(rec["epoch"]), rec["annotation_id"])] = [
                (int(p["start"]), int(p["end"]), float(p["confidence"]))
                for p in rec["predictions"]]
    return records


REPLAY_IDS = ["a0", "a1", 'q"\\\n\t/', "\ud800", "é\udfff", " é"]
REPLAY_EPOCHS = [-1, 0, 2 ** 63 - 1, 2 ** 63, -2 ** 63 - 1, 10 ** 30]


def replay_line(epoch, aid, preds, raw=False):
    import json

    # a lone surrogate has no UTF-8 form: such an id is always escaped
    ascii = not raw or any(0xD800 <= ord(ch) < 0xE000 for ch in aid)
    return json.dumps({"epoch": epoch, "annotation_id": aid,
                       "predictions": [{"start": s, "end": e, "confidence": c}
                                       for s, e, c in preds]},
                      ensure_ascii=ascii)


@st.composite
def replay_files(draw):
    """Lines of a replay file: records over a few epochs and ids, with
    repeated keys, blank lines and epochs no lookup reaches."""
    epoch = st.one_of(st.integers(1, 3), st.sampled_from(REPLAY_EPOCHS))
    pred = st.tuples(st.integers(-5, 40), st.integers(-5, 40),
                     st.floats(allow_nan=False, width=64))
    lines = []
    for _ in range(draw(st.integers(0, 24))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t \t"])))
        else:
            lines.append(replay_line(draw(epoch),
                                     draw(st.sampled_from(REPLAY_IDS)),
                                     draw(st.lists(pred, max_size=6)),
                                     draw(st.booleans())))
    return lines


class TestFilePredictorOracle:
    @staticmethod
    def write(tmp_path, lines):
        path = tmp_path / "preds.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return FilePredictor(path)

    @given(lines=replay_files(),
           ids=st.lists(st.sampled_from(REPLAY_IDS), max_size=4),
           epochs=st.integers(1, 3), U=st.integers(1, 7))
    @example(lines=[replay_line(1, "a0", [(0, 4, 0.5)]),
                    replay_line(1, "a0", [(1, 3, 0.25), (2, 5, 0.75)])],
             ids=["a0"], epochs=1, U=7)  # the later record wins
    @example(lines=[replay_line(j, aid, [(1, 2, 0.5)])
                    for j in REPLAY_EPOCHS for aid in ("a0", "a1")]
             + [replay_line(1, "a1", [(3, 4, 1.0)])],
             ids=["a1"], epochs=1, U=1)  # no lookup reaches these epochs
    @example(lines=["", "  ", replay_line(1, REPLAY_IDS[2], [(1, 2, 0.5)]),
                    replay_line(1, REPLAY_IDS[3], [(3, 4, 0.5)]),
                    replay_line(1, REPLAY_IDS[4], [(5, 6, 0.5)], raw=True),
                    replay_line(1, REPLAY_IDS[5], [(7, 8, 0.5)], raw=True)],
             ids=REPLAY_IDS[2:], epochs=1, U=2)  # escaped and raw ids
    @settings(max_examples=200)
    def test_table_matches_dict_oracle(self, tmp_path_factory, lines, ids,
                                       epochs, U):
        fp = self.write(tmp_path_factory.mktemp("oracle"), lines)
        records = replay_oracle(lines)
        missing = [(j, aid) for j in range(1, epochs + 1) for aid in ids
                   if (j, aid) not in records]
        if missing:
            with pytest.raises(PredictorError) as err:
                fp.table(ids, U, epochs)
            j, aid = missing[0]
            assert err.value.context == {"annotation_id": aid, "epoch": j}
            return
        table = fp.table(ids, U, epochs)
        for j in range(1, epochs + 1):
            assert table.epoch(j).tuples() == [
                tuple(records[(j, aid)][:U]) for aid in ids]

    def test_unreached_epochs_match_no_lookup(self, tmp_path):
        """Only epochs 1 to MAX_EPOCHS, which a run can ask for, are
        indexed."""
        fp = self.write(tmp_path, [replay_line(j, "a0", [(1, 2, 0.5)])
                                   for j in REPLAY_EPOCHS +
                                   [MAX_EPOCHS, MAX_EPOCHS + 1]])
        t = track_from_mapped(np.full(16, 0.5))
        for j in (-1, 0, 1, MAX_EPOCHS + 1, 2 ** 62):
            with pytest.raises(PredictorError) as err:
                fp.for_annotation("a0", t, U=5, epoch=j)
            assert err.value.context == {"annotation_id": "a0", "epoch": j}
        assert len(fp.for_annotation("a0", t, U=5, epoch=MAX_EPOCHS)) == 1

    @pytest.mark.parametrize("lines, line, value", [
        # a start overflow on a later line before an end overflow
        ([replay_line(1, "a0", [(0, 2 ** 63, 0.5)]), "",
          replay_line(1, "a1", [(-2 ** 63 - 1, 4, 0.5)])], 3, -2 ** 63 - 1),
        # the first start overflow, counted past blank lines
        (["", " \t", replay_line(1, "a0", [(1, 2, 0.5), (2 ** 64, 3, 0.5)]),
          replay_line(1, "a1", [(2 ** 65, 2, 0.5)])], 3, 2 ** 64),
        # the first end overflow when no start overflows
        ([replay_line(1, "a0", [(1, 2 ** 70, 0.5)]),
          replay_line(1, "a1", [(1, 2 ** 63, 0.5)])], 1, 2 ** 70),
        # a malformed line after an overflow
        ([replay_line(1, "a0", [(2 ** 63, 2, 0.5)]), "  ",
          '{"epoch": 1, "annotation_id": "a1"}'], 3, None),
    ])
    def test_error_order(self, tmp_path, lines, line, value):
        with pytest.raises(PredictorError) as err:
            self.write(tmp_path, lines)
        assert err.value.context["line"] == line
        if value is None:
            assert err.value.message == "malformed prediction record"
        else:
            assert err.value.message == "prediction boundary out of range"
            assert err.value.context["value"] == str(value)

    def test_not_utf8_before_an_overflow(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_bytes(replay_line(1, "a0", [(2 ** 63, 2, 0.5)]).encode()
                         + b'\n{"epoch": 1, "annotation_id": "\xff"}\n')
        with pytest.raises(PredictorError) as err:
            FilePredictor(path)
        assert err.value.message == "prediction file is not UTF-8 text"

    def test_columns_stay_small(self, tmp_path):
        # 400 annotations x 15 epochs x 5 predictions, the replay shape;
        # a Python object per value would cost over 60 B a prediction
        import tracemalloc

        rng = np.random.default_rng(0)
        s = rng.integers(0, 100, (15, 400, 5))
        e = s + rng.integers(1, 28, s.shape)
        c = rng.random(s.shape)
        path = tmp_path / "preds.jsonl"
        path.write_text("".join(
            replay_line(j + 1, f"v{a // 2:05d}-a{a % 2}",
                        zip(s[j, a].tolist(), e[j, a].tolist(),
                            c[j, a].tolist())) + "\n"
            for j in range(15) for a in range(400)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fp = FilePredictor(path)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = s.size
        assert (peak - base) / n < 64, (peak - base) / n
        assert (current - base) / n < 40, (current - base) / n
        assert fp.table(["v00000-a1"], 5, 15).count.sum() == 75

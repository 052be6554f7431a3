"""Memory banks, consensus selection, insertion, and the correction loop."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import annotation_table, corpus_tracks, track_of
from morp.core import Boundary, ScoredBoundary
from morp.errors import ContractViolation, PredictorError
from morp.predictor import (
    EpochPredictions,
    FilePredictor,
    annotation_seed,
    proposal_table,
    sliding_windows,
)
from morp.consensus import (
    CONSENSUS_ROWS,
    CorrectionParams,
    MemoryBank,
    TraceRecord,
    consensus_picks,
    consensus_scores,
    run_correction,
    select_consensus,
    select_insert,
)

T = 20


def b(s, e, t=T):
    return Boundary(s, e, t)


def bank_of(*bounds, capacity=32):
    return MemoryBank("ann", list(bounds), capacity=capacity)


def consensus_oracle(bounds):
    """Independent O(N^2) IoU sums, exact as Fractions of frame counts."""
    scores = []
    for r, br in enumerate(bounds):
        total = Fraction(0)
        for k, bk in enumerate(bounds):
            inter = min(br.end, bk.end) - max(br.start, bk.start)
            if k != r and inter > 0:
                total += Fraction(inter, br.length + bk.length - inter)
        scores.append(total)
    return scores


class TestConsensusScores:
    def test_hand_computed(self):
        scores = consensus_scores(bank_of(b(0, 10), b(0, 10), b(5, 15)))
        np.testing.assert_allclose(scores, [4 / 3, 4 / 3, 2 / 3])

    def test_singleton(self):
        np.testing.assert_allclose(consensus_scores(bank_of(b(0, 10))), [0.0])

    def test_disjoint_pair(self):
        np.testing.assert_allclose(consensus_scores(bank_of(b(0, 4), b(6, 10))),
                                   [0.0, 0.0])

    @given(st.integers(0, 2 ** 32 - 1))
    def test_permutation_covariant(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        bounds = []
        for _ in range(n):
            s = int(rng.integers(0, T - 1))
            bounds.append(b(s, int(rng.integers(s + 1, T + 1))))
        base = consensus_scores(bank_of(*bounds))
        perm = rng.permutation(n)
        permuted = consensus_scores(bank_of(*[bounds[i] for i in perm]))
        np.testing.assert_allclose(permuted, base[perm])


class TestSelectConsensus:
    def test_duplicate_tie_goes_to_first(self):
        assert select_consensus(bank_of(b(0, 10), b(0, 10), b(5, 15))) == b(0, 10)

    def test_singleton(self):
        assert select_consensus(bank_of(b(3, 9))) == b(3, 9)

    def test_zero_tie_earliest(self):
        assert select_consensus(bank_of(b(0, 4), b(6, 10))) == b(0, 4)


class TestSelectInsert:
    def test_strict_argmax(self):
        preds = [ScoredBoundary(b(0, 1), 0.2), ScoredBoundary(b(1, 2), 0.9),
                 ScoredBoundary(b(2, 3), 0.5)]
        assert select_insert(preds) is preds[1]

    def test_tie_earliest(self):
        preds = [ScoredBoundary(b(0, 1), 0.5), ScoredBoundary(b(1, 2), 0.5)]
        assert select_insert(preds) is preds[0]

    def test_monotone_transform_invariance(self):
        confs = [0.1, 0.7, 0.3]
        preds = [ScoredBoundary(b(i, i + 1), c) for i, c in enumerate(confs)]
        squashed = [ScoredBoundary(b(i, i + 1), c ** 2)
                    for i, c in enumerate(confs)]
        assert select_insert(preds).boundary == select_insert(squashed).boundary

    def test_empty(self):
        with pytest.raises(ContractViolation):
            select_insert([])


class TestMemoryBank:
    def test_append(self):
        bank = bank_of(b(0, 5))
        bank.insert(b(1, 6))
        assert bank.instances == [b(0, 5), b(1, 6)]

    def test_fifo_keeps_seed(self):
        bank = bank_of(b(0, 5), b(1, 6), b(2, 7), capacity=3)
        bank.insert(b(3, 8))
        assert bank.instances == [b(0, 5), b(2, 7), b(3, 8)]

    def test_duplicates_stored(self):
        bank = bank_of(b(0, 5))
        bank.insert(b(0, 5))
        assert bank.instances == [b(0, 5), b(0, 5)]

    def test_seed_survives_many_evictions(self):
        bank = bank_of(b(0, 5), capacity=4)
        for i in range(1, 12):
            bank.insert(b(i, i + 4))
        assert bank.instances[0] == b(0, 5)
        assert len(bank.instances) == 4

    def test_empty_bank_rejected(self):
        with pytest.raises(ContractViolation):
            MemoryBank("x", [])


class TestConsensusOracle:
    @settings(max_examples=300)
    @given(st.integers(0, 2 ** 32 - 1))
    @example(seed=57954)
    @example(seed=2457782)  # two exact scores of 311/144
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 33))
        bounds = []
        for _ in range(n):
            s = int(rng.integers(0, 19))
            bounds.append(b(s, int(rng.integers(s + 1, 21))))
        bank = bank_of(*bounds)
        scores = consensus_oracle(bounds)
        got = consensus_scores(bank)
        np.testing.assert_allclose(got, [float(x) for x in scores])
        # Exact ties may round apart in floats, so any instance attaining
        # the exact maximum is a correct pick.
        picked = int(np.argmax(got))
        assert scores[picked] == max(scores)
        assert select_consensus(bank) == bounds[picked]


class TestConsensusPicks:
    """The blocked (rows, n, n) consensus must pick what select_consensus
    picks, bank by bank, ties and duplicates included."""

    @settings(max_examples=200)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 33),
           st.sampled_from([2, 3, 8, 20, 128]),
           st.sampled_from([1, 7, CONSENSUS_ROWS, CONSENSUS_ROWS + 3]))
    def test_matches_select_consensus(self, seed, n, T, A):
        rng = np.random.default_rng(seed)
        # few distinct boundaries per row, so duplicates and tied scores
        # are common
        pool = int(rng.integers(1, 6))
        starts = rng.integers(0, T - 1, size=(A, pool))
        ends = starts + 1 + rng.integers(0, T - starts)
        cols = rng.integers(0, pool, size=(A, n))
        bank_s = np.take_along_axis(starts, cols, axis=1)
        bank_e = np.take_along_axis(ends, cols, axis=1)
        picks = consensus_picks(bank_s, bank_e)
        for i in range(A):
            bank = MemoryBank("a", [b(s, e, T) for s, e in
                                    zip(bank_s[i].tolist(), bank_e[i].tolist())])
            assert picks[i] == int(np.argmax(consensus_scores(bank)))
            assert b(int(bank_s[i, picks[i]]), int(bank_e[i, picks[i]]), T) == \
                select_consensus(bank)

    def test_tie_goes_to_first(self):
        starts = np.array([[0, 0, 5], [0, 6, 0]])
        ends = np.array([[10, 10, 15], [4, 10, 4]])
        assert consensus_picks(starts, ends).tolist() == [0, 0]

    def test_empty(self):
        assert consensus_picks(np.zeros((0, 3), np.int64),
                               np.ones((0, 3), np.int64)).shape == (0,)

    def test_pick_does_not_depend_on_memory_layout(self):
        """The seed (0, 4) and (0, 5) tie at 4.4 on T = 5, but their sums
        round apart when added along a strided axis: Fortran-ordered
        banks, and column gathers such as run_correction's bank windows,
        must still pick what select_consensus picks."""
        bank = [(0, 4), (1, 3), (1, 3), (0, 5), (1, 3), (0, 5), (2, 4),
                (0, 5)]
        want = bank.index(select_consensus(bank_of(
            *(b(s, e, 5) for s, e in bank))).as_tuple())
        starts = np.array([[s for s, _ in bank]] * 3)
        ends = np.array([[e for _, e in bank]] * 3)
        wide_s = np.column_stack([starts, starts])
        wide_e = np.column_stack([ends, ends])
        cols = np.arange(len(bank))
        for s, e in ((starts, ends),
                     (np.asfortranarray(starts), np.asfortranarray(ends)),
                     (wide_s[:, cols], wide_e[:, cols])):
            assert consensus_picks(s, e).tolist() == [want] * 3


def make_refined_corpus(tmp_path, n_videos=4, seed=0):
    from morp.refine import AdjustParams, CleanParams, refine_corpus
    from morp.synth import SynthSpec, generate_corpus

    spec = SynthSpec(n_videos=n_videos, num_frames=32, dim=8, seed=seed)
    manifest = generate_corpus(spec, str(tmp_path / f"c{seed}"))
    refined, _ = refine_corpus(manifest, CleanParams(0.0), AdjustParams())
    return refined


def echo_table(bounds, epochs, U=5):
    """Predicts a fixed boundary per annotation id of ``bounds``, with
    confidence 1, every epoch; rows in sorted id order."""
    ids = sorted(bounds)
    out = EpochPredictions.empty((epochs, len(ids)), U)
    out.start[:, :, 0] = [bounds[i].start for i in ids]
    out.end[:, :, 0] = [bounds[i].end for i in ids]
    out.confidence[:, :, 0] = 1.0
    out.count[:] = 1
    return out


def replayed(path, manifest, params):
    """The run's table replayed from a prediction file, over the
    manifest's sorted ids."""
    return FilePredictor(path).table(sorted(manifest.annotations.ids),
                                     params.predictions_per_query,
                                     params.epochs)


class TestRunCorrection:
    def test_echoing_seed_is_identity(self, tmp_path):
        refined = make_refined_corpus(tmp_path)
        table = {a.annotation_id: a.boundary_frames for a in refined.annotations}
        out, _ = run_correction(refined, echo_table(table, 1),
                                CorrectionParams(epochs=1))
        for ann in out.annotations:
            assert ann.boundary_frames == table[ann.annotation_id]
            assert ann.status == "corrected"

    def test_duplicates_dominate_after_two_epochs(self, tmp_path):
        refined = make_refined_corpus(tmp_path)
        target = {a.annotation_id: Boundary(2, 8, a.boundary_frames.timeline_len)
                  for a in refined.annotations}
        out, _ = run_correction(refined, echo_table(target, 2),
                                CorrectionParams(epochs=2))
        for ann in out.annotations:
            assert ann.boundary_frames == target[ann.annotation_id]

    def test_hand_simulated_consensus_scores(self):
        # bank {b̂=[0,10), [2,8), [2,8)}: IoU(b̂, [2,8)) = 6/10
        bank = bank_of(b(0, 10), b(2, 8), b(2, 8))
        np.testing.assert_allclose(consensus_scores(bank), [1.2, 1.6, 1.6])
        assert select_consensus(bank) == b(2, 8)

    def test_requires_adjusted_status(self, tmp_path):
        from morp.synth import SynthSpec, generate_corpus

        spec = SynthSpec(n_videos=2, num_frames=32, dim=8, seed=0)
        raw = generate_corpus(spec, str(tmp_path / "raw"))
        with pytest.raises(ContractViolation):
            run_correction(raw, EpochPredictions.empty(
                (1, len(raw.annotations)), 5), CorrectionParams(epochs=1))

    def test_predictor_error_identifies_annotation_and_epoch(self, tmp_path):
        refined = make_refined_corpus(tmp_path)
        ids = sorted(a.annotation_id for a in refined.annotations)

        # ends one annotation's prediction past its timeline
        wrong_timeline = EpochPredictions.empty((1, len(ids)), 5)
        wrong_timeline.end[:, :, 0] = [5, 999] + [5] * (len(ids) - 2)
        wrong_timeline.confidence[:, :, 0] = 1.0
        wrong_timeline.count[:] = 1
        with pytest.raises(PredictorError) as err:
            run_correction(refined, wrong_timeline, CorrectionParams(epochs=1))
        assert err.value.context["annotation_id"] == ids[1]
        assert err.value.context["epoch"] == 1
        assert err.value.context["end"] == 999

    @pytest.mark.parametrize("epochs,extra_rows", [
        (4, 0),   # more epochs than the run
        (1, 0),   # fewer epochs than the run
        (2, -1),  # a row short
        (2, 1),   # a row over
    ])
    def test_table_shape_must_match_the_run(self, tmp_path, epochs,
                                            extra_rows):
        """A table over other epochs or rows than the run's is one
        ContractViolation naming both shapes; the run's own shape runs
        and traces each of its epochs in order."""
        refined = make_refined_corpus(tmp_path)
        bounds = {a.annotation_id: Boundary(2, 8, a.boundary_frames.timeline_len)
                  for a in refined.annotations}
        ids = sorted(bounds)
        params = CorrectionParams(epochs=2, predictions_per_query=4)
        _, trace = run_correction(refined, echo_table(bounds, 2, U=4), params)
        assert [r.epoch for r in trace.records] == \
            [e for e in (1, 2) for _ in ids]

        rows = ids[:len(ids) + extra_rows] + \
            [f"extra{k}" for k in range(extra_rows)]
        table = echo_table({aid: bounds.get(aid, Boundary(2, 8, 32))
                            for aid in rows}, epochs, U=4)
        with pytest.raises(ContractViolation) as err:
            run_correction(refined, table, params)
        assert err.value.context == {"expected": [2, len(ids)],
                                     "actual": [epochs, len(rows)]}

    def test_too_many_predictions_rejected(self, tmp_path):
        """A row longer than U is a table made for another run: one
        ContractViolation naming the first such row, raised before an
        earlier epoch's out-of-range prediction is reported."""
        refined = make_refined_corpus(tmp_path)
        ids = sorted(refined.annotations.ids)

        too_many = EpochPredictions.empty((2, len(ids)), 4)
        too_many.end[:] = 5
        too_many.confidence[:] = 0.5
        too_many.count[:] = 3
        too_many.confidence[0, 0, 0] = 1.5
        too_many.count[1, 1:] = 4
        with pytest.raises(ContractViolation) as err:
            run_correction(refined, too_many,
                           CorrectionParams(epochs=2, predictions_per_query=3))
        assert err.value.context == {"annotation_id": ids[1], "epoch": 2,
                                     "count": 4, "U": 3}

    def test_table_for_a_larger_u_rejected(self, tmp_path):
        """sliding_windows' table for U = 6 given to a U = 5 run."""
        from morp.refine import compute_tracks

        refined = make_refined_corpus(tmp_path)
        ids = sorted(refined.annotations.ids)
        table = sliding_windows(compute_tracks(refined), ids, 0, 5, 6, 2)
        assert table.count.max() == 6
        j, i = divmod(int(np.argmax(table.count.ravel() == 6)), len(ids))
        with pytest.raises(ContractViolation) as err:
            run_correction(refined, table,
                           CorrectionParams(epochs=2, predictions_per_query=5))
        assert err.value.context == {"annotation_id": ids[i], "epoch": j + 1,
                                     "count": 6, "U": 5}

    def test_schedule_independence(self, tmp_path):
        """Reversing the manifest's annotation order changes nothing:
        correction reads the table's rows in sorted id order."""
        from dataclasses import replace

        from morp.refine import compute_tracks

        def by_id(manifest):
            return sorted(manifest.annotations, key=lambda a: a.annotation_id)

        def windows(manifest):
            return sliding_windows(compute_tracks(manifest),
                                   sorted(manifest.annotations.ids),
                                   5, 5, 5, 3)

        refined = make_refined_corpus(tmp_path, n_videos=6)
        n = len(refined.annotations)
        reordered = replace(refined, annotations=refined.annotations.take(
            range(n - 1, -1, -1)))
        p = CorrectionParams(epochs=3, seed=5)
        out1, tr1 = run_correction(refined, windows(refined), p)
        out2, tr2 = run_correction(reordered, windows(reordered), p)
        assert by_id(out1) == by_id(out2)
        assert [r.to_json_obj() for r in tr1.records] == \
            [r.to_json_obj() for r in tr2.records]

    def test_batched_proposals_match_per_annotation_loop(self, tmp_path):
        from morp.predictor import propose
        from morp.refine import compute_tracks

        refined = make_refined_corpus(tmp_path, n_videos=6, seed=2)
        p = CorrectionParams(epochs=4, seed=7, predictions_per_query=6)
        tracks = compute_tracks(refined)

        class OneAtATime:
            def for_annotation(self, annotation_id, track, U, epoch):
                seed = annotation_seed(7, annotation_id)
                return propose(track_of(tracks, annotation_id), U, epoch,
                               seed, 3)

        ids = sorted(refined.annotations.ids)
        out, trace = run_correction(
            refined, sliding_windows(tracks, ids, 7, 3, 6, 4), p)
        final, records = reference_correction(refined, OneAtATime(), p)
        assert {a.annotation_id: a.boundary_frames
                for a in out.annotations} == final
        assert trace.records == records

    def test_trace_is_jsonl(self, tmp_path):
        import json

        refined = make_refined_corpus(tmp_path)
        _, trace = run_correction(refined,
                                  echo_table({a.annotation_id: a.boundary_frames
                                              for a in refined.annotations}, 2),
                                  CorrectionParams(epochs=2))
        path = tmp_path / "trace.jsonl"
        trace.write(path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2 * len(refined.annotations)
        rec = json.loads(lines[0])
        assert list(rec) == ["epoch", "annotation_id", "inserted", "consensus",
                             "bank_size", "predictions"]


def replay_manifest(rng, n, ids=None):
    """n adjusted annotations on videos of 2, 5 or 20 frames, with the
    given ids or else ids not in insertion order.  Replay reads no
    feature file, so none exists."""
    from morp.featstore import CorpusManifest, VideoEntry

    if ids is None:
        ids = [f"a{j:04d}" for j in rng.permutation(n).tolist()]
    videos, anns = [], []
    for i, aid in enumerate(ids):
        T = int(rng.choice([2, 5, 20]))
        s = int(rng.integers(0, T))
        e = int(rng.integers(s + 1, T + 1))
        videos.append(VideoEntry(f"v{i}", float(T), T, f"v{i}.vmrp"))
        anns.append({"annotation_id": aid, "video_id": f"v{i}",
                     "boundary_seconds": (float(s), float(e)),
                     "status": "adjusted", "boundary_frames": (s, e)})
    return CorpusManifest(1, tuple(videos), "q.vmrp",
                          annotation_table(videos, anns))


def write_predictions(path, manifest, epochs, rng, max_count=6,
                      confidences=(0.25, 0.5, 1.0)):
    """A shuffled replay file with many duplicate boundaries and tied
    confidences: records hold 1..max_count predictions drawn from three
    boundaries per annotation, with confidences from ``confidences``,
    and one record in ten comes twice (the later one counts)."""
    import json

    lines = []
    for ann in manifest.annotations:
        T = ann.boundary_frames.timeline_len
        starts = rng.integers(0, T, size=3)
        ends = starts + 1 + rng.integers(0, T - starts)
        for epoch in range(1, epochs + 1):
            for _ in range(1 + int(rng.random() < 0.1)):
                pick = rng.integers(0, 3, size=int(rng.integers(1, max_count + 1)))
                preds = [{"start": int(starts[j]), "end": int(ends[j]),
                          "confidence": float(rng.choice(confidences))}
                         for j in pick]
                lines.append(json.dumps({"epoch": epoch,
                                         "annotation_id": ann.annotation_id,
                                         "predictions": preds}))
    path.write_text("\n".join(lines[i] for i in rng.permutation(len(lines))))
    return path


def reference_correction(manifest, predictor, params):
    """The per-annotation loop: one MemoryBank per annotation, and
    select_insert and select_consensus per (epoch, annotation).  Returns
    ({annotation_id: final Boundary}, records)."""
    from types import SimpleNamespace

    anns = sorted(manifest.annotations, key=lambda a: a.annotation_id)
    banks = {a.annotation_id: MemoryBank(a.annotation_id, [a.boundary_frames],
                                         capacity=params.capacity)
             for a in anns}
    records = []
    for epoch in range(1, params.epochs + 1):
        for ann in anns:
            track = SimpleNamespace(
                num_frames=ann.boundary_frames.timeline_len)
            preds = predictor.for_annotation(
                ann.annotation_id, track, params.predictions_per_query, epoch)
            bank = banks[ann.annotation_id]
            pick = select_insert(preds)
            bank.insert(pick.boundary)
            consensus = select_consensus(bank)
            records.append(TraceRecord(
                epoch=epoch, annotation_id=ann.annotation_id,
                inserted=pick.boundary.as_tuple(),
                consensus=consensus.as_tuple(),
                bank_size=len(bank.instances),
                predictions=tuple((p.boundary.start, p.boundary.end,
                                   p.confidence) for p in preds)))
    final = {aid: select_consensus(bank) for aid, bank in banks.items()}
    return final, records


class TestBatchedCorrection:
    """run_correction on arrays against the per-annotation reference loop."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), capacity=st.integers(1, 8),
           epochs=st.integers(1, 9), U=st.integers(1, 6),
           n=st.sampled_from([1, 5, 12, CONSENSUS_ROWS + 5]))
    @example(seed=0, capacity=3, epochs=7, U=5, n=12)  # evicts from epoch 3
    @example(seed=1, capacity=1, epochs=4, U=2, n=5)   # the seed alone
    def test_replay_matches_reference_loop(self, seed, capacity, epochs, U, n):
        import tempfile
        from pathlib import Path


        rng = np.random.default_rng(seed)
        manifest = replay_manifest(rng, n)
        params = CorrectionParams(epochs=epochs, capacity=capacity,
                                  predictions_per_query=U)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_predictions(Path(tmp) / "p.jsonl", manifest, epochs,
                                     rng)
            out, trace = run_correction(
                manifest, replayed(path, manifest, params), params)
            final, records = reference_correction(manifest,
                                                  FilePredictor(path), params)
        assert trace.records == records
        assert {a.annotation_id: a.boundary_frames
                for a in out.annotations} == final
        assert all(a.status == "corrected" for a in out.annotations)

    def test_out_of_range_prediction_names_annotation_and_epoch(self,
                                                                tmp_path):
        import json


        refined = make_refined_corpus(tmp_path)
        anns = sorted(refined.annotations, key=lambda a: a.annotation_id)
        lines = []
        for epoch in (1, 2):
            for i, ann in enumerate(anns):
                bad = epoch == 2 and i == 1
                lines.append(json.dumps({
                    "epoch": epoch, "annotation_id": ann.annotation_id,
                    "predictions": [{"start": 0, "end": 1, "confidence": 0.5},
                                    {"start": 0, "end": 1,
                                     "confidence": 1.5 if bad else 0.5}]}))
        path = tmp_path / "p.jsonl"
        path.write_text("\n".join(lines))
        with pytest.raises(PredictorError) as err:
            params = CorrectionParams(epochs=2)
            run_correction(refined, replayed(path, refined, params), params)
        assert err.value.context["annotation_id"] == anns[1].annotation_id
        assert err.value.context["epoch"] == 2
        assert err.value.context["confidence"] == 1.5

    def test_empty_prediction_list_names_annotation_and_epoch(self,
                                                              tmp_path):
        import json


        refined = make_refined_corpus(tmp_path)
        anns = sorted(refined.annotations, key=lambda a: a.annotation_id)
        lines = []
        for epoch in (1, 2):
            for i, ann in enumerate(anns):
                preds = [] if epoch == 2 and i == 2 else \
                    [{"start": 0, "end": 1, "confidence": 0.5}]
                lines.append(json.dumps({
                    "epoch": epoch, "annotation_id": ann.annotation_id,
                    "predictions": preds}))
        path = tmp_path / "p.jsonl"
        path.write_text("\n".join(lines))
        with pytest.raises(PredictorError) as err:
            params = CorrectionParams(epochs=2)
            run_correction(refined, replayed(path, refined, params), params)
        assert "bad prediction count" in err.value.message
        assert err.value.context["annotation_id"] == anns[2].annotation_id
        assert err.value.context["epoch"] == 2
        assert err.value.context["count"] == 0

    def test_missing_record_reported_before_an_earlier_epochs_range(
            self, tmp_path):
        """FilePredictor.table looks up every (epoch, id) record before
        correction checks any value, so a record missing from epoch 2
        is reported ahead of an out-of-range prediction in epoch 1."""
        import json


        refined = make_refined_corpus(tmp_path)
        anns = sorted(refined.annotations, key=lambda a: a.annotation_id)
        lines = []
        for epoch in (1, 2):
            for i, ann in enumerate(anns):
                if epoch == 2 and i == 1:
                    continue
                end = 10 ** 6 if epoch == 1 and i == 0 else 1
                lines.append(json.dumps({
                    "epoch": epoch, "annotation_id": ann.annotation_id,
                    "predictions": [{"start": 0, "end": end,
                                     "confidence": 0.5}]}))
        path = tmp_path / "p.jsonl"
        path.write_text("\n".join(lines))
        with pytest.raises(PredictorError) as err:
            params = CorrectionParams(epochs=2)
            run_correction(refined, replayed(path, refined, params), params)
        assert "no prediction record" in err.value.message
        assert err.value.context == {"annotation_id": anns[1].annotation_id,
                                     "epoch": 2}
        with pytest.raises(PredictorError) as err:
            params = CorrectionParams(epochs=1)
            run_correction(refined, replayed(path, refined, params), params)
        assert err.value.context["annotation_id"] == anns[0].annotation_id
        assert err.value.context["end"] == 10 ** 6

    def test_sliding_windows_is_the_batch_over_annotation_seeds(
            self, tmp_path):
        """sliding_windows is the proposal_table over the tracks of its
        ids, each seeded by its annotation seed."""
        from morp.refine import compute_tracks

        refined = make_refined_corpus(tmp_path)
        tracks = compute_tracks(refined)
        ids = sorted(a.annotation_id for a in refined.annotations)
        got = sliding_windows(tracks, ids, 3, 4, 5, 3)
        want = proposal_table(corpus_tracks([track_of(tracks, i)
                                             for i in ids]), range(len(ids)),
                              [annotation_seed(3, i) for i in ids], 4, 5, 3)
        for a, b_ in zip(got, want):
            np.testing.assert_array_equal(a, b_)

    @pytest.mark.parametrize("kind", ["sliding_window", "file"])
    def test_epochs_of_a_table_share_no_memory(self, tmp_path, kind):
        """The trace stores each epoch's arrays of the table, so no
        epoch's arrays may be the memory of another's."""
        from morp.refine import compute_tracks

        refined = make_refined_corpus(tmp_path)
        ids = sorted(a.annotation_id for a in refined.annotations)
        if kind == "file":
            path = write_predictions(tmp_path / "p.jsonl", refined, 2,
                                     np.random.default_rng(0))
            table = FilePredictor(path).table(ids, 5, 2)
        else:
            table = sliding_windows(compute_tracks(refined), ids, 0, 5, 5, 2)
        first, second = table.epoch(1), table.epoch(2)
        for a, b_ in zip(first, second):
            assert not np.shares_memory(a, b_)

    def test_each_annotation_checked_against_its_own_timeline(self, tmp_path):
        import json

        from morp.featstore import CorpusManifest, VideoEntry

        videos = (VideoEntry("short", 10.0, 10, "short.vmrp"),
                  VideoEntry("long", 40.0, 40, "long.vmrp"))
        anns = annotation_table(videos, [
            {"annotation_id": aid, "video_id": vid,
             "boundary_seconds": (0.0, 5.0), "status": "adjusted"}
            for aid, vid in (("a", "short"), ("b", "long"))])
        manifest = CorpusManifest(1, videos, "q.vmrp", anns)

        def replay(end_a):
            path = tmp_path / f"p{end_a}.jsonl"
            path.write_text("\n".join(json.dumps(
                {"epoch": 1, "annotation_id": aid,
                 "predictions": [{"start": 0, "end": end, "confidence": 1.0}]})
                for aid, end in (("a", end_a), ("b", 40))))
            return FilePredictor(path).table(["a", "b"], 5, 1)

        out, _ = run_correction(manifest, replay(10), CorrectionParams(epochs=1))
        assert [a.boundary_frames for a in out.annotations] == \
            [Boundary(0, 5, 10), Boundary(0, 5, 40)]
        with pytest.raises(PredictorError) as err:
            run_correction(manifest, replay(11), CorrectionParams(epochs=1))
        assert err.value.context["annotation_id"] == "a"
        assert err.value.context["timeline_len"] == 10


class TestAnnotationSeed:
    def test_stable(self):
        assert annotation_seed(3, "v00001-a0") == annotation_seed(3, "v00001-a0")
        assert annotation_seed(3, "v00001-a0") != annotation_seed(3, "v00001-a1")

    def test_range(self):
        s = annotation_seed(2 ** 40, "x")
        assert 0 <= s < 2 ** 32


# annotation ids that JSON must escape: quotes, backslashes, control
# characters, non-ASCII text and lone surrogates
ODD_IDS = ['say "hi"', "back\\slash", "ctl\x00\x1f\x7f\n\t", "café 漢 \U0001f600",
           "lone \ud800", "\udfff", ""]
# confidences whose repr is easy to get wrong
ODD_CONFIDENCES = [5e-324, 1e-05, 0.1 + 0.2, 0.0, -0.0, 1.0]


class TestTraceFormat:
    """CorrectionTrace.write is byte-equal to json.dumps of every record."""

    def test_constructor_takes_lists(self):
        from morp.consensus import CorrectionTrace

        trace = CorrectionTrace(
            ["a", "b"], [2, 3], [[[0, 4], [1, 3]], [[0, 4], [2, 3]]],
            [[[0, 5], [1, 3]], [[0, 4], [1, 3]]],
            EpochPredictions([[[0, 9], [1, 9]], [[0, 9], [2, 1]]],
                             [[[4, 9], [3, 9]], [[4, 9], [3, 2]]],
                             [[[0.5, 0.0], [1.0, 0.0]],
                              [[0.5, 0.0], [0.75, 0.25]]],
                             [[1, 1], [1, 2]]))
        assert trace.records == [
            TraceRecord(1, "a", (0, 4), (0, 5), 2, ((0, 4, 0.5),)),
            TraceRecord(1, "b", (1, 3), (1, 3), 2, ((1, 3, 1.0),)),
            TraceRecord(2, "a", (0, 4), (0, 4), 3, ((0, 4, 0.5),)),
            TraceRecord(2, "b", (2, 3), (1, 3), 3,
                        ((2, 3, 0.75), (1, 2, 0.25))),
        ]

    def test_write_in_blocks(self, tmp_path, monkeypatch):
        # blocks of 2 annotations: an epoch of 7 ends in a short block
        import json

        import morp.consensus

        monkeypatch.setattr(morp.consensus, "TRACE_ROWS", 2)
        rng = np.random.default_rng(5)
        manifest = replay_manifest(rng, 7, ODD_IDS)
        path = write_predictions(tmp_path / "p.jsonl", manifest, 3, rng)
        params = CorrectionParams(epochs=3)
        _, trace = run_correction(manifest, replayed(path, manifest, params),
                                  params)
        trace.write(tmp_path / "trace.jsonl")
        assert (tmp_path / "trace.jsonl").read_bytes() == "".join(
            json.dumps(r.to_json_obj()) + "\n"
            for r in trace.records).encode("ascii")

    @settings(max_examples=80, deadline=None)
    @given(ids=st.lists(st.sampled_from(ODD_IDS) | st.text(max_size=5),
                        min_size=1, max_size=7, unique=True),
           capacity=st.integers(1, 4), epochs=st.integers(1, 7),
           U=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    @example(ids=ODD_IDS, capacity=2, epochs=6, U=3, seed=0)
    @example(ids=ODD_IDS, capacity=3, epochs=7, U=1, seed=1)
    def test_write_matches_json_dumps(self, ids, capacity, epochs, U, seed):
        import json
        import tempfile
        from pathlib import Path


        rng = np.random.default_rng(seed)
        manifest = replay_manifest(rng, len(ids), ids)
        params = CorrectionParams(epochs=epochs, capacity=capacity,
                                  predictions_per_query=U)
        with tempfile.TemporaryDirectory() as tmp:
            # up to U + 1 predictions, so some rows hold fewer than U
            # and some are truncated
            path = write_predictions(Path(tmp) / "p.jsonl", manifest, epochs,
                                     rng, max_count=U + 1,
                                     confidences=ODD_CONFIDENCES)
            _, trace = run_correction(
                manifest, replayed(path, manifest, params), params)
            trace.write(Path(tmp) / "trace.jsonl")
            written = (Path(tmp) / "trace.jsonl").read_bytes()
        records = trace.records
        assert len(records) == epochs * len(ids)
        assert records[-1].bank_size == min(capacity, epochs + 1)
        expected = "".join(json.dumps(r.to_json_obj()) + "\n" for r in records)
        assert written == expected.encode("ascii")

"""Similarity tracks, contrastive scoring, cleaning, boundary adjustment."""

import copy
import math
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import annotation_table, track_of
import morp.featstore
import morp.refine
from morp.core import Boundary
from morp.errors import ContractViolation
from morp.featstore import (
    CorpusManifest,
    FrameFeatureMatrix,
    QueryFeature,
    VideoEntry,
    write_feature_file,
)
from morp.refine import (
    AdjustParams,
    CleanParams,
    SimilarityTrack,
    adjust_boundary,
    batch_adjust,
    batch_contrast,
    clean_corpus,
    compute_tracks,
    frame_similarities,
    moment_contrast,
    refine_corpus,
)


def track_from_mapped(mapped):
    """Build a track whose mapped values equal the given vector."""
    mapped = np.asarray(mapped, dtype=np.float64)
    return SimilarityTrack.from_raw(2.0 * mapped - 1.0)


def gamma_oracle(mapped, start, end):
    """Brute-force direct summation, no prefix sums."""
    inside = sum(mapped[start:end])
    outside = sum(mapped[:start]) + sum(mapped[end:])
    if outside < 1e-8:
        return 1e6
    return inside / outside


class TestSimilarityTrack:
    def test_mapping_and_prefix(self):
        t = SimilarityTrack.from_raw([-1.0, 0.0, 1.0])
        np.testing.assert_allclose(t.mapped, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(t.prefix, [0.0, 0.0, 0.5, 1.5])
        assert t.mass(0, 3) == pytest.approx(1.5)
        assert t.window_mean(1, 3) == pytest.approx(0.75)

    def test_rejects_matrix(self):
        with pytest.raises(ContractViolation):
            SimilarityTrack.from_raw(np.zeros((2, 2)))


class TestFrameSimilarities:
    def test_identical_rows(self):
        v = np.tile(np.array([1.0, 2.0], np.float32), (4, 1))
        t = frame_similarities(QueryFeature(np.array([1.0, 2.0], np.float32)),
                               FrameFeatureMatrix(v))
        np.testing.assert_allclose(2.0 * t.mapped - 1.0, 1.0)
        np.testing.assert_allclose(t.mapped, 1.0)

    def test_orthogonal(self):
        v = np.tile(np.array([0.0, 1.0], np.float32), (3, 1))
        t = frame_similarities(QueryFeature(np.array([1.0, 0.0], np.float32)),
                               FrameFeatureMatrix(v))
        np.testing.assert_allclose(2.0 * t.mapped - 1.0, 0.0)
        np.testing.assert_allclose(t.mapped, 0.5)

    def test_hand_computed(self):
        rows = np.array([[1, 0], [0, 1], [-1, 0]], np.float32)
        t = frame_similarities(QueryFeature(np.array([1.0, 0.0], np.float32)),
                               FrameFeatureMatrix(rows))
        np.testing.assert_allclose(2.0 * t.mapped - 1.0, [1.0, 0.0, -1.0])
        np.testing.assert_allclose(t.mapped, [1.0, 0.5, 0.0])

    def test_dim_mismatch(self):
        with pytest.raises(ContractViolation):
            frame_similarities(QueryFeature(np.ones(3, np.float32)),
                               FrameFeatureMatrix(np.ones((2, 2), np.float32)))


def features(rng, t, d):
    data = rng.standard_normal((t, d)).astype(np.float32)
    data[~np.any(data, axis=1)] = 1.0
    return data


def write_corpus(base, queries, videos, anns):
    """Write feature files and return a manifest over them.

    ``videos`` maps video_id to a (T, D) float32 matrix, in manifest
    order; ``anns`` lists (annotation_id, video_id, query_ref).
    """
    write_feature_file(FrameFeatureMatrix(queries), f"{base}/q.vmrp")
    entries = []
    for vid, data in videos.items():
        write_feature_file(FrameFeatureMatrix(data), f"{base}/{vid}.vmrp")
        entries.append(VideoEntry(vid, float(len(data)), len(data),
                                  f"{vid}.vmrp"))
    annotations = annotation_table(entries, [
        {"annotation_id": aid, "video_id": vid, "query_feature_ref": ref,
         "boundary_seconds": (0.0, float(len(videos[vid])))}
        for aid, vid, ref in anns])
    return CorpusManifest(1, tuple(entries), "q.vmrp", annotations,
                          base_dir=base)


class TestComputeTracks:
    """The per-video, per-T computation must equal one
    frame_similarities call per annotation, bit for bit, in flat
    stretches that tile the arrays."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 3, 7, 64]))
    @example(seed=0, dim=1)
    @example(seed=4, dim=3)  # a cosine past -1 that the clip must catch
    def test_matches_frame_similarities(self, seed, dim):
        rng = np.random.default_rng(seed)
        n_queries = int(rng.integers(1, 5))
        queries = features(rng, n_queries, dim)
        # T = 1 and at least one other length in every manifest
        lengths = [1, int(rng.choice([2, 5, 16, 33]))]
        lengths += rng.choice([1, 2, 5, 16, 33],
                              int(rng.integers(0, 5))).tolist()
        names = rng.permutation(100)[:len(lengths)]
        videos = {}
        for k, t in zip(names, lengths):
            data = features(rng, t, dim)
            # frames parallel to a query drive the cosine to +-1 and past it
            hit = rng.random(t) < 0.3
            ref = int(rng.integers(0, n_queries))
            scale = rng.choice([-3.0, 0.5, 7.0], int(hit.sum()))
            data[hit] = (queries[ref] * scale[:, None]).astype(np.float32)
            videos[f"v{k:02d}"] = data
        anns = [(vid, int(rng.integers(0, n_queries)))
                for vid in videos
                for _ in range(int(rng.integers(1, 4)))]
        anns.append(anns[0])  # same video and query ref again
        # manifest order: videos descending, the reverse of processing order
        order = sorted(rng.permutation(len(anns)).tolist(),
                       key=lambda i: anns[i][0], reverse=True)
        anns = [(f"a{i:03d}",) + anns[i] for i in order]

        with tempfile.TemporaryDirectory() as base:
            manifest = write_corpus(base, queries, videos, anns)
            tracks = compute_tracks(manifest)
            # what refine_corpus builds for itself: the same prefix sums
            prefix_only = morp.refine._tracks(manifest, keep_mapped=False)
        assert prefix_only.mapped is None
        for name in ("prefix", "frames", "base"):
            assert np.array_equal(getattr(prefix_only, name),
                                  getattr(tracks, name))
        assert len(tracks.mapped) == len(tracks.prefix)
        # the tracks' stretches tile the flat arrays, and every track's
        # prefix sums start at 0
        for t in (tracks, prefix_only):
            order = np.argsort(t.base)
            size = t.frames[order] + 1
            end = np.cumsum(size)
            assert np.array_equal(t.base[order], end - size)
            assert end[-1] == len(t.prefix)
            assert np.all(t.prefix[t.base] == 0)
        # the rows are filled in video-id order, which the manifest's is not
        assert [a for a, _, _ in sorted(anns, key=lambda a: a[1])] != \
            [aid for aid, _, _ in anns]
        assert tracks.positions([aid for aid, _, _ in anns]).tolist() == \
            list(range(len(anns)))
        for aid, vid, ref in anns:
            want = frame_similarities(QueryFeature(queries[ref]),
                                      FrameFeatureMatrix(videos[vid]))
            got = track_of(tracks, aid)
            assert np.array_equal(got.mapped, want.mapped)
            assert np.array_equal(got.prefix, want.prefix)

    def test_dim_mismatch(self, tmp_path):
        rng = np.random.default_rng(1)
        queries = features(rng, 2, 3)
        videos = {"v0": features(rng, 4, 4)}
        manifest = write_corpus(str(tmp_path), queries, videos,
                                [("a0", "v0", 1)])
        with pytest.raises(ContractViolation) as want:
            frame_similarities(QueryFeature(queries[1]),
                               FrameFeatureMatrix(videos["v0"]))
        with pytest.raises(ContractViolation) as got:
            compute_tracks(manifest)
        assert got.value.message == want.value.message
        assert got.value.context == want.value.context == \
            {"query_dim": 3, "frame_dim": 4}

    def test_each_feature_file_read_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(2)
        queries = features(rng, 3, 5)
        videos = {f"v{k}": features(rng, t, 5)
                  for k, t in enumerate([8, 8, 3, 1])}
        anns = [(f"a{i:02d}", f"v{i % 4}", i % 3) for i in range(16)]
        manifest = write_corpus(str(tmp_path), queries, videos, anns)
        reads = []
        original = morp.featstore.read_feature_file
        monkeypatch.setattr(morp.featstore, "read_feature_file",
                            lambda path: reads.append(path) or original(path))
        tracks = compute_tracks(manifest)
        assert tracks.positions([aid for aid, _, _ in anns]).tolist() == \
            list(range(16))
        assert len(reads) == len(videos) + 1
        assert len(set(reads)) == len(reads)


class TestMomentContrast:
    def test_uniform(self):
        t = track_from_mapped([0.5] * 10)
        assert moment_contrast(t, Boundary(3, 7, 10)) == pytest.approx(2 / 3)

    def test_full_span_capped(self):
        t = track_from_mapped([0.5] * 10)
        assert moment_contrast(t, Boundary(0, 10, 10)) == 1e6

    def test_hand_computed(self):
        t = track_from_mapped([0.1, 0.1, 1.0, 1.0, 0.1])
        assert moment_contrast(t, Boundary(2, 4, 5)) == pytest.approx(2 / 0.3)

    def test_timeline_mismatch(self):
        t = track_from_mapped([0.5] * 10)
        with pytest.raises(ContractViolation):
            moment_contrast(t, Boundary(0, 4, 8))

    @settings(max_examples=200)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_prefix_equals_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(2, 60))
        mapped = rng.uniform(0, 1, T)
        s = int(rng.integers(0, T - 1))
        e = int(rng.integers(s + 1, T))
        t = track_from_mapped(mapped)
        got = moment_contrast(t, Boundary(s, e, T))
        assert got == pytest.approx(gamma_oracle(list(mapped), s, e), abs=1e-6)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_gamma_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        T = 24
        mapped = rng.uniform(0.05, 0.95, T)
        s, e = 6, 15
        t = track_from_mapped(mapped)
        base = moment_contrast(t, Boundary(s, e, T))
        up_in = mapped.copy()
        up_in[int(rng.integers(s, e))] += 0.04
        assert moment_contrast(track_from_mapped(up_in), Boundary(s, e, T)) >= base
        up_out = mapped.copy()
        up_out[0] += 0.04
        assert moment_contrast(track_from_mapped(up_out), Boundary(s, e, T)) <= base


class TestCleanCorpus:
    def test_bottom_one_dropped(self):
        kept, dropped = clean_corpus(["b", "c", "a"], [0.5, 0.1, 0.9],
                                     CleanParams(0.34))
        # rows of the input, in rank order
        assert kept == [2, 0]
        assert dropped == [1]

    def test_zero_ratio(self):
        kept, dropped = clean_corpus(["a", "b"], [0.9, 0.5], CleanParams(0.0))
        assert dropped == [] and kept == [0, 1]

    def test_tie_breaks_by_id(self):
        kept, dropped = clean_corpus(["b", "a"], [0.5, 0.5], CleanParams(0.5))
        assert kept == [1]
        assert dropped == [0]

    def test_ids_compare_by_code_point(self):
        # a trailing NUL and a lone surrogate are ids like any other
        ids = ["a\x00", "a", "\ud800", "\uffff"]
        kept, dropped = clean_corpus(ids, [0.5] * 4, CleanParams(0.0))
        assert [ids[i] for i in kept] == sorted(ids)

    def test_ratio_one_rejected(self):
        with pytest.raises(ContractViolation):
            CleanParams(1.0)

    def test_non_finite_gamma_rejected(self):
        with pytest.raises(ContractViolation):
            clean_corpus(["a"], [float("nan")], CleanParams(0.0))

    @settings(deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0, 0.99))
    def test_drop_count_and_separation(self, seed, ratio):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        ids = [f"a{i:02d}" for i in range(n)]
        # few distinct values, so that ties occur
        gammas = rng.choice([0.0, 0.5, 1.0, 1.5], n).tolist()
        kept, dropped = clean_corpus(ids, gammas, CleanParams(ratio))
        assert len(dropped) == math.floor(n * ratio)
        assert len(kept) + len(dropped) == n
        if kept and dropped:
            assert min(gammas[i] for i in kept) >= \
                max(gammas[i] for i in dropped)
        ranked = sorted(range(n), key=lambda i: (-gammas[i], ids[i]))
        assert kept + dropped == ranked


class TestAdjustBoundary:
    def test_uniform_expands_to_full_span(self):
        t = track_from_mapped([0.8] * 12)
        p = AdjustParams(delta=2, min_len=2)
        assert adjust_boundary(t, Boundary(4, 8, 12), p) == Boundary(0, 12, 12)

    def test_hand_simulated_expansion(self):
        mapped = [0.1] * 20
        mapped[4:12] = [0.9] * 8
        t = track_from_mapped(mapped)
        p = AdjustParams(delta=2, alpha1=0.22, alpha2=0.92, min_len=2)
        assert adjust_boundary(t, Boundary(6, 12, 20), p) == Boundary(4, 12, 20)

    def test_perfect_boundary_fixpoint(self):
        mapped = [0.0] * 30
        mapped[10:20] = [1.0] * 10
        t = track_from_mapped(mapped)
        p = AdjustParams(delta=5)
        assert adjust_boundary(t, Boundary(10, 20, 30), p) == Boundary(10, 20, 30)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_valid_output_and_min_len(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(8, 80))
        t = track_from_mapped(rng.uniform(0, 1, T))
        d = int(rng.integers(1, 5))
        s = int(rng.integers(0, T - d - 1)) if T - d - 1 > 0 else 0
        e = int(rng.integers(s + d, T))
        p = AdjustParams(delta=d, min_len=d)
        out = adjust_boundary(t, Boundary(s, e, T), p)
        assert 0 <= out.start < out.end <= T
        assert out.end - out.start >= min(p.min_len, e - s)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_fixpoint_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        T = 40
        t = track_from_mapped(rng.uniform(0, 1, T))
        p = AdjustParams(delta=3, max_iters=64, min_len=3)
        out = adjust_boundary(t, Boundary(10, 25, T), p)
        assert adjust_boundary(t, out, p) == out

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
    def test_translation_equivariance(self, seed, k):
        rng = np.random.default_rng(seed)
        core = rng.uniform(0.2, 0.9, 20)
        pad = 0.5
        base = np.concatenate([[pad] * 10, core, [pad] * 10])
        shifted = np.concatenate([[pad] * (10 + k), core, [pad] * (10 - k)])
        p = AdjustParams(delta=2, max_iters=4, min_len=2)
        b1 = adjust_boundary(track_from_mapped(base), Boundary(12, 24, 40), p)
        b2 = adjust_boundary(track_from_mapped(shifted),
                             Boundary(12 + k, 24 + k, 40), p)
        assert (b2.start - b1.start, b2.end - b1.end) == (k, k)

    def test_param_validation(self):
        with pytest.raises(ContractViolation):
            AdjustParams(delta=0)
        with pytest.raises(ContractViolation):
            AdjustParams(alpha1=0.9, alpha2=0.2)
        with pytest.raises(ContractViolation):
            AdjustParams(delta=5, min_len=3)


class TestBatchArithmetic:
    """batch_contrast and batch_adjust equal moment_contrast and
    adjust_boundary on tracks of mixed timeline lengths whose prefix
    sums lie in one flat array, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), delta=st.integers(1, 4),
           extra=st.integers(0, 3), slack=st.integers(-3, 8),
           flat=st.sampled_from([None, 0.0, 0.5, 1.0]))
    @example(seed=0, delta=1, extra=0, slack=-3, flat=None)
    @example(seed=1, delta=3, extra=0, slack=0, flat=0.0)
    def test_matches_scalar_reference(self, seed, delta, extra, slack, flat):
        rng = np.random.default_rng(seed)
        params = AdjustParams(
            delta=delta, min_len=delta + extra,
            alpha1=float(rng.uniform(0.05, 0.6)),
            alpha2=float(rng.uniform(0.65, 1.3)),
            max_iters=int(rng.choice([1, 2, 64])))
        # timelines near the shortest one that a side can shrink on
        n = int(rng.integers(1, 6))
        lengths = np.maximum(
            1, params.min_len + delta + slack + rng.integers(0, 4, n))
        tracks = []
        for T in lengths.tolist():
            if flat is None:
                mapped = rng.random(T) * 0.4
                lo = int(rng.integers(0, T))  # one strong stretch
                mapped[lo:int(rng.integers(lo, T + 1))] += 0.6
            else:
                mapped = np.full(T, flat)
            tracks.append(SimilarityTrack(
                mapped=mapped,
                prefix=np.concatenate(([0.0], np.cumsum(mapped)))))
        prefix = np.concatenate([t.prefix for t in tracks])
        offsets = np.concatenate(([0], np.cumsum(lengths + 1)[:-1]))

        m = int(rng.integers(1, 16))
        which = rng.integers(0, n, m)
        base, T = offsets[which], lengths[which]
        start = rng.integers(0, T)
        end = rng.integers(start + 1, T + 1)
        start[rng.random(m) < 0.3] = 0  # boundaries touching 0 and T
        touch = rng.random(m) < 0.3
        end[touch] = T[touch]
        before = (start.copy(), end.copy())

        gamma = batch_contrast(prefix, base, T, start, end)
        got_start, got_end = batch_adjust(prefix, base, T, start, end,
                                          params)

        assert np.array_equal(start, before[0])
        assert np.array_equal(end, before[1])
        for k in range(m):
            track = tracks[which[k]]
            b = Boundary(int(start[k]), int(end[k]), int(T[k]))
            assert gamma[k] == moment_contrast(track, b)
            assert (int(got_start[k]), int(got_end[k])) == \
                adjust_boundary(track, b, params).as_tuple()

    def test_empty(self):
        prefix = np.zeros(9)
        empty = np.zeros(0, dtype=np.int64)
        assert batch_contrast(prefix, empty, empty, empty, empty).shape == (0,)
        s, e = batch_adjust(prefix, empty, empty, empty, empty,
                            AdjustParams())
        assert s.shape == e.shape == (0,)


class TestRefineCorpus:
    """refine_corpus against a per-annotation reference built from
    frame_similarities, moment_contrast, the rank cut and adjust_boundary."""

    def test_matches_per_annotation_reference(self, tmp_path):
        rng = np.random.default_rng(11)
        queries = features(rng, 3, 6)
        lengths = [40, 25, 40, 25, 40]
        videos = {f"v{k}": features(rng, t, 6)
                  for k, t in enumerate(lengths)}
        # manifest order is not id order
        anns = [(f"a{i:02d}", f"v{i % 5}", i % 3)
                for i in rng.permutation(15).tolist()]
        manifest = write_corpus(str(tmp_path), queries, videos, anns)
        annotations = []
        for k, ann in enumerate(manifest.annotations):
            T = len(videos[ann.video_id])
            s = int(rng.integers(0, T - 12))
            e = int(rng.integers(s + 6, T + 1))
            annotations.append({
                "annotation_id": ann.annotation_id,
                "video_id": ann.video_id, "query_text": f"query {k}",
                "query_feature_ref": ann.query_feature_ref,
                "boundary_seconds": (float(s), float(e)),
                "boundary_frames": (s, e),
                "gt_boundary_seconds": (0.0, float(e)),
                "error_tag": ("clean", "imprecise", None)[k % 3]})
        manifest = replace(manifest, annotations=annotation_table(
            manifest.videos, annotations))
        before = copy.deepcopy(manifest.annotations)
        clean, adjust = CleanParams(0.4), AdjustParams(delta=3)

        tracks, gammas = {}, {}
        for ann in manifest.annotations:
            aid = ann.annotation_id
            tracks[aid] = frame_similarities(
                QueryFeature(queries[ann.query_feature_ref]),
                FrameFeatureMatrix(videos[ann.video_id]))
            gammas[aid] = moment_contrast(tracks[aid], ann.boundary_frames)
        ranked = sorted(manifest.annotations,
                        key=lambda a: (-gammas[a.annotation_id],
                                       a.annotation_id))
        n_keep = len(ranked) - math.floor(len(ranked) * clean.ratio)
        want = {a.annotation_id: adjust_boundary(tracks[a.annotation_id],
                                                 a.boundary_frames, adjust)
                for a in ranked[:n_keep]}
        by_id = {a.annotation_id: a for a in manifest.annotations}
        assert any(b != by_id[aid].boundary_frames for aid, b in want.items())

        refined, report = refine_corpus(manifest, clean, adjust)

        assert manifest.annotations == before
        assert [a.annotation_id for a in refined.annotations] == sorted(want)
        assert (refined.videos, refined.queries_file_path, refined.base_dir) \
            == (manifest.videos, manifest.queries_file_path, manifest.base_dir)
        for out in refined.annotations:
            src = by_id[out.annotation_id]
            b = want[out.annotation_id]
            assert out.status == "adjusted"
            assert out.boundary_frames == b
            # duration equals T here, so seconds equal frame indices
            assert out.boundary_seconds == (float(b.start), float(b.end))
            assert replace(out, status=src.status,
                           boundary_frames=src.boundary_frames,
                           boundary_seconds=src.boundary_seconds) == src

        assert [r.annotation_id for r in report.records] == \
            [a.annotation_id for a in manifest.annotations]
        for r, ann in zip(report.records, manifest.annotations):
            kept = want.get(ann.annotation_id)
            assert r.gamma == gammas[ann.annotation_id]
            assert r.decision == ("dropped" if kept is None else "kept")
            assert r.boundary_before_frames == ann.boundary_frames.as_tuple()
            assert r.boundary_after_frames == (
                None if kept is None else kept.as_tuple())

    def test_own_tracks_keep_one_block(self, tmp_path):
        # without tracks passed in, refinement keeps only the prefix sums:
        # another (annotations, T) block of mapped values would take the
        # peak past twice the prefix block's bytes
        import tracemalloc

        from morp.featstore import read_manifest
        from morp.synth import SynthSpec, generate_corpus

        generate_corpus(SynthSpec(n_videos=40, num_frames=512,
                                  annotations_per_video=4), tmp_path)
        manifest = read_manifest(tmp_path / "manifest.json")
        block = compute_tracks(manifest).prefix.nbytes
        assert block == 40 * 4 * 513 * 8
        tracemalloc.start()
        try:
            refine_corpus(manifest, CleanParams(), AdjustParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * block, peak / block

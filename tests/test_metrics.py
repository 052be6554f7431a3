"""Tests for retrieval metrics and corpus statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import annotation_table
from morp.core import Boundary
from morp.errors import ContractViolation
from morp.featstore import CorpusManifest, VideoEntry
from morp.metrics import (
    corpus_stats,
    mean_iou,
    metric_report,
    recall_at,
    tokenize,
)


def b(s, e, T=200):
    return Boundary(s, e, T)


class TestRecallAt:
    def test_identity_predictions(self):
        preds = {"a": b(0, 10), "b": b(5, 9)}
        assert recall_at(preds, dict(preds), 0.5) == 100.0

    def test_disjoint_predictions(self):
        preds = {"a": b(0, 5)}
        gts = {"a": b(5, 10)}
        assert recall_at(preds, gts, 0.3) == 0.0

    def test_mixed_half_hit(self):
        # IoU 0.6 and IoU 0.4 against threshold 0.5 -> 50 %
        preds = {"a": b(0, 6), "b": b(0, 4)}
        gts = {"a": b(0, 10), "b": b(0, 10)}
        assert recall_at(preds, gts, 0.5) == 50.0

    def test_strictly_greater(self):
        # IoU exactly 0.5 does not count at m = 0.5
        preds = {"a": b(0, 5)}
        gts = {"a": b(0, 10)}
        assert recall_at(preds, gts, 0.5) == 0.0

    def test_key_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            recall_at({"a": b(0, 1)}, {"b": b(0, 1)}, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            recall_at({}, {}, 0.5)

    @pytest.mark.parametrize("m", [0.0, 1.0, -0.1, 1.5])
    def test_threshold_range(self, m):
        with pytest.raises(ContractViolation):
            recall_at({"a": b(0, 1)}, {"a": b(0, 1)}, m)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_nonincreasing_in_threshold(self, seed):
        rng = np.random.default_rng(seed)
        preds, gts = {}, {}
        for i in range(30):
            s = int(rng.integers(0, 90))
            e = int(rng.integers(s + 1, 101))
            s2 = int(rng.integers(0, 90))
            e2 = int(rng.integers(s2 + 1, 101))
            preds[f"q{i}"] = b(s, e)
            gts[f"q{i}"] = b(s2, e2)
        grid = [0.1, 0.3, 0.5, 0.7, 0.9]
        vals = [recall_at(preds, gts, m) for m in grid]
        assert all(a >= c for a, c in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 100.0 for v in vals)


class TestMeanIoU:
    def test_examples(self):
        preds = {"a": b(0, 10), "b": b(0, 5)}
        gts = {"a": b(0, 10), "b": b(0, 10)}
        assert mean_iou(preds, gts) == pytest.approx(75.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        preds, gts = {}, {}
        for i in range(20):
            s = int(rng.integers(0, 50))
            preds[f"q{i}"] = b(s, s + int(rng.integers(1, 20)))
            s2 = int(rng.integers(0, 50))
            gts[f"q{i}"] = b(s2, s2 + int(rng.integers(1, 20)))
        items = list(preds.items())
        shuffled = dict(reversed(items))
        assert mean_iou(preds, gts) == mean_iou(shuffled, gts)

    def test_key_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            mean_iou({"a": b(0, 1)}, {"c": b(0, 1)})


class TestMetricReport:
    def test_report_contents(self):
        preds = {"a": b(0, 6), "b": b(0, 4)}
        gts = {"a": b(0, 10), "b": b(0, 10)}
        rep = metric_report(preds, gts)
        assert rep.n_queries == 2
        assert rep.recall_at[0.5] == 50.0
        assert rep.recall_at[0.3] == 100.0
        assert rep.recall_at[0.7] == 0.0
        assert rep.mean_iou == pytest.approx(50.0)
        obj = rep.to_json_obj()
        assert obj["recall_at"]["0.5"] == 50.0
        assert "R@0.5" in rep.to_text_table()


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("A man Runs, fast!") == ["a", "man", "runs", "fast"]

    def test_empty(self):
        assert tokenize("  ") == []


def make_manifest(videos, annotations):
    return CorpusManifest(
        format_version=1,
        videos=tuple(videos),
        queries_file_path="queries.bin",
        annotations=annotation_table(videos, annotations),
    )


class TestCorpusStats:
    def test_hand_example(self):
        vids = [VideoEntry("v0", 3600.0, 128, "v0.bin")]
        anns = [
            {"annotation_id": "a0", "video_id": "v0",
             "query_text": "a man runs", "boundary_seconds": (0.0, 5.0)},
            {"annotation_id": "a1", "video_id": "v0", "query_feature_ref": 1,
             "query_text": "a man jumps", "boundary_seconds": (1.0, 6.0)},
        ]
        stats = corpus_stats(make_manifest(vids, anns))
        assert stats.video_count == 1
        assert stats.total_duration_hours == pytest.approx(1.0)
        assert stats.query_count == 2
        assert stats.total_tokens == 6
        assert stats.vocabulary_size == 4  # a, man, runs, jumps

    def test_duplicate_queries_grow_tokens_not_vocab(self):
        vids = [VideoEntry("v0", 60.0, 16, "v0.bin")]
        anns = [
            {"annotation_id": f"a{i}", "video_id": "v0",
             "query_text": "dog barks", "query_feature_ref": i,
             "boundary_seconds": (0.0, 2.0)}
            for i in range(3)
        ]
        stats = corpus_stats(make_manifest(vids, anns))
        assert stats.total_tokens == 6
        assert stats.vocabulary_size == 2

    def test_empty_manifest(self):
        stats = corpus_stats(make_manifest([], []))
        assert stats.video_count == 0
        assert stats.total_duration_hours == 0.0
        assert stats.query_count == 0
        assert stats.total_tokens == 0
        assert stats.vocabulary_size == 0

    def test_text_table(self):
        stats = corpus_stats(make_manifest([], []))
        table = stats.to_text_table()
        assert "videos" in table and "vocabulary" in table

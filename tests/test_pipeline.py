"""Sweeps against per-value end-to-end runs."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import annotation_table
from morp.consensus import CorrectionParams, run_correction
from morp.featstore import (CorpusManifest, FrameFeatureMatrix, VideoEntry,
                            write_feature_file)
from morp.pipeline import corpus_quality, run_pipeline, sweep
from morp.predictor import sliding_windows
from morp.refine import (AdjustParams, CleanParams, compute_tracks,
                         refine_corpus)
from morp.synth import SynthSpec, generate_corpus


@pytest.mark.parametrize("knob,values", [
    ("clean_ratio", [0.5, 0.0, 0.3, 0.5]),
    ("corpus_size", [8, 5, 8]),
])
def test_sweep_equals_run_pipeline_per_value(tmp_path, knob, values):
    """One proposal table per corpus serves every value; each value's
    quality must be the float run_pipeline and corpus_quality give."""
    spec = SynthSpec(n_videos=6, num_frames=48, dim=8,
                     p_unmatched=0.2, p_idle=0.2)
    seeds = [0, 3]
    adjust = AdjustParams(delta=3)
    correction = CorrectionParams(epochs=4, predictions_per_query=3)
    result = sweep(knob, spec, values, seeds, str(tmp_path / "sweep"),
                   clean_ratio=0.25, adjust_params=adjust,
                   correction_params=correction)

    per_seed = {}
    for seed in seeds:
        row = []
        for value in values:
            size = value if knob == "corpus_size" else spec.n_videos
            ratio = value if knob == "clean_ratio" else 0.25
            manifest = generate_corpus(
                replace(spec, n_videos=size, seed=seed),
                str(tmp_path / f"ref{seed}_{size}"))
            _, _, corrected, _ = run_pipeline(
                manifest, CleanParams(ratio), adjust,
                replace(correction, seed=seed))
            row.append(corpus_quality(manifest, corrected))
        per_seed[seed] = row
    assert result.per_seed == per_seed
    assert result.metric == [sum(per_seed[s][i] for s in seeds) / len(seeds)
                             for i in range(len(values))]


def test_subset_rows_of_a_superset_table(tmp_path, monkeypatch):
    """_corrections computes one table over the union of its runs' kept
    ids.  A run over a kept subset gets that subset's rows, which equal
    the table computed for the subset alone, and is what lets a sweep
    share one table; a run over all the ids, in order, gets the stored
    arrays themselves, no copy."""
    import morp.pipeline as pipeline
    from morp.predictor import sliding_windows
    from morp.refine import compute_tracks

    manifest = generate_corpus(SynthSpec(n_videos=8, num_frames=48, dim=8),
                               str(tmp_path / "c"))
    p = CorrectionParams(epochs=6, predictions_per_query=4, seed=2)
    tables, given = [], []
    correct = pipeline.run_correction

    def computed(*args):
        tables.append(sliding_windows(*args))
        return tables[-1]

    def recorded(refined, proposals, params):
        given.append((sorted(refined.annotations.ids), proposals))
        return correct(refined, proposals, params)

    monkeypatch.setattr(pipeline, "sliding_windows", computed)
    monkeypatch.setattr(pipeline, "run_correction", recorded)
    list(pipeline._corrections(manifest, [CleanParams(0.5), CleanParams(0.0)],
                               AdjustParams(delta=2), p))
    (table,) = tables
    (kept, part), (ids, whole) = given
    assert set(kept) < set(ids)
    alone = sliding_windows(compute_tracks(manifest), kept, 2, 2, 4, 6)
    for epoch in range(1, 7):
        assert part.epoch(epoch).tuples() == alone.epoch(epoch).tuples()
    assert all(a is b for a, b in zip(whole, table))


def test_two_lengths_match_the_separate_stages(tmp_path):
    """A corpus on 32- and 48-frame timelines whose manifest order,
    video-id order and annotation-id order all differ.  The pipeline
    reads the proposals' tracks by row of the raw manifest's tracks;
    refine then correct computes them for the refined manifest, where
    every row sits elsewhere.  Both must correct alike."""
    rng = np.random.default_rng(0)
    queries = rng.standard_normal((5, 8)).astype(np.float32)
    write_feature_file(FrameFeatureMatrix(queries), str(tmp_path / "q.vmrp"))
    videos, anns = [], []
    for k, (vid, T) in enumerate([("v2", 48), ("v0", 32), ("v3", 32),
                                  ("v1", 48)]):
        frames = rng.standard_normal((T, 8)).astype(np.float32)
        for j in range(3):
            ref = (k + j) % len(queries)
            s = int(rng.integers(0, T - 12))
            e = s + int(rng.integers(6, 12))
            # the query's moment stands out of the noise
            frames[s:e] += 2.0 * queries[ref]
            lo = int(rng.integers(0, s + 1))
            anns.append({"annotation_id": f"a{(7 * (3 * k + j)) % 12:02d}",
                         "video_id": vid, "query_feature_ref": ref,
                         "boundary_seconds": (float(lo), float(e))})
        write_feature_file(FrameFeatureMatrix(frames),
                           str(tmp_path / f"{vid}.vmrp"))
        videos.append(VideoEntry(vid, float(T), T, f"{vid}.vmrp"))
    manifest = CorpusManifest(1, tuple(videos), "q.vmrp",
                              annotation_table(videos, anns),
                              base_dir=str(tmp_path))
    ids = manifest.annotations.ids
    assert ids != sorted(ids)
    assert [a["video_id"] for a in anns] != sorted(a["video_id"] for a in anns)
    clean, adjust = CleanParams(0.25), AdjustParams(delta=3)
    p = CorrectionParams(epochs=4, predictions_per_query=3, seed=1)

    _, _, corrected, trace = run_pipeline(manifest, clean, adjust, p)
    refined, _ = refine_corpus(manifest, clean, adjust)
    kept = sorted(refined.annotations.ids)
    want, want_trace = run_correction(refined, sliding_windows(
        compute_tracks(refined), kept, p.seed, adjust.delta,
        p.predictions_per_query, p.epochs), p)

    assert sorted(set(refined.annotations.timeline.tolist())) == [32, 48]
    got, exp = corrected.annotations, want.annotations
    assert got.ids == exp.ids
    assert np.array_equal(got.start_f, exp.start_f)
    assert np.array_equal(got.end_f, exp.end_f)
    assert trace.annotation_ids == want_trace.annotation_ids
    for name in ("bank_size", "inserted", "consensus"):
        assert np.array_equal(getattr(trace, name), getattr(want_trace, name))
    for a, b in zip(trace.predictions, want_trace.predictions):
        assert np.array_equal(a, b)

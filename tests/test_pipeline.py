"""Sweeps against per-value end-to-end runs."""

from dataclasses import replace

import pytest

from morp.consensus import CorrectionParams
from morp.pipeline import corpus_quality, run_pipeline, sweep
from morp.refine import AdjustParams, CleanParams
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

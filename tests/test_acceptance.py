"""Acceptance gate: ten end-to-end criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines (the full suite takes roughly 15 minutes on one CPU; the
seeded pipeline runs dominate).  Each criterion is verified against an
independent oracle or a held-out ground truth, never against the
implementation's own intermediate output.
"""

import filecmp
import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from morp.cli import main as cli_main
from morp.consensus import CorrectionParams, MemoryBank, select_consensus
from morp.core import Boundary, iou
from morp.featstore import (
    FrameFeatureMatrix,
    read_feature_file,
    read_manifest,
    write_feature_file,
    write_manifest,
)
from morp.metrics import recall_at
from morp.pipeline import (
    corpus_quality,
    mean_iou_vs_gt,
    run_pipeline,
    sweep,
)
from morp.refine import (
    AdjustParams,
    CleanParams,
    SimilarityTrack,
    moment_contrast,
    refine_corpus,
)
from morp.synth import SynthSpec, generate_corpus

SEEDS = list(range(10))
BIG = dict(n_videos=500, num_frames=128, dim=16)


def report(num, name, ok, detail):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def corpora(workspace):
    """Lazily generated 500-video corpora keyed by seed."""
    cache = {}

    def get(seed):
        if seed not in cache:
            d = workspace / f"big_seed{seed}"
            cache[seed] = generate_corpus(SynthSpec(seed=seed, **BIG), d)
        return cache[seed]

    return get


@pytest.fixture(scope="session")
def refined_r02(corpora, workspace):
    """Refined (clean ratio 0.2) variants shared by criteria 3 and 4."""
    cache = {}

    def get(seed):
        if seed not in cache:
            cache[seed] = refine_corpus(corpora(seed), CleanParams(0.2),
                                        AdjustParams())
        return cache[seed]

    return get


# --------------------------------------------------------------------------
# criterion 1: contrastive score vs a brute-force oracle


def test_criterion_01_contrast_score_oracle():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        T = int(rng.integers(8, 400))
        mapped = rng.uniform(0.0, 1.0, T)
        s = int(rng.integers(0, T - 1))
        e = int(rng.integers(s + 1, T + 1))
        track = SimilarityTrack.from_raw(2.0 * mapped - 1.0)
        got = moment_contrast(track, Boundary(s, e, T))
        inside = float(mapped[s:e].sum())
        outside = float(mapped[:s].sum() + mapped[e:].sum())
        want = 1e6 if outside < 1e-8 else inside / outside
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 5.0
    report(1, "contrast score matches brute-force oracle", ok,
           f"max rel err {worst:.2e} over 1000 cases in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# criterion 2: consensus selection vs exhaustive pairwise IoU


def test_criterion_02_consensus_oracle():
    rng = np.random.default_rng(2)
    mismatches = 0
    for _ in range(1000):
        T = int(rng.integers(16, 200))
        n = int(rng.integers(1, 33))
        bounds = []
        for _ in range(n):
            s = int(rng.integers(0, T - 1))
            e = int(rng.integers(s + 1, T + 1))
            bounds.append(Boundary(s, e, T))
        bank = MemoryBank("a", list(bounds), capacity=32)
        got = select_consensus(bank)
        scores = [sum(iou(b, o) for j, o in enumerate(bounds) if j != i)
                  for i, b in enumerate(bounds)]
        want = bounds[int(np.argmax(scores))]
        if got != want:
            mismatches += 1
    report(2, "consensus pick equals exhaustive pairwise-IoU argmax",
           mismatches == 0, f"{mismatches} mismatches in 1000 banks")


# --------------------------------------------------------------------------
# criterion 3: cleaning captures unmatched + idle annotations


def test_criterion_03_cleaning_capture(corpora, refined_r02):
    captures, passes = [], 0
    for seed in SEEDS:
        manifest = corpora(seed)
        refined, _ = refined_r02(seed)
        kept = {a.annotation_id for a in refined.annotations}
        bad = [a for a in manifest.annotations
               if a.error_tag in ("unmatched", "idle")]
        dropped_bad = sum(1 for a in bad if a.annotation_id not in kept)
        frac = dropped_bad / len(bad)
        captures.append(frac)
        passes += frac >= 0.8
    report(3, "clean ratio 0.2 drops >= 80% of unmatched+idle", passes >= 9,
           f"{passes}/10 seeds pass, capture min {min(captures):.3f} "
           f"mean {np.mean(captures):.3f}")


# --------------------------------------------------------------------------
# criterion 4: boundary adjustment gains IoU on imprecise annotations


def test_criterion_04_adjustment_gain(corpora, refined_r02):
    gains, passes = [], 0
    for seed in SEEDS:
        manifest = corpora(seed)
        refined, _ = refined_r02(seed)
        imprecise = {a.annotation_id for a in manifest.annotations
                     if a.error_tag == "imprecise"}
        kept_imprecise = {a.annotation_id for a in refined.annotations
                          if a.annotation_id in imprecise}
        before = mean_iou_vs_gt(manifest, kept_imprecise)
        after = mean_iou_vs_gt(refined, kept_imprecise)
        gains.append(after - before)
        passes += (after - before) >= 0.15
    report(4, "adjustment gains >= 0.15 mean IoU on imprecise", passes >= 9,
           f"{passes}/10 seeds pass, gain min {min(gains):.3f} "
           f"mean {np.mean(gains):.3f}")


# --------------------------------------------------------------------------
# criterion 5: each stage improves corpus quality in order


def test_criterion_05_stage_ordering(corpora):
    passes = 0
    rows = []
    for seed in SEEDS:
        manifest = corpora(seed)
        refined, rpt, corrected, _ = run_pipeline(
            manifest, CleanParams(0.4), AdjustParams(),
            CorrectionParams(seed=seed))
        kept_ids = {a.annotation_id for a in refined.annotations}
        clean_only = replace(manifest, annotations=manifest.annotations.take(
            [i for i, aid in enumerate(manifest.annotations.ids)
             if aid in kept_ids]))
        q_raw = corpus_quality(manifest, manifest)
        q_clean = corpus_quality(manifest, clean_only)
        q_adjust = corpus_quality(manifest, refined)
        q_correct = corpus_quality(manifest, corrected)
        ordered = q_raw < q_clean <= q_adjust < q_correct
        passes += ordered
        rows.append((q_raw, q_clean, q_adjust, q_correct))
    means = np.mean(rows, axis=0)
    report(5, "raw < clean-only <= +adjust < +correct", passes >= 8,
           f"{passes}/10 seeds ordered; mean quality "
           f"raw {means[0]:.3f} clean {means[1]:.3f} "
           f"adjust {means[2]:.3f} correct {means[3]:.3f}")


# --------------------------------------------------------------------------
# criterion 6: cleaning-ratio sweep peaks near the true bad fraction


def test_criterion_06_clean_ratio_sweep(workspace):
    ratios = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    spec = SynthSpec(n_videos=150, num_frames=128, dim=16,
                     p_unmatched=0.15, p_idle=0.15)
    passes = 0
    peaks = []
    for seed in SEEDS:
        result = sweep("clean_ratio", spec, ratios, [seed],
                       str(workspace / "sweepR"))
        q = result.metric
        peak = ratios[int(np.argmax(q))]
        peaks.append(peak)
        passes += (0.2 <= peak <= 0.5) and (q[-1] < max(q))
    report(6, "quality peaks at ratio in [0.2, 0.5] and drops by 0.7",
           passes >= 8, f"{passes}/10 seeds pass, peaks {sorted(peaks)}")


# --------------------------------------------------------------------------
# criterion 7: quality is stable across corpus sizes


def test_criterion_07_corpus_size_stability(workspace):
    sizes = [125, 250, 500, 1000]
    spec = SynthSpec(num_frames=128, dim=16)
    result = sweep("corpus_size", spec, sizes, list(range(5)),
                   str(workspace / "sweepN"))
    q = result.metric
    drops = [a - b for a, b in zip(q, q[1:])]
    ok = all(d <= 0.01 for d in drops)
    report(7, "seed-averaged quality nondecreasing in corpus size "
              "(0.01 slack)", ok,
           f"quality {['%.4f' % v for v in q]} max drop "
           f"{max(drops) if drops else 0.0:.4f}")


# --------------------------------------------------------------------------
# criterion 8: recall metric against a hand-computed fixture


def test_criterion_08_recall_fixture():
    T = 100
    # ten queries with hand-computed IoUs vs ground truth [20, 60)
    gt = Boundary(20, 60, T)
    preds = {
        "q0": Boundary(20, 60, T),   # IoU 1.0
        "q1": Boundary(20, 56, T),   # 0.9
        "q2": Boundary(24, 60, T),   # 0.9
        "q3": Boundary(20, 48, T),   # 0.7
        "q4": Boundary(30, 60, T),   # 0.75
        "q5": Boundary(20, 40, T),   # 0.5
        "q6": Boundary(40, 80, T),   # 1/3
        "q7": Boundary(50, 90, T),   # 1/7
        "q8": Boundary(60, 99, T),   # 0.0
        "q9": Boundary(0, 20, T),    # 0.0
    }
    gts = {k: gt for k in preds}
    checks = [
        recall_at(preds, gts, 0.3) == pytest.approx(70.0),
        recall_at(preds, gts, 0.5) == pytest.approx(50.0),  # 0.5 not > 0.5
        recall_at(preds, gts, 0.7) == pytest.approx(40.0),  # 0.7 not > 0.7
        recall_at(preds, gts, 0.75) == pytest.approx(30.0),
    ]
    grid = [0.05 * k for k in range(1, 20)]
    vals = [recall_at(preds, gts, m) for m in grid]
    monotone = all(a >= b for a, b in zip(vals, vals[1:]))
    ok = all(checks) and monotone
    report(8, "R@m matches hand fixture and is nonincreasing in m", ok,
           f"fixture checks {checks}, monotone {monotone}")


# --------------------------------------------------------------------------
# criterion 9: determinism and lossless round trips


def test_criterion_09_determinism(corpora, workspace):
    manifest = corpora(0)
    src = str(workspace / "big_seed0" / "manifest.json")
    outs = []
    for run in ("d1", "d2"):
        out = workspace / run
        code = cli_main(["pipeline", "--manifest", src, "--out-dir",
                         str(out), "--epochs", "3"])
        assert code == 0
        outs.append(out)
    artifacts = ["refined.json", "corrected.json", "trace.jsonl",
                 "refine_report.json"]
    identical = all(filecmp.cmp(outs[0] / a, outs[1] / a, shallow=False)
                    for a in artifacts)

    # feature file round trip, byte level
    rng = np.random.default_rng(9)
    mat = FrameFeatureMatrix(rng.normal(size=(37, 11)).astype(np.float32))
    p1 = workspace / "rt1.vmrp"
    p2 = workspace / "rt2.vmrp"
    write_feature_file(mat, p1)
    write_feature_file(read_feature_file(p1), p2)
    feat_rt = (p1.read_bytes() == p2.read_bytes()
               and np.array_equal(read_feature_file(p2).data, mat.data))

    # manifest round trip, byte level
    m1 = workspace / "m1.json"
    m2 = workspace / "m2.json"
    write_manifest(manifest, m1)
    write_manifest(read_manifest(m1), m2)
    mani_rt = m1.read_bytes() == m2.read_bytes()

    ok = identical and feat_rt and mani_rt
    report(9, "byte-identical reruns and lossless round trips", ok,
           f"pipeline identical {identical}, feature round trip {feat_rt}, "
           f"manifest round trip {mani_rt}")


# --------------------------------------------------------------------------
# criterion 10: runtime bound and thread independence


def test_criterion_10_runtime_and_threads(corpora, workspace):
    manifest = corpora(0)
    t0 = time.perf_counter()
    run_pipeline(manifest, CleanParams(0.4), AdjustParams(),
                 CorrectionParams(seed=0))
    elapsed = time.perf_counter() - t0

    src = str(workspace / "big_seed0" / "manifest.json")
    dirs = []
    for name, threads in (("th1", "1"), ("th8", "8")):
        out = workspace / name
        code = cli_main(["pipeline", "--manifest", src, "--out-dir",
                         str(out), "--epochs", "3", "--threads", threads])
        assert code == 0
        dirs.append(out)
    same = all(filecmp.cmp(dirs[0] / a, dirs[1] / a, shallow=False)
               for a in ("refined.json", "corrected.json", "trace.jsonl"))
    ok = elapsed < 60.0 and same
    report(10, "full pipeline under 60 s, --threads 8 byte-identical", ok,
           f"elapsed {elapsed:.1f}s, threads identical {same}")

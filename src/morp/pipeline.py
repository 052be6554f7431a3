"""Manifest-level orchestration: end-to-end runs, evaluation and sweeps.

A run, and each corpus of a sweep, computes its tracks once and
corrects every clean ratio's refined corpus from one proposal table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .consensus import CorrectionParams, run_correction
from .core import Boundary, iou
from .errors import ContractViolation
from .featstore import CorpusManifest, check_seconds, derive_boundary_frames
from .metrics import MetricReport, _align, metric_report
from .predictor import EpochPredictions, sliding_windows
from .refine import AdjustParams, CleanParams, compute_tracks, refine_corpus
from .synth import SynthSpec, generate_corpus


def boundaries(manifest: CorpusManifest, ids=None, with_gt=True):
    """Per annotation, or per one of ``ids`` when given, from the
    columns: (annotation_id, frame Boundary, ground-truth frame Boundary
    or None when absent or not asked for).  The reader leaves ground
    truths unchecked; here they get :func:`check_seconds`."""
    t = manifest.annotations
    for aid, v, gt, s, e, T in zip(t.ids, t.video.tolist(), t.gt,
                                   t.start_f.tolist(), t.end_f.tolist(),
                                   t.timeline.tolist()):
        if ids is not None and aid not in ids:
            continue
        if not with_gt:
            gt = None
        elif gt is not None:
            check_seconds(aid, *gt, field="gt_boundary_seconds")
            video = manifest.videos[v]
            gt = derive_boundary_frames(gt[0], gt[1], video.duration_seconds,
                                        video.num_frames)
        yield aid, Boundary(s, e, T), gt


def evaluate_manifest(manifest: CorpusManifest,
                      thresholds=(0.3, 0.5, 0.7)) -> MetricReport:
    """Score every gt-bearing annotation's boundary against its ground truth."""
    preds, gts = {}, {}
    for aid, b, gt in boundaries(manifest):
        if gt is not None:
            preds[aid], gts[aid] = b, gt
    if not preds:
        raise ContractViolation("manifest holds no ground-truth annotations")
    return metric_report(preds, gts, thresholds)


def _corrections(manifest: CorpusManifest, cleans, adjust_params, p):
    """Per clean params of ``cleans``, in order: (refined,
    refine_report, corrected, trace) of ``manifest``."""
    tracks = compute_tracks(manifest)
    runs = [refine_corpus(manifest, clean, adjust_params, tracks=tracks)
            for clean in cleans]
    ids = sorted(set().union(*(r.annotations.ids for r, _ in runs)))
    table = sliding_windows(tracks, ids, p.seed, adjust_params.delta,
                            p.predictions_per_query, p.epochs)
    row = {aid: r for r, aid in enumerate(ids)}
    for refined, report in runs:
        kept = sorted(refined.annotations.ids)
        # a run over all the table's ids takes the stored table: gathering
        # a copy raised the peak RSS of `morp pipeline` at 500 videos x 128
        # frames by 0.23 MB (2-CPU x86-64 Linux host).  A gather of a
        # run's rows equals the table computed for them alone.
        proposals = table if kept == ids else EpochPredictions(
            *(a[:, [row[aid] for aid in kept]] for a in table))
        yield (refined, report, *run_correction(refined, proposals, p))


def run_pipeline(manifest: CorpusManifest, clean_params: CleanParams,
                 adjust_params: AdjustParams, correction_params: CorrectionParams):
    """refine + correct; returns (refined, refine_report, corrected, trace).

    The similarity tracks are computed once and shared by both stages.
    """
    return next(_corrections(manifest, [clean_params], adjust_params,
                             correction_params))


def corpus_quality(original: CorpusManifest, final: CorpusManifest) -> float:
    """Average usefulness of the final corpus' labels, in [0, 1].

    Retained annotations contribute IoU(final boundary, ground truth);
    retained annotations without ground truth contribute 0 (a label for
    an unmatched or idle query can never be right).  Dropped annotations
    that carry ground truth contribute the IoU of their original pseudo
    boundary (cleaning them away forfeits any refinement they would have
    received); dropped annotations without ground truth leave the
    average entirely, which is exactly what cleaning is for.
    """
    retained = {aid: b for aid, b, _ in boundaries(final, with_gt=False)}
    values = []
    for aid, b, gt in boundaries(original):
        kept = retained.get(aid)
        if kept is not None:
            values.append(iou(kept, gt) if gt else 0.0)
        elif gt is not None:
            values.append(iou(b, gt))
    if not values:
        raise ContractViolation("no annotations to score")
    return sum(values) / len(values)


def mean_iou_vs_gt(manifest: CorpusManifest, ids=None) -> float:
    """Mean IoU against ground truth over gt-bearing annotations (fraction)."""
    values = []
    for _, b, gt in boundaries(manifest, ids):
        if gt is not None:
            values.append(iou(b, gt))
    if not values:
        raise ContractViolation("no gt-bearing annotations selected")
    return sum(values) / len(values)


@dataclass
class SweepResult:
    knob: str
    values: list
    metric: list  # mean corpus quality per knob value (seed-averaged)
    per_seed: dict = field(default_factory=dict)

    def to_json_obj(self):
        return {
            "knob": self.knob,
            "values": self.values,
            "metric": self.metric,
            "per_seed": {str(k): v for k, v in self.per_seed.items()},
        }

    def to_text_table(self) -> str:
        rows = [(self.knob, "quality")]
        rows += [(f"{v:g}", f"{m:.4f}") for v, m in zip(self.values, self.metric)]
        return _align(rows)


def sweep(knob: str, spec: SynthSpec, values, seeds, work_dir,
          clean_ratio=0.4, adjust_params=None,
          correction_params=None) -> SweepResult:
    """Seed-averaged corpus quality of the corrected corpus across the
    values of one knob.

    ``knob`` is ``"clean_ratio"``, whose values are cleaning ratios, or
    ``"corpus_size"``, whose values are video counts, each cleaned at
    ``clean_ratio``.  Each seed's corpus of each size is generated once,
    under ``work_dir``, so a clean-ratio sweep generates one per seed.
    Every value's parameters are built, and so checked, before the
    first corpus is generated.

    Each value's quality is what :func:`run_pipeline` and
    :func:`corpus_quality` give; a corpus is refined and corrected for
    all values of its size at once.
    """
    if knob not in ("clean_ratio", "corpus_size"):
        raise ContractViolation("unknown sweep knob", knob=knob)
    adjust_params = adjust_params or AdjustParams()
    correction_params = correction_params or CorrectionParams()
    if knob == "corpus_size":
        sizes = list(values)
        cleans = [CleanParams(ratio=clean_ratio)] * len(values)
    else:
        sizes = [spec.n_videos] * len(values)
        cleans = [CleanParams(ratio=value) for value in values]
    # SynthSpec also rejects the negative seeds CorrectionParams would
    specs = {(seed, size): replace(spec, n_videos=size, seed=seed)
             for seed in seeds for size in sizes}
    per_seed = {}
    for seed in seeds:
        params = replace(correction_params, seed=seed)
        row = [None] * len(values)
        for size in dict.fromkeys(sizes):
            manifest = generate_corpus(
                specs[seed, size],
                os.path.join(work_dir, f"sweep_seed{seed}_n{size}"))
            at = [i for i, n in enumerate(sizes) if n == size]
            runs = _corrections(manifest, [cleans[i] for i in at],
                                adjust_params, params)
            for i, (_, _, corrected, _) in zip(at, runs):
                row[i] = corpus_quality(manifest, corrected)
        per_seed[seed] = row
    metric = [sum(per_seed[s][i] for s in seeds) / len(seeds)
              for i in range(len(values))]
    return SweepResult(knob=knob, values=list(values), metric=metric,
                       per_seed=per_seed)

"""Memory-consensus correction of adjusted pseudo boundaries.

Each annotation owns an ordered memory bank seeded with its adjusted
boundary.  Every epoch the predictor's most confident proposal is
inserted, and the bank instance with the highest summed IoU against the
rest becomes the consensus pick.  After the final epoch the consensus
pick replaces the annotation's boundary.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import Boundary, ScoredBoundary, iou
from .errors import ContractViolation, PredictorError
from .featstore import CorpusManifest, with_updated_boundary
from .predictor import ProposalBatch, SlidingWindowPredictor
from .refine import compute_tracks


@dataclass
class MemoryBank:
    """Ordered boundary candidates for one annotation.

    The instance at index 0 is the adjusted-boundary seed; it is never
    evicted.  When the bank is full, the oldest non-seed instance leaves.
    """

    annotation_id: str
    instances: list
    capacity: int = 32

    def __post_init__(self):
        if self.capacity < 1:
            raise ContractViolation("capacity must be positive")
        if not self.instances:
            raise ContractViolation("bank must be seeded with one boundary",
                                    annotation_id=self.annotation_id)

    def insert(self, b: Boundary) -> None:
        """Append a candidate, evicting the oldest non-seed one if full.

        Duplicates are stored: repeated candidates legitimately raise
        their consensus score.
        """
        self.instances.append(b)
        if len(self.instances) > self.capacity:
            del self.instances[1]


def consensus_scores(bank: MemoryBank) -> np.ndarray:
    """Per-instance sum of IoU against all other bank instances."""
    if not bank.instances:
        raise ContractViolation("empty memory bank",
                                annotation_id=bank.annotation_id)
    n = len(bank.instances)
    starts = np.array([b.start for b in bank.instances], dtype=np.int64)
    ends = np.array([b.end for b in bank.instances], dtype=np.int64)
    inter = np.minimum(ends[:, None], ends[None, :]) - \
        np.maximum(starts[:, None], starts[None, :])
    inter = np.maximum(inter, 0)
    lens = ends - starts
    union = lens[:, None] + lens[None, :] - inter
    mat = inter / union
    np.fill_diagonal(mat, 0.0)
    return mat.sum(axis=1)


def select_consensus(bank: MemoryBank) -> Boundary:
    """Bank instance with the highest consensus score (earliest index wins ties)."""
    scores = consensus_scores(bank)
    return bank.instances[int(np.argmax(scores))]


def select_insert(preds) -> ScoredBoundary:
    """Prediction with the highest confidence (earliest index wins ties)."""
    preds = list(preds)
    if not preds:
        raise ContractViolation("empty prediction list")
    best = 0
    for i in range(1, len(preds)):
        if preds[i].confidence > preds[best].confidence:
            best = i
    return preds[best]


@dataclass(frozen=True)
class TargetBlend:
    """The two weighted targets a downstream trainer consumes."""

    consensus_target: Boundary
    refined_target: Boundary
    consensus_weight: float
    refined_weight: float

    def __post_init__(self):
        if not (0.0 <= self.consensus_weight <= 1.0):
            raise ContractViolation("blend weight out of range")


def compose_targets(consensus: Boundary, refined: Boundary, lam: float) -> TargetBlend:
    """Weight the consensus pick by lambda and the refined seed by 1 - lambda."""
    if not (0.0 <= lam <= 1.0):
        raise ContractViolation("lambda must lie in [0, 1]", value=lam)
    return TargetBlend(consensus_target=consensus, refined_target=refined,
                       consensus_weight=lam, refined_weight=1.0 - lam)


@dataclass(frozen=True)
class CorrectionParams:
    epochs: int = 15
    lam: float = 0.7
    capacity: int = 32
    predictions_per_query: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ContractViolation("epochs must be >= 1", epochs=self.epochs)
        if not (0.0 <= self.lam <= 1.0):
            raise ContractViolation("lambda must lie in [0, 1]", value=self.lam)
        if self.capacity < 1:
            raise ContractViolation("capacity must be >= 1")
        if self.predictions_per_query < 1:
            raise ContractViolation("predictions_per_query must be >= 1")
        if self.seed < 0:
            raise ContractViolation("seed must be a nonnegative integer")


class NoOpTrainer:
    """Trainer stub: accepts target blends and does nothing.

    Lets the correction loop run standalone; a real trainer would fit a
    localization model against every blend it receives.
    """

    def update(self, epoch: int, annotation_id: str, blend: TargetBlend,
               predictions) -> None:
        return None


@dataclass(frozen=True)
class TraceRecord:
    epoch: int
    annotation_id: str
    inserted: tuple
    consensus: tuple
    bank_size: int
    consensus_weight: float
    refined_weight: float
    predictions: tuple  # ((start, end, confidence), ...) for all U

    def to_json_obj(self):
        return {
            "epoch": self.epoch,
            "annotation_id": self.annotation_id,
            "inserted": list(self.inserted),
            "consensus": list(self.consensus),
            "bank_size": self.bank_size,
            "consensus_weight": self.consensus_weight,
            "refined_weight": self.refined_weight,
            "predictions": [list(p) for p in self.predictions],
        }


@dataclass
class CorrectionTrace:
    records: list = field(default_factory=list)

    def write(self, path):
        """Serialize as JSON-lines, one record per (epoch, annotation)."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec.to_json_obj()) + "\n")


def annotation_seed(base_seed: int, annotation_id: str) -> int:
    """Stable per-annotation seed derivation."""
    return (base_seed ^ zlib.crc32(annotation_id.encode("utf-8"))) & 0xFFFFFFFF


def _validate_preds(preds, U, T, annotation_id, epoch):
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


def run_correction(manifest: CorpusManifest, predictor,
                   params: CorrectionParams,
                   trainer: Optional[NoOpTrainer] = None,
                   threads: int = 1, tracks: Optional[dict] = None):
    """Run the epoch loop over a refined corpus.

    Every annotation must arrive with status ``adjusted``.  For each
    epoch and annotation, the predictor's highest-confidence proposal is
    inserted into the annotation's bank, the consensus pick is computed
    and the (consensus, seed) target blend is handed to the trainer and
    recorded in the trace.  The corrected boundary is the consensus pick
    of the final epoch.  Fully deterministic given params.seed; results
    do not depend on the processing order.  ``threads`` is accepted for
    compatibility and changes neither the output nor the speed.

    ``tracks`` maps annotation ids to similarity tracks already computed
    for this corpus (by refinement, say); without it they are computed
    from the feature files.  A :class:`SlidingWindowPredictor` proposes
    for all annotations of an epoch in one :class:`ProposalBatch` pass.
    """
    trainer = trainer or NoOpTrainer()
    for ann in manifest.annotations:
        if ann.status != "adjusted":
            raise ContractViolation(
                "run_correction expects adjusted annotations",
                annotation_id=ann.annotation_id, status=ann.status,
            )
    if tracks is None:
        tracks = compute_tracks(manifest)
    anns = sorted(manifest.annotations, key=lambda a: a.annotation_id)
    banks = {
        a.annotation_id: MemoryBank(a.annotation_id, [a.boundary_frames],
                                    capacity=params.capacity)
        for a in anns
    }
    U = params.predictions_per_query

    batch = None
    if isinstance(predictor, SlidingWindowPredictor):
        batch = ProposalBatch(
            [tracks[a.annotation_id] for a in anns],
            [annotation_seed(params.seed, a.annotation_id) for a in anns],
            predictor.params)

    def predict(ann, epoch):
        track = tracks[ann.annotation_id]
        if hasattr(predictor, "for_annotation"):
            return predictor.for_annotation(ann.annotation_id, track, U, epoch)
        seed = annotation_seed(params.seed, ann.annotation_id)
        return predictor(track, U, epoch, seed)

    def checked(ann, epoch, preds):
        _validate_preds(preds, U, tracks[ann.annotation_id].num_frames,
                        ann.annotation_id, epoch)
        return preds

    trace = CorrectionTrace()
    for epoch in range(1, params.epochs + 1):
        if batch is None:
            all_preds = [checked(a, epoch, predict(a, epoch)) for a in anns]
        else:
            all_preds = [checked(a, epoch, preds)
                         for a, preds in zip(anns, batch.propose(U, epoch))]
        for ann, preds in zip(anns, all_preds):
            bank = banks[ann.annotation_id]
            pick = select_insert(preds)
            bank.insert(pick.boundary)
            consensus = select_consensus(bank)
            blend = compose_targets(consensus, ann.boundary_frames, params.lam)
            trainer.update(epoch, ann.annotation_id, blend, preds)
            trace.records.append(TraceRecord(
                epoch=epoch,
                annotation_id=ann.annotation_id,
                inserted=pick.boundary.as_tuple(),
                consensus=consensus.as_tuple(),
                bank_size=len(bank.instances),
                consensus_weight=blend.consensus_weight,
                refined_weight=blend.refined_weight,
                predictions=tuple(
                    (p.boundary.start, p.boundary.end, p.confidence)
                    for p in preds
                ),
            ))

    corrected = []
    for ann in anns:
        final = select_consensus(banks[ann.annotation_id])
        video = manifest.video_by_id(ann.video_id)
        corrected.append(with_updated_boundary(ann, final, video,
                                               status="corrected"))
    out = CorpusManifest(
        format_version=manifest.format_version,
        videos=manifest.videos,
        queries_file_path=manifest.queries_file_path,
        annotations=tuple(corrected),
        synth=manifest.synth,
        provenance=manifest.provenance,
        base_dir=manifest.base_dir,
    )
    return out, trace

"""Memory-consensus correction of adjusted pseudo boundaries.

Each annotation owns an ordered memory bank seeded with its adjusted
boundary.  Every epoch its most confident prediction is inserted, and
the bank instance with the highest summed IoU against the rest becomes
the consensus pick.  After the final epoch the consensus pick replaces
the annotation's boundary.

:func:`run_correction` works on arrays over all annotations: it takes
the run's whole (epochs, A, W) table of predictions, takes each
epoch's insert with an argmax over that epoch's padded confidences, and
lays each annotation's seed and inserts out as one row.  An epoch's banks
are then a window of those columns, and the consensus is taken on
(rows, n, n) IoU tensors, a block of rows at a time.
:class:`MemoryBank`, :func:`consensus_scores`, :func:`select_consensus`
and :func:`select_insert` do the same for one annotation and are the
reference the tests hold the arrays to.

The :class:`CorrectionTrace` is built once from the run's arrays and
formats its JSON lines a block of one epoch's annotations at a time;
:class:`TraceRecord` is the per-(epoch, annotation) view of the same
data, and ``json.dumps`` of its :meth:`~TraceRecord.to_json_obj` is the
line format the writer reproduces byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Boundary, ScoredBoundary
from .errors import ContractViolation, PredictorError
from .featstore import CorpusManifest, atomic_write
from .predictor import MAX_EPOCHS, EpochPredictions


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


# Banks per consensus block.  A block's (rows, n, n) float64 temporaries
# take rows * n * n * 8 bytes each.  run_correction's banks hold at most
# min(capacity, epochs + 1) boundaries: 16 at the defaults (capacity 32,
# 15 epochs), so 256 KB per temporary.
CONSENSUS_ROWS = 128


def consensus_picks(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Per row of (A, n) bank arrays, the column :func:`select_consensus` picks.

    The scores are :func:`consensus_scores`' elementwise IoU arithmetic
    on a (rows, n, n) tensor, summed along the same contiguous axis, so
    ties break the same way: the earliest column wins.  Each block is
    copied to C order first: a sum along a strided axis adds in another
    order, and a rounding apart can break a tie differently.
    """
    A, n = starts.shape
    picks = np.zeros(A, dtype=np.int64)
    diag = np.arange(n)
    for lo in range(0, A, CONSENSUS_ROWS):
        s = np.ascontiguousarray(starts[lo:lo + CONSENSUS_ROWS])
        e = np.ascontiguousarray(ends[lo:lo + CONSENSUS_ROWS])
        inter = np.minimum(e[:, :, None], e[:, None, :]) - \
            np.maximum(s[:, :, None], s[:, None, :])
        inter = np.maximum(inter, 0)
        lens = e - s
        union = lens[:, :, None] + lens[:, None, :] - inter
        mat = inter / union
        mat[:, diag, diag] = 0.0
        picks[lo:lo + CONSENSUS_ROWS] = mat.sum(axis=2).argmax(axis=1)
    return picks


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
class CorrectionParams:
    epochs: int = 15
    capacity: int = 32
    predictions_per_query: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.epochs <= MAX_EPOCHS:
            raise ContractViolation(f"epochs must lie in [1, {MAX_EPOCHS}]",
                                    epochs=self.epochs)
        if self.capacity < 1:
            raise ContractViolation("capacity must be >= 1")
        # the prediction counts are an int64 column
        if not 1 <= self.predictions_per_query < 2 ** 63:
            raise ContractViolation(
                "predictions_per_query must lie in [1, 2**63)",
                predictions_per_query=self.predictions_per_query)
        if self.seed < 0:
            raise ContractViolation("seed must be a nonnegative integer")


@dataclass(frozen=True)
class TraceRecord:
    """One (epoch, annotation) row of a :class:`CorrectionTrace`; its
    trace line is ``json.dumps(record.to_json_obj())``."""

    epoch: int
    annotation_id: str
    inserted: tuple
    consensus: tuple
    bank_size: int
    predictions: tuple  # ((start, end, confidence), ...) for all U

    def to_json_obj(self):
        return {
            "epoch": self.epoch,
            "annotation_id": self.annotation_id,
            "inserted": list(self.inserted),
            "consensus": list(self.consensus),
            "bank_size": self.bank_size,
            "predictions": [list(p) for p in self.predictions],
        }


class CorrectionTrace:
    """The bank updates of a correction run, kept as the run's arrays.

    Built once from the annotation ids, each epoch's bank size, the
    (epochs, A, 2) inserted and consensus boundaries and the (epochs, A,
    W) :class:`EpochPredictions` table, where row i of every epoch
    belongs to ``annotation_ids[i]``; the arrays are stored, not copied.
    :attr:`records` rebuilds the equivalent :class:`TraceRecord` list on
    demand, and :meth:`write` formats the arrays without it.
    """

    def __init__(self, annotation_ids, bank_size, inserted, consensus,
                 predictions: EpochPredictions):
        self.annotation_ids = list(annotation_ids)
        self.bank_size = np.asarray(bank_size)
        self.inserted = np.asarray(inserted)
        self.consensus = np.asarray(consensus)
        self.predictions = EpochPredictions(*map(np.asarray, predictions))

    @property
    def records(self):
        """One :class:`TraceRecord` per (epoch, annotation), built anew."""
        return [
            TraceRecord(j, aid, tuple(ins), tuple(con), size, preds)
            for j, size in enumerate(self.bank_size.tolist(), 1)
            for aid, ins, con, preds in zip(
                self.annotation_ids, self.inserted[j - 1].tolist(),
                self.consensus[j - 1].tolist(),
                self.predictions.epoch(j).tuples())
        ]

    def write(self, path):
        """Serialize as JSON-lines, one record per (epoch, annotation).

        The lines are the bytes of ``json.dumps(record.to_json_obj())``
        for each of :attr:`records`, formatted ``TRACE_ROWS`` annotations
        of an epoch at a time from ``.tolist()`` columns: ids are
        JSON-encoded once, numbers are the ``repr`` of the same Python
        ints and floats.  The file appears whole or not at all: it is
        written beside ``path`` and then moved over it.
        """
        ids = [json.dumps(aid) for aid in self.annotation_ids]
        with atomic_write(path) as fh:
            for j, size in enumerate(self.bank_size.tolist()):
                for lo in range(0, len(ids), TRACE_ROWS):
                    rows = slice(lo, lo + TRACE_ROWS)
                    fh.write(_format_rows(
                        j + 1, size, ids[rows], self.inserted[j, rows],
                        self.consensus[j, rows],
                        *(a[j, rows] for a in self.predictions)))


# Annotations per formatted block of trace lines.  A block's text is
# built from Python ints, floats and strings; formatting a whole epoch
# of a 2400-annotation replay at once raised the peak RSS of `morp
# correct --predictions` by about 0.8 MB (2-CPU x86-64 Linux host).
TRACE_ROWS = 256


def _format_rows(epoch, bank_size, ids, inserted, consensus, start, end,
                 confidence, count) -> str:
    """The JSON lines of a block of one trace epoch, one per annotation."""
    head = f'{{"epoch": {epoch}, "annotation_id": '
    tail = f', "bank_size": {bank_size}, "predictions": [['
    width = start.shape[1]
    triples = list(map("{}, {}, {!r}".format, start.ravel().tolist(),
                       end.ravel().tolist(), confidence.ravel().tolist()))
    return "".join([
        f'{head}{aid}, "inserted": [{i0}, {i1}], "consensus": [{c0}, {c1}]'
        f'{tail}{"], [".join(triples[lo:lo + k])}]]}}\n'
        for aid, (i0, i1), (c0, c1), lo, k in zip(
            ids, inserted.tolist(), consensus.tolist(),
            range(0, len(triples), width), count.tolist())
    ])


def _check_predictions(preds: EpochPredictions, U, T, annotation_ids, epoch):
    """Raise PredictorError for the first annotation with no predictions
    or one not a boundary 0 <= start < end <= T with confidence in [0, 1]."""
    s, e, c = preds.start, preds.end, preds.confidence
    bad_count = preds.count < 1
    bad = preds.valid() & ~((s >= 0) & (s < e) & (e <= T[:, None]) &
                            (c >= 0.0) & (c <= 1.0))
    rows = np.flatnonzero(bad_count | bad.any(axis=1))
    if rows.size == 0:
        return
    i = rows[0]
    where = dict(annotation_id=annotation_ids[i], epoch=epoch)
    if bad_count[i]:
        raise PredictorError("predictor returned a bad prediction count",
                             **where, count=int(preds.count[i]), U=U)
    k = int(np.argmax(bad[i]))
    raise PredictorError("prediction out of range", **where,
                         start=int(s[i, k]), end=int(e[i, k]),
                         confidence=float(c[i, k]), timeline_len=int(T[i]))


def check_adjusted(manifest: CorpusManifest):
    """Raise ContractViolation unless every annotation is ``adjusted``."""
    table = manifest.annotations
    if not set(table.status) <= {"adjusted"}:
        i = next(i for i, s in enumerate(table.status) if s != "adjusted")
        raise ContractViolation(
            "run_correction expects adjusted annotations",
            annotation_id=table.ids[i], status=table.status[i],
        )


def run_correction(manifest: CorpusManifest, proposals: EpochPredictions,
                   params: CorrectionParams):
    """Run the epoch loop over a refined corpus.

    Every annotation must arrive with status ``adjusted``.  For each
    epoch and annotation, the highest-confidence prediction is inserted
    into the annotation's bank, the consensus pick is computed and
    recorded in the trace.  The corrected boundary is the consensus
    pick of the final epoch.  Fully deterministic given the
    predictions; results do not depend on the processing order.

    ``proposals`` is an :class:`EpochPredictions` table over
    ``params.epochs`` epochs whose row i of each epoch belongs to the
    i-th of the manifest's annotation ids, sorted; another shape, or a
    row of more than U predictions, is a ContractViolation.  Every
    epoch's predictions are checked, in epoch order, before its inserts
    are taken from its (A, W) views, so no (epochs, A, W) temporary is
    made and the first bad epoch raises before any bank is formed.
    Each annotation's seed and inserts form one row of (A, 1 + epochs)
    boundaries, and epoch j's bank is its seed and its last inserts up
    to epoch j, as many as the capacity leaves room for
    (:class:`MemoryBank`'s eviction); the picks are row-wise argmaxes.
    """
    check_adjusted(manifest)
    table = manifest.annotations
    order = sorted(range(len(table)), key=table.ids.__getitem__)
    ids = [table.ids[i] for i in order]
    U = params.predictions_per_query
    if proposals.count.shape != (params.epochs, len(order)):
        raise ContractViolation("prediction table does not match the run",
                                expected=[params.epochs, len(order)],
                                actual=list(proposals.count.shape))
    # predictors cut rows to U: a longer row is a table for another run
    over = np.argwhere(proposals.count > U)
    if len(over):
        j, i = over[0].tolist()
        raise ContractViolation("prediction row longer than U",
                                annotation_id=ids[i], epoch=j + 1,
                                count=int(proposals.count[j, i]), U=U)
    T = table.timeline[order]
    rows = np.arange(len(order))
    # (A, 1 + epochs, 2): each annotation's seed, then its inserts
    bounds = np.empty((len(order), 1 + params.epochs, 2), dtype=np.int64)
    bounds[:, 0, 0] = table.start_f[order]
    bounds[:, 0, 1] = table.end_f[order]
    for j in range(1, params.epochs + 1):
        preds = proposals.epoch(j)
        _check_predictions(preds, U, T, ids, j)
        # select_insert per row: the earliest of the most confident
        best = np.where(preds.valid(), preds.confidence, -np.inf).argmax(1)
        bounds[:, j, 0] = preds.start[rows, best]
        bounds[:, j, 1] = preds.end[rows, best]
    # inserts a bank holds beside the seed; a capacity-1 bank holds none
    held = params.capacity - 1
    bank_size = []
    picks = np.empty((params.epochs, len(order)), dtype=np.int64)
    for j in range(1, params.epochs + 1):
        cols = np.array([0, *range(max(1, j + 1 - held), j + 1)])
        picks[j - 1] = cols[consensus_picks(bounds[:, cols, 0],
                                            bounds[:, cols, 1])]
        bank_size.append(len(cols))
    consensus = bounds[np.arange(len(order)), picks]  # (epochs, A, 2)

    corrected = manifest.with_boundaries(order, consensus[-1, :, 0],
                                         consensus[-1, :, 1], "corrected")
    return corrected, CorrectionTrace(ids, bank_size,
                                      bounds[:, 1:].swapaxes(0, 1),
                                      consensus, proposals)

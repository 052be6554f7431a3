"""Retrieval metrics and corpus statistics.

R@m is the percentage of queries whose predicted boundary overlaps the
ground truth with IoU strictly greater than m; mIoU is the mean IoU as a
percentage.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass

from .core import iou
from .errors import ContractViolation
from .featstore import CorpusManifest, atomic_write


def _check_keys(preds, gts):
    if set(preds) != set(gts):
        raise ContractViolation(
            "prediction and ground-truth key sets differ",
            only_preds=sorted(set(preds) - set(gts))[:5],
            only_gts=sorted(set(gts) - set(preds))[:5],
        )
    if not preds:
        raise ContractViolation("empty prediction set")


def recall_at(preds: dict, gts: dict, m: float) -> float:
    """Percentage of queries with IoU(pred, gt) strictly greater than m."""
    if not (0.0 < m < 1.0):
        raise ContractViolation("threshold must lie in (0, 1)", m=m)
    _check_keys(preds, gts)
    hits = sum(1 for k in preds if iou(preds[k], gts[k]) > m)
    return 100.0 * hits / len(preds)


def mean_iou(preds: dict, gts: dict) -> float:
    """Mean per-query IoU as a percentage."""
    _check_keys(preds, gts)
    return 100.0 * sum(iou(preds[k], gts[k]) for k in preds) / len(preds)


@dataclass(frozen=True)
class MetricReport:
    recall_at: dict  # threshold -> percentage
    mean_iou: float
    n_queries: int

    def to_json_obj(self):
        return {
            "recall_at": {f"{m:g}": v for m, v in sorted(self.recall_at.items())},
            "mean_iou": self.mean_iou,
            "n_queries": self.n_queries,
        }

    def to_text_table(self) -> str:
        rows = [("metric", "value")]
        for m, v in sorted(self.recall_at.items()):
            rows.append((f"R@{m:g}", f"{v:.2f}"))
        rows.append(("mIoU", f"{self.mean_iou:.2f}"))
        rows.append(("queries", str(self.n_queries)))
        return _align(rows)


def metric_report(preds: dict, gts: dict, thresholds=(0.3, 0.5, 0.7)) -> MetricReport:
    return MetricReport(
        recall_at={m: recall_at(preds, gts, m) for m in thresholds},
        mean_iou=mean_iou(preds, gts),
        n_queries=len(preds),
    )


@dataclass(frozen=True)
class CorpusStats:
    video_count: int
    total_duration_hours: float
    query_count: int
    total_tokens: int
    vocabulary_size: int

    def to_json_obj(self):
        return {
            "video_count": self.video_count,
            "total_duration_hours": self.total_duration_hours,
            "query_count": self.query_count,
            "total_tokens": self.total_tokens,
            "vocabulary_size": self.vocabulary_size,
        }

    def to_text_table(self) -> str:
        rows = [
            ("videos", str(self.video_count)),
            ("duration_hours", f"{self.total_duration_hours:.4f}"),
            ("queries", str(self.query_count)),
            ("tokens", str(self.total_tokens)),
            ("vocabulary", str(self.vocabulary_size)),
        ]
        return _align([("stat", "value")] + rows)


def tokenize(text: str):
    """Lowercase whitespace tokens, stripped of surrounding punctuation."""
    out = []
    for tok in text.lower().split():
        tok = tok.strip(string.punctuation)
        if tok:
            out.append(tok)
    return out


def corpus_stats(manifest: CorpusManifest) -> CorpusStats:
    tokens = []
    for text in manifest.annotations.query_text:
        tokens.extend(tokenize(text))
    return CorpusStats(
        video_count=len(manifest.videos),
        total_duration_hours=sum(v.duration_seconds for v in manifest.videos) / 3600.0,
        query_count=len(manifest.annotations),
        total_tokens=len(tokens),
        vocabulary_size=len(set(tokens)),
    )


def _align(rows) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
             for r in rows]
    return "\n".join(lines)


def write_json(obj, path):
    with atomic_write(path) as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")

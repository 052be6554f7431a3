"""Pseudo-label refinement for video moment retrieval corpora.

Cleans, adjusts and consensus-corrects noisy (query, temporal boundary)
annotations over precomputed frame and query embeddings, evaluates the
results, and generates seeded synthetic corpora for experiments.
"""

__version__ = "0.1.0"

from .core import Boundary, ScoredBoundary, iou

__all__ = ["Boundary", "ScoredBoundary", "iou", "__version__"]

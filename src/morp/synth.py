"""Seeded synthetic corpus generator with known ground truth.

Annotations fall into four classes mirroring the common failure modes of
machine-generated moment labels: ``clean`` (correct match, correct
boundary), ``imprecise`` (correct match, perturbed boundary),
``unmatched`` (query unrelated to the video) and ``idle`` (no meaningful
activity for the query anywhere in the video).

Sampling procedure (replayable; the test oracle re-runs it verbatim).
Per video with index ``v``::

    rng = numpy.random.default_rng([spec.seed, v])
    for each annotation slot, in order, draw:
        u          = rng.random()                      # class selector
        gt_len     = rng.integers(max(2, T//8), T//2 + 1)
        gt_start   = rng.integers(0, T - gt_len + 1)
        bad_len    = rng.integers(max(2, T//16), max(2, T//16, T//10) + 1)
        bad_start  = rng.integers(0, T - bad_len + 1)
        noise_s    = round(rng.normal(0, sigma_b))
        noise_e    = round(rng.normal(0, sigma_b))
        q_raw      = rng.standard_normal(D)
    frame_noise = rng.standard_normal((T, D))

``u`` selects the class against the cumulative probabilities in the
order clean, imprecise, unmatched, idle.  Every quantity is drawn for
every slot regardless of the selected class, so the stream stays
aligned.  The per-video queries are Gram-Schmidt orthonormalized (in
slot order) and each frame vector is built as::

    v_t = sum_a c_a(t) * q_a + beta_t * n_t

where ``c_a(t)`` is ``2*signal_level - 1`` inside the ground-truth
interval of a clean/imprecise annotation ``a`` and ``2*noise_level - 1``
outside it (zero for unmatched/idle queries), ``n_t`` is the frame noise
orthogonalized against all queries and normalized, and ``beta_t`` makes
``v_t`` unit norm.  Cosine similarity against each query therefore hits
the configured levels exactly wherever ground-truth intervals do not
overlap.

The unmatched/idle pseudo boundary is drawn uniformly with a length in
``[T//16, T//10]``; keeping those lengths below the ground-truth length
range keeps the inside/outside mass ratio of bad annotations below that
of genuine ones, which the cleaning stage relies on (the ratio grows
with boundary length for any fixed track).  Imprecise endpoint offsets
are the rounded Gaussians, clipped so the inward component never
exceeds ``max(2, gt_len//3)`` and the outward component never exceeds
``max(2, gt_len//8)``, then clamped to the timeline with a minimum
length of 2.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .core import Boundary
from .errors import SpecError
from .featstore import (
    FORMAT_VERSION,
    AnnotationTable,
    CorpusManifest,
    FrameFeatureMatrix,
    VideoEntry,
    derive_boundary_frames,
    write_feature_file,
    write_manifest,
)

TAGS = ("clean", "imprecise", "unmatched", "idle")

# Bounds on one video's T x D frame matrix, checked before anything is
# drawn: its float64 draws take 8 * T * D bytes each, 128 MiB at most.
MAX_FRAMES = 2 ** 20
MAX_FRAME_VALUES = 2 ** 24


@dataclass(frozen=True)
class SynthSpec:
    n_videos: int = 500
    num_frames: int = 256
    dim: int = 16
    annotations_per_video: int = 2
    p_idle: float = 0.1
    p_unmatched: float = 0.1
    p_imprecise: float = 0.2
    boundary_noise_frames: float = 0.0  # 0 means the default T/4
    signal_level: float = 0.85
    noise_level: float = 0.45
    seed: int = 0

    def __post_init__(self):
        for name in ("p_idle", "p_unmatched", "p_imprecise", "signal_level",
                     "noise_level", "boundary_noise_frames"):
            # a NaN passes every comparison below, and an infinite
            # sigma overflows the rounded boundary draws
            if not math.isfinite(getattr(self, name)):
                raise SpecError(f"{name} must be finite", field=name,
                                value=getattr(self, name))
        probs = (self.p_idle, self.p_unmatched, self.p_imprecise)
        if any(p < 0 or p > 1 for p in probs) or sum(probs) > 1.0 + 1e-12:
            raise SpecError("class probabilities must lie in [0,1] and sum <= 1")
        if self.signal_level <= self.noise_level:
            raise SpecError("signal_level must exceed noise_level",
                            signal=self.signal_level, noise=self.noise_level)
        if self.n_videos < 1 or self.annotations_per_video < 1:
            raise SpecError("corpus must hold at least one video and annotation")
        if self.num_frames < 16:
            raise SpecError("timeline too short for nondegenerate boundaries",
                            num_frames=self.num_frames)
        if self.num_frames > MAX_FRAMES:
            raise SpecError("timeline too long", num_frames=self.num_frames,
                            max_frames=MAX_FRAMES)
        if self.num_frames * self.dim > MAX_FRAME_VALUES:
            raise SpecError("frame matrix too large",
                            num_frames=self.num_frames, dim=self.dim,
                            max_values=MAX_FRAME_VALUES)
        if self.annotations_per_video > self.dim:
            raise SpecError("need dim >= annotations_per_video for "
                            "orthonormal queries")
        if self.seed < 0:  # default_rng takes no negative entropy
            raise SpecError("seed must be a nonnegative integer",
                            seed=self.seed)

    @property
    def p_clean(self) -> float:
        return 1.0 - self.p_idle - self.p_unmatched - self.p_imprecise

    @property
    def sigma_b(self) -> float:
        if self.boundary_noise_frames > 0:
            return self.boundary_noise_frames
        # The length-relative clipping dominates once sigma is large, so
        # T/4 mostly rails offsets against their clip bounds.  That
        # lands imprecise annotations near mean IoU 0.6 vs ground truth
        # for the default length distribution; smaller sigmas leave them
        # above 0.7, too precise to show meaningful adjustment headroom.
        return self.num_frames / 4.0


def _pick_tag(u: float, spec: SynthSpec) -> str:
    edges = (spec.p_clean,
             spec.p_clean + spec.p_imprecise,
             spec.p_clean + spec.p_imprecise + spec.p_unmatched)
    if u < edges[0]:
        return "clean"
    if u < edges[1]:
        return "imprecise"
    if u < edges[2]:
        return "unmatched"
    return "idle"


def _draw_video(spec: SynthSpec, v: int):
    """Draw one video worth of annotations and its frame matrix."""
    T, D = spec.num_frames, spec.dim
    rng = np.random.default_rng([spec.seed, v])
    gt_lo = max(2, T // 8)
    gt_hi = max(gt_lo, T // 2)
    bad_lo = max(2, T // 16)
    bad_hi = max(bad_lo, T // 10)

    draws = []
    for _ in range(spec.annotations_per_video):
        u = rng.random()
        gt_len = int(rng.integers(gt_lo, gt_hi + 1))
        gt_start = int(rng.integers(0, T - gt_len + 1))
        bad_len = int(rng.integers(bad_lo, bad_hi + 1))
        bad_start = int(rng.integers(0, T - bad_len + 1))
        noise_s = int(round(rng.normal(0.0, spec.sigma_b)))
        noise_e = int(round(rng.normal(0.0, spec.sigma_b)))
        q_raw = rng.standard_normal(D)
        draws.append((_pick_tag(u, spec), gt_start, gt_len,
                      bad_start, bad_len, noise_s, noise_e, q_raw))
    frame_noise = rng.standard_normal((T, D))

    # orthonormal query directions, in slot order
    queries = []
    for *_, q_raw in draws:
        q = q_raw.copy()
        for prev in queries:
            q -= (q @ prev) * prev
        q /= np.linalg.norm(q)
        queries.append(q)

    cos_in = 2.0 * spec.signal_level - 1.0
    cos_out = 2.0 * spec.noise_level - 1.0

    coeffs = np.zeros((T, len(draws)))
    records = []
    for a, (tag, gt_start, gt_len, bad_start, bad_len,
            noise_s, noise_e, _) in enumerate(draws):
        gt = Boundary(gt_start, gt_start + gt_len, T)
        if tag in ("clean", "imprecise"):
            coeffs[:, a] = cos_out
            coeffs[gt.start:gt.end, a] = cos_in
        if tag == "clean":
            pseudo = gt
        elif tag == "imprecise":
            # Offsets are clipped relative to the moment length so a
            # perturbed boundary always keeps a sizable core of the
            # moment: detached or near-empty pseudo boundaries would be
            # indistinguishable from unmatched ones by any content
            # score.  Inward offsets (trimming the moment) may be larger
            # than outward ones: trimmed frames leave recoverable
            # evidence just outside the boundary, whereas an overhang
            # into background carries no content signal pointing back to
            # the true edge.
            c_in = max(2, gt_len // 3)
            c_out = max(2, gt_len // 8)
            off_s = min(max(noise_s, -c_out), c_in)
            off_e = min(max(noise_e, -c_in), c_out)
            s = min(max(gt.start + off_s, 0), T - 2)
            e = max(min(gt.end + off_e, T), s + 2)
            pseudo = Boundary(s, e, T)
        else:
            pseudo = Boundary(bad_start, bad_start + bad_len, T)
        records.append((tag, pseudo, gt if tag in ("clean", "imprecise") else None))

    q_mat = np.stack(queries)  # (A, D)
    noise = frame_noise - (frame_noise @ q_mat.T) @ q_mat
    norms = np.linalg.norm(noise, axis=1, keepdims=True)
    norms[norms < 1e-9] = 1.0
    noise /= norms
    beta = np.sqrt(np.maximum(1.0 - np.sum(coeffs ** 2, axis=1), 0.01))
    frames = coeffs @ q_mat + beta[:, None] * noise
    return records, queries, frames.astype(np.float32)


def generate_corpus(spec: SynthSpec, out_dir,
                    provenance: Optional[dict] = None) -> CorpusManifest:
    """Emit feature files plus a manifest under ``out_dir``; the
    manifest carries ``provenance`` when it is given.

    Deterministic: the same spec writes byte-identical files.
    """
    T = spec.num_frames
    duration = float(T)  # one frame per second
    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)

    # drawing every video before writing any measured ~20% faster than
    # interleaving draws and writes
    drawn = [_draw_video(spec, v) for v in range(spec.n_videos)]

    videos, rows, all_queries = [], [], []
    for v, (records, queries, frames) in enumerate(drawn):
        video_id = f"v{v:05d}"
        rel_path = os.path.join("features", f"{video_id}.vmrp")
        matrix = FrameFeatureMatrix(frames)
        _self_check(spec, records, queries, frames)
        write_feature_file(matrix, os.path.join(out_dir, rel_path))
        videos.append(VideoEntry(video_id=video_id, duration_seconds=duration,
                                 num_frames=T, feature_file_path=rel_path))
        for a, (tag, pseudo, gt) in enumerate(records):
            ann_id = f"{video_id}-a{a}"
            s, e = pseudo.start * duration / T, pseudo.end * duration / T
            gt_secs = None
            if gt is not None:
                gt_secs = (gt.start * duration / T, gt.end * duration / T)
            b = derive_boundary_frames(s, e, duration, T)
            # one value per AnnotationTable column
            rows.append((
                ann_id, video_id, v,
                f"synthetic {tag} activity shown in clip {ann_id}",
                len(all_queries) + a, s, e, b.start, b.end, T, "raw", tag,
                gt_secs))
        all_queries.extend(queries)

    queries_rel = "queries.vmrp"
    q_matrix = FrameFeatureMatrix(np.stack(all_queries).astype(np.float32))
    write_feature_file(q_matrix, os.path.join(out_dir, queries_rel))

    manifest = CorpusManifest(
        format_version=FORMAT_VERSION,
        videos=tuple(videos),
        queries_file_path=queries_rel,
        annotations=AnnotationTable.from_rows(rows),
        synth={"spec": asdict(spec), "seed": spec.seed},
        provenance=provenance,
        base_dir=os.path.abspath(out_dir),
    )
    write_manifest(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest


def _self_check(spec: SynthSpec, records, queries, frames):
    """Emit-time check: clean moments must stand out from their background."""
    margin = (spec.signal_level - spec.noise_level) / 2.0
    norms = np.linalg.norm(frames, axis=1)
    for (tag, pseudo, gt), q in zip(records, queries):
        if tag != "clean":
            continue
        cos = (frames @ q) / norms
        mapped = (cos + 1.0) / 2.0
        inside = mapped[gt.start:gt.end].mean()
        out_mask = np.ones(len(mapped), dtype=bool)
        out_mask[gt.start:gt.end] = False
        outside = mapped[out_mask].mean()
        if inside - outside < margin:
            raise SpecError(
                "generated clean annotation lacks the required contrast",
                inside=float(inside), outside=float(outside),
                required_margin=margin,
            )

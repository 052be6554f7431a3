"""Output checks: what each timed command wrote, against reference values.

The references do not come from the code under test.  Cleaning and
adjustment are recomputed here from the feature files, with the CLI's
default parameters; consensus picks are recomputed from the memory bank
that the replayed predictions or the correction trace imply.  Manifests
are read back with ``morp.featstore.read_manifest`` and compared by
meaning (kept ids, frame boundaries, statuses, stage quality), never by
bytes, so a change of file format alone does not fail a check.
"""

import json
import math
import os
import struct

import numpy as np

from workloads import CAPACITY, EPOCHS

# CLI defaults of `morp refine` / `morp pipeline`.
CLEAN_RATIO = 0.40
DELTA = 5
ALPHA1, ALPHA2 = 0.22, 0.92
MAX_ITERS = 64
GAMMA_CAP, EPS_DENOM = 1e6, 1e-8


def read_vmrp(path):
    """T x D float32 matrix of a VMRP feature file."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, _, t, d = struct.unpack_from("<4sIII", buf)
    if magic != b"VMRP":
        raise ValueError(f"{path}: not a VMRP feature file")
    return np.frombuffer(buf, dtype="<f4", offset=16).reshape(t, d)


def _adjust(prefix, s, e):
    """Fixed-step hill climb on one boundary, over mapped prefix sums."""
    T = len(prefix) - 1

    def mean(a, b):
        return float(prefix[b] - prefix[a]) / (b - a)

    for _ in range(MAX_ITERS):
        moved = False
        mu = mean(s, e)
        if s > 0 and mean(max(0, s - DELTA), s) >= ALPHA2 * mu:
            s, moved = max(0, s - DELTA), True
        elif e - s > 2 * DELTA and mean(s, s + DELTA) < ALPHA1 * mu:
            s, moved = s + DELTA, True
        mu = mean(s, e)
        if e < T and mean(e, min(T, e + DELTA)) >= ALPHA2 * mu:
            e, moved = min(T, e + DELTA), True
        elif e - s > 2 * DELTA and mean(e - DELTA, e) < ALPHA1 * mu:
            e, moved = e - DELTA, True
        if not moved:
            break
    return s, e


def reference_refine(raw):
    """annotation_id -> adjusted (start, end) of every annotation kept.

    Scores each annotation by mapped cosine mass inside its boundary over
    the mass outside, drops the lowest-scored 40% (ties by id), then
    adjusts the survivors.  The arithmetic follows the paper's formulas in
    float64, operation for operation, so the results match exactly.
    """
    queries = read_vmrp(raw.resolve(raw.queries_file_path))
    by_video = {}
    for ann in raw.annotations:
        by_video.setdefault(ann.video_id, []).append(ann)
    prefix, gamma = {}, {}
    for video_id, anns in by_video.items():
        path = raw.resolve(raw.video_by_id(video_id).feature_file_path)
        v = read_vmrp(path).astype(np.float64)
        v_norm = np.linalg.norm(v, axis=1)
        for ann in anns:
            q = queries[ann.query_feature_ref].astype(np.float64)
            cos = np.clip((v @ q) / (v_norm * np.linalg.norm(q)), -1.0, 1.0)
            p = np.concatenate(([0.0], np.cumsum((cos + 1.0) / 2.0)))
            b = ann.boundary_frames
            inside = float(p[b.end] - p[b.start])
            outside = float(p[-1] - p[0]) - inside
            aid = ann.annotation_id
            gamma[aid] = GAMMA_CAP if outside < EPS_DENOM else inside / outside
            prefix[aid] = p
    order = sorted(raw.annotations,
                   key=lambda a: (-gamma[a.annotation_id], a.annotation_id))
    n_keep = len(order) - math.floor(len(order) * CLEAN_RATIO)
    return {a.annotation_id: _adjust(prefix[a.annotation_id],
                                     a.boundary_frames.start,
                                     a.boundary_frames.end)
            for a in order[:n_keep]}


def consensus_ok(bank, pick):
    """Whether pick is a bank member with the highest summed IoU."""
    arr = np.array(bank, dtype=np.int64)
    s, e = arr[:, 0], arr[:, 1]
    inter = np.maximum(np.minimum(e[:, None], e[None, :])
                       - np.maximum(s[:, None], s[None, :]), 0)
    union = (e - s)[:, None] + (e - s)[None, :] - inter
    scores = inter / union
    np.fill_diagonal(scores, 0.0)
    scores = scores.sum(axis=1)
    best = scores.max() - 1e-9
    return any(tuple(b) == pick and sc >= best
               for b, sc in zip(bank, scores))


def trace_inserts(path):
    """annotation_id -> inserted boundaries in epoch order, from a trace.

    Lines without an annotation record (such as a header) are skipped.
    """
    recs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "annotation_id" in rec and "inserted" in rec:
                recs.setdefault(rec["annotation_id"], []).append(
                    (rec["epoch"], tuple(rec["inserted"])))
    return {aid: [b for _, b in sorted(v)] for aid, v in recs.items()}


def boundaries(manifest):
    return {a.annotation_id: a.boundary_frames.as_tuple()
            for a in manifest.annotations}


def check_refined(refined, expected):
    """Kept ids, adjusted boundaries and statuses against the reference."""
    got = {a.annotation_id: a for a in refined.annotations}
    fails = []
    if set(got) != set(expected):
        fails.append(f"kept ids differ from the reference in "
                     f"{len(set(got) ^ set(expected))} annotations")
    wrong = sorted(aid for aid in set(got) & set(expected)
                   if got[aid].boundary_frames.as_tuple() != expected[aid]
                   or got[aid].status != "adjusted")
    if wrong:
        fails.append(f"{len(wrong)} adjusted annotations differ from the "
                     f"reference, first {wrong[0]}")
    return fails


def check_corrected(corrected, seeds, inserted):
    """Each corrected boundary is the consensus of its memory bank.

    ``seeds`` maps annotation_id to the refined boundary that seeds the
    bank and ``inserted`` to the boundaries inserted epoch by epoch.
    """
    got = {a.annotation_id: a for a in corrected.annotations}
    if set(got) != set(seeds):
        return [f"corrected ids differ from the refined input in "
                f"{len(set(got) ^ set(seeds))} annotations"]
    bad = []
    for aid, ann in got.items():
        ins = inserted.get(aid, [])
        bank = [seeds[aid]] + ins[-(CAPACITY - 1):]
        if len(ins) != EPOCHS or ann.status != "corrected" or \
                not consensus_ok(bank, ann.boundary_frames.as_tuple()):
            bad.append(aid)
    if bad:
        return [f"{len(bad)} corrected annotations are not the consensus of "
                f"their bank, first {min(bad)}"]
    return []


def check_quality(raw, *stages):
    """Corpus quality orders raw < refined <= corrected."""
    from morp.pipeline import corpus_quality

    q = [corpus_quality(raw, m) for m in (raw,) + stages]
    ok = q[0] < q[1] and all(a <= b for a, b in zip(q[1:], q[2:]))
    return [] if ok else ["corpus quality out of stage order: " +
                          " / ".join(f"{x:.4f}" for x in q)]


class Reference:
    """What a workload's outputs must hold, computed once per run."""

    def __init__(self, workload):
        from morp.featstore import read_manifest

        self.w = workload
        if workload.name == "correct_replay":
            self.raw = None
            self.seeds = boundaries(read_manifest(workload.refined))
        else:
            self.raw = read_manifest(workload.corpus)
            self.expected = reference_refine(self.raw)

    def check(self, out_dir):
        """Failures found in the artifacts one timed command wrote."""
        from morp.featstore import read_manifest

        def load(name):
            return read_manifest(os.path.join(out_dir, name))

        try:
            if self.w.name == "refine_wide":
                refined = load("refined.json")
                return (check_refined(refined, self.expected)
                        + check_quality(self.raw, refined))
            if self.w.name == "pipeline_default":
                refined = load("refined.json")
                corrected = load("corrected.json")
                inserts = trace_inserts(os.path.join(out_dir, "trace.jsonl"))
                return (check_refined(refined, self.expected)
                        + check_corrected(corrected, boundaries(refined),
                                          inserts)
                        + check_quality(self.raw, refined, corrected))
            corrected = load("corrected.json")
            inserts = trace_inserts(
                os.path.join(out_dir, "corrected.json.trace.jsonl"))
            fails = check_corrected(corrected, self.seeds, self.w.replayed)
            if inserts != self.w.replayed:
                fails.append("trace inserts differ from the replayed "
                             "predictions")
            return fails
        except Exception as exc:  # a missing or unreadable artifact
            return [f"artifact unreadable: {type(exc).__name__}: {exc}"]

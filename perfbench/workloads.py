"""The three benchmark workloads: sizes, set-up and the timed command.

Each workload names the `morp` subcommand a user would run, the synthetic
corpus it runs on and the set-up a user would do first.  Only the seed
varies between runs; sizes are fixed so that runs compare.
"""

import json
import os

import numpy as np

# CLI defaults the checks rely on; the timed commands leave them unset.
EPOCHS = 15
PREDICTIONS_PER_QUERY = 5
CAPACITY = 32

SIZES = {
    # the acceptance-gate shape: 1000 annotations, 600 kept, 9000 propose calls
    "pipeline_default": dict(videos=500, frames=128, dim=16, per_video=2),
    # long timelines, wide features, 8 queries per feature file (~190 MB)
    "refine_wide": dict(videos=1500, frames=512, dim=64, per_video=8),
    # 2400 kept annotations x 15 epochs = 36,000 bank updates
    "correct_replay": dict(videos=2000, frames=128, dim=16, per_video=2),
}

# Small enough for the self-test to run every workload in seconds.
TINY_SIZES = {
    "pipeline_default": dict(videos=12, frames=64, dim=8, per_video=2),
    "refine_wide": dict(videos=10, frames=128, dim=16, per_video=8),
    "correct_replay": dict(videos=12, frames=64, dim=8, per_video=2),
}


class Workload:
    """Paths and reference data of one workload in one work directory."""

    def __init__(self, name, seed, size, work):
        self.name = name
        self.seed = seed
        self.size = size
        self.work = work
        self.corpus = os.path.join(work, "corpus", "manifest.json")
        self.refined = os.path.join(work, "refined", "refined.json")
        self.predictions = os.path.join(work, "predictions.jsonl")
        self.replayed = None  # annotation_id -> boundary inserted per epoch
        # annotations the timed command reads
        self.input_annotations = size["videos"] * size["per_video"]

    def setup(self, morp, synth_spans=None):
        """Build the inputs of the timed command; returns None or an error.

        ``morp(args, spans)`` runs one morp command and returns its exit
        code; ``synth_spans`` traces the corpus synthesis.
        """
        s = self.size
        synth = ["synth", "--out", os.path.dirname(self.corpus),
                 "--videos", str(s["videos"]), "--frames", str(s["frames"]),
                 "--dim", str(s["dim"]),
                 "--annotations-per-video", str(s["per_video"]),
                 "--seed", str(self.seed)]
        if morp(synth, synth_spans) != 0:
            return "morp synth failed"
        if self.name != "correct_replay":
            return None
        os.makedirs(os.path.dirname(self.refined), exist_ok=True)
        if morp(["refine", "--manifest", self.corpus, "--out-manifest",
                 self.refined, "--seed", str(self.seed)]) != 0:
            return "morp refine failed"
        self.replayed = write_predictions(self.refined, self.predictions,
                                          self.seed)
        self.input_annotations = len(self.replayed)
        return None

    def command(self, out_dir):
        """Arguments of the timed morp command, writing under out_dir."""
        seed = ["--seed", str(self.seed)]
        if self.name == "pipeline_default":
            return ["pipeline", "--manifest", self.corpus, "--out-dir",
                    out_dir, "--threads", "1"] + seed
        if self.name == "refine_wide":
            return ["refine", "--manifest", self.corpus, "--out-manifest",
                    os.path.join(out_dir, "refined.json"),
                    "--threads", "2"] + seed
        return ["correct", "--manifest", self.refined, "--out-manifest",
                os.path.join(out_dir, "corrected.json"),
                "--predictions", self.predictions] + seed


def write_predictions(refined_path, out_path, seed):
    """Seeded replay predictions near each adjusted boundary.

    Every record holds PREDICTIONS_PER_QUERY boundaries with
    0 <= start < end <= T and confidences in [0, 1), so FilePredictor
    accepts all of them.
    Returns, per annotation_id, the most confident boundary of each
    epoch's record: what correction inserts into the memory bank.
    """
    from morp.featstore import read_manifest

    manifest = read_manifest(refined_path)
    anns = sorted(manifest.annotations, key=lambda a: a.annotation_id)
    start, end, T = (np.array([getattr(a.boundary_frames, f) for a in anns],
                              dtype=np.int64)[None, :, None]
                     for f in ("start", "end", "timeline_len"))
    shape = (EPOCHS, len(anns), PREDICTIONS_PER_QUERY)
    # a stream apart from the synth's default_rng([seed, video])
    rng = np.random.default_rng([seed, 0x5245504C])
    sigma = 1.0 + (end - start) / 4.0
    s = np.rint(start + rng.normal(0.0, 1.0, shape) * sigma).astype(np.int64)
    e = np.rint(end + rng.normal(0.0, 1.0, shape) * sigma).astype(np.int64)
    s = np.clip(s, 0, T - 1)
    e = np.clip(e, s + 1, T)
    conf = rng.random(shape)

    with open(out_path, "w", encoding="utf-8") as fh:
        for j in range(EPOCHS):
            for a, ann in enumerate(anns):
                preds = [{"start": int(s[j, a, k]), "end": int(e[j, a, k]),
                          "confidence": float(conf[j, a, k])}
                         for k in range(PREDICTIONS_PER_QUERY)]
                fh.write(json.dumps({"epoch": j + 1,
                                     "annotation_id": ann.annotation_id,
                                     "predictions": preds}) + "\n")
    best = np.argmax(conf, axis=2)[..., None]  # earliest wins ties, as in morp
    s = np.take_along_axis(s, best, 2)[..., 0].tolist()
    e = np.take_along_axis(e, best, 2)[..., 0].tolist()
    return {ann.annotation_id: [(s[j][a], e[j][a]) for j in range(EPOCHS)]
            for a, ann in enumerate(anns)}

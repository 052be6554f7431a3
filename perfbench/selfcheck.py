#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selfcheck.py

Checks, each printed as one PASS/FAIL line:

* every workload, at a tiny size, passes its output check, and a
  deliberately corrupted output fails it;
* the exact counts of the traced run repeat between two runs;
* at full size and seed 0, pipeline_default makes 15 x 600 = 9000
  ``propose`` calls and 2 ``compute_tracks`` calls (the duplicate track
  pass), and top-level spans cover at least 95% of the traced wall time;
* the replay predictions are accepted by ``FilePredictor`` for every
  (epoch, annotation) at several seeds;
* BENCHMARK.json names exactly the metrics the benchmark prints;
* without the morp sources, the benchmark exits nonzero and prints no
  result.

Exits 0 when every check passes.  Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import run
from checks import Reference
from workloads import (EPOCHS, PREDICTIONS_PER_QUERY, SIZES, TINY_SIZES,
                       Workload)

sys.path.insert(0, run.SRC)
WORK = os.path.join(run.WORK_ROOT, f"selfcheck-{os.getpid()}")
FAILED = []


def report(ok, what):
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        FAILED.append(what)


def morp(args, spans=None):
    return run.run_morp(args, spans).code


def edit_manifest(path, change):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    change(doc["annotations"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def shift_first(anns):
    s, e = anns[0]["boundary_seconds"]
    anns[0]["boundary_seconds"] = [s + 1.0, e] if e - s > 1 else [s, e + 1.0]


def collapse_first(anns):
    s, _ = anns[0]["boundary_seconds"]
    anns[0]["boundary_seconds"] = [s, s + 1.0]


def drop_first(anns):
    del anns[0]


def drop_trace_line(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[1:])


# workload -> (artifact, corruption) pairs that the output check must catch
CORRUPTIONS = {
    "refine_wide": [("refined.json", shift_first),
                    ("refined.json", drop_first)],
    "pipeline_default": [("refined.json", shift_first),
                         ("corrected.json", collapse_first),
                         ("corrected.json", drop_first),
                         ("trace.jsonl", None)],
    "correct_replay": [("corrected.json", collapse_first),
                       ("corrected.json", drop_first),
                       ("corrected.json.trace.jsonl", None)],
}


def check_corruptions(name):
    w = Workload(name, 0, TINY_SIZES[name], os.path.join(WORK, name))
    report(w.setup(morp) is None, f"{name}: tiny set-up")
    ref = Reference(w)
    clean = os.path.join(w.work, "out")
    os.makedirs(clean)
    report(morp(w.command(clean)) == 0 and ref.check(clean) == [],
           f"{name}: tiny run passes the output check")
    for artifact, corrupt in CORRUPTIONS[name]:
        bad = os.path.join(w.work, "bad")
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(clean, bad)
        path = os.path.join(bad, artifact)
        if corrupt is None:
            drop_trace_line(path)
        else:
            edit_manifest(path, corrupt)
        what = corrupt.__name__ if corrupt else "drop_first_line"
        report(ref.check(bad) != [],
               f"{name}: {what} on {artifact} fails the output check")


def count_metrics(result):
    return {k: m["value"] for k, m in result["metrics"].items()
            if k.endswith((".calls", ".mb")) or k == "refine.kept_frac"}


def check_repeat(name):
    results = [run.measure(name, 0, 0, 1, TINY_SIZES[name],
                           os.path.join(WORK, f"{name}-trace{i}"))
               for i in range(2)]
    report(all(r["correct"] and r["failed"] == 0 for r in results),
           f"{name}: tiny traced runs correct, artifacts byte-identical")
    a, b = (count_metrics(r) for r in results)
    report(a == b and any(a.values()),
           f"{name}: exact counts repeat across runs ({len(a)} counts)")


def check_full_counts():
    r = run.measure("pipeline_default", 0, 0, 1, SIZES["pipeline_default"],
                    os.path.join(WORK, "full"))
    m = {k: v["value"] for k, v in r["metrics"].items()}
    report(r["correct"], "pipeline_default full size seed 0: output correct")
    kept = 600  # 1000 annotations less the 40% that cleaning drops
    for key, want in (("predictor.propose.calls", EPOCHS * kept),
                      ("refine.compute_tracks.calls", 2),
                      ("refine.adjust_boundary.calls", kept),
                      ("consensus.select_consensus.calls",
                       EPOCHS * kept + kept)):
        report(m[key] == want, f"pipeline_default seed 0: {key} = {m[key]} "
                               f"(expected {want})")
    report(m["trace.coverage"] >= 0.95,
           f"pipeline_default seed 0: trace.coverage = "
           f"{m['trace.coverage']:.4f} (at least 0.95)")


def check_predictions():
    import numpy as np
    from morp.errors import MorpError
    from morp.predictor import FilePredictor
    from morp.refine import SimilarityTrack

    for seed in range(5):
        size = TINY_SIZES["correct_replay"]
        w = Workload("correct_replay", seed, size,
                     os.path.join(WORK, f"preds{seed}"))
        w.setup(morp)
        predictor = FilePredictor(w.predictions)
        track = SimilarityTrack.from_raw(np.zeros(size["frames"]))
        ok = True
        for aid in w.replayed:
            for epoch in range(1, EPOCHS + 1):
                try:
                    preds = predictor.for_annotation(
                        aid, track, PREDICTIONS_PER_QUERY, epoch)
                    ok &= len(preds) == PREDICTIONS_PER_QUERY
                except MorpError:
                    ok = False
        report(ok, f"replay predictions seed {seed}: FilePredictor accepts "
                   f"all {EPOCHS * len(w.replayed)} records")


def check_declared_metrics():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    report(declared == run.END_TO_END,
           "BENCHMARK.json end_to_end matches the printed metrics")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    report(declared == run.PER_LAYER,
           "BENCHMARK.json per_layer matches the printed metrics")


def check_without_sources():
    bare = os.path.join(WORK, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline_default",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    report(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without sources: exit code {proc.returncode}, no result printed")


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        check_declared_metrics()
        check_without_sources()
        for name in TINY_SIZES:
            check_corruptions(name)
            check_repeat(name)
        check_predictions()
        check_full_counts()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(FAILED)} check(s) failed" if FAILED else "all checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())

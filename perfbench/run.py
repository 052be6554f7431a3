#!/usr/bin/env python3
"""Benchmark of the `morp` command line on three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, then runs the timed `morp`
command in fresh processes, one after another, for S seconds, and checks
every run's outputs.  With ``--trace 0`` it reports the end-to-end
metrics of untraced runs; with ``--trace 1`` it alternates untraced and
traced runs and reports per-layer metrics from the traced ones.  The last
line of standard output is one JSON object.  See perfbench/README.md.
"""

import argparse
import filecmp
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracer
from checks import Reference
from workloads import SIZES, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed, so that a quick set-up still yields a steady median.
SETUP_REPEATS = 2
SETUP_SECONDS = 4.0

END_TO_END = {"wall_s": "s", "annotations_per_s": "1/s",
              "peak_rss_mb": "MB", "setup_s": "s"}

# Functions whose per-call latency is reported; each makes at least 9000
# calls on the workload that loads it most.
LATENCY = ("predictor.propose", "predictor.FilePredictor.for_annotation",
           "consensus.select_consensus", "refine.frame_similarities",
           "refine.adjust_boundary", "featstore.read_feature_file")
# (metric, span name, statistic, unit)
SPAN_METRICS = [
    (f"{name}.{stat}", name, stat, unit)
    for name in LATENCY
    for stat, unit in (("calls", "count"), ("s", "s"), ("p50_us", "us"),
                       ("p99_us", "us"))
] + [
    ("predictor.FilePredictor.load_s", "predictor.FilePredictor.__init__",
     "s", "s"),
    ("consensus.run_correction.self_s", "consensus.run_correction",
     "self_s", "s"),
    ("consensus.CorrectionTrace.write.s", "consensus.CorrectionTrace.write",
     "s", "s"),
    ("consensus.CorrectionTrace.write.mb", "consensus.CorrectionTrace.write",
     "mb", "MB"),
    ("refine.compute_tracks.calls", "refine.compute_tracks", "calls", "count"),
    ("refine.compute_tracks.self_s", "refine.compute_tracks", "self_s", "s"),
    ("refine.moment_contrast.s", "refine.moment_contrast", "s", "s"),
    ("refine.clean_corpus.s", "refine.clean_corpus", "s", "s"),
    ("refine.refine_corpus.self_s", "refine.refine_corpus", "self_s", "s"),
    ("featstore.read_feature_file.mb", "featstore.read_feature_file", "mb",
     "MB"),
    ("featstore.read_manifest.s", "featstore.read_manifest", "s", "s"),
    ("featstore.write_manifest.s", "featstore.write_manifest", "s", "s"),
    ("metrics.write_json.s", "metrics.write_json", "s", "s"),
    ("pipeline.run_pipeline.self_s", "pipeline.run_pipeline", "self_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
    ("cli.import.s", "cli.import", "s", "s"),
]
PER_LAYER = {m: unit for m, _, _, unit in SPAN_METRICS}
PER_LAYER.update({
    "refine.kept_frac": "ratio",
    "synth.generate_corpus.s": "s",
    "proc.cpu_s": "s",
    "proc.cpu_per_wall": "ratio",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
})


class Child:
    """One finished morp process: exit code, times and peak memory."""

    def __init__(self, code, t0, t1, rusage):
        self.code = code
        self.t0, self.t1 = t0, t1
        self.wall = t1 - t0
        self.cpu = rusage.ru_utime + rusage.ru_stime
        # Linux reports KiB; MB here and in every metric is 2**20 bytes
        self.rss_mb = rusage.ru_maxrss / 1024.0


def run_morp(args, spans=None, log=os.devnull):
    """Run one morp command in a fresh interpreter, as the `morp` script does.

    With ``spans`` set, the command runs under perfbench/tracer.py, which
    writes its spans there.
    """
    if spans:
        argv = [sys.executable, os.path.join(HERE, "tracer.py"),
                "--spans", spans, "--"]
    else:
        argv = [sys.executable, "-c",
                "import sys; from morp.cli import main; sys.exit(main())"]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    with open(log, "ab") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv + args, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, t0, t1, rusage)


def percentile(values, q):
    """Nearest-rank percentile of a nonempty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def span_metrics(summary):
    """Per-layer metrics of one traced command, from tracer.summarize."""
    out = {}
    for metric, name, stat, _ in SPAN_METRICS:
        st = summary.get(name)
        if st is None:
            out[metric] = 0
        elif stat == "p50_us":
            out[metric] = percentile(st["durations"], 0.50) * 1e6
        elif stat == "p99_us":
            out[metric] = percentile(st["durations"], 0.99) * 1e6
        elif stat == "mb":
            out[metric] = st["bytes"] / 2**20
        else:
            out[metric] = st[stat]
    scored = summary.get("refine.moment_contrast", {}).get("calls", 0)
    kept = summary.get("refine.adjust_boundary", {}).get("calls", 0)
    out["refine.kept_frac"] = kept / scored if scored else 0.0
    return out


def same_tree(a, b):
    """Whether two output directories hold byte-identical files."""
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    return all(filecmp.cmp(os.path.join(a, n), os.path.join(b, n),
                           shallow=False) for n in names)


def measure(name, seed, seconds, trace, size, work):
    """Set up, run and check one workload; returns the result object."""
    w = Workload(name, seed, size, work)
    os.makedirs(work, exist_ok=True)
    log = os.path.join(work, "stderr.log")

    def morp(args, spans=None):
        return run_morp(args, spans, log).code

    synth_spans = os.path.join(work, "synth_spans.pickle")
    setups = []
    repeats = 1 if trace else SETUP_REPEATS
    while len(setups) < repeats or not trace and sum(setups) < SETUP_SECONDS:
        t0 = time.monotonic()
        error = w.setup(morp, synth_spans if trace else None)
        setups.append(time.monotonic() - t0)
        if error:
            with open(log, "r", encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"set-up failed: {error}\n"
                                   f"{fh.read()[-2000:]}")
    ref = Reference(w)

    attempted, failures = 0, []
    untraced, traced, layers = [], [], []
    out_u, out_t = os.path.join(work, "out"), os.path.join(work, "out_traced")
    spans_path = os.path.join(work, "spans.pickle")

    def timed(out, spans=None):
        nonlocal attempted
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        if spans and os.path.exists(spans):
            os.remove(spans)
        child = run_morp(w.command(out), spans, log)
        fails = [f"exit code {child.code}"] if child.code else ref.check(out)
        if spans and not fails and not same_tree(out_u, out_t):
            fails = ["traced artifacts differ from untraced ones"]
        attempted += 1
        failures.extend(fails[:1])
        return child

    start = time.monotonic()
    while True:
        untraced.append(timed(out_u))
        if trace:
            child = timed(out_t, spans_path)
            traced.append(child)
            spans = tracer.load(spans_path)
            m = span_metrics(tracer.summarize(spans))
            m["trace.coverage"] = tracer.coverage(spans, child.t0, child.t1)
            layers.append(m)
        if time.monotonic() - start >= seconds:
            break

    med = statistics.median
    if trace:
        metrics = {k: med(m[k] for m in layers) for k in layers[0]}
        synth = tracer.load(synth_spans)
        metrics["synth.generate_corpus.s"] = \
            tracer.summarize(synth)["synth.generate_corpus"]["s"]
        wall = med(c.wall for c in untraced)
        metrics["proc.cpu_s"] = med(c.cpu for c in untraced)
        metrics["proc.cpu_per_wall"] = metrics["proc.cpu_s"] / wall
        metrics["trace.overhead_s"] = med(c.wall for c in traced) - wall
        units = PER_LAYER
    else:
        wall = med(c.wall for c in untraced)
        metrics = {"wall_s": wall,
                   "annotations_per_s": w.input_annotations / wall,
                   "peak_rss_mb": med(c.rss_mb for c in untraced),
                   "setup_s": med(setups)}
        units = END_TO_END
    for msg in failures[:5]:
        print(f"check failed: {msg}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds like an interrupted one: run_morp kills and
    # waits for its child, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "morp", "cli.py")):
        print(f"morp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(WORK_ROOT,
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace,
                         SIZES[args.workload], work)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{args.workload} seed {args.seed}: {result['attempted']} runs, "
          f"{result['failed']} failed, error_rate "
          f"{result['failed'] / result['attempted']:.4f}")
    for key, m in result["metrics"].items():
        print(f"  {key:44s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

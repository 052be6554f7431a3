"""Span tracer for the morp CLI, attached from outside the package.

Run as::

    python3 perfbench/tracer.py --spans OUT.pickle -- <morp arguments>

It imports morp, replaces the public functions listed in ``TARGETS`` by
timing wrappers in every morp namespace that bound them, runs
``morp.cli.main`` on the arguments and writes the recorded spans to
``OUT.pickle``.  Nothing inside ``src/morp`` changes.  Spans are kept in
memory and written once, after the command returns, as a pickle: tens of
thousands of spans take a tenth of the time to write that JSON takes,
which keeps the uncovered tail of the traced process short.

Times come from ``time.monotonic`` (CLOCK_MONOTONIC), which the parent
benchmark process shares, so spans line up with the wall time the
parent measures around this process.
"""

import time

_T_START = time.monotonic()

import functools  # noqa: E402
import itertools  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

# (module, attribute path) of every wrapped callable.  Span names are
# "<module>.<attribute path>".
TARGETS = (
    ("synth", "generate_corpus"),
    ("featstore", "read_feature_file"),
    ("featstore", "read_manifest"),
    ("featstore", "write_manifest"),
    ("refine", "compute_tracks"),
    ("refine", "frame_similarities"),
    ("refine", "moment_contrast"),
    ("refine", "clean_corpus"),
    ("refine", "adjust_boundary"),
    ("refine", "refine_corpus"),
    ("predictor", "propose"),
    ("predictor", "FilePredictor.__init__"),
    ("predictor", "FilePredictor.for_annotation"),
    ("consensus", "select_consensus"),
    ("consensus", "run_correction"),
    ("consensus", "CorrectionTrace.write"),
    ("pipeline", "run_pipeline"),
    ("metrics", "write_json"),
    ("cli", "main"),
)


def _feature_bytes(args, kwargs, result):
    return result.data.nbytes + 16  # payload plus the VMRP header


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# Byte counts recorded at the span boundary, for spans that move data.
SIZE_OF = {
    "featstore.read_feature_file": _feature_bytes,
    "consensus.CorrectionTrace.write": _written_bytes,
}


class Tracer:
    """In-memory span store: (id, parent id, name, start, end, bytes).

    Each thread keeps its own stack of open spans.  A span opened in a
    worker thread with nothing open in that thread takes as parent the
    innermost span open in the main thread, which is the call that
    handed the work to the pool.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, start, end):
        """Record a top-level span timed by the caller."""
        self.spans.append((next(self._ids), None, name, start, end, None))

    def wrap(self, name, fn):
        size_of = SIZE_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.monotonic()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                nbytes = None
                if done and size_of is not None:
                    nbytes = size_of(args, kwargs, result)
                self.spans.append((sid, parent, name, start, end, nbytes))

        return traced


def install(tracer):
    """Wrap every target in every loaded morp module that bound it."""
    import importlib

    modules = {m: importlib.import_module("morp." + m)
               for m in {m for m, _ in TARGETS}}
    namespaces = [mod for key, mod in sys.modules.items()
                  if key == "morp" or key.startswith("morp.")]
    for mod_name, attr in TARGETS:
        owner = modules[mod_name]
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, fn_name)
        wrapped = tracer.wrap(f"{mod_name}.{attr}", original)
        if cls_path:
            setattr(owner, fn_name, wrapped)
            continue
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)


def load(path):
    """Spans from a file written by :func:`main` of this module."""
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def summarize(spans):
    """Per span name: calls, total and self seconds, durations, bytes.

    Self time is a span's duration minus the part of it that its child
    spans cover; children in worker threads may overlap each other.
    """
    children = {}
    for _, parent, _, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, name, start, end, nbytes in spans:
        st = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                   "durations": [], "bytes": 0})
        st["calls"] += 1
        st["s"] += end - start
        st["self_s"] += end - start - _covered(children.get(sid, ()),
                                               start, end)
        st["durations"].append(end - start)
        st["bytes"] += nbytes or 0
    return out


def coverage(spans, t0, t1):
    """Share of [t0, t1] covered by top-level spans."""
    top = [(start, end) for _, parent, _, start, end, _ in spans
           if parent is None]
    return _covered(top, t0, t1) / (t1 - t0)


def main(argv):
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans OUT.pickle -- <morp arguments>",
              file=sys.stderr)
        return 2
    out_path, morp_args = argv[1], argv[3:]
    tracer = Tracer()
    import morp.cli  # imports every morp module the CLI uses

    tracer.add("cli.import", _T_START, time.monotonic())
    install(tracer)
    try:
        return morp.cli.main(morp_args)
    finally:
        with open(out_path, "wb") as fh:
            pickle.dump(tracer.spans, fh, protocol=pickle.HIGHEST_PROTOCOL)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

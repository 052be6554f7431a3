"""Subcommand CLI wiring the pipeline end to end.

Configuration precedence: command-line flags beat ``MORP_<FLAG>``
environment variables, which beat the optional ``--config`` JSON file,
which beats the built-in defaults.  Every output artifact carries a
provenance block (tool version, config hash, seed) so runs are
reproducible byte for byte.  The config hash is a SHA-256 computed in
Python (:func:`_sha256_hex`): ``hashlib`` is not imported, so a
``morp`` process loads OpenSSL only if a library it uses does (NumPy's
random module does, through ``secrets``; only ``synth`` and ``sweep``,
which generate corpora, import it).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from . import __version__
from .consensus import CorrectionParams, check_adjusted, run_correction
from .errors import ConfigError, MorpError
from .featstore import read_manifest, write_manifest
from .metrics import corpus_stats, write_json
from .pipeline import evaluate_manifest, run_pipeline, sweep
from .predictor import FilePredictor, sliding_windows
from .refine import AdjustParams, CleanParams, compute_tracks, refine_corpus
from .synth import SynthSpec, generate_corpus


def _list_option(text, typ, name, source):
    """A comma-separated list option; an empty list or an entry that
    does not parse as ``typ`` is a ConfigError naming the option and
    where its text came from."""
    try:
        values = [typ(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"cannot parse {source} value for {name}",
                          option=name, value=text, source=source)
    return values


# name, type, default, help; a ``list`` option takes comma-separated
# floats
COMMON_OPTS = [
    ("seed", int, 0, "base random seed (default: 0)"),
    ("threads", int, 1, "accepted for compatibility; the value changes "
                        "neither the output nor the speed (default: 1)"),
]
SYNTH_OPTS = [
    ("videos", int, 500, "number of synthetic videos (default: 500)"),
    ("frames", int, 256, "frames sampled per video (default: 256)"),
    ("dim", int, 16, "embedding dimension (default: 16)"),
    ("annotations_per_video", int, 2, "annotations per video (default: 2)"),
    ("p_imprecise", float, 0.2, "probability of an imprecise boundary "
                                "(default: 0.2)"),
    ("p_unmatched", float, 0.1, "probability of an unmatched query "
                                "(default: 0.1)"),
    ("p_idle", float, 0.1, "probability of an idle video (default: 0.1)"),
    ("signal_level", float, 0.85, "mean in-moment mapped similarity "
                                  "(default: 0.85)"),
    ("noise_level", float, 0.45, "mean out-of-moment mapped similarity "
                                 "(default: 0.45)"),
    ("boundary_noise", float, 0.0, "imprecise-boundary noise sigma in frames;"
                                   " 0 means frames/4 (default: 0)"),
]
REFINE_OPTS = [
    ("clean_ratio", float, 0.40, "fraction of lowest-scored annotations to "
                                 "drop (default: 0.40)"),
    ("alpha1", float, 0.22, "shrink threshold (default: 0.22)"),
    ("alpha2", float, 0.92, "expand threshold (default: 0.92)"),
    ("delta", int, 5, "adjustment step in frames; correct and pipeline "
                      "also place sliding windows every delta frames and "
                      "shift them by up to delta per epoch (default: 5)"),
    ("min_len", int, 0, "minimum moment length in frames; 0 means delta "
                        "(default: 0)"),
    ("max_iters", int, 64, "adjustment iteration cap (default: 64)"),
]
CORRECT_OPTS = [
    ("epochs", int, 15, "correction epochs (default: 15)"),
    ("capacity", int, 32, "memory bank capacity (default: 32)"),
    ("u", int, 5, "predictions per query per epoch (default: 5)"),
]
EVAL_OPTS = [
    ("thresholds", list, [0.3, 0.5, 0.7],
     "IoU thresholds for R@m (default: 0.3,0.5,0.7)"),
]


def _flag(name):
    return "--" + name.replace("_", "-")


def _add_opts(parser, opts):
    """Register each option as a text flag; ``_resolve`` parses the text
    as it parses MORP_* and config values.  The list is kept on the
    subparser, so it is the one place a command's options are named."""
    parser.set_defaults(opts=opts)
    for name, _, _, help_text in opts:
        parser.add_argument(_flag(name), dest=name, help=help_text)


def _is_number(x, kinds=(int, float)):
    return isinstance(x, kinds) and not isinstance(x, bool)


def _parse(typ, raw, name, source):
    """An option's value from a flag, environment or config-file entry."""
    if not isinstance(raw, str):
        # JSON config values arrive typed: a number must fit the option,
        # and a list option takes a nonempty list of numbers
        if typ is list:
            fits = isinstance(raw, list) and raw and all(map(_is_number, raw))
        else:
            fits = _is_number(raw, (int,) if typ is int else (int, float))
        if not fits:
            raise ConfigError(f"bad {source} value for {name}", option=name,
                              value=raw, source=source)
        return raw
    if typ is list:
        return _list_option(raw, float, name, source)
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {source} value for {name}",
                          option=name, value=raw, source=source) from None


def _resolve(args, config):
    """The command's options, each from the first source that sets it:
    flag > MORP_* environment > config file (null leaves it unset) >
    built-in default."""
    cfg = {}
    for name, typ, default, _ in args.opts:
        env = "MORP_" + name.upper()
        cfg[name] = default
        for raw, source in ((getattr(args, name), _flag(name)),
                            (os.environ.get(env), env),
                            (config.get(name), "config file")):
            if raw is not None:
                cfg[name] = _parse(typ, raw, name, source)
                break
    return cfg


def _parent_dirs(*paths):
    """Create the directories that will hold the given output files."""
    for path in paths:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="morp",
        description="Pseudo-label refinement pipeline for video moment "
                    "retrieval corpora.",
    )
    parser.add_argument("--config", default=None,
                        help="optional JSON config file (flags override it)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--out", required=True, help="output corpus directory")
    _add_opts(p, SYNTH_OPTS + COMMON_OPTS)

    p = sub.add_parser("refine", help="clean and adjust a raw corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-manifest", required=True)
    p.add_argument("--report", default=None,
                   help="refine report path (default: beside the output "
                        "manifest)")
    _add_opts(p, REFINE_OPTS + COMMON_OPTS)

    p = sub.add_parser("correct", help="memory-consensus boundary correction")
    p.add_argument("--manifest", required=True,
                   help="refined manifest (annotations with status adjusted)")
    p.add_argument("--out-manifest", required=True)
    p.add_argument("--trace", default=None,
                   help="correction trace path (default: beside the output "
                        "manifest)")
    p.add_argument("--predictions", default=None,
                   help="JSON-lines prediction file to replay; the run then "
                        "reads no feature file")
    _add_opts(p, CORRECT_OPTS + REFINE_OPTS + COMMON_OPTS)

    p = sub.add_parser("pipeline", help="refine then correct")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    _add_opts(p, REFINE_OPTS + CORRECT_OPTS + COMMON_OPTS)

    p = sub.add_parser("evaluate", help="score boundaries against ground truth")
    p.add_argument("--manifest", required=True)
    p.add_argument("--json", dest="json_out", default=None,
                   help="also write the metric report JSON here")
    _add_opts(p, EVAL_OPTS + COMMON_OPTS)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--manifest", required=True)
    p.add_argument("--json", dest="json_out", default=None)
    _add_opts(p, COMMON_OPTS)

    p = sub.add_parser("sweep", help="grid a knob and report corpus quality")
    p.add_argument("--knob", choices=["clean-ratio", "corpus-size"],
                   required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated knob values")
    p.add_argument("--seeds", default="0",
                   help="comma-separated seeds to average (default: 0)")
    p.add_argument("--work-dir", required=True,
                   help="scratch directory for generated corpora")
    p.add_argument("--json", dest="json_out", default=None)
    _add_opts(p, SYNTH_OPTS + REFINE_OPTS + CORRECT_OPTS + COMMON_OPTS)

    return parser


# FIPS 180-4 SHA-256: the first 32 bits of the fractional parts of the
# cube roots of the first 64 primes (round constants) and of the square
# roots of the first 8 (initial hash words)
_SHA256_K = (
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
)
_SHA256_H = (0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19)
_MASK32 = 0xFFFFFFFF


def _rotr(x, n):
    return (x >> n | x << (32 - n)) & _MASK32


def _sha256_hex(data: bytes) -> str:
    """The SHA-256 digest of ``data`` as 64 hex digits (FIPS 180-4).

    ``hashlib`` would load OpenSSL's libcrypto, about 3.6 MB of RSS in
    every process, for the one short string :func:`_provenance` hashes;
    here a 144-byte config takes about 0.5 ms (x86-64, CPython 3.11).
    """
    n = len(data)
    data = data + b"\x80" + bytes((55 - n) % 64) + (8 * n).to_bytes(8, "big")
    h = list(_SHA256_H)
    for lo in range(0, len(data), 64):
        w = [int.from_bytes(data[i:i + 4], "big")
             for i in range(lo, lo + 64, 4)]
        for t in range(16, 64):
            x, y = w[t - 15], w[t - 2]
            w.append((w[t - 16] + w[t - 7] +
                      (_rotr(x, 7) ^ _rotr(x, 18) ^ (x >> 3)) +
                      (_rotr(y, 17) ^ _rotr(y, 19) ^ (y >> 10))) & _MASK32)
        a, b, c, d, e, f, g, hh = h
        for k, wt in zip(_SHA256_K, w):
            t1 = (hh + (_rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)) +
                  ((e & f) ^ (~e & g)) + k + wt)
            t2 = ((_rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)) +
                  ((a & b) ^ (a & c) ^ (b & c)))
            a, b, c, d, e, f, g, hh = ((t1 + t2) & _MASK32, a, b, c,
                                       (d + t1) & _MASK32, e, f, g)
        h = [(v + u) & _MASK32 for v, u in zip(h, (a, b, c, d, e, f, g, hh))]
    return "".join(f"{v:08x}" for v in h)


def _provenance(config: dict) -> dict:
    """The provenance block every artifact and report carries.

    ``config_hash`` is the first 16 hex digits of the SHA-256 of the
    resolved config as ``json.dumps(..., sort_keys=True)``, without
    ``threads``: the thread count is a scheduling knob with no effect on
    results.  The digest is :func:`_sha256_hex`'s, so computing it
    loads no OpenSSL."""
    hashed = {k: v for k, v in config.items() if k != "threads"}
    canon = json.dumps(hashed, sort_keys=True)
    return {
        "tool_version": __version__,
        "config_hash": _sha256_hex(canon.encode())[:16],
        "seed": config.get("seed", 0),
    }


def _adjust_params(cfg) -> AdjustParams:
    return AdjustParams(delta=cfg["delta"], alpha1=cfg["alpha1"],
                        alpha2=cfg["alpha2"], max_iters=cfg["max_iters"],
                        min_len=cfg["min_len"] or None)


def _correction_params(cfg) -> CorrectionParams:
    return CorrectionParams(epochs=cfg["epochs"], capacity=cfg["capacity"],
                            predictions_per_query=cfg["u"], seed=cfg["seed"])


def _synth_spec(cfg) -> SynthSpec:
    return SynthSpec(
        n_videos=cfg["videos"], num_frames=cfg["frames"], dim=cfg["dim"],
        annotations_per_video=cfg["annotations_per_video"],
        p_idle=cfg["p_idle"], p_unmatched=cfg["p_unmatched"],
        p_imprecise=cfg["p_imprecise"],
        boundary_noise_frames=cfg["boundary_noise"],
        signal_level=cfg["signal_level"], noise_level=cfg["noise_level"],
        seed=cfg["seed"],
    )


def _cmd_synth(args, cfg):
    manifest = generate_corpus(_synth_spec(cfg), args.out,
                               provenance=_provenance(cfg))
    print(f"wrote corpus with {len(manifest.videos)} videos and "
          f"{len(manifest.annotations)} annotations to {args.out}")
    return 0


def _cmd_refine(args, cfg):
    manifest = read_manifest(args.manifest)
    refined, report = refine_corpus(manifest, CleanParams(cfg["clean_ratio"]),
                                    _adjust_params(cfg))
    prov = _provenance(cfg)
    report_path = args.report or args.out_manifest + ".report.json"
    _parent_dirs(args.out_manifest, report_path)
    write_manifest(replace(refined, provenance=prov), args.out_manifest)
    report.write(report_path, provenance=prov)
    print(f"kept {len(refined.annotations)} / {len(report.ids)} annotations; "
          f"report at {report_path}")
    return 0


def _proposals(args, manifest, params, delta):
    """The run's prediction table, over the manifest's sorted ids.  A bad
    --predictions file is reported before an unrefined corpus, and that
    before a missing record; the parsed file is freed on return."""
    replay = FilePredictor(args.predictions) if args.predictions else None
    check_adjusted(manifest)
    ids = sorted(manifest.annotations.ids)
    U, epochs = params.predictions_per_query, params.epochs
    if args.predictions:
        return replay.table(ids, U, epochs)
    return sliding_windows(compute_tracks(manifest), ids, params.seed, delta,
                           U, epochs)


def _cmd_correct(args, cfg):
    manifest = read_manifest(args.manifest)
    params = _correction_params(cfg)
    corrected, trace = run_correction(
        manifest, _proposals(args, manifest, params, cfg["delta"]), params)
    del manifest  # freed before the writers build their text
    prov = _provenance(cfg)
    trace_path = args.trace or args.out_manifest + ".trace.jsonl"
    _parent_dirs(args.out_manifest, trace_path)
    write_manifest(replace(corrected, provenance=prov), args.out_manifest)
    trace.write(trace_path)
    print(f"corrected {len(corrected.annotations)} annotations; "
          f"trace at {trace_path}")
    return 0


def _cmd_pipeline(args, cfg):
    manifest = read_manifest(args.manifest)
    refined, report, corrected, trace = run_pipeline(
        manifest, CleanParams(cfg["clean_ratio"]), _adjust_params(cfg),
        _correction_params(cfg))
    # made once the run has passed every check, so a rejected run leaves
    # no directory behind
    os.makedirs(args.out_dir, exist_ok=True)
    prov = _provenance(cfg)
    write_manifest(replace(refined, provenance=prov),
                   os.path.join(args.out_dir, "refined.json"))
    report.write(os.path.join(args.out_dir, "refine_report.json"),
                 provenance=prov)
    write_manifest(replace(corrected, provenance=prov),
                   os.path.join(args.out_dir, "corrected.json"))
    trace.write(os.path.join(args.out_dir, "trace.jsonl"))
    print(f"pipeline artifacts in {args.out_dir}")
    return 0


def _print_report(report, args, cfg):
    """The report's JSON with provenance, a blank line and its text
    table on stdout; the JSON also goes to --json when given."""
    obj = report.to_json_obj()
    obj["provenance"] = _provenance(cfg)
    print(json.dumps(obj, indent=2))
    print()
    print(report.to_text_table())
    if args.json_out:
        _parent_dirs(args.json_out)
        write_json(obj, args.json_out)
    return 0


def _cmd_evaluate(args, cfg):
    manifest = read_manifest(args.manifest)
    return _print_report(evaluate_manifest(manifest, tuple(cfg["thresholds"])),
                         args, cfg)


def _cmd_stats(args, cfg):
    return _print_report(corpus_stats(read_manifest(args.manifest)), args, cfg)


def _cmd_sweep(args, cfg):
    knob = args.knob.replace("-", "_")
    values = _list_option(args.values, float if knob == "clean_ratio"
                          else int, "values", "--values")
    seeds = _list_option(args.seeds, int, "seeds", "--seeds")
    result = sweep(knob, _synth_spec(cfg), values, seeds, args.work_dir,
                   clean_ratio=cfg["clean_ratio"],
                   adjust_params=_adjust_params(cfg),
                   correction_params=_correction_params(cfg))
    return _print_report(result, args, cfg)


COMMANDS = {
    "synth": _cmd_synth,
    "refine": _cmd_refine,
    "correct": _cmd_correct,
    "pipeline": _cmd_pipeline,
    "evaluate": _cmd_evaluate,
    "stats": _cmd_stats,
    "sweep": _cmd_sweep,
}


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise ConfigError(str(exc), path=path) from None
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object", path=path)
    return config


def _json_safe(value):
    """value with every non-finite float replaced by the name JSON
    parsers use for it, so that the result is strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else \
            ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _print_error(obj) -> int:
    print(json.dumps(_json_safe(obj), allow_nan=False), file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        code = COMMANDS[args.command](args, _resolve(args, config))
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped reading: not a morp error.  devnull takes
        # over stdout, so the flush at exit has no pipe to fail on.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MorpError as exc:
        return _print_error(exc.to_json_obj())
    except FileNotFoundError as exc:
        return _print_error({"code": "missing_file", "message": str(exc),
                             "context": {"path": exc.filename}})
    except OSError as exc:
        return _print_error({"code": "io_error", "message": str(exc),
                             "context": {"path": exc.filename}})
    except MemoryError as exc:
        # a last resort: inputs too large for this machine's memory
        return _print_error({"code": "out_of_memory",
                             "message": str(exc) or "out of memory",
                             "context": {}})


if __name__ == "__main__":
    sys.exit(main())

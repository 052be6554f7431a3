"""Subcommand CLI wiring the pipeline end to end.

Configuration precedence: command-line flags beat ``MORP_<FLAG>``
environment variables, which beat the optional ``--config`` JSON file,
which beats the built-in defaults.  Every output artifact carries a
provenance block (tool version, config hash, seed) so runs are
reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
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


def _provenance(config: dict) -> dict:
    # The thread count is a scheduling knob with no effect on results,
    # so it stays out of the provenance hash.
    hashed = {k: v for k, v in config.items() if k != "threads"}
    canon = json.dumps(hashed, sort_keys=True)
    return {
        "tool_version": __version__,
        "config_hash": hashlib.sha256(canon.encode()).hexdigest()[:16],
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

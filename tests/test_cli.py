"""End-to-end tests of the ``morp`` command-line interface.

Every test drives ``morp.cli.main`` in process so exit codes, stdout,
stderr, and environment handling are all observable without spawning a
subprocess.
"""

import filecmp
import json
import os

import pytest
from hypothesis import example, given, strategies as st

from morp.cli import _sha256_hex, main
from morp.predictor import MAX_EPOCHS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def make_corpus(tmp_path, capsys, name="corpus", videos=6, frames=64,
                dim=8, seed=3, **extra):
    out = tmp_path / name
    argv = ["synth", "--out", str(out), "--videos", str(videos),
            "--frames", str(frames), "--dim", str(dim)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    for flag, value in extra.items():
        argv += ["--" + flag.replace("_", "-"), str(value)]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    return out / "manifest.json"


class TestSynth:
    def test_smoke_and_rerun_identical(self, tmp_path, capsys):
        m1 = make_corpus(tmp_path, capsys, "a")
        m2 = make_corpus(tmp_path, capsys, "b")
        assert filecmp.cmp(m1, m2, shallow=False)

    def test_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MORP_SEED", "7")
        env_m = make_corpus(tmp_path, capsys, "env", seed=None)
        flag_m = make_corpus(tmp_path, capsys, "flag", seed=7)
        assert filecmp.cmp(env_m, flag_m, shallow=False)

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MORP_SEED", "7")
        flag_m = make_corpus(tmp_path, capsys, "flag", seed=3)
        plain = make_corpus(tmp_path, capsys, "plain", seed=3)
        assert filecmp.cmp(flag_m, plain, shallow=False)

    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "videos": 6, "frames": 64,
                                   "dim": 8}))
        code, _, err = run(capsys, "--config", str(cfg), "synth",
                           "--out", str(tmp_path / "from_cfg"))
        assert code == 0, err
        ref = make_corpus(tmp_path, capsys, "ref", seed=9)
        assert filecmp.cmp(tmp_path / "from_cfg" / "manifest.json", ref,
                           shallow=False)
        # a flag overrides the same key in the config file
        code, _, _ = run(capsys, "--config", str(cfg), "synth",
                         "--out", str(tmp_path / "flag_wins"),
                         "--seed", "3")
        assert code == 0
        ref3 = make_corpus(tmp_path, capsys, "ref3", seed=3)
        assert filecmp.cmp(tmp_path / "flag_wins" / "manifest.json", ref3,
                           shallow=False)

    def test_integer_from_config(self, tmp_path, capsys):
        # a config file's "p_idle": 0 arrives as the int 0, and the
        # manifest's spec writes it as json.dumps does
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_idle": 0}))
        code, _, err = run(capsys, "--config", str(cfg), "synth", "--out",
                           str(tmp_path / "c"), "--videos", "4", "--frames",
                           "32", "--dim", "4")
        assert code == 0, err
        text = (tmp_path / "c" / "manifest.json").read_text()
        assert json.loads(text)["synth"]["spec"]["p_idle"] == 0
        assert '"p_idle": 0,' in text

    def test_float_option_same_from_each_source(self, tmp_path, capsys,
                                                monkeypatch):
        """--clean-ratio text, MORP_CLEAN_RATIO text and a config-file
        number resolve to the same float, so refined.json and its
        config_hash are byte-identical."""
        manifest = make_corpus(tmp_path, capsys)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"clean_ratio": 0.3}))
        outs = []
        for source in ("flag", "env", "config"):
            out = tmp_path / source / "refined.json"
            argv = ["refine", "--manifest", str(manifest),
                    "--out-manifest", str(out)]
            if source == "flag":
                argv += ["--clean-ratio", "0.3"]
            elif source == "env":
                monkeypatch.setenv("MORP_CLEAN_RATIO", "0.3")
            else:
                monkeypatch.delenv("MORP_CLEAN_RATIO")
                argv = ["--config", str(cfg)] + argv
            code, _, err = run(capsys, *argv)
            assert code == 0, err
            outs.append(out)
        assert all(filecmp.cmp(outs[0], o, shallow=False) for o in outs[1:])
        default = tmp_path / "default.json"
        code, _, err = run(capsys, "refine", "--manifest", str(manifest),
                           "--out-manifest", str(default))
        assert code == 0, err
        assert not filecmp.cmp(outs[0], default, shallow=False)

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, "--config", str(cfg), "synth",
                           "--out", str(tmp_path / "x"))
        assert code == 1
        obj = json.loads(err.strip())
        assert obj["code"] == "config_error"


def run_pipeline_dir(tmp_path, capsys, manifest, name="pipe", *extra):
    out_dir = tmp_path / name
    code, _, err = run(capsys, "pipeline", "--manifest", str(manifest),
                       "--out-dir", str(out_dir), "--epochs", "3", *extra)
    assert code == 0, err
    return out_dir


class TestPipeline:
    def test_artifacts_and_determinism(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, capsys)
        d1 = run_pipeline_dir(tmp_path, capsys, manifest, "p1")
        for name in ("refined.json", "corrected.json", "trace.jsonl",
                     "refine_report.json"):
            assert (d1 / name).exists()
        d2 = run_pipeline_dir(tmp_path, capsys, manifest, "p2")
        for name in ("refined.json", "corrected.json", "trace.jsonl"):
            assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name

    def test_threads_identical(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, capsys)
        d1 = run_pipeline_dir(tmp_path, capsys, manifest, "t1")
        out_dir = tmp_path / "t8"
        code, _, err = run(capsys, "pipeline", "--manifest", str(manifest),
                           "--out-dir", str(out_dir), "--epochs", "3",
                           "--threads", "4")
        assert code == 0, err
        for name in ("refined.json", "corrected.json", "trace.jsonl",
                     "refine_report.json"):
            assert filecmp.cmp(d1 / name, out_dir / name, shallow=False), name

    # at a delta other than the default, a stage that dropped the value
    # on its way to the predictor would not match
    @pytest.mark.parametrize("delta", ["5", "3"])
    def test_matches_separate_refine_and_correct(self, tmp_path, capsys,
                                                 delta):
        manifest = make_corpus(tmp_path, capsys)
        pipe = run_pipeline_dir(tmp_path, capsys, manifest, "whole",
                                "--delta", delta)
        refined = tmp_path / "whole" / "sep_refined.json"
        code, _, err = run(capsys, "refine", "--manifest", str(manifest),
                           "--out-manifest", str(refined), "--delta", delta)
        assert code == 0, err
        corrected = tmp_path / "whole" / "sep_corrected.json"
        code, _, err = run(capsys, "correct", "--manifest", str(refined),
                           "--out-manifest", str(corrected), "--epochs", "3",
                           "--delta", delta)
        assert code == 0, err

        # provenance hashes differ (the subcommands hash different option
        # sets), but everything else must agree exactly
        def body(path):
            obj = json.loads(path.read_text())
            obj.pop("provenance", None)
            return obj

        assert body(pipe / "refined.json") == body(refined)
        # the pipeline's refinement reads tracks with mapped blocks, the
        # standalone one builds prefix sums alone; the gammas must agree
        assert body(pipe / "refine_report.json") == \
            body(tmp_path / "whole" / "sep_refined.json.report.json")
        assert body(pipe / "corrected.json") == body(corrected)

    def test_lambda_is_not_an_option(self, tmp_path, capsys, monkeypatch):
        # no stage reads a blend weight: a config file's "lambda" and
        # MORP_LAMBDA change no byte, and --lambda is a usage error
        manifest = make_corpus(tmp_path, capsys)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 1}))
        argv = ["pipeline", "--manifest", str(manifest), "--epochs", "2"]
        code, _, err = run(capsys, *argv, "--out-dir", str(tmp_path / "a"))
        assert code == 0, err
        monkeypatch.setenv("MORP_LAMBDA", "0.5")
        code, _, err = run(capsys, "--config", str(cfg), *argv,
                           "--out-dir", str(tmp_path / "b"))
        assert code == 0, err
        names = ["refined.json", "refine_report.json", "corrected.json",
                 "trace.jsonl"]
        assert filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names,
                                shallow=False)[0] == names
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out-dir", str(tmp_path / "c"), "--lambda", "0.5"])
        assert exc.value.code == 2

    def test_lone_surrogate_annotation_id(self, tmp_path, capsys):
        # JSON can escape a lone surrogate, and the id seeds proposals
        manifest = make_corpus(tmp_path, capsys)
        doc = json.loads(manifest.read_text())
        doc["annotations"][0]["annotation_id"] = "lone \ud800"
        manifest.write_text(json.dumps(doc))
        code, _, err = run(capsys, "pipeline", "--manifest", str(manifest),
                           "--out-dir", str(tmp_path / "run"),
                           "--clean-ratio", "0", "--epochs", "2")
        assert code == 0, err
        trace = (tmp_path / "run" / "trace.jsonl").read_text()
        assert trace.count('"annotation_id": "lone \\ud800"') == 2

    def test_tracks_computed_once(self, tmp_path, capsys, monkeypatch):
        import morp.cli
        import morp.pipeline
        import morp.refine

        calls = []
        original = morp.refine.compute_tracks

        def counted(manifest):
            calls.append(len(manifest.annotations))
            return original(manifest)

        for module in (morp.cli, morp.pipeline, morp.refine):
            monkeypatch.setattr(module, "compute_tracks", counted)
        manifest = make_corpus(tmp_path, capsys)
        out_dir = run_pipeline_dir(tmp_path, capsys, manifest)
        assert calls == [12]  # 6 videos x 2 annotations, read once
        # `morp correct` without --predictions: once, for the kept ones
        refined = out_dir / "refined.json"
        code, _, err = run(capsys, "correct", "--manifest", str(refined),
                           "--out-manifest", str(tmp_path / "c.json"))
        assert code == 0, err
        assert calls == [12, 8]
        # a corpus that is not refined is rejected before any track
        code, _, err = run(capsys, "correct", "--manifest", str(manifest),
                           "--out-manifest", str(tmp_path / "raw.json"))
        assert code == 1
        assert json.loads(err)["code"] == "contract_violation"
        assert calls == [12, 8]


def refine_corpus_file(tmp_path, capsys):
    manifest = make_corpus(tmp_path, capsys)
    refined = tmp_path / "refined" / "refined.json"
    code, _, err = run(capsys, "refine", "--manifest", str(manifest),
                       "--out-manifest", str(refined))
    assert code == 0, err
    return refined


def write_replay(path, refined, epochs, bad=None):
    """Two predictions per record: the adjusted boundary at confidence
    0.4 and a boundary widened by the epoch number at 0.6.  ``bad``
    replaces the second prediction of the second annotation's epoch-2
    record."""
    from morp.featstore import read_manifest

    anns = sorted(read_manifest(refined).annotations,
                  key=lambda a: a.annotation_id)
    lines = []
    for epoch in range(1, epochs + 1):
        for i, ann in enumerate(anns):
            s, e = ann.boundary_frames.as_tuple()
            second = {"start": max(0, s - epoch), "end": e, "confidence": 0.6}
            if bad is not None and (epoch, i) == (2, 1):
                second = bad
            lines.append(json.dumps({
                "epoch": epoch, "annotation_id": ann.annotation_id,
                "predictions": [{"start": s, "end": e, "confidence": 0.4},
                                second]}))
    path.write_text("\n".join(lines) + "\n")
    return anns


class TestCorrectReplay:
    """morp correct --predictions replays a JSON-lines prediction file."""

    def test_replay_reads_no_features(self, tmp_path, capsys, monkeypatch):
        import morp.featstore

        refined = refine_corpus_file(tmp_path, capsys)
        preds = tmp_path / "preds.jsonl"
        anns = write_replay(preds, refined, epochs=3)
        reads = []
        original = morp.featstore.read_feature_file
        monkeypatch.setattr(morp.featstore, "read_feature_file",
                            lambda path: reads.append(path) or original(path))
        out = tmp_path / "c" / "corrected.json"
        code, _, err = run(capsys, "correct", "--manifest", str(refined),
                           "--out-manifest", str(out), "--predictions",
                           str(preds), "--epochs", "3")
        assert code == 0, err
        assert reads == []

        records = [json.loads(line) for line in
                   (tmp_path / "c" / "corrected.json.trace.jsonl")
                   .read_text().splitlines()]
        assert len(records) == 3 * len(anns)
        for rec, (epoch, ann) in zip(records, [(j, a) for j in (1, 2, 3)
                                               for a in anns]):
            s, e = ann.boundary_frames.as_tuple()
            assert (rec["epoch"], rec["annotation_id"]) == \
                (epoch, ann.annotation_id)
            assert rec["inserted"] == [max(0, s - epoch), e]
            assert rec["bank_size"] == epoch + 1
        corrected = json.loads(out.read_text())["annotations"]
        assert [a["annotation_id"] for a in corrected] == \
            [a.annotation_id for a in anns]
        assert {a["status"] for a in corrected} == {"corrected"}

    @pytest.mark.parametrize("bad,field", [
        ({"start": 500, "end": 501, "confidence": 0.5}, "start"),
        ({"start": 0, "end": 4, "confidence": 1.5}, "confidence"),
        ({"start": 9, "end": 9, "confidence": 0.5}, "end"),
        ({"start": 0, "end": 65, "confidence": 0.5}, "end"),  # T = 64
    ])
    def test_out_of_range_names_annotation_and_epoch(self, tmp_path, capsys,
                                                     bad, field):
        refined = refine_corpus_file(tmp_path, capsys)
        preds = tmp_path / "preds.jsonl"
        anns = write_replay(preds, refined, epochs=3, bad=bad)
        code, _, err = run(capsys, "correct", "--manifest", str(refined),
                           "--out-manifest", str(tmp_path / "c.json"),
                           "--predictions", str(preds), "--epochs", "3")
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        obj = json.loads(err)
        assert obj["code"] == "predictor_error"
        assert obj["context"]["annotation_id"] == anns[1].annotation_id
        assert obj["context"]["epoch"] == 2
        assert obj["context"][field] == bad[field]
        assert not (tmp_path / "c.json").exists()

    def test_missing_epoch_past_the_file(self, tmp_path, capsys):
        # a 3-epoch file asked for the most epochs a run may have: the
        # first id's epoch 4 is the first record missing
        refined = refine_corpus_file(tmp_path, capsys)
        preds = tmp_path / "preds.jsonl"
        anns = write_replay(preds, refined, epochs=3)
        code, _, err = run(capsys, "correct", "--manifest", str(refined),
                           "--out-manifest", str(tmp_path / "c.json"),
                           "--predictions", str(preds),
                           "--epochs", str(MAX_EPOCHS))
        assert code == 1
        obj = TestErrors.one_error(err)
        assert obj["code"] == "predictor_error"
        assert obj["context"] == {"annotation_id": anns[0].annotation_id,
                                  "epoch": 4}

    @pytest.mark.parametrize("line", [
        '{"epoch": 1, "annotation_id": "x", "predictions": [}',
        '{"epoch": 1, "annotation_id": "x"}',
        '"just a string"',
        '{"epoch": 1, "annotation_id": "x", "predictions": '
        '[{"start": "zero", "end": 4, "confidence": 0.5}]}',
    ])
    def test_malformed_file_names_path_and_line(self, tmp_path, capsys,
                                                line):
        refined = refine_corpus_file(tmp_path, capsys)
        preds = tmp_path / "preds.jsonl"
        write_replay(preds, refined, epochs=1)
        text = preds.read_text().splitlines()
        preds.write_text("\n".join(text[:2] + [line] + text[2:]) + "\n")
        code, _, err = run(capsys, "correct", "--manifest", str(refined),
                           "--out-manifest", str(tmp_path / "c.json"),
                           "--predictions", str(preds), "--epochs", "1")
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        obj = json.loads(err)
        assert obj["code"] == "predictor_error"
        assert obj["context"]["path"] == str(preds)
        assert obj["context"]["line"] == 3


    def test_error_order(self, tmp_path, capsys):
        """A malformed file is reported before the corpus is checked, an
        unrefined corpus before any record is looked up, and a missing
        record after that."""
        refined = refine_corpus_file(tmp_path, capsys)
        raw = tmp_path / "corpus" / "manifest.json"
        preds = tmp_path / "preds.jsonl"
        write_replay(preds, refined, epochs=1)

        def correct(manifest):
            code, _, err = run(capsys, "correct", "--manifest", str(manifest),
                               "--out-manifest", str(tmp_path / "c.json"),
                               "--predictions", str(preds), "--epochs", "2")
            assert code == 1
            obj = TestErrors.one_error(err)
            return obj["code"], obj["message"]

        # epoch 2 has no record, for the raw corpus' ids or the refined
        assert correct(raw) == ("contract_violation",
                                "run_correction expects adjusted annotations")
        assert correct(refined) == (
            "predictor_error", "no prediction record for annotation/epoch")
        preds.write_text("not json\n" + preds.read_text())
        assert correct(raw) == ("predictor_error",
                                "malformed prediction record")
        assert not (tmp_path / "c.json").exists()


class TestColumnarPath:
    def test_no_annotation_records_built(self, tmp_path, capsys,
                                         monkeypatch):
        """refine, correct and pipeline read, work on and write the
        annotation columns; none of them builds a PseudoAnnotation or a
        Boundary."""
        from morp.core import Boundary
        from morp.featstore import PseudoAnnotation

        refined = refine_corpus_file(tmp_path, capsys)
        manifest = tmp_path / "corpus" / "manifest.json"
        preds = tmp_path / "preds.jsonl"
        write_replay(preds, refined, epochs=3)

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"a {type(self).__name__} was built")

        monkeypatch.setattr(PseudoAnnotation, "__init__", refuse)
        monkeypatch.setattr(Boundary, "__init__", refuse)
        for argv in (
                ["refine", "--manifest", str(manifest), "--out-manifest",
                 str(tmp_path / "r2" / "refined.json")],
                ["correct", "--manifest", str(refined), "--out-manifest",
                 str(tmp_path / "c" / "corrected.json"), "--predictions",
                 str(preds), "--epochs", "3"],
                ["pipeline", "--manifest", str(manifest), "--out-dir",
                 str(tmp_path / "p"), "--epochs", "3"]):
            code, _, err = run(capsys, *argv)
            assert code == 0, err
        assert filecmp.cmp(tmp_path / "r2" / "refined.json", refined,
                           shallow=False)

    def test_stats_and_evaluate_read_columns(self, tmp_path, capsys,
                                             monkeypatch):
        """stats and evaluate read the columns, not PseudoAnnotation
        records."""
        from morp.featstore import PseudoAnnotation

        manifest = make_corpus(tmp_path, capsys)

        def refuse(self, *args, **kwargs):
            raise AssertionError("a PseudoAnnotation was built")

        monkeypatch.setattr(PseudoAnnotation, "__init__", refuse)
        for command in ("stats", "evaluate"):
            code, out, err = run(capsys, command, "--manifest", str(manifest))
            assert code == 0, err


class TestEvaluateAndStats:
    def test_evaluate_pipeline_output(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, capsys)
        pipe = run_pipeline_dir(tmp_path, capsys, manifest)
        json_out = tmp_path / "metrics.json"
        code, out, err = run(capsys, "evaluate", "--manifest",
                             str(pipe / "corrected.json"),
                             "--json", str(json_out))
        assert code == 0, err
        obj = json.loads(json_out.read_text())
        assert set(obj["recall_at"]) == {"0.3", "0.5", "0.7"}
        assert 0.0 <= obj["mean_iou"] <= 100.0
        assert "mIoU" in out

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_thresholds_from_each_source(self, tmp_path, capsys, monkeypatch,
                                         source):
        """A flag and MORP_THRESHOLDS take comma-separated text, a
        config file a JSON list; each sets the thresholds reported."""
        manifest = make_corpus(tmp_path, capsys)
        json_out = tmp_path / "metrics.json"
        argv = ["evaluate", "--manifest", str(manifest),
                "--json", str(json_out)]
        if source == "flag":
            argv += ["--thresholds", " 0.25, 0.6"]
        elif source == "env":
            monkeypatch.setenv("MORP_THRESHOLDS", "0.25,0.6,")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"thresholds": [0.25, 0.6]}))
            argv = ["--config", str(cfg)] + argv
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        obj = json.loads(json_out.read_text())
        assert set(obj["recall_at"]) == {"0.25", "0.6"}

    def test_stats(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, capsys)
        json_out = tmp_path / "stats.json"
        code, out, err = run(capsys, "stats", "--manifest", str(manifest),
                             "--json", str(json_out))
        assert code == 0, err
        obj = json.loads(json_out.read_text())
        assert obj["video_count"] == 6
        assert obj["query_count"] == 12
        assert obj["vocabulary_size"] > 0
        assert "videos" in out


class TestSweep:
    def test_clean_ratio_sweep(self, tmp_path, capsys):
        json_out = tmp_path / "sweep.json"
        code, out, err = run(
            capsys, "sweep", "--knob", "clean-ratio",
            "--values", "0.0,0.4", "--seeds", "0",
            "--work-dir", str(tmp_path / "work"),
            "--videos", "6", "--frames", "64", "--dim", "8",
            "--epochs", "2", "--json", str(json_out))
        assert code == 0, err
        obj = json.loads(json_out.read_text())
        assert obj["knob"] == "clean_ratio"
        assert obj["values"] == [0.0, 0.4]
        assert all(0.0 <= m <= 1.0 for m in obj["metric"])
        assert "0" in obj["per_seed"]

    def test_corpus_size_sweep(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "sweep", "--knob", "corpus-size",
            "--values", "4,8", "--seeds", "0",
            "--work-dir", str(tmp_path / "work"),
            "--frames", "64", "--dim", "8", "--epochs", "2")
        assert code == 0, err
        obj = json.loads(out[:out.index("\n\n")])
        assert obj["values"] == [4, 8]
        assert len(obj["metric"]) == 2

    @pytest.mark.parametrize("knob,values,corpora", [
        ("clean-ratio", "0.0,0.2,0.4", [(0, 6), (1, 6)]),
        # each size is read as the first n videos of the seed's largest
        ("corpus-size", "4,6", [(0, 6), (1, 6)]),
        ("corpus-size", "6,4,6", [(0, 6), (1, 6)]),
    ])
    def test_one_corpus_per_seed_and_size(self, tmp_path, capsys,
                                          monkeypatch, knob, values, corpora):
        import morp.pipeline

        calls = []
        real = morp.pipeline.generate_corpus

        def counting(spec, out_dir):
            calls.append((spec.seed, spec.n_videos))
            return real(spec, out_dir)

        monkeypatch.setattr(morp.pipeline, "generate_corpus", counting)
        code, _, err = run(
            capsys, "sweep", "--knob", knob, "--values", values,
            "--seeds", "0,1", "--work-dir", str(tmp_path / "work"),
            "--videos", "6", "--frames", "64", "--dim", "8", "--epochs", "2")
        assert code == 0, err
        assert calls == corpora
        assert sorted(os.listdir(tmp_path / "work")) == [
            f"sweep_seed{seed}_n{n}" for seed, n in corpora]


class TestProvenance:
    @given(st.binary(max_size=300))
    @example(b"")
    @example(b"\0" * 55)  # the last length that pads into one block
    @example(b"\0" * 56)
    @example(b"\xff" * 63)
    @example(b"\xff" * 64)
    @example(b"a" * 119)
    @example(b"a" * 120)
    @example(json.dumps({"note": "vidéo 動画 ✓", "seed": 0},
                        ensure_ascii=False, sort_keys=True).encode())
    def test_sha256_matches_hashlib(self, data):
        import hashlib

        assert _sha256_hex(data) == hashlib.sha256(data).hexdigest()

    # config hashes written by the hashlib-based digest the Python one
    # replaced, for the same flags and defaults
    @pytest.mark.parametrize("command, argv, artifact, golden", [
        ("refine", ["--clean-ratio", "0.3", "--delta", "4"],
         "refined.json", "48368a50b94f2661"),
        ("pipeline", ["--epochs", "2", "--u", "3"], "corrected.json",
         "6fd6db0c17439a63"),
    ])
    def test_config_hash_is_unchanged(self, tmp_path, capsys, command, argv,
                                      artifact, golden):
        manifest = make_corpus(tmp_path, capsys)
        out = tmp_path / "out"
        target = (["--out-manifest", str(out / "refined.json")]
                  if command == "refine" else ["--out-dir", str(out)])
        code, _, err = run(capsys, command, "--manifest", str(manifest),
                           *target, "--seed", "3", *argv)
        assert code == 0, err
        prov = json.loads((out / artifact).read_text())["provenance"]
        assert prov["config_hash"] == golden

    @staticmethod
    def loaded(code):
        """Which of _hashlib and numpy.random a new Python process that
        runs ``code`` has imported."""
        import subprocess
        import sys

        probe = ("\nimport json, sys\nprint(json.dumps([m for m in "
                 "('_hashlib', 'numpy.random') if m in sys.modules]))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code + probe],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.splitlines()[-1]))

    def test_no_command_loads_openssl(self, tmp_path):
        """No morp command loads OpenSSL's _hashlib unless the NumPy
        modules it imports do on their own: `import numpy` alone, or with
        numpy.random, which imports secrets and so hmac."""
        corpus, refined = tmp_path / "c", tmp_path / "r" / "refined.json"
        commands = [
            ["synth", "--out", str(corpus), "--videos", "6", "--frames",
             "64", "--dim", "8"],
            ["refine", "--manifest", str(corpus / "manifest.json"),
             "--out-manifest", str(refined)],
            ["correct", "--manifest", str(refined), "--out-manifest",
             str(tmp_path / "c.json"), "--epochs", "2"],
            ["pipeline", "--manifest", str(corpus / "manifest.json"),
             "--out-dir", str(tmp_path / "p"), "--epochs", "2"],
        ]
        bare = {False: self.loaded("import numpy"),
                True: self.loaded("import numpy, numpy.random")}
        for argv in commands:
            mods = self.loaded(f"from morp.cli import main\n"
                               f"assert main({argv!r}) == 0")
            baseline = bare["numpy.random" in mods]
            assert "_hashlib" not in mods - baseline, argv[0]


class TestErrors:
    def test_missing_manifest(self, tmp_path, capsys):
        code, _, err = run(capsys, "stats", "--manifest",
                           str(tmp_path / "nope.json"))
        assert code == 1
        obj = json.loads(err.strip())
        assert obj["code"] == "missing_file"
        assert "context" in obj

    def test_non_utf8_manifest(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_bytes(b'{"format_version": 1, "queries_file_path": "\xff"}')
        code, _, err = run(capsys, "stats", "--manifest", str(path))
        assert code == 1
        obj = self.one_error(err)
        assert obj["code"] == "format_error"
        assert obj["context"]["path"] == str(path)

    def test_directory_as_manifest(self, tmp_path, capsys):
        code, _, err = run(capsys, "stats", "--manifest", str(tmp_path))
        assert code == 1
        obj = self.one_error(err)
        assert obj["code"] == "io_error"
        assert obj["context"] == {"path": str(tmp_path)}
        assert "Is a directory" in obj["message"]

    def test_directory_as_predictions(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, capsys)
        refined = tmp_path / "refined.json"
        code, _, err = run(capsys, "refine", "--manifest", str(manifest),
                           "--out-manifest", str(refined))
        assert code == 0, err
        code, _, err = run(capsys, "correct", "--manifest", str(refined),
                           "--out-manifest", str(tmp_path / "c.json"),
                           "--predictions", str(tmp_path))
        assert code == 1
        obj = self.one_error(err)
        assert obj["code"] == "io_error"
        assert obj["context"] == {"path": str(tmp_path)}
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("command", ["evaluate", "stats", "sweep"])
    def test_json_into_missing_directory(self, tmp_path, capsys, command):
        json_out = tmp_path / "no" / "such" / "dir" / "out.json"
        if command == "sweep":
            argv = ["sweep", "--knob", "corpus-size", "--values", "4",
                    "--seeds", "0", "--work-dir", str(tmp_path / "work"),
                    "--frames", "64", "--dim", "8", "--epochs", "2"]
        else:
            argv = [command, "--manifest", str(make_corpus(tmp_path, capsys))]
        code, out, err = run(capsys, *argv, "--json", str(json_out))
        assert code == 0, err
        assert json.loads(json_out.read_text()) == \
            json.loads(out[:out.index("\n\n")])

    @pytest.mark.parametrize("flag", ["--out-manifest", "--json"])
    def test_directory_as_artifact(self, tmp_path, capsys, flag):
        """A write over a directory is one io_error naming the path asked
        for, not the temporary file the write went through."""
        manifest = make_corpus(tmp_path, capsys)
        target = tmp_path / "target"
        target.mkdir()
        command = "refine" if flag == "--out-manifest" else "stats"
        code, _, err = run(capsys, command, "--manifest", str(manifest),
                           flag, str(target))
        assert code == 1
        obj = self.one_error(err)
        assert obj["code"] == "io_error"
        assert obj["context"] == {"path": str(target)}
        assert str(target) in obj["message"]
        assert not list(tmp_path.glob("*.tmp"))
        assert not list(target.iterdir())

    @pytest.mark.parametrize("knob,flag,value", [
        ("clean-ratio", "--values", "a"),
        ("clean-ratio", "--seeds", "x"),
        ("corpus-size", "--values", "6.5"),
        ("clean-ratio", "--seeds", ""),
        ("clean-ratio", "--values", ""),
    ])
    def test_bad_sweep_list(self, tmp_path, capsys, knob, flag, value):
        argv = {"--values": "0.4", "--seeds": "0", flag: value}
        code, _, err = run(capsys, "sweep", "--knob", knob,
                           "--values", argv["--values"],
                           "--seeds", argv["--seeds"],
                           "--work-dir", str(tmp_path / "work"),
                           "--videos", "6", "--frames", "64", "--dim", "8")
        assert code == 1
        obj = self.one_error(err)
        assert obj["code"] == "config_error"
        assert obj["context"] == {"option": flag[2:], "value": value,
                                  "source": flag}
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("knob,values,code", [
        ("clean-ratio", "0.4,1.0", "contract_violation"),
        ("clean-ratio", "nan", "contract_violation"),
        ("clean-ratio", "inf", "contract_violation"),
        ("corpus-size", "0", "spec_error"),
    ])
    def test_bad_sweep_value(self, tmp_path, capsys, knob, values, code):
        """Every value is checked before the first corpus is generated."""
        exit_code, _, err = run(capsys, "sweep", "--knob", knob,
                                "--values", values,
                                "--work-dir", str(tmp_path / "work"),
                                "--videos", "6", "--frames", "64",
                                "--dim", "8", "--epochs", "2")
        assert exit_code == 1
        assert self.one_error(err)["code"] == code
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("command,flag,value,context", [
        # s + delta would wrap int64 into a negative index
        ("refine", "--delta", 2 ** 63 - 1, {"delta": 2 ** 63 - 1}),
        ("pipeline", "--delta", 2 ** 63, {"delta": 2 ** 63}),
        ("pipeline", "--delta", 2 ** 32, {"delta": 2 ** 32}),
        ("pipeline", "--u", 2 ** 63, {"predictions_per_query": 2 ** 63}),
    ])
    def test_step_and_width_past_int64(self, tmp_path, capsys, command,
                                       flag, value, context):
        manifest = make_corpus(tmp_path, capsys)
        out = ["--out-manifest", str(tmp_path / "r.json")] \
            if command == "refine" else ["--out-dir", str(tmp_path / "run")]
        code, _, err = run(capsys, command, "--manifest", str(manifest),
                           *out, flag, str(value))
        assert code == 1
        obj = self.one_error(err)
        assert obj["code"] == "contract_violation"
        assert obj["context"] == context

    @pytest.mark.parametrize("flag,value", [("--delta", 2 ** 63 - 1),
                                            ("--epochs", 0)])
    def test_rejected_pipeline_makes_no_out_dir(self, tmp_path, capsys, flag,
                                                value):
        manifest = make_corpus(tmp_path, capsys)
        code, _, err = run(capsys, "pipeline", "--manifest", str(manifest),
                           "--out-dir", str(tmp_path / "run"), flag,
                           str(value))
        assert code == 1
        assert self.one_error(err)["code"] == "contract_violation"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--out", "c", "--seed", "-1"],
        ["sweep", "--knob", "clean-ratio", "--values", "0.4", "--seeds", "-1",
         "--work-dir", "work"],
    ])
    def test_negative_synth_seed(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert self.one_error(err)["code"] == "spec_error"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv,field", [
        # a NaN passed every range check and tagged each annotation idle
        (["synth", "--out", "c", "--p-idle", "nan"], "p_idle"),
        # an infinite sigma overflowed the rounded boundary draws
        (["synth", "--out", "c", "--boundary-noise", "inf"],
         "boundary_noise_frames"),
        (["sweep", "--knob", "corpus-size", "--values", "4,6",
          "--work-dir", "work", "--signal-level=-inf"], "signal_level"),
    ])
    def test_non_finite_synth_float(self, tmp_path, capsys, monkeypatch,
                                    argv, field):
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *argv)
        assert code == 1
        obj = self.one_error(err)
        assert obj["code"] == "spec_error"
        assert obj["context"]["field"] == field
        assert os.listdir(tmp_path) == ["work"]
        assert os.listdir(tmp_path / "work") == []

    def test_hostile_feature_header(self, tmp_path, capsys):
        import struct

        manifest = make_corpus(tmp_path, capsys)
        doc = json.loads(manifest.read_text())
        path = manifest.parent / doc["videos"][0]["feature_file_path"]
        path.write_bytes(struct.pack("<4sIII", b"VMRP", 1, 2 ** 31, 2 ** 20)
                         + b"\0" * 64)
        code, _, err = run(capsys, "refine", "--manifest", str(manifest),
                           "--out-manifest", str(tmp_path / "r.json"))
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        obj = json.loads(err)
        assert obj["code"] == "truncation_error"
        assert obj["context"]["expected_rows"] == 2 ** 31

    @pytest.mark.parametrize("gt", [[5, 2], [3, 3]])
    def test_unordered_ground_truth(self, tmp_path, capsys, gt):
        """A reversed or empty ground truth is a range_error, as the same
        pair in boundary_seconds is, not a one-frame moment."""
        from morp.errors import RangeError
        from morp.featstore import read_manifest
        from morp.pipeline import corpus_quality

        manifest = make_corpus(tmp_path, capsys)
        doc = json.loads(manifest.read_text())
        ann = next(a for a in doc["annotations"] if a["gt_boundary_seconds"])
        ann["gt_boundary_seconds"] = gt
        manifest.write_text(json.dumps(doc))
        code, out, err = run(capsys, "evaluate", "--manifest", str(manifest))
        assert code == 1
        assert out == ""
        obj = self.one_error(err)
        assert obj["code"] == "range_error"
        assert obj["context"] == {
            "annotation_id": ann["annotation_id"],
            "field": "gt_boundary_seconds", "start_s": gt[0], "end_s": gt[1]}
        m = read_manifest(manifest)
        with pytest.raises(RangeError) as exc:
            corpus_quality(m, m)
        assert exc.value.to_json_obj() == obj

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_is_not_an_error(self, tmp_path, capsys,
                                           unbuffered):
        """A reader that stops reading, as `morp evaluate | head -1` does,
        ends the run with exit 1 and nothing on stderr.  Run in a
        subprocess: the handler repoints file descriptor 1.  The reader
        closes the pipe before the run can write, so every write fails;
        unbuffered, the first print does, and buffered, the flush."""
        import subprocess
        import sys

        manifest = make_corpus(tmp_path, capsys)
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen(
            [sys.executable, "-m", "morp.cli", "evaluate", "--manifest",
             str(manifest)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        proc.stderr.close()
        assert err == b""

    def test_hostile_feature_file_in_a_subprocess(self, tmp_path, capsys):
        """A feature header claiming 2**32 - 1 frames ends `morp refine`
        with exit 1 and one truncation_error line, never a traceback or a
        MemoryError."""
        import struct
        import subprocess
        import sys

        manifest = make_corpus(tmp_path, capsys)
        video = json.loads(manifest.read_text())["videos"][0]
        path = manifest.parent / video["feature_file_path"]
        data = bytearray(path.read_bytes())
        data[8:12] = struct.pack("<I", 2 ** 32 - 1)
        path.write_bytes(bytes(data))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "morp.cli", "refine", "--manifest",
             str(manifest), "--out-manifest", str(tmp_path / "r.json")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        obj = self.one_error(proc.stderr)
        assert obj["code"] == "truncation_error"
        assert obj["context"]["expected_rows"] == 2 ** 32 - 1

    @pytest.mark.parametrize("epochs", [MAX_EPOCHS + 1, 10 ** 12])
    @pytest.mark.parametrize("replay", [False, True])
    def test_epochs_past_the_bound(self, tmp_path, capsys, epochs, replay):
        """Too many epochs end `morp correct` with exit 1 and one
        contract_violation line, before any per-epoch work, for either
        predictor.  Run in a subprocess under a 1.5 GB address-space
        limit and a timeout, so a run that allocates or loops per epoch
        fails instead of taking the machine."""
        import resource
        import subprocess
        import sys

        refined = refine_corpus_file(tmp_path, capsys)
        argv = [sys.executable, "-m", "morp.cli", "correct", "--manifest",
                str(refined), "--out-manifest", str(tmp_path / "c.json"),
                "--epochs", str(epochs)]
        if replay:
            write_replay(tmp_path / "preds.jsonl", refined, epochs=3)
            argv += ["--predictions", str(tmp_path / "preds.jsonl")]

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000,) * 2)

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=60, preexec_fn=limit)
        assert proc.returncode == 1
        obj = self.one_error(proc.stderr)
        assert obj["code"] == "contract_violation"
        assert obj["context"] == {"epochs": epochs}
        assert not (tmp_path / "c.json").exists()

    def test_memory_error_is_one_line(self, capsys, monkeypatch):
        from morp.cli import COMMANDS

        def fail(args, config):
            raise MemoryError

        monkeypatch.setitem(COMMANDS, "stats", fail)
        code, out, err = run(capsys, "stats", "--manifest", "m.json")
        assert code == 1
        assert out == ""
        assert self.one_error(err) == {"code": "out_of_memory",
                                       "message": "out of memory",
                                       "context": {}}

    @staticmethod
    def one_error(err):
        """The one error object on stderr, parsed as strict JSON."""
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        return json.loads(lines[0], parse_constant=reject)

    def refine_mutated(self, tmp_path, capsys, edit):
        manifest = make_corpus(tmp_path, capsys)
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        code, _, err = run(capsys, "refine", "--manifest", str(manifest),
                           "--out-manifest", str(tmp_path / "r.json"))
        assert code == 1
        return doc, self.one_error(err)

    def test_manifest_frames_past_feature_file(self, tmp_path, capsys):
        def edit(doc):
            doc["videos"][1]["num_frames"] = 2 ** 40

        doc, obj = self.refine_mutated(tmp_path, capsys, edit)
        assert obj["code"] == "referential_error"
        assert obj["message"] == \
            "feature file frame count disagrees with manifest"
        assert obj["context"] == {"video_id": doc["videos"][1]["video_id"],
                                  "manifest": 2 ** 40, "file": 64}

    def test_nan_duration_error_is_strict_json(self, tmp_path, capsys):
        def edit(doc):
            doc["videos"][0]["duration_seconds"] = float("nan")

        _, obj = self.refine_mutated(tmp_path, capsys, edit)
        assert obj["code"] == "range_error"
        assert obj["context"]["duration"] == "NaN"

    @pytest.mark.parametrize("pair", [[1], None, [1, 2, 3], ["a", 2]])
    def test_malformed_boundary_pair(self, tmp_path, capsys, pair):
        def edit(doc):
            doc["annotations"][2]["boundary_seconds"] = pair

        doc, obj = self.refine_mutated(tmp_path, capsys, edit)
        assert obj["code"] == "format_error"
        assert obj["context"] == {
            "annotation_id": doc["annotations"][2]["annotation_id"],
            "field": "boundary_seconds"}

    @pytest.mark.parametrize("kind,field,value", [
        ("videos", "duration_seconds", "64"),
        ("videos", "num_frames", "64"),
        ("videos", "num_frames", 64.5),
        ("videos", "num_frames", True),
        ("annotations", "query_feature_ref", 1.5),
        ("annotations", "query_text", None),  # None: the key is removed
    ])
    def test_mistyped_manifest_field(self, tmp_path, capsys, kind, field,
                                     value):
        def edit(doc):
            if value is None:
                del doc[kind][1][field]
            else:
                doc[kind][1][field] = value

        doc, obj = self.refine_mutated(tmp_path, capsys, edit)
        id_key = "video_id" if kind == "videos" else "annotation_id"
        assert obj["code"] == "format_error"
        assert obj["context"] == {id_key: doc[kind][1][id_key],
                                  "field": field}

    def test_infinite_duration(self, tmp_path, capsys):
        def edit(doc):
            doc["videos"][1]["duration_seconds"] = float("inf")

        doc, obj = self.refine_mutated(tmp_path, capsys, edit)
        assert obj["code"] == "range_error"
        assert obj["context"] == {"video_id": doc["videos"][1]["video_id"],
                                  "duration": "Infinity"}

    @pytest.mark.parametrize("annotations,context", [
        ({}, {"field": "annotations"}),
        ([3], {"field": "annotations", "index": 0}),
    ])
    def test_annotations_not_objects(self, tmp_path, capsys, annotations,
                                     context):
        def edit(doc):
            doc["annotations"] = annotations

        _, obj = self.refine_mutated(tmp_path, capsys, edit)
        assert obj["code"] == "format_error"
        assert obj["context"] == context

    def test_non_finite_context_values(self, capsys, monkeypatch):
        from morp.cli import COMMANDS
        from morp.errors import RangeError

        def fail(args, config):
            raise RangeError("bad", x=float("inf"),
                             nested={"y": [float("-inf"), float("nan"), 1.5]})

        monkeypatch.setitem(COMMANDS, "stats", fail)
        code, _, err = run(capsys, "stats", "--manifest", "m.json")
        assert code == 1
        assert self.one_error(err)["context"] == {
            "x": "Infinity", "nested": {"y": ["-Infinity", "NaN", 1.5]}}

    def test_invalid_clean_ratio(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, capsys)
        code, _, err = run(capsys, "refine", "--manifest", str(manifest),
                           "--out-manifest", str(tmp_path / "r.json"),
                           "--clean-ratio", "1.0")
        assert code == 1
        obj = json.loads(err.strip())
        assert {"code", "message", "context"} <= set(obj)

    @pytest.mark.parametrize("command,name,value", [
        ("refine", "MORP_THREADS", "abc"),
        ("refine", "MORP_CLEAN_RATIO", "0.4x"),
        ("stats", "--seed", "abc"),
        ("pipeline", "--epochs", "x"),
        ("refine", "--clean-ratio", "0.4x"),
        ("synth", "--videos", "1.5"),
    ])
    def test_bad_env_value(self, tmp_path, capsys, monkeypatch, command,
                           name, value):
        """A value from MORP_* or a flag that does not parse as the
        option's int or float is one config_error line naming its source."""
        manifest = make_corpus(tmp_path, capsys)
        argv = [command] + {
            "synth": ["--out", str(tmp_path / "x")],
            "refine": ["--manifest", str(manifest),
                       "--out-manifest", str(tmp_path / "r.json")],
            "pipeline": ["--manifest", str(manifest),
                         "--out-dir", str(tmp_path / "p")],
            "stats": ["--manifest", str(manifest)],
        }[command]
        if name.startswith("--"):
            argv += [name, value]
            option = name[2:].replace("-", "_")
        else:
            monkeypatch.setenv(name, value)
            option = name[len("MORP_"):].lower()
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        obj = json.loads(err)
        assert obj["code"] == "config_error"
        assert obj["context"] == {"option": option, "value": value,
                                  "source": name}

    @pytest.mark.parametrize("cfg", [{"seed": "abc"}, {"frames": 64.5},
                                     {"videos": [3]}, [1, 2]])
    def test_bad_config_value(self, tmp_path, capsys, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run(capsys, "--config", str(path), "synth",
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert json.loads(err)["code"] == "config_error"

    @pytest.mark.parametrize("thresholds", [[0.5, "a"], 5, "0.5,a", [0.5, True],
                                            [[0.5]], {"m": 0.5}, []])
    def test_bad_config_thresholds(self, tmp_path, capsys, thresholds):
        manifest = make_corpus(tmp_path, capsys)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"thresholds": thresholds}))
        code, _, err = run(capsys, "--config", str(path), "evaluate",
                           "--manifest", str(manifest))
        assert code == 1
        assert len(err.splitlines()) == 1
        obj = json.loads(err)
        assert obj["code"] == "config_error"
        assert obj["context"]["option"] == "thresholds"

    @pytest.mark.parametrize("source,thresholds", [("flag", ","),
                                                   ("flag", "a"),
                                                   ("env", ",")])
    def test_bad_thresholds(self, tmp_path, capsys, monkeypatch, source,
                            thresholds):
        """A threshold list from a flag or MORP_THRESHOLDS that is empty
        or does not parse is one config_error line, like --values, that
        names where the text came from."""
        manifest = make_corpus(tmp_path, capsys)
        argv = ["evaluate", "--manifest", str(manifest)]
        if source == "flag":
            argv += ["--thresholds", thresholds]
        else:
            monkeypatch.setenv("MORP_THRESHOLDS", thresholds)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        obj = json.loads(err)
        assert obj["code"] == "config_error"
        assert obj["context"] == {
            "option": "thresholds", "value": thresholds,
            "source": "--thresholds" if source == "flag"
            else "MORP_THRESHOLDS"}

    def test_output_parent_dirs_created(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path, capsys)
        refined = tmp_path / "new" / "refined.json"
        report = tmp_path / "reports" / "refine.json"
        code, _, err = run(capsys, "refine", "--manifest", str(manifest),
                           "--out-manifest", str(refined),
                           "--report", str(report))
        assert code == 0, err
        assert refined.exists() and report.exists()
        corrected = tmp_path / "deeper" / "still" / "corrected.json"
        trace = tmp_path / "traces" / "trace.jsonl"
        code, _, err = run(capsys, "correct", "--manifest", str(refined),
                           "--out-manifest", str(corrected),
                           "--trace", str(trace), "--epochs", "2")
        assert code == 0, err
        assert corrected.exists() and trace.exists()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["refine", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "default: 0.40" in out
        assert "--clean-ratio" in out

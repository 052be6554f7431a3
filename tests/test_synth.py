"""Tests for the synthetic corpus generator.

The replay oracle reimplements the documented per-video draw stream from
scratch and checks the generator against it, so any silent change to the
sampling order or the boundary rules shows up here.
"""

import filecmp
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from conftest import track_of
from morp.consensus import CorrectionParams
from morp.core import Boundary
from morp.errors import SpecError
from morp.featstore import read_feature_file, read_manifest
from morp.refine import compute_tracks, moment_contrast
from morp.synth import (MAX_FRAME_VALUES, MAX_FRAMES, SynthSpec,
                        generate_corpus)


def small_spec(**kw):
    base = dict(n_videos=6, num_frames=64, dim=8, annotations_per_video=2,
                seed=11)
    base.update(kw)
    return SynthSpec(**base)


class TestSpecValidation:
    def test_probabilities_must_fit(self):
        with pytest.raises(SpecError):
            small_spec(p_idle=0.6, p_unmatched=0.6)

    def test_signal_above_noise(self):
        with pytest.raises(SpecError):
            small_spec(signal_level=0.4, noise_level=0.45)

    @pytest.mark.parametrize("field", [
        "p_idle", "p_unmatched", "p_imprecise", "signal_level",
        "noise_level", "boundary_noise_frames"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_floats_must_be_finite(self, field, value):
        with pytest.raises(SpecError) as exc:
            small_spec(**{field: value})
        assert exc.value.context["field"] == field

    def test_min_timeline(self):
        with pytest.raises(SpecError):
            small_spec(num_frames=8)

    @pytest.mark.parametrize("frames,dim", [
        (MAX_FRAMES + 1, 1), (99999999999, 16),
        (MAX_FRAMES, MAX_FRAME_VALUES // MAX_FRAMES + 1)])
    def test_frame_matrix_bounded(self, frames, dim):
        with pytest.raises(SpecError):
            small_spec(num_frames=frames, dim=dim)

    def test_largest_frame_matrix_accepted(self):
        # the spec alone is checked here; nothing is drawn
        spec = small_spec(num_frames=MAX_FRAMES,
                          dim=MAX_FRAME_VALUES // MAX_FRAMES)
        assert spec.num_frames * spec.dim == MAX_FRAME_VALUES

    def test_huge_timeline_is_one_spec_error(self, tmp_path, capsys,
                                              monkeypatch):
        import morp.synth
        from morp.cli import main

        def refuse(*args):
            raise AssertionError("a video was drawn")

        monkeypatch.setattr(morp.synth, "_draw_video", refuse)
        out = tmp_path / "c"
        code = main(["synth", "--out", str(out), "--videos", "1",
                     "--frames", "99999999999"])
        err = capsys.readouterr().err
        assert code == 1
        assert json.loads(err)["code"] == "spec_error"
        assert not out.exists()

    def test_queries_need_dim(self):
        with pytest.raises(SpecError):
            small_spec(dim=1, annotations_per_video=2)

    def test_sigma_default_is_quarter_timeline(self):
        assert small_spec().sigma_b == 16.0
        assert small_spec(boundary_noise_frames=3.0).sigma_b == 3.0


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        spec = small_spec()
        a, b = tmp_path / "a", tmp_path / "b"
        generate_corpus(spec, a)
        generate_corpus(spec, b)
        names = ["manifest.json", "queries.vmrp"] + [
            os.path.join("features", f) for f in os.listdir(a / "features")
        ]
        for name in names:
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_small_corpus_is_prefix_of_large(self, tmp_path):
        # video v is drawn from its own stream, so n videos of a seed are
        # the first n of any larger corpus of that seed
        small, large = tmp_path / "small", tmp_path / "large"
        generate_corpus(small_spec(n_videos=20, seed=3), small)
        generate_corpus(small_spec(n_videos=40, seed=3), large)
        names = sorted(os.listdir(small / "features"))
        assert len(names) == 20
        for name in names:
            assert filecmp.cmp(small / "features" / name,
                               large / "features" / name, shallow=False), name
        queries = read_feature_file(small / "queries.vmrp").data
        assert len(queries) == 40
        assert np.array_equal(
            queries, read_feature_file(large / "queries.vmrp").data[:40])
        a = read_manifest(small / "manifest.json").annotations
        b = read_manifest(large / "manifest.json").annotations
        assert len(b) == 2 * len(a)
        for field in fields(a):
            got, want = getattr(a, field.name), getattr(b, field.name)
            if isinstance(got, np.ndarray):
                assert np.array_equal(got, want[:len(a)]), field.name
            else:
                assert got == want[:len(a)], field.name

    def test_sweep_reads_the_small_corpus_as_a_prefix(self, tmp_path,
                                                      monkeypatch):
        """A corpus-size sweep generates only its 40-video corpus and
        reads size 20 as its first 20 videos: the videos, every
        annotation column and the tracks of the generated 20-video
        corpus."""
        import morp.pipeline as pipeline

        corpora, tracks = {}, []
        quality, compute = pipeline.corpus_quality, pipeline.compute_tracks

        def scored(original, final):
            corpora[len(original.videos)] = original
            return quality(original, final)

        def computed(manifest):
            tracks.append(compute(manifest))
            return tracks[-1]

        monkeypatch.setattr(pipeline, "corpus_quality", scored)
        monkeypatch.setattr(pipeline, "compute_tracks", computed)
        pipeline.sweep("corpus_size", small_spec(seed=3), [20, 40], [3],
                       str(tmp_path / "sweep"),
                       correction_params=CorrectionParams(epochs=1))
        small = generate_corpus(small_spec(n_videos=20, seed=3),
                                tmp_path / "small")
        prefix, (large,) = corpora[20], tracks
        assert len(corpora[40].videos) == 40
        assert prefix.videos == small.videos
        a, b = prefix.annotations, small.annotations
        for field in fields(a):
            got, want = getattr(a, field.name), getattr(b, field.name)
            if isinstance(got, np.ndarray):
                assert got.dtype == want.dtype, field.name
                assert np.array_equal(got, want), field.name
            else:
                assert got == want, field.name
        alone = compute_tracks(small)
        for r, i in zip(large.positions(a.ids), alone.positions(b.ids)):
            got = large.prefix[large.base[r]:][:large.frames[r] + 1]
            want = alone.prefix[alone.base[i]:][:alone.frames[i] + 1]
            assert got.tobytes() == want.tobytes()

    def test_seed_changes_output(self, tmp_path):
        generate_corpus(small_spec(seed=1), tmp_path / "a")
        generate_corpus(small_spec(seed=2), tmp_path / "b")
        assert not filecmp.cmp(tmp_path / "a" / "queries.vmrp",
                               tmp_path / "b" / "queries.vmrp",
                               shallow=False)


def replay_video(spec, v):
    """Independent reimplementation of the documented sampling procedure."""
    T = spec.num_frames
    rng = np.random.default_rng([spec.seed, v])
    sigma = spec.sigma_b
    out = []
    for _ in range(spec.annotations_per_video):
        u = rng.random()
        gt_len = int(rng.integers(max(2, T // 8), T // 2 + 1))
        gt_start = int(rng.integers(0, T - gt_len + 1))
        bad_len = int(rng.integers(max(2, T // 16),
                                   max(2, T // 16, T // 10) + 1))
        bad_start = int(rng.integers(0, T - bad_len + 1))
        noise_s = int(round(rng.normal(0.0, sigma)))
        noise_e = int(round(rng.normal(0.0, sigma)))
        rng.standard_normal(spec.dim)  # query direction, not checked here

        cum_clean = 1.0 - spec.p_idle - spec.p_unmatched - spec.p_imprecise
        if u < cum_clean:
            tag = "clean"
        elif u < cum_clean + spec.p_imprecise:
            tag = "imprecise"
        elif u < cum_clean + spec.p_imprecise + spec.p_unmatched:
            tag = "unmatched"
        else:
            tag = "idle"

        gt = (gt_start, gt_start + gt_len)
        if tag == "clean":
            pseudo = gt
        elif tag == "imprecise":
            c_in = max(2, gt_len // 3)
            c_out = max(2, gt_len // 8)
            off_s = min(max(noise_s, -c_out), c_in)
            off_e = min(max(noise_e, -c_in), c_out)
            s = min(max(gt_start + off_s, 0), T - 2)
            e = max(min(gt_start + gt_len + off_e, T), s + 2)
            pseudo = (s, e)
        else:
            pseudo = (bad_start, bad_start + bad_len)
        out.append((tag, pseudo, gt if tag in ("clean", "imprecise") else None))
    return out


class TestReplayOracle:
    def test_annotations_match_documented_stream(self, tmp_path):
        spec = small_spec(n_videos=12, p_imprecise=0.3, p_idle=0.15,
                          p_unmatched=0.15, seed=99)
        manifest = generate_corpus(spec, tmp_path / "c")
        by_video = {}
        for ann in manifest.annotations:
            by_video.setdefault(ann.video_id, []).append(ann)
        for v in range(spec.n_videos):
            expected = replay_video(spec, v)
            got = by_video[f"v{v:05d}"]
            assert len(got) == len(expected)
            for ann, (tag, pseudo, gt) in zip(got, expected):
                assert ann.error_tag == tag
                assert (ann.boundary_frames.start,
                        ann.boundary_frames.end) == pseudo
                if gt is None:
                    assert ann.gt_boundary_seconds is None
                else:
                    g = ann.gt_boundary_seconds
                    # one frame per second in synthetic corpora
                    assert (round(g[0]), round(g[1])) == gt


class TestClassMix:
    def test_all_idle(self, tmp_path):
        spec = small_spec(p_idle=1.0, p_unmatched=0.0, p_imprecise=0.0)
        manifest = generate_corpus(spec, tmp_path / "c")
        assert all(a.error_tag == "idle" for a in manifest.annotations)
        assert all(a.gt_boundary_seconds is None for a in manifest.annotations)

    def test_all_clean(self, tmp_path):
        spec = small_spec(p_idle=0.0, p_unmatched=0.0, p_imprecise=0.0)
        manifest = generate_corpus(spec, tmp_path / "c")
        assert all(a.error_tag == "clean" for a in manifest.annotations)
        for a in manifest.annotations:
            assert a.gt_boundary_seconds == a.boundary_seconds


class TestEmittedCorpus:
    def test_loads_and_validates(self, tmp_path):
        spec = small_spec()
        generate_corpus(spec, tmp_path / "c")
        manifest = read_manifest(tmp_path / "c" / "manifest.json")
        assert len(manifest.videos) == spec.n_videos
        assert len(manifest.annotations) == (
            spec.n_videos * spec.annotations_per_video)
        for vid in manifest.videos:
            mat = read_feature_file(manifest.resolve(vid.feature_file_path))
            assert mat.data.shape == (spec.num_frames, spec.dim)
            norms = np.linalg.norm(mat.data, axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-4)

    def test_clean_contrast_hits_configured_levels(self, tmp_path):
        spec = small_spec(n_videos=10, p_imprecise=0.0, p_idle=0.0,
                          p_unmatched=0.0)
        manifest = generate_corpus(spec, tmp_path / "c")
        tracks = compute_tracks(manifest)
        for ann in manifest.annotations:
            t = track_of(tracks, ann.annotation_id)
            b = ann.boundary_frames
            inside = t.mapped[b.start:b.end]
            # mapped similarity inside a clean moment sits at signal_level
            # except where another moment overlaps and perturbs beta
            assert np.median(inside) == pytest.approx(spec.signal_level,
                                                      abs=0.05)

    def test_contrast_separates_good_from_bad(self, tmp_path):
        spec = small_spec(n_videos=40, p_imprecise=0.2, p_idle=0.2,
                          p_unmatched=0.2, seed=5)
        manifest = generate_corpus(spec, tmp_path / "c")
        tracks = compute_tracks(manifest)
        good, bad = [], []
        for ann in manifest.annotations:
            g = moment_contrast(track_of(tracks, ann.annotation_id),
                                ann.boundary_frames)
            (good if ann.error_tag in ("clean", "imprecise") else bad).append(g)
        assert np.mean(good) > 2.0 * np.mean(bad)
        # medians separate even more sharply than means
        assert np.median(good) > np.median(bad)

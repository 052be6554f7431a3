"""Binary feature files, manifest I/O, and seconds/frame conversion."""

import json
import os
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import annotation_table
from morp.core import Boundary
from morp.errors import (
    ContractViolation,
    DataQualityError,
    FormatError,
    MorpError,
    RangeError,
    ReferentialError,
    TruncationError,
    VersionError,
)
from morp.featstore import (
    ERROR_TAGS,
    STATUSES,
    CorpusManifest,
    FrameFeatureMatrix,
    QueryFeature,
    VideoEntry,
    frames_to_seconds,
    manifest_to_json_obj,
    read_feature_file,
    read_manifest,
    seconds_to_frames,
    write_feature_file,
    write_manifest,
)
from morp.refine import RefineReport


def pack_file(version, t, d, payload):
    return struct.pack("<4sIII", b"VMRP", version, t, d) + payload


class TestFeatureFile:
    def test_read_independent_bytes(self, tmp_path):
        # Bytes assembled with struct directly, not via the writer.
        values = [1.0, -2.5, 3.25, 0.5, 4.0, -0.125]
        payload = struct.pack("<6f", *values)
        path = tmp_path / "f.vmrp"
        path.write_bytes(pack_file(1, 2, 3, payload))
        mat = read_feature_file(path)
        assert mat.num_frames == 2 and mat.dim == 3
        np.testing.assert_array_equal(
            mat.data, np.array(values, dtype=np.float32).reshape(2, 3))

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = FrameFeatureMatrix(rng.standard_normal((7, 5)).astype(np.float32))
        p1, p2 = tmp_path / "a.vmrp", tmp_path / "b.vmrp"
        write_feature_file(mat, p1)
        back = read_feature_file(p1)
        np.testing.assert_array_equal(back.data, mat.data)
        write_feature_file(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_1x1_file_size(self, tmp_path):
        path = tmp_path / "one.vmrp"
        write_feature_file(FrameFeatureMatrix(np.ones((1, 1), np.float32)), path)
        assert path.stat().st_size == 16 + 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.vmrp"
        path.write_bytes(b"XXXX" + struct.pack("<III", 1, 1, 1) + b"\0" * 4)
        with pytest.raises(FormatError):
            read_feature_file(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.vmrp"
        path.write_bytes(pack_file(1, 100, 2, struct.pack("<100f", *([1.0] * 100))))
        with pytest.raises(TruncationError):
            read_feature_file(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.vmrp"
        path.write_bytes(b"VMRP\x01")
        with pytest.raises(TruncationError):
            read_feature_file(path)

    def test_hostile_header_checked_against_file_size(self, tmp_path):
        # T = 2^31 and D = 2^20 claim 8 PiB; the file holds one float
        path = tmp_path / "hostile.vmrp"
        path.write_bytes(pack_file(1, 2 ** 31, 2 ** 20, struct.pack("<f", 1.0)))
        with pytest.raises(TruncationError) as exc:
            read_feature_file(path)
        assert exc.value.context == {"path": str(path),
                                     "expected_rows": 2 ** 31,
                                     "actual_rows": 0}

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.vmrp"
        path.write_bytes(pack_file(1, 1, 1, struct.pack("<f", 1.0)) + b"extra")
        with pytest.raises(FormatError):
            read_feature_file(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "v9.vmrp"
        path.write_bytes(pack_file(9, 1, 1, struct.pack("<f", 1.0)))
        with pytest.raises(VersionError):
            read_feature_file(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.vmrp"
        path.write_bytes(pack_file(1, 1, 2, struct.pack("<2f", float("nan"), 1.0)))
        with pytest.raises(DataQualityError):
            read_feature_file(path)

    def test_zero_row_rejected(self, tmp_path):
        path = tmp_path / "zero.vmrp"
        path.write_bytes(pack_file(1, 2, 2, struct.pack("<4f", 0, 0, 1, 1)))
        with pytest.raises(DataQualityError):
            read_feature_file(path)

    def test_zero_row_matrix_constructor(self):
        with pytest.raises(ContractViolation):
            FrameFeatureMatrix(np.zeros((0, 3), np.float32))

    def test_query_feature_checks(self):
        QueryFeature(np.ones(3, np.float32))
        with pytest.raises(DataQualityError):
            QueryFeature(np.zeros(3, np.float32))
        with pytest.raises(DataQualityError):
            QueryFeature(np.array([np.inf, 1.0], np.float32))

    @settings(max_examples=25)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_round_trip_property(self, t, d, seed):
        import tempfile

        rng = np.random.default_rng(seed)
        data = rng.standard_normal((t, d)).astype(np.float32)
        data[np.all(data == 0, axis=1)] = 1.0
        with tempfile.TemporaryDirectory() as base:
            path = base + "/m.vmrp"
            write_feature_file(FrameFeatureMatrix(data), path)
            np.testing.assert_array_equal(read_feature_file(path).data, data)


@st.composite
def feature_files(draw):
    """(file bytes, matrix or None).  Each fault comes with probability
    1/4, alone or with others: a bad magic or version, T or D at an edge
    (0, 1, 2**31 or 2**32 - 1), a short or trailing payload, a file cut
    inside its header, NaN or infinite values, an all-zero row.  The
    matrix is what the file holds when it has no fault."""
    def fault():
        return draw(st.integers(0, 3)) == 0

    edge = st.sampled_from([0, 1, 2 ** 31, 2 ** 32 - 1])
    magic = draw(st.sampled_from([b"VMRQ", b"\0\0\0\0"])) if fault() else b"VMRP"
    version = draw(st.sampled_from([0, 2, 2 ** 32 - 1])) if fault() else 1
    t = draw(edge if fault() else st.integers(1, 4))
    d = draw(edge if fault() else st.integers(1, 4))
    # a header asking for more than 4 KiB gets a short payload
    fits = 4 * t * d <= 4096
    rows, cols = (t, d) if fits else (draw(st.integers(0, 3)), 1)
    finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
    cell = st.one_of(finite, st.sampled_from(
        [float("nan"), float("inf"), float("-inf")])) if fault() else finite
    values = np.array(draw(st.lists(cell, min_size=rows * cols,
                                    max_size=rows * cols)), dtype="<f4")
    if rows and fault():
        values.reshape(rows, cols)[draw(st.integers(0, rows - 1))] = -0.0
    payload = values.tobytes()
    length = draw(st.sampled_from(["short", "trailing"])) \
        if fault() or not fits else "exact"
    if length == "short":
        payload = payload[:draw(st.integers(0, max(len(payload) - 1, 0)))]
    elif length == "trailing":
        payload += b"\xff" * draw(st.integers(1, 7))
    data = struct.pack("<4sIII", magic, version, t, d) + payload
    if fault():
        return data[:draw(st.integers(0, 15))], None
    valid = (magic == b"VMRP" and version == 1 and t >= 1 and d >= 1
             and length == "exact" and np.isfinite(values).all()
             and values.reshape(t, d).any(axis=1).all())
    return data, values.reshape(t, d) if valid else None


class TestFeatureFileFuzz:
    """Every byte string ends as a matrix or as one MorpError, never as
    another exception or an allocation the file cannot back."""

    @settings(max_examples=400)
    @given(feature_files())
    @example((pack_file(1, 2 ** 32 - 1, 2 ** 32 - 1, b""), None))
    @example((pack_file(1, 1, 2, struct.pack("<2f", 0.0, -0.0)), None))
    def test_matrix_or_one_error(self, case):
        data, want = case
        with tempfile.TemporaryDirectory() as base:
            path = os.path.join(base, "f.vmrp")
            with open(path, "wb") as fh:
                fh.write(data)
            if want is None:
                with pytest.raises(MorpError):
                    read_feature_file(path)
            else:
                got = read_feature_file(path)
                assert isinstance(got, FrameFeatureMatrix)
                np.testing.assert_array_equal(got.data, want)


class TestSecondsToFrames:
    def test_origin(self):
        assert seconds_to_frames(0.0, 100.0, 10) == 0

    def test_endpoint(self):
        assert seconds_to_frames(100.0, 100.0, 10) == 10

    def test_midpoint(self):
        assert seconds_to_frames(50.0, 100.0, 10) == 5

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            seconds_to_frames(101.0, 100.0, 10)
        with pytest.raises(RangeError):
            seconds_to_frames(-1.0, 100.0, 10)

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=8))
    def test_monotone(self, ts):
        ts = sorted(ts)
        frames = [seconds_to_frames(t, 100.0, 16) for t in ts]
        assert frames == sorted(frames)


def write_fixture_corpus(tmp_path, annotations=None, num_queries=2):
    """A hand-written 1-video corpus with real feature files."""
    rng = np.random.default_rng(7)
    feat_dir = tmp_path / "features"
    feat_dir.mkdir(exist_ok=True)
    write_feature_file(
        FrameFeatureMatrix(rng.standard_normal((8, 4)).astype(np.float32)),
        feat_dir / "vid0.vmrp")
    write_feature_file(
        FrameFeatureMatrix(rng.standard_normal((num_queries, 4)).astype(np.float32)),
        tmp_path / "queries.vmrp")
    if annotations is None:
        annotations = [
            {"annotation_id": "a0", "video_id": "vid0", "query_text": "a man runs",
             "query_feature_ref": 0, "boundary_seconds": [0.0, 20.0],
             "status": "raw"},
            {"annotation_id": "a1", "video_id": "vid0", "query_text": "a man jumps",
             "query_feature_ref": 1, "boundary_seconds": [10.0, 40.0],
             "status": "raw"},
        ]
    doc = {
        "format_version": 1,
        "videos": [{"video_id": "vid0", "duration_seconds": 40.0,
                    "num_frames": 8, "feature_file_path": "features/vid0.vmrp"}],
        "queries_file_path": "queries.vmrp",
        "annotations": annotations,
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


class TestManifest:
    def test_fixture_loads(self, tmp_path):
        m = read_manifest(write_fixture_corpus(tmp_path))
        assert len(m.annotations) == 2
        a0 = m.annotations[0]
        # 0s..20s of a 40s / 8-frame video -> frames [0, 4)
        assert a0.boundary_frames.as_tuple() == (0, 4)
        assert a0.boundary_frames.timeline_len == 8
        assert m.load_video_features("vid0").num_frames == 8

    def test_round_trip_bytes(self, tmp_path):
        path = write_fixture_corpus(tmp_path)
        m = read_manifest(path)
        out1 = tmp_path / "out1.json"
        out2 = tmp_path / "out2.json"
        write_manifest(m, out1)
        write_manifest(read_manifest(out1), out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_rebase_keeps_references_resolvable(self, tmp_path):
        m = read_manifest(write_fixture_corpus(tmp_path))
        sub = tmp_path / "derived"
        sub.mkdir()
        write_manifest(m, sub / "m.json")
        again = read_manifest(sub / "m.json")
        assert again.load_video_features("vid0").num_frames == 8

    def test_dangling_video(self, tmp_path):
        anns = [{"annotation_id": "a0", "video_id": "nope", "query_text": "x",
                 "query_feature_ref": 0, "boundary_seconds": [0.0, 1.0],
                 "status": "raw"}]
        with pytest.raises(ReferentialError):
            read_manifest(write_fixture_corpus(tmp_path, annotations=anns))

    def test_inverted_boundary(self, tmp_path):
        anns = [{"annotation_id": "a0", "video_id": "vid0", "query_text": "x",
                 "query_feature_ref": 0, "boundary_seconds": [5.0, 2.0],
                 "status": "raw"}]
        with pytest.raises(RangeError):
            read_manifest(write_fixture_corpus(tmp_path, annotations=anns))

    def test_negative_start_names_annotation(self, tmp_path):
        anns = [{"annotation_id": "a0", "video_id": "vid0", "query_text": "x",
                 "query_feature_ref": 0, "boundary_seconds": [-1.0, 2.0],
                 "status": "raw"}]
        with pytest.raises(RangeError) as err:
            read_manifest(write_fixture_corpus(tmp_path, annotations=anns))
        assert err.value.context["annotation_id"] == "a0"

    def test_boundary_past_duration(self, tmp_path):
        anns = [{"annotation_id": "a0", "video_id": "vid0", "query_text": "x",
                 "query_feature_ref": 0, "boundary_seconds": [0.0, 41.0],
                 "status": "raw"}]
        with pytest.raises(RangeError):
            read_manifest(write_fixture_corpus(tmp_path, annotations=anns))

    def test_query_ref_out_of_range(self, tmp_path):
        anns = [{"annotation_id": "a0", "video_id": "vid0", "query_text": "x",
                 "query_feature_ref": 5, "boundary_seconds": [0.0, 1.0],
                 "status": "raw"}]
        with pytest.raises(ReferentialError):
            read_manifest(write_fixture_corpus(tmp_path, annotations=anns))

    def test_unknown_format_version(self, tmp_path):
        path = write_fixture_corpus(tmp_path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionError):
            read_manifest(path)

    def test_duplicate_annotation_id(self, tmp_path):
        ann = {"annotation_id": "a0", "video_id": "vid0", "query_text": "x",
               "query_feature_ref": 0, "boundary_seconds": [0.0, 1.0],
               "status": "raw"}
        path = write_fixture_corpus(tmp_path, annotations=[ann, dict(ann)])
        with pytest.raises(ReferentialError) as err:
            read_manifest(path)
        assert err.value.context == {"annotation_id": "a0"}

    def test_with_boundaries(self):
        videos = (VideoEntry("v0", 37.3, 17, "v0.vmrp"),
                  VideoEntry("v1", 10, 3, "v1.vmrp"))
        m = CorpusManifest(1, videos, "q.vmrp", annotation_table(videos, [
            {"annotation_id": f"a{i}", "video_id": f"v{i % 2}",
             "boundary_seconds": (0, 1), "gt_boundary_seconds": (0, i)}
            for i in range(5)]))
        records = tuple(m.annotations)
        columns = {name: list(getattr(m.annotations, name)) for name in
                   ("start_s", "end_s", "start_f", "end_f", "status")}
        rows = [4, 1, 2]
        start = np.array([3, 0, 16])
        end = np.array([17, 2, 17])
        moved = m.with_boundaries(rows, start, end, "corrected")
        assert [a.annotation_id for a in moved.annotations] == \
            ["a4", "a1", "a2"]
        for a, r, s, e in zip(moved.annotations, rows, start, end):
            v = videos[r % 2]
            assert a.status == "corrected"
            assert a.boundary_frames == Boundary(int(s), int(e), v.num_frames)
            assert a.boundary_seconds == tuple(
                frames_to_seconds(int(f), v.duration_seconds, v.num_frames)
                for f in (s, e))
            assert replace(a, status="raw", boundary_frames=None,
                           boundary_seconds=(0, 1)) == \
                replace(records[r], boundary_frames=None)
        # the source manifest's columns are unchanged
        for name, column in columns.items():
            assert list(getattr(m.annotations, name)) == column


class TestFieldTypes:
    """A manifest field of the wrong type is an error, never a cast."""

    @staticmethod
    def load(tmp_path, edit):
        path = write_fixture_corpus(tmp_path)
        doc = json.loads(path.read_text())
        doc = edit(doc) or doc
        path.write_text(json.dumps(doc))
        return read_manifest(path)

    def test_integer_duration_accepted(self, tmp_path):
        def edit(doc):
            doc["videos"][0]["duration_seconds"] = 40

        m = self.load(tmp_path, edit)
        assert m.videos[0].duration_seconds == 40.0
        assert m.annotations[0].boundary_frames.as_tuple() == (0, 4)

    @pytest.mark.parametrize("duration", [float("inf"), float("-inf"),
                                          10 ** 400])
    def test_non_finite_duration(self, tmp_path, duration):
        def edit(doc):
            doc["videos"][0]["duration_seconds"] = duration

        with pytest.raises(RangeError) as err:
            self.load(tmp_path, edit)
        assert err.value.context["video_id"] == "vid0"

    @pytest.mark.parametrize("field,value", [
        ("video_id", 3), ("duration_seconds", None), ("duration_seconds", False),
        ("num_frames", 8.0), ("num_frames", False), ("feature_file_path", 1)])
    def test_video_field(self, tmp_path, field, value):
        def edit(doc):
            doc["videos"][0][field] = value

        with pytest.raises(FormatError) as err:
            self.load(tmp_path, edit)
        assert err.value.context["field"] == field

    @pytest.mark.parametrize("field,value", [
        ("annotation_id", ["a0"]), ("video_id", None), ("query_text", 1),
        ("query_feature_ref", "0"), ("query_feature_ref", True)])
    def test_annotation_field(self, tmp_path, field, value):
        def edit(doc):
            doc["annotations"][1][field] = value

        with pytest.raises(FormatError) as err:
            self.load(tmp_path, edit)
        assert err.value.context == {
            "annotation_id": "a1" if field != "annotation_id" else ["a0"],
            "field": field}

    @pytest.mark.parametrize("edit", [
        lambda doc: [doc],
        lambda doc: doc.pop("queries_file_path") and None,
        lambda doc: doc.update(videos={"vid0": {}}),
        lambda doc: doc.update(videos=["vid0"]),
    ])
    def test_document_shape(self, tmp_path, edit):
        with pytest.raises(FormatError):
            self.load(tmp_path, edit)


class TestSingleFaults:
    """Each single fault gets the code, message and context a reader
    that checks annotation by annotation gives it, although the reader
    checks the manifest a column at a time."""

    @staticmethod
    def load(tmp_path, edit):
        path = write_fixture_corpus(tmp_path)
        doc = json.loads(path.read_text())
        edit(doc["videos"][0], doc["annotations"][1])
        path.write_text(json.dumps(doc))
        return read_manifest(path)

    @pytest.mark.parametrize("edit,code,message,context", [
        (lambda v, a: a.update(status="bogus"), "contract_violation",
         "unknown status", {"status": "bogus"}),
        (lambda v, a: a.update(error_tag="bogus"), "contract_violation",
         "unknown error tag", {"tag": "bogus"}),
        (lambda v, a: a.update(boundary_seconds=[10.0, 41.0]), "range_error",
         "timestamp outside [0, duration]", {"t": 41.0, "duration": 40.0}),
        (lambda v, a: a.update(boundary_seconds=[0, 10 ** 400]),
         "range_error", "timestamp outside [0, duration]",
         {"t": 10 ** 400, "duration": 40.0}),
        (lambda v, a: a.update(boundary_seconds=[5, 5]), "range_error",
         "boundary seconds must satisfy 0 <= start < end",
         {"annotation_id": "a1", "start_s": 5, "end_s": 5}),
        (lambda v, a: v.update(num_frames=0), "contract_violation",
         "boundary must satisfy 0 <= start < end <= timeline_len",
         {"start": -1, "end": 0, "timeline_len": 0}),
        (lambda v, a: v.update(duration_seconds=-1.0), "range_error",
         "duration must be positive", {"duration": -1.0}),
        (lambda v, a: v.update(num_frames=2 ** 63), "range_error",
         "num_frames out of range",
         {"video_id": "vid0", "num_frames": 2 ** 63}),
        (lambda v, a: a.update(video_id="nope"), "referential_error",
         "annotation references absent video",
         {"annotation_id": "a1", "video_id": "nope"}),
        (lambda v, a: a.update(query_feature_ref=2), "referential_error",
         "query_feature_ref out of range",
         {"annotation_id": "a1", "ref": 2, "num_queries": 2}),
        (lambda v, a: a.update(annotation_id="a0"), "referential_error",
         "duplicate annotation_id", {"annotation_id": "a0"}),
    ])
    def test_error(self, tmp_path, edit, code, message, context):
        with pytest.raises(MorpError) as err:
            self.load(tmp_path, edit)
        assert (err.value.code, err.value.message, err.value.context) == \
            (code, message, context)

    @settings(max_examples=150, deadline=None)
    @given(field=st.sampled_from(
               ["video_id", "duration_seconds", "num_frames",
                "annotation_id", "query_feature_ref", "boundary_seconds",
                "gt_boundary_seconds", "status", "error_tag"]),
           value=st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30)
           | st.floats() | st.text(max_size=3) | st.lists(
               st.integers(-5, 50) | st.floats(), max_size=3))
    def test_any_value_reads_or_is_a_morp_error(self, field, value):
        """One field of one video or annotation set to any JSON value:
        the manifest reads and writes back unchanged, or the reader
        raises a MorpError, never another exception."""
        def edit(v, a):
            (v if field in ("duration_seconds", "num_frames") else a)[
                field] = value

        with tempfile.TemporaryDirectory() as base:
            try:
                manifest = self.load(Path(base), edit)
            except MorpError:
                return
            out = os.path.join(base, "out.json")
            write_manifest(manifest, out)
            again = os.path.join(base, "again.json")
            write_manifest(read_manifest(out), again)
            with open(out, encoding="utf-8") as f1, \
                    open(again, encoding="utf-8") as f2:
                assert f1.read() == f2.read()


class TestBoundaryPairs:
    """A [start, end] field that is not two numbers is a FormatError."""

    @staticmethod
    def load(tmp_path, **fields):
        ann = {"annotation_id": "a0", "video_id": "vid0", "query_text": "x",
               "query_feature_ref": 0, "boundary_seconds": [0.0, 1.0],
               "status": "raw", **fields}
        return read_manifest(write_fixture_corpus(tmp_path, annotations=[ann]))

    @pytest.mark.parametrize("field", ["boundary_seconds",
                                       "gt_boundary_seconds"])
    @pytest.mark.parametrize("pair", [[1], [], [1, 2, 3], ["a", 2],
                                      [True, 2], "0,1"])
    def test_malformed_pair(self, tmp_path, field, pair):
        with pytest.raises(FormatError) as err:
            self.load(tmp_path, **{field: pair})
        assert err.value.context == {"annotation_id": "a0", "field": field}

    def test_null_boundary(self, tmp_path):
        # a null ground truth means none; a null boundary is an error
        with pytest.raises(FormatError):
            self.load(tmp_path, boundary_seconds=None)

    @pytest.mark.parametrize("gt", [None, [0, 1], [0.5, 2.0]])
    def test_valid_pairs_load(self, tmp_path, gt):
        m = self.load(tmp_path, boundary_seconds=[0, 10],
                      gt_boundary_seconds=gt)
        assert m.annotations[0].boundary_seconds == (0, 10)
        assert m.annotations[0].gt_boundary_seconds == (
            None if gt is None else tuple(gt))


class TestFrameCountCheck:
    def test_video_frames(self, tmp_path):
        m = read_manifest(write_fixture_corpus(tmp_path))
        assert m.video_frames("vid0") == 8

    @pytest.mark.parametrize("frames", [7, 2 ** 40])
    def test_disagreeing_header(self, tmp_path, frames):
        path = write_fixture_corpus(tmp_path)
        doc = json.loads(path.read_text())
        doc["videos"][0]["num_frames"] = frames
        doc["annotations"] = []
        path.write_text(json.dumps(doc))
        m = read_manifest(path)
        for check in (m.video_frames, m.load_video_features):
            with pytest.raises(ReferentialError) as err:
                check("vid0")
            assert err.value.context == {"video_id": "vid0",
                                         "manifest": frames, "file": 8}


class TestAtomicWrites:
    """A writer that fails half way leaves the earlier file as it was."""

    @staticmethod
    def writers(tmp_path):
        from morp.consensus import CorrectionTrace
        from morp.metrics import write_json
        from morp.predictor import EpochPredictions

        manifest = read_manifest(write_fixture_corpus(tmp_path))
        bounds = np.tile([0, 1], (3, 1, 1))  # 3 epochs of one annotation
        trace = CorrectionTrace(["a0"], [2, 2, 2], bounds, bounds,
                                EpochPredictions(
                                    bounds[..., :1], bounds[..., 1:],
                                    np.ones((3, 1, 1)), np.ones((3, 1), int)))
        return {
            "manifest": lambda p: write_manifest(manifest, p),
            "trace": trace.write,
            "json": lambda p: write_json({"x": [1, 2, 3]}, p),
        }

    @pytest.mark.parametrize("name", ["manifest", "trace", "json"])
    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch,
                                             name):
        from contextlib import contextmanager

        import morp.consensus
        import morp.featstore
        import morp.metrics

        write = self.writers(tmp_path)[name]
        out = tmp_path / "out" / "artifact"
        out.parent.mkdir()
        out.write_text("earlier\n")
        real = morp.featstore.atomic_write

        class HalfWrite:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError("disk full")

        @contextmanager
        def failing(path):
            with real(path) as fh:
                yield HalfWrite(fh)

        for module in (morp.consensus, morp.featstore, morp.metrics):
            monkeypatch.setattr(module, "atomic_write", failing)
        with pytest.raises(OSError):
            write(out)
        assert out.read_text() == "earlier\n"
        assert sorted(p.name for p in out.parent.iterdir()) == ["artifact"]

        monkeypatch.undo()
        write(out)
        assert out.read_text() != "earlier\n"
        assert sorted(p.name for p in out.parent.iterdir()) == ["artifact"]


# text with lone surrogates, non-ASCII letters, control characters,
# quotes and backslashes
TEXT = st.text(st.characters(categories=["Cs", "Lu", "Ll", "Nd", "Zs", "Cc",
                                         "Po"]), max_size=6)
SPECIAL = st.sampled_from([1e-07, 1e16, -0.0, 0.0, 12, 12.0])
SECONDS = st.one_of(st.integers(0, 10 ** 16), st.floats(0, 1e16), SPECIAL)
NUMBER = st.one_of(st.integers(-10 ** 20, 10 ** 20), st.floats(), SPECIAL)


@st.composite
def annotation_records(draw, video_ids):
    ids = draw(st.lists(TEXT, max_size=6, unique=True))
    records = []
    for aid in ids:
        # two distinct seconds, ints next to floats
        s, e = sorted(draw(st.lists(SECONDS, min_size=2, max_size=2,
                                    unique_by=float)))
        records.append(dict(
            annotation_id=aid, video_id=draw(st.sampled_from(video_ids)),
            query_text=draw(TEXT), query_feature_ref=draw(st.integers(0, 1)),
            boundary_seconds=(s, e), status=draw(st.sampled_from(STATUSES)),
            gt_boundary_seconds=draw(st.none() | st.tuples(NUMBER, NUMBER)),
            error_tag=draw(st.none() | st.sampled_from(ERROR_TAGS))))
    return records


# any JSON value, for one hostile field of a manifest
JSON = st.recursive(
    st.none() | st.booleans() | NUMBER | TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6)
MANIFEST_FIELDS = (
    [(key,) for key in ("format_version", "queries_file_path", "videos",
                        "annotations", "synth", "provenance")]
    + [("videos", 0, key) for key in ("video_id", "duration_seconds",
                                      "num_frames", "feature_file_path")]
    + [("annotations", 1, key) for key in (
        "annotation_id", "video_id", "query_text", "query_feature_ref",
        "boundary_seconds", "status", "gt_boundary_seconds", "error_tag")])


class TestHostileFields:
    """A valid manifest with one field replaced by any JSON value reads
    as a manifest or raises a MorpError.  The only other exception let
    through is an OSError, from a queries path that names no readable
    file, which the CLI reports as one io_error or missing_file line."""

    @staticmethod
    def load(base, field, value):
        path = write_fixture_corpus(Path(base))
        doc = json.loads(path.read_text())
        *parents, key = field
        target = doc
        for step in parents:
            target = target[step]
        target[key] = value
        path.write_text(json.dumps(doc))
        return read_manifest(path)

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(MANIFEST_FIELDS), value=JSON)
    @example(field=("queries_file_path",), value="q\ud800.vmrp")
    @example(field=("queries_file_path",), value="q\0.vmrp")
    def test_manifest_or_morp_error(self, field, value):
        with tempfile.TemporaryDirectory() as base:
            try:
                self.load(base, field, value)
            except (MorpError, OSError):
                pass

    @pytest.mark.parametrize("path", ["q\ud800.vmrp", "q\0.vmrp"])
    @pytest.mark.parametrize("field,context", [
        (("queries_file_path",), {"field": "queries_file_path"}),
        (("videos", 0, "feature_file_path"),
         {"video_id": "vid0", "field": "feature_file_path"}),
    ])
    def test_unnamable_path(self, tmp_path, field, context, path):
        """JSON can escape a lone surrogate and a NUL byte, which no file
        name can hold."""
        with pytest.raises(FormatError) as err:
            self.load(tmp_path, field, path)
        assert err.value.context == context


class TestColumnarWriters:
    """The manifest and refine-report writers format from columns, and
    write exactly ``json.dumps(obj, indent=2) + "\\n"`` of the records."""

    VIDEOS = (VideoEntry("v0", 1e17, 8, "features/v0.vmrp"),
              VideoEntry("v\u00e9 \ud800", 2.5e16, 3, "f\u00e9/v1.vmrp"))

    @settings(max_examples=80, deadline=None)
    @given(records=annotation_records([v.video_id for v in VIDEOS]),
           provenance=st.none() | st.just({"tool_version": "0.1.0",
                                            "note": "\u00e9"}),
           synth=st.none() | st.just({"spec": {"x": 1.5},
                                      "annotations": []}))
    @example(records=[
        dict(annotation_id="a", video_id="v0", boundary_seconds=(12, 1e16),
             gt_boundary_seconds=(float("nan"), float("-inf"))),
        dict(annotation_id="\ud800\u00e9", video_id="v\u00e9 \ud800",
             query_text="\u00e9\"\\", query_feature_ref=1,
             boundary_seconds=(1e-07, 0.5), status="adjusted",
             gt_boundary_seconds=(-0.0, 10 ** 20), error_tag="clean")],
             provenance=None, synth=None)
    def test_manifest_text_is_json_dumps(self, records, provenance, synth):
        with tempfile.TemporaryDirectory() as base:
            write_feature_file(FrameFeatureMatrix(np.ones((2, 4), np.float32)),
                               os.path.join(base, "queries.vmrp"))
            manifest = CorpusManifest(1, self.VIDEOS, "queries.vmrp",
                                      annotation_table(self.VIDEOS, records),
                                      synth=synth,
                                      provenance=provenance, base_dir=base)
            path = os.path.join(base, "m.json")
            write_manifest(manifest, path)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            assert text == json.dumps(manifest_to_json_obj(manifest),
                                      indent=2) + "\n"
            # read back, every number keeps its type and bits
            again = os.path.join(base, "again.json")
            write_manifest(read_manifest(path), again)
            with open(again, encoding="utf-8") as fh:
                assert fh.read() == text

    @settings(max_examples=80, deadline=None)
    @given(ids=st.lists(TEXT, max_size=6, unique=True), data=st.data(),
           provenance=st.none() | st.just({"seed": 3, "note": "\ud800"}))
    @example(ids=[], data=None, provenance=None)
    def test_report_text_is_json_dumps(self, ids, data, provenance):
        n = len(ids)
        gammas = data.draw(st.lists(st.floats(allow_nan=False,
                                              allow_infinity=False) | SPECIAL,
                                    min_size=n, max_size=n)) if n else []
        frames = (data.draw(st.lists(st.integers(0, 2 ** 40), min_size=n,
                                     max_size=n)) if n else []
                  for _ in range(4))
        kept = data.draw(st.lists(st.booleans(), min_size=n,
                                  max_size=n)) if n else []
        report = RefineReport(
            ids, np.array(gammas, dtype=np.float64), np.array(kept, bool),
            *(np.array(f, dtype=np.int64) for f in frames))
        obj = report.to_json_obj()
        if provenance is not None:
            obj["provenance"] = provenance
        with tempfile.TemporaryDirectory() as base:
            path = os.path.join(base, "report.json")
            report.write(path, provenance=provenance)
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == json.dumps(obj, indent=2) + "\n"

"""Binary feature files and the JSON corpus manifest.

Feature file layout (little-endian, bit-exact):

    bytes 0..3    magic ``VMRP``
    bytes 4..15   three uint32: format_version (=1), T, D
    bytes 16..    T*D float32 values, row-major

Both readers check the header's claimed size against the file's size
before they read the payload, and a manifest's frame count can be
checked against the header alone (:meth:`CorpusManifest.video_frames`).

A corpus manifest is a single UTF-8 JSON document.  Boundaries in the
manifest are in seconds; frame indices are derived once at load time
using each video's frame count.  Relative paths resolve against the
manifest's directory.  Text artifacts are written through
:func:`atomic_write`, so a reader sees either the old file or the whole
new one.

In memory, a manifest's annotations are an :class:`AnnotationTable`:
one list or int64 array per field, checked a column at a time on read
and formatted a column at a time on write, where
``json.dumps(manifest_to_json_obj(m), indent=2)`` is the reference
text.  :class:`PseudoAnnotation` records are a view of the table's rows,
built only when something iterates over it.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from .core import Boundary
from .errors import (
    ContractViolation,
    DataQualityError,
    FormatError,
    RangeError,
    ReferentialError,
    TruncationError,
    VersionError,
)

MAGIC = b"VMRP"
FORMAT_VERSION = 1
HEADER = struct.Struct("<4sIII")

STATUSES = ("raw", "kept", "dropped", "adjusted", "corrected")
ERROR_TAGS = ("idle", "unmatched", "imprecise", "clean")


@dataclass(frozen=True)
class FrameFeatureMatrix:
    """T x D float32 matrix of per-frame embeddings."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ContractViolation("feature matrix must be T x D with T,D >= 1",
                                    shape=list(np.shape(self.data)))
        _check_rows(arr)
        object.__setattr__(self, "data", arr)

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class QueryFeature:
    """A single D-dimensional query embedding."""

    data: np.ndarray

    def __post_init__(self):
        vec = np.ascontiguousarray(self.data, dtype=np.float32)
        if vec.ndim != 1 or vec.size < 1:
            raise ContractViolation("query feature must be a D-vector")
        if not np.all(np.isfinite(vec)):
            raise DataQualityError("query feature has non-finite entries")
        if not np.any(vec):
            raise DataQualityError("query feature has zero norm")
        object.__setattr__(self, "data", vec)

    @property
    def dim(self) -> int:
        return self.data.shape[0]


def _check_rows(arr: np.ndarray):
    if not np.all(np.isfinite(arr)):
        raise DataQualityError("feature matrix has non-finite entries")
    zero = ~np.any(arr, axis=1)
    if np.any(zero):
        raise DataQualityError(
            "feature matrix has all-zero rows",
            rows=np.nonzero(zero)[0][:8].tolist(),
        )


def _read_header(fh, path):
    """(T, D) from an open feature file's header, checked against the
    file's size, so a hostile header cannot ask for an allocation the
    file cannot fill."""
    head = fh.read(HEADER.size)
    if len(head) < HEADER.size:
        raise TruncationError("file too short for header", path=str(path))
    magic, version, t, d = HEADER.unpack(head)
    if magic != MAGIC:
        raise FormatError("bad magic bytes", path=str(path),
                          magic=magic.hex())
    if version != FORMAT_VERSION:
        raise VersionError("unsupported feature-file version",
                           path=str(path), version=version)
    if t < 1 or d < 1:
        raise FormatError("header claims empty matrix", path=str(path),
                          T=t, D=d)
    size = os.fstat(fh.fileno()).st_size - HEADER.size
    if size < 4 * t * d:
        raise TruncationError(
            "payload shorter than header claims",
            path=str(path), expected_rows=t, actual_rows=size // (4 * d),
        )
    if size > 4 * t * d:
        raise FormatError("trailing bytes after payload", path=str(path))
    return t, d


def read_feature_file(path) -> FrameFeatureMatrix:
    """Load a binary feature file, validating header and payload."""
    with open(path, "rb") as fh:
        t, d = _read_header(fh, path)
        payload = fh.read(4 * t * d)
    data = np.frombuffer(payload, dtype="<f4").reshape(t, d)
    return FrameFeatureMatrix(data)


def write_feature_file(matrix: FrameFeatureMatrix, path) -> None:
    """Write a feature file; read_feature_file(path) reproduces it bit-exactly."""
    arr = np.ascontiguousarray(matrix.data, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, FORMAT_VERSION, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes(order="C"))


def read_feature_header(path):
    """Return (T, D) from a feature file without reading the payload.

    The header gets every check :func:`read_feature_file` makes before
    it reads the payload, the file size included.
    """
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def seconds_to_frames(t: float, duration: float, num_frames: int) -> int:
    """Map a timestamp to a frame index: floor(t / duration * T), clamped to [0, T]."""
    if duration <= 0:
        raise RangeError("duration must be positive", duration=duration)
    if not (0 <= t <= duration):
        raise RangeError("timestamp outside [0, duration]",
                         t=t, duration=duration)
    return min(max(int(math.floor(t / duration * num_frames)), 0), num_frames)


def frames_to_seconds(f: int, duration: float, num_frames: int) -> float:
    """Inverse edge mapping: frame index back to a timestamp."""
    return f * duration / num_frames


@dataclass(frozen=True)
class VideoEntry:
    video_id: str
    duration_seconds: float
    num_frames: int
    feature_file_path: str


def _check_annotation(annotation_id, boundary_seconds, status, error_tag):
    """The checks an annotation's own fields must pass."""
    if status not in STATUSES:
        raise ContractViolation("unknown status", status=status)
    if error_tag is not None and error_tag not in ERROR_TAGS:
        raise ContractViolation("unknown error tag", tag=error_tag)
    check_seconds(annotation_id, *boundary_seconds)


def check_seconds(annotation_id, s, e, **context):
    """The rule of every seconds interval: 0 <= start < end."""
    if not (0 <= s < e):
        raise RangeError("boundary seconds must satisfy 0 <= start < end",
                         annotation_id=annotation_id, start_s=s, end_s=e,
                         **context)


@dataclass(frozen=True)
class PseudoAnnotation:
    """One (query, temporal boundary) training record: a read-only view
    of one row of an :class:`AnnotationTable`.

    ``boundary_frames`` is derived from ``boundary_seconds`` at load time
    and is authoritative inside the pipeline.  The pipeline, statistics
    and evaluation work on the table's columns and build no records; they
    serve tests and callers that want one object per annotation.
    """

    annotation_id: str
    video_id: str
    query_text: str
    query_feature_ref: int
    boundary_seconds: tuple
    status: str = "raw"
    gt_boundary_seconds: Optional[tuple] = None
    error_tag: Optional[str] = None
    boundary_frames: Optional[Boundary] = None

    def __post_init__(self):
        _check_annotation(self.annotation_id, self.boundary_seconds,
                          self.status, self.error_tag)


@dataclass(frozen=True, eq=False)
class AnnotationTable(Sequence):
    """The annotations of a corpus as columns; row i is annotation i.

    ``video``, ``start_f``, ``end_f`` and ``timeline`` are int64 arrays:
    the row of the annotation's video in the manifest, and its frame
    boundary ``[start_f, end_f)`` on a timeline of that many frames.
    The other columns are lists: ``ids``, ``video_id``, ``query_text``,
    ``query_ref``, ``start_s`` and ``end_s`` (the numbers as parsed, so
    an int stays an int), ``status``, ``error_tag`` (or None) and ``gt``
    (a ``[start, end]`` seconds pair, or None).

    As a sequence, the table is the tuple of its rows as
    :class:`PseudoAnnotation` records, built on first use.
    """

    ids: list
    video_id: list
    video: np.ndarray
    query_text: list
    query_ref: list
    start_s: list
    end_s: list
    start_f: np.ndarray
    end_f: np.ndarray
    timeline: np.ndarray
    status: list
    error_tag: list
    gt: list

    @classmethod
    def from_rows(cls, rows) -> "AnnotationTable":
        """The table of row tuples, each holding one value per column in
        the order the columns are declared."""
        names = [f.name for f in fields(cls)]
        cols = list(zip(*rows)) or [()] * len(names)
        return cls(**{
            name: np.array(col, dtype=np.int64) if name in _ARRAY_COLUMNS
            else list(col) for name, col in zip(names, cols)})

    def take(self, rows, **columns) -> "AnnotationTable":
        """The given rows, in that order; a column given by name replaces
        the gathered one and is already in that order."""
        idx = np.asarray(rows, dtype=np.int64)
        rows = idx.tolist()
        for f in fields(self):
            if f.name not in columns:
                col = getattr(self, f.name)
                columns[f.name] = col[idx] if f.name in _ARRAY_COLUMNS \
                    else [col[i] for i in rows]
        return AnnotationTable(**columns)

    @cached_property
    def _records(self) -> tuple:
        return tuple(
            PseudoAnnotation(
                annotation_id=aid, video_id=vid, query_text=text,
                query_feature_ref=ref, boundary_seconds=(s, e),
                status=status,
                gt_boundary_seconds=None if gt is None else tuple(gt),
                error_tag=tag, boundary_frames=Boundary(fs, fe, T))
            for aid, vid, text, ref, s, e, status, gt, tag, fs, fe, T
            in zip(self.ids, self.video_id, self.query_text,
                   self.query_ref, self.start_s, self.end_s,
                   self.status, self.gt, self.error_tag,
                   self.start_f.tolist(), self.end_f.tolist(),
                   self.timeline.tolist()))

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, index):
        return self._records[index]

    def __iter__(self):
        return iter(self._records)

    def __eq__(self, other):
        if isinstance(other, AnnotationTable):
            other = other._records
        return self._records == other

    __hash__ = None


_ARRAY_COLUMNS = ("video", "start_f", "end_f", "timeline")


def _video_columns(videos):
    """(duration float64, num_frames int64) arrays of the videos."""
    duration = np.array([v.duration_seconds for v in videos],
                        dtype=np.float64)
    try:
        frames = np.array([v.num_frames for v in videos], dtype=np.int64)
    except OverflowError:
        v = next(v for v in videos
                 if not -2 ** 63 <= v.num_frames < 2 ** 63)
        raise RangeError("num_frames out of range", video_id=v.video_id,
                         num_frames=v.num_frames) from None
    return duration, frames


@dataclass(frozen=True)
class CorpusManifest:
    """A corpus: its videos, its query feature file and its annotations,
    an :class:`AnnotationTable`."""

    format_version: int
    videos: tuple
    queries_file_path: str
    annotations: AnnotationTable
    synth: Optional[dict] = None
    provenance: Optional[dict] = None
    base_dir: str = "."

    def video_by_id(self, video_id: str) -> VideoEntry:
        return self._video_index[video_id]

    # cached_property writes the instance __dict__, past the frozen
    # __setattr__; replace() builds a new instance with an empty cache
    @cached_property
    def _video_index(self):
        return {v.video_id: v for v in self.videos}

    @cached_property
    def _video_columns(self):
        return _video_columns(self.videos)

    def with_boundaries(self, rows, start_f, end_f,
                        status: str) -> "CorpusManifest":
        """The manifest with the annotations at ``rows`` only, in that
        order, moved to the frame boundaries ``[start_f, end_f)`` and
        given ``status``.

        Their seconds are :func:`frames_to_seconds` of the new frames,
        computed in float64 over the columns.
        """
        table = self.annotations
        duration, frames = self._video_columns
        video = table.video[rows]
        d, n = duration[video], frames[video]
        return replace(self, annotations=table.take(
            rows, start_f=start_f, end_f=end_f,
            start_s=(start_f * d / n).tolist(),
            end_s=(end_f * d / n).tolist(), status=[status] * len(video)))

    def resolve(self, path: str) -> str:
        if os.path.isabs(path):
            return path
        return os.path.join(self.base_dir, path)

    def load_video_features(self, video_id: str) -> FrameFeatureMatrix:
        entry = self.video_by_id(video_id)
        mat = read_feature_file(self.resolve(entry.feature_file_path))
        _check_frame_count(entry, mat.num_frames)
        return mat

    def video_frames(self, video_id: str) -> int:
        """The manifest's frame count of a video, checked against the
        header of its feature file; the payload is not read."""
        entry = self.video_by_id(video_id)
        t, _ = read_feature_header(self.resolve(entry.feature_file_path))
        _check_frame_count(entry, t)
        return entry.num_frames

    def load_query_features(self) -> FrameFeatureMatrix:
        return read_feature_file(self.resolve(self.queries_file_path))


def _check_frame_count(entry: VideoEntry, file_frames: int) -> None:
    if file_frames != entry.num_frames:
        raise ReferentialError(
            "feature file frame count disagrees with manifest",
            video_id=entry.video_id, manifest=entry.num_frames,
            file=file_frames,
        )


def derive_boundary_frames(start_s, end_s, duration, num_frames) -> Boundary:
    """Convert a seconds interval to a nondegenerate frame Boundary."""
    fs = seconds_to_frames(start_s, duration, num_frames)
    fe = seconds_to_frames(end_s, duration, num_frames)
    fs = min(fs, num_frames - 1)
    fe = max(fe, fs + 1)
    return Boundary(fs, fe, num_frames)


def _check_ids(ids, videos):
    """Annotation and video ids are unique, and each video has a
    positive duration and frame count."""
    if len(set(ids)) != len(ids):
        seen = set()
        for aid in ids:
            if aid in seen:
                raise ReferentialError("duplicate annotation_id",
                                       annotation_id=aid)
            seen.add(aid)
    seen = set()
    for v in videos:
        if v.video_id in seen:
            raise ReferentialError("duplicate video_id", video_id=v.video_id)
        seen.add(v.video_id)
        if v.duration_seconds <= 0 or v.num_frames < 1:
            raise RangeError("video must have positive duration and frames",
                             video_id=v.video_id)


def _validate_manifest(manifest: CorpusManifest, duration: np.ndarray,
                       num_queries: Optional[int]):
    table = manifest.annotations
    _check_ids(table.ids, manifest.videos)
    limit = duration[table.video]
    past = np.flatnonzero(np.array(table.end_s, dtype=np.float64)
                          > limit + 1e-9)
    if past.size:
        i = past[0]
        raise RangeError("boundary exceeds video duration",
                         annotation_id=table.ids[i], end_s=table.end_s[i],
                         duration=float(limit[i]))
    refs = table.query_ref
    if num_queries is not None and refs and \
            not (min(refs) >= 0 and max(refs) < num_queries):
        i = next(i for i, r in enumerate(refs) if not 0 <= r < num_queries)
        raise ReferentialError("query_feature_ref out of range",
                               annotation_id=table.ids[i], ref=refs[i],
                               num_queries=num_queries)


# Typed fields of each video and annotation object.  JSON parses
# true/false to bool, which is a type apart from int here.
_VIDEO_FIELDS = (("video_id", str), ("num_frames", int),
                 ("feature_file_path", str))
_ANNOTATION_FIELDS = (("annotation_id", str), ("video_id", str),
                      ("query_text", str), ("query_feature_ref", int))
_TYPE_NAMES = {str: "a string", int: "an integer"}
_NUMBER = frozenset((int, float))


def _entries(doc: dict, key: str) -> list:
    """doc[key] (default []), checked to be a list of objects."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise FormatError(f"{key} must be a list of objects", field=key)
    if not set(map(type, entries)) <= {dict}:
        index = next(i for i, e in enumerate(entries)
                     if not isinstance(e, dict))
        raise FormatError(f"{key} must be a list of objects",
                          field=key, index=index)
    return entries


def _column(entries, name, kind, id_key) -> list:
    """Field ``name`` of every entry, checked to be of type ``kind``; a
    violation is a FormatError naming the entry's id_key and the field."""
    col = [e.get(name) for e in entries]
    if not set(map(type, col)) <= {kind}:
        i = next(i for i, x in enumerate(col) if type(x) is not kind)
        raise FormatError(f"{name} must be {_TYPE_NAMES[kind]}",
                          **{id_key: entries[i].get(id_key)}, field=name)
    return col


def _is_pair(p) -> bool:
    return type(p) is list and len(p) == 2 and \
        type(p[0]) in _NUMBER and type(p[1]) in _NUMBER


def _check_pairs(ids, pairs, key, optional=False):
    """Every one of ``pairs`` must be a list of two numbers (or None,
    when optional); the first that is not is a FormatError naming its
    annotation and the field."""
    present = [p for p in pairs if p is not None] if optional else pairs
    if set(map(type, present)) <= {list} and \
            set(map(len, present)) <= {2} and \
            set(map(type, chain.from_iterable(present))) <= _NUMBER:
        return
    i = next(i for i, p in enumerate(pairs)
             if not (optional and p is None or _is_pair(p)))
    raise FormatError(f"{key} must be a list of two numbers",
                      annotation_id=ids[i], field=key)


def _members(values, allowed) -> np.ndarray:
    """Whether each value is one of ``allowed`` (unhashable ones are not)."""
    try:
        if set(values) <= set(allowed):
            return np.ones(len(values), dtype=bool)
    except TypeError:
        pass
    return np.array([v in allowed for v in values], dtype=bool)


def _duration(v: dict) -> float:
    """A video's duration_seconds: a finite number (an int or a float)."""
    d = v.get("duration_seconds")
    if type(d) not in _NUMBER:
        raise FormatError("duration_seconds must be a number",
                          video_id=v["video_id"], field="duration_seconds")
    try:
        d = float(d)
    except OverflowError:  # an integer past the float range
        d = math.inf
    if not math.isfinite(d):
        raise RangeError("video duration must be finite",
                         video_id=v["video_id"], duration=d)
    return d


def _read_annotations(entries, videos, duration, frames) -> AnnotationTable:
    """The annotation table of a manifest's annotation objects, given the
    videos and their duration and frame-count columns.

    Each column is checked in turn.  Boundary frames are derived for all
    rows at once with :func:`derive_boundary_frames`' arithmetic; an
    annotation that fails its checks gets the error that
    :func:`derive_boundary_frames` and the record's own checks raise for
    it, so the first faulty annotation is reported as a lone one is.
    """
    ids, video_id, query_text, query_ref = (
        _column(entries, name, kind, "annotation_id")
        for name, kind in _ANNOTATION_FIELDS)
    pairs = [e.get("boundary_seconds") for e in entries]
    _check_pairs(ids, pairs, "boundary_seconds")
    gt = [e.get("gt_boundary_seconds") for e in entries]
    _check_pairs(ids, gt, "gt_boundary_seconds", optional=True)
    start_s = [p[0] for p in pairs]
    end_s = [p[1] for p in pairs]
    status = [e.get("status", "raw") for e in entries]
    error_tag = [e.get("error_tag") for e in entries]

    index = {v.video_id: r for r, v in enumerate(videos)}
    video = np.array([index.get(v, -1) for v in video_id], dtype=np.int64)
    d = np.append(duration, 1.0)[video]  # an absent video reads row -1
    T = np.append(frames, 1)[video]
    try:
        s = np.array(start_s, dtype=np.float64)
        e = np.array(end_s, dtype=np.float64)
    except OverflowError:  # an integer past the float range is a fault
        suspect = range(len(ids))
    else:
        ordered = (0 <= s) & (s < e)
        bad_frames = (video >= 0) & ordered & (
            (d <= 0) | (s > d) | (e > d) | (T < 1))
        suspect = np.flatnonzero(
            ~ordered | bad_frames | ~_members(status, STATUSES)
            | ~_members(error_tag, ERROR_TAGS + (None,))).tolist()
    for i in suspect:
        pair = (start_s[i], end_s[i])
        if video[i] >= 0 and 0 <= pair[0] < pair[1]:
            v = videos[video[i]]
            derive_boundary_frames(*pair, v.duration_seconds, v.num_frames)
        _check_annotation(ids[i], pair, status[i], error_tag[i])
    absent = np.flatnonzero(video < 0)
    if absent.size:
        # validation reports duplicate ids and empty videos first
        _check_ids(ids, videos)
        i = absent[0]
        raise ReferentialError("annotation references absent video",
                               annotation_id=ids[i], video_id=video_id[i])

    # derive_boundary_frames, elementwise: every seconds value lies in
    # [0, duration], so the floors lie in [0, T]
    start_f = np.floor(s / d * T).astype(np.int64)
    end_f = np.floor(e / d * T).astype(np.int64)
    np.minimum(start_f, T - 1, out=start_f)
    np.maximum(end_f, start_f + 1, out=end_f)
    return AnnotationTable(
        ids=ids, video_id=video_id, video=video, query_text=query_text,
        query_ref=query_ref, start_s=start_s, end_s=end_s, start_f=start_f,
        end_f=end_f, timeline=T, status=status, error_tag=error_tag, gt=gt)


def _check_path(path: str, **context):
    """A path the file system can take.  JSON can escape a NUL byte and a
    lone surrogate, and neither can be part of a file name."""
    try:
        ok = b"\0" not in os.fsencode(path)
    except UnicodeEncodeError:
        ok = False
    if not ok:
        raise FormatError("path cannot name a file", **context)


def read_manifest(path) -> CorpusManifest:
    """Parse and validate a manifest JSON file.

    Field types are checked first: ids, texts and paths are strings,
    frame counts and query references integers, durations finite numbers.
    All referential invariants are checked on read; per-annotation frame
    boundaries are derived here using the owning video's frame count.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # invalid JSON or UTF-8
            raise FormatError("manifest is not valid JSON",
                              path=str(path), detail=str(exc))
    if not isinstance(doc, dict):
        raise FormatError("manifest must be a JSON object", path=str(path))
    if doc.get("format_version") != FORMAT_VERSION:
        raise VersionError("unknown manifest format_version",
                           version=doc.get("format_version"))
    if not isinstance(doc.get("queries_file_path"), str):
        raise FormatError("queries_file_path must be a string",
                          field="queries_file_path")
    _check_path(doc["queries_file_path"], field="queries_file_path")
    entries = _entries(doc, "videos")
    ids, frames, paths = (_column(entries, name, kind, "video_id")
                          for name, kind in _VIDEO_FIELDS)
    for video_id, p in zip(ids, paths):
        _check_path(p, video_id=video_id, field="feature_file_path")
    videos = tuple(map(VideoEntry, ids, [_duration(v) for v in entries],
                       frames, paths))
    duration, frame_counts = _video_columns(videos)
    manifest = CorpusManifest(
        format_version=FORMAT_VERSION,
        videos=videos,
        queries_file_path=doc["queries_file_path"],
        annotations=_read_annotations(_entries(doc, "annotations"), videos,
                                      duration, frame_counts),
        synth=doc.get("synth"),
        provenance=doc.get("provenance"),
        base_dir=os.path.dirname(os.path.abspath(path)),
    )
    num_queries, _ = read_feature_header(
        manifest.resolve(manifest.queries_file_path))
    _validate_manifest(manifest, duration, num_queries)
    return manifest


def manifest_to_json_obj(manifest: CorpusManifest) -> dict:
    """The manifest as a JSON document, built from its records:
    ``json.dumps(obj, indent=2) + "\\n"`` is the text that
    :func:`write_manifest` formats from the columns."""
    doc = {"format_version": manifest.format_version}
    if manifest.provenance is not None:
        doc["provenance"] = manifest.provenance
    if manifest.synth is not None:
        doc["synth"] = manifest.synth
    doc["videos"] = [
        {
            "video_id": v.video_id,
            "duration_seconds": v.duration_seconds,
            "num_frames": v.num_frames,
            "feature_file_path": v.feature_file_path,
        }
        for v in manifest.videos
    ]
    doc["queries_file_path"] = manifest.queries_file_path
    anns = []
    for a in manifest.annotations:
        rec = {
            "annotation_id": a.annotation_id,
            "video_id": a.video_id,
            "query_text": a.query_text,
            "query_feature_ref": a.query_feature_ref,
            "boundary_seconds": list(a.boundary_seconds),
            "status": a.status,
        }
        if a.gt_boundary_seconds is not None:
            rec["gt_boundary_seconds"] = list(a.gt_boundary_seconds)
        if a.error_tag is not None:
            rec["error_tag"] = a.error_tag
        anns.append(rec)
    doc["annotations"] = anns
    return doc


def _json_number(x) -> str:
    """An int or float as ``json.dumps`` writes it."""
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)
    return int.__repr__(x)


def json_text(doc: dict, lists: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` for a dict ``doc`` whose
    members named in ``lists`` are lists of objects, given there as the
    texts that :func:`json_objects` formats for them."""
    members = []
    for key, value in doc.items():
        if key in lists:
            members.append(f"  {encode_basestring_ascii(key)}: {lists[key]}")
        else:
            members.append(json.dumps({key: value}, indent=2)[2:-2])
    return "{\n" + ",\n".join(members) + "\n}\n"


def json_objects(members: dict) -> str:
    """The text of a list of objects that :func:`json_text` writes as a
    member of the top-level object, as ``json.dumps(indent=2)`` lays it
    out.

    ``members`` maps each member name, in order, to a list of the texts
    of its values, one per object: a scalar as JSON writes it, or a
    :func:`json_pair`.  A value of None leaves the member out of that
    object; the first member is in every object.  The pieces are
    interleaved into one list and joined once.
    """
    rows = len(next(iter(members.values()), ()))
    if not rows:
        return "[]"
    stride = 2 * len(members) + 2
    parts = [",\n    {"] * (rows * stride)
    parts[0] = "[\n    {"
    for j, (key, values) in enumerate(members.items()):
        head = f"{',' if j else ''}\n      {encode_basestring_ascii(key)}: "
        if None in values:
            parts[2 * j + 1::stride] = ["" if v is None else head
                                        for v in values]
            parts[2 * j + 2::stride] = ["" if v is None else v
                                        for v in values]
        else:
            parts[2 * j + 1::stride] = [head] * rows
            parts[2 * j + 2::stride] = values
    parts[stride - 1::stride] = ["\n    }"] * rows
    return "".join(parts) + "\n  ]"


def json_pair(first: str, second: str) -> str:
    """The text of a two-element list that is a member value in
    :func:`json_objects`, from the texts of its elements."""
    return f"[\n        {first},\n        {second}\n      ]"


def _manifest_text(manifest: CorpusManifest) -> str:
    """``json.dumps(manifest_to_json_obj(manifest), indent=2) + "\\n"``,
    formatted from the annotation columns.  Boundary seconds are finite
    (the reader checks ``0 <= start < end <= duration``, and new ones come
    from frames), so ``repr`` writes them as JSON does."""
    enc = encode_basestring_ascii
    doc = {"format_version": manifest.format_version}
    if manifest.provenance is not None:
        doc["provenance"] = manifest.provenance
    if manifest.synth is not None:
        doc["synth"] = manifest.synth
    doc["videos"] = None
    doc["queries_file_path"] = manifest.queries_file_path
    doc["annotations"] = None
    v = manifest.videos
    videos = json_objects({
        "video_id": [enc(x.video_id) for x in v],
        "duration_seconds": [_json_number(x.duration_seconds) for x in v],
        "num_frames": [_json_number(x.num_frames) for x in v],
        "feature_file_path": [enc(x.feature_file_path) for x in v]})
    t = manifest.annotations
    status = {s: enc(s) for s in STATUSES}
    tags = {tag: enc(tag) for tag in ERROR_TAGS}
    tags[None] = None
    annotations = json_objects({
        "annotation_id": list(map(enc, t.ids)),
        "video_id": list(map(enc, t.video_id)),
        "query_text": list(map(enc, t.query_text)),
        "query_feature_ref": list(map(repr, t.query_ref)),
        "boundary_seconds": list(map(json_pair, map(repr, t.start_s),
                                     map(repr, t.end_s))),
        "status": [status[st] for st in t.status],
        "gt_boundary_seconds": [
            None if g is None else
            json_pair(_json_number(g[0]), _json_number(g[1])) for g in t.gt],
        "error_tag": [tags[tag] for tag in t.error_tag]})
    return json_text(doc, {"videos": videos, "annotations": annotations})


def rebase_manifest(manifest: CorpusManifest, new_dir: str) -> CorpusManifest:
    """Rewrite relative feature paths so they resolve from ``new_dir``."""
    new_dir = os.path.abspath(new_dir)

    def rebased(path):
        return os.path.relpath(manifest.resolve(path), new_dir)

    videos = tuple(
        replace(v, feature_file_path=rebased(v.feature_file_path))
        for v in manifest.videos
    )
    return replace(manifest, videos=videos,
                   queries_file_path=rebased(manifest.queries_file_path),
                   base_dir=new_dir)


@contextmanager
def atomic_write(path):
    """Text file handle whose content replaces ``path`` only on success.

    Writes go to a temporary file in the same directory, which
    ``os.replace`` moves over ``path`` once the block ends normally; if
    the block raises, the temporary file is removed and ``path`` keeps
    its earlier content.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_manifest(manifest: CorpusManifest, path) -> None:
    """Serialize a manifest with a stable field order (byte-deterministic).

    Relative feature paths are rewritten so they still resolve from the
    manifest's new location.  The text is formatted from the annotation
    columns and equals ``json.dumps(manifest_to_json_obj(manifest),
    indent=2) + "\\n"``.
    """
    _validate_manifest(manifest, manifest._video_columns[0], None)
    out_dir = os.path.dirname(os.path.abspath(path))
    if out_dir != os.path.abspath(manifest.base_dir):
        manifest = rebase_manifest(manifest, out_dir)
    text = _manifest_text(manifest)
    with atomic_write(path) as fh:
        fh.write(text)

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
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
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


@dataclass(frozen=True)
class PseudoAnnotation:
    """One (query, temporal boundary) training record.

    ``boundary_frames`` is derived from ``boundary_seconds`` at load time
    and is authoritative inside the pipeline.  Serialization writes
    ``boundary_seconds`` as stored, so a boundary changes only through
    :func:`with_updated_boundary`, which sets the two together.
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
        if self.status not in STATUSES:
            raise ContractViolation("unknown status", status=self.status)
        if self.error_tag is not None and self.error_tag not in ERROR_TAGS:
            raise ContractViolation("unknown error tag", tag=self.error_tag)
        s, e = self.boundary_seconds
        if not (0 <= s < e):
            raise RangeError(
                "boundary seconds must satisfy 0 <= start < end",
                annotation_id=self.annotation_id, start_s=s, end_s=e,
            )


@dataclass(frozen=True)
class CorpusManifest:
    format_version: int
    videos: tuple
    queries_file_path: str
    annotations: tuple
    synth: Optional[dict] = None
    provenance: Optional[dict] = None
    base_dir: str = "."

    def video_by_id(self, video_id: str) -> VideoEntry:
        return self._video_index()[video_id]

    def _video_index(self):
        if not hasattr(self, "_vidx"):
            object.__setattr__(self, "_vidx", {v.video_id: v for v in self.videos})
        return self._vidx

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


def _validate_manifest(manifest: CorpusManifest, num_queries: Optional[int]):
    ids = set()
    for a in manifest.annotations:
        if a.annotation_id in ids:
            raise ReferentialError("duplicate annotation_id",
                                   annotation_id=a.annotation_id)
        ids.add(a.annotation_id)
    seen = set()
    for v in manifest.videos:
        if v.video_id in seen:
            raise ReferentialError("duplicate video_id", video_id=v.video_id)
        seen.add(v.video_id)
        if v.duration_seconds <= 0 or v.num_frames < 1:
            raise RangeError("video must have positive duration and frames",
                             video_id=v.video_id)
    for a in manifest.annotations:
        if a.video_id not in seen:
            raise ReferentialError("annotation references absent video",
                                   annotation_id=a.annotation_id,
                                   video_id=a.video_id)
        video = manifest.video_by_id(a.video_id)
        s, e = a.boundary_seconds
        if e > video.duration_seconds + 1e-9:
            raise RangeError("boundary exceeds video duration",
                             annotation_id=a.annotation_id,
                             end_s=e, duration=video.duration_seconds)
        if num_queries is not None and not (0 <= a.query_feature_ref < num_queries):
            raise ReferentialError("query_feature_ref out of range",
                                   annotation_id=a.annotation_id,
                                   ref=a.query_feature_ref,
                                   num_queries=num_queries)


def _boundary_pair(a: dict, key: str) -> tuple:
    """An annotation's [start, end] seconds field as a tuple of two numbers."""
    pair = a.get(key)
    if not (isinstance(pair, list) and len(pair) == 2 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            for x in pair)):
        raise FormatError(f"{key} must be a list of two numbers",
                          annotation_id=a.get("annotation_id"), field=key)
    return tuple(pair)


# Typed fields of each video and annotation object.  An int field also
# rejects bool, which JSON true/false parse to and which subclasses int.
_VIDEO_FIELDS = (("video_id", str), ("num_frames", int),
                 ("feature_file_path", str))
_ANNOTATION_FIELDS = (("annotation_id", str), ("video_id", str),
                      ("query_text", str), ("query_feature_ref", int))
_TYPE_NAMES = {str: "a string", int: "an integer"}


def _objects(doc: dict, key: str, fields, id_key: str) -> list:
    """doc[key] (default []), checked to be a list of objects whose
    fields have their types; a violation is a FormatError naming the
    object's id_key and the field."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise FormatError(f"{key} must be a list of objects", field=key)
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise FormatError(f"{key} must be a list of objects",
                              field=key, index=index)
        for name, kind in fields:
            value = entry.get(name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise FormatError(f"{name} must be {_TYPE_NAMES[kind]}",
                                  **{id_key: entry.get(id_key)}, field=name)
    return entries


def _duration(v: dict) -> float:
    """A video's duration_seconds: a finite number (an int or a float)."""
    d = v.get("duration_seconds")
    if not isinstance(d, (int, float)) or isinstance(d, bool):
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
    base_dir = os.path.dirname(os.path.abspath(path))
    videos = tuple(
        VideoEntry(
            video_id=v["video_id"],
            duration_seconds=_duration(v),
            num_frames=v["num_frames"],
            feature_file_path=v["feature_file_path"],
        )
        for v in _objects(doc, "videos", _VIDEO_FIELDS, "video_id")
    )
    vid_index = {v.video_id: v for v in videos}
    annotations = []
    for a in _objects(doc, "annotations", _ANNOTATION_FIELDS, "annotation_id"):
        s, e = seconds = _boundary_pair(a, "boundary_seconds")
        gt = (_boundary_pair(a, "gt_boundary_seconds")
              if a.get("gt_boundary_seconds") is not None else None)
        video = vid_index.get(a["video_id"])
        frames = None
        # a pair that is not 0 <= s < e is PseudoAnnotation's to reject
        if video is not None and 0 <= s < e:
            frames = derive_boundary_frames(s, e, video.duration_seconds,
                                            video.num_frames)
        annotations.append(PseudoAnnotation(
            annotation_id=a["annotation_id"],
            video_id=a["video_id"],
            query_text=a["query_text"],
            query_feature_ref=a["query_feature_ref"],
            boundary_seconds=seconds,
            status=a.get("status", "raw"),
            gt_boundary_seconds=gt,
            error_tag=a.get("error_tag"),
            boundary_frames=frames,
        ))
    manifest = CorpusManifest(
        format_version=FORMAT_VERSION,
        videos=videos,
        queries_file_path=doc["queries_file_path"],
        annotations=tuple(annotations),
        synth=doc.get("synth"),
        provenance=doc.get("provenance"),
        base_dir=base_dir,
    )
    num_queries, _ = read_feature_header(
        manifest.resolve(manifest.queries_file_path))
    _validate_manifest(manifest, num_queries)
    return manifest


def manifest_to_json_obj(manifest: CorpusManifest) -> dict:
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
    manifest's new location.
    """
    _validate_manifest(manifest, None)
    out_dir = os.path.dirname(os.path.abspath(path))
    if out_dir != os.path.abspath(manifest.base_dir):
        manifest = rebase_manifest(manifest, out_dir)
    text = json.dumps(manifest_to_json_obj(manifest), indent=2) + "\n"
    with atomic_write(path) as fh:
        fh.write(text)


def with_updated_boundary(ann: PseudoAnnotation, frames: Boundary,
                          video: VideoEntry, status: str) -> PseudoAnnotation:
    """Return a copy of the annotation with new frame boundary and status."""
    secs = (
        frames_to_seconds(frames.start, video.duration_seconds, video.num_frames),
        frames_to_seconds(frames.end, video.duration_seconds, video.num_frames),
    )
    return replace(ann, boundary_frames=frames, boundary_seconds=secs,
                   status=status)

"""Shared test configuration.

Wall-clock deadlines make property tests flaky on loaded machines, so
they are disabled globally; the acceptance suite asserts its own
explicit runtime bounds where timing matters.
"""

from hypothesis import settings

settings.register_profile("morp", deadline=None)
settings.load_profile("morp")


def annotation_table(videos, annotations):
    """The AnnotationTable of ``annotations`` over ``videos``.

    Each annotation is a dict with the fields of a manifest's annotation
    object (``query_text`` defaults to "q", ``query_feature_ref`` to 0
    and ``status`` to "raw"), plus an optional ``boundary_frames``
    (start, end) pair; without one, the frames are derived from the
    seconds with derive_boundary_frames, as read_manifest derives them.
    """
    from morp.featstore import AnnotationTable, derive_boundary_frames

    index = {v.video_id: r for r, v in enumerate(videos)}
    rows = []
    for a in annotations:
        row = index[a["video_id"]]
        video = videos[row]
        s, e = a["boundary_seconds"]
        frames = a.get("boundary_frames") or derive_boundary_frames(
            s, e, video.duration_seconds, video.num_frames).as_tuple()
        rows.append((a["annotation_id"], a["video_id"], row,
                     a.get("query_text", "q"), a.get("query_feature_ref", 0),
                     s, e, *frames, video.num_frames, a.get("status", "raw"),
                     a.get("error_tag"), a.get("gt_boundary_seconds")))
    return AnnotationTable.from_rows(rows)


def corpus_tracks(tracks):
    """A CorpusTracks over ``tracks``, a list of SimilarityTracks: track
    i is manifest row i, with annotation id ``str(i)``, and each
    timeline length's blocks hold its tracks in list order."""
    import numpy as np

    from morp.refine import CorpusTracks

    by_len = {}
    for i, t in enumerate(tracks):
        by_len.setdefault(t.num_frames, []).append(i)
    frames = np.array([t.num_frames for t in tracks], dtype=np.int64)
    row = np.zeros(len(tracks), dtype=np.int64)
    base = np.zeros(len(tracks), dtype=np.int64)
    prefix = np.empty(sum(T + 1 for T in frames.tolist()))
    mapped, blocks, offset = {}, {}, 0
    for T, members in by_len.items():
        mapped[T] = np.stack([tracks[i].mapped for i in members])
        blocks[T] = prefix[offset:offset + len(members) * (T + 1)].reshape(
            len(members), T + 1)
        blocks[T][:] = [tracks[i].prefix for i in members]
        row[members] = np.arange(len(members))
        base[members] = offset + row[members] * (T + 1)
        offset += len(members) * (T + 1)
    return CorpusTracks([str(i) for i in range(len(tracks))], mapped, prefix,
                        blocks, frames, row, base)


def track_of(tracks, annotation_id):
    """The SimilarityTrack of an annotation id in a CorpusTracks: views
    of its mapped values and prefix sums."""
    from morp.refine import SimilarityTrack

    i = tracks.positions([annotation_id])[0]
    T, b = int(tracks.frames[i]), tracks.base[i]
    return SimilarityTrack(mapped=tracks.mapped[T][tracks.row[i]],
                           prefix=tracks.prefix[b:b + T + 1])

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

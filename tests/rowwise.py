"""A per-row event ingester: the reference for the program's columnar ingest.

It reads an events file one line at a time, checks each event with plain
per-field tests in the documented order, and sorts and de-duplicates each
student's list in Python, so the ingest tests can compare the program's
event table against it event by event and error by error. events_of
decodes a Dataset's table into the same per-student lists, and coded
codes event rows for a Dataset.
"""

import csv
import json
from collections import namedtuple

from hierfed.data.records import EVENT_KINDS, EVENTS_HEADER, FORUM_ACTIONS, EventCoder
from hierfed.errors import DataError

Event = namedtuple("Event", EVENTS_HEADER)


def coded(rows) -> EventCoder:
    """An EventCoder holding rows (sequences in EVENTS_HEADER order)."""
    coder = EventCoder()
    coder.add(rows)
    return coder


def events_of(dataset) -> dict:
    """{student id: [Event]} decoded from a Dataset's event table."""
    t = dataset.events

    def text(values, codes):
        return [None if c < 0 else values[c] for c in codes.tolist()]

    out = {sid: [] for sid in dataset.student_ids}
    for row in zip(text(dataset.student_ids, t.student),
                   text(dataset.course_ids, t.course), text(EVENT_KINDS, t.kind),
                   text(t.video_ids, t.video),
                   [None if r < 0 else r for r in t.response.tolist()],
                   text(FORUM_ACTIONS, t.action), t.timestamp.tolist()):
        out[row[0]].append(Event(*row))
    return out


def _opt(value):
    if value is None:
        return None
    value = str(value).strip()
    return value or None


def _opt_int(value, what):
    value = _opt(value)
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _lines(path):
    """(line number, field dict) of every non-blank line."""
    if path.suffix == ".jsonl":
        with open(path, encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, start=1):
                if raw.strip():
                    row = json.loads(raw)
                    yield ln, {k: row.get(k) for k in EVENTS_HEADER}
        return
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert next(reader) == EVENTS_HEADER
        for ln, row in enumerate(reader, start=2):
            if row and len(row) != len(EVENTS_HEADER):
                raise DataError(f"{path}:{ln}: expected {len(EVENTS_HEADER)} "
                                f"fields, got {len(row)}")
            if row:
                yield ln, dict(zip(EVENTS_HEADER, row))


def _event(fields, students) -> Event:
    response = _opt_int(fields["response"], "response")
    ts = _opt_int(fields["timestamp"], "timestamp")
    if ts is None:
        raise ValueError("timestamp is required")
    kind = str(fields["kind"]).strip()
    video, action = _opt(fields["video_id"]), _opt(fields["forum_action"])
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown event kind {kind!r}")
    if ts < 0:
        raise ValueError("timestamp must be nonnegative")
    if kind == "video":
        ok = video is not None and response is None and action is None
    elif kind == "quiz_response":
        ok = video is not None and response in (0, 1) and action is None
    else:
        ok = video is None and response is None and action in FORUM_ACTIONS
    if not ok:
        raise ValueError(f"fields inconsistent with kind {kind!r}")
    sid = str(fields["student_id"]).strip()
    course = str(fields["course_id"]).strip()
    if sid not in students:
        raise ValueError(f"unknown student {sid!r}")
    if course != students[sid].course_id:
        raise ValueError(f"event course {course!r} does not match roster "
                         f"course {students[sid].course_id!r}")
    return Event(sid, course, kind, video, response, action, ts)


def reference_events(events_path, students: dict):
    """({student id: [Event]}, dropped repeats) of a well-formed events file,
    or DataError naming the file and line of the first invalid event."""
    out = {sid: [] for sid in sorted(students)}
    for ln, fields in _lines(events_path):
        try:
            ev = _event(fields, students)
        except ValueError as exc:
            raise DataError(f"{events_path}:{ln}: {exc}") from None
        out[ev.student_id].append(ev)
    dropped = 0
    for sid, events in out.items():
        events.sort(key=lambda e: e.timestamp)  # stable
        answered, kept = set(), []
        for ev in events:
            if ev.kind == "quiz_response":
                if ev.video_id in answered:
                    dropped += 1
                    continue
                answered.add(ev.video_id)
            kept.append(ev)
        out[sid] = kept
    return out, dropped

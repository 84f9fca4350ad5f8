"""The student roster and the sorted columnar event table of one dataset."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

EVENTS_HEADER = ["student_id", "course_id", "kind", "video_id", "response",
                 "forum_action", "timestamp"]
EVENT_KINDS = ("video", "quiz_response", "forum")
FORUM_ACTIONS = ("forum_post", "forum_reply", "forum_view")
VIDEO, QUIZ, _ = range(len(EVENT_KINDS))  # the third kind, forum, is the rest
GENDERS = ("M", "F")
CONTINENTS = ("AS", "AF", "EU", "NA", "SA")
_INT64_MAX = np.iinfo(np.int64).max


def _opt(value):
    if value is None:
        return None
    value = str(value).strip()
    return value or None


def _opt_int(value, what: str):
    value = _opt(value)
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class StudentRecord:
    """Roster row; demographic fields are independently optional."""
    student_id: str
    course_id: str
    gender: str | None = None
    continent: str | None = None
    birth_year: int | None = None
    outcome: int = 0

    def __post_init__(self):
        for name in ("student_id", "course_id"):
            if not getattr(self, name):
                raise ValueError(f"{name} is required")
        if "|" in self.course_id:
            raise ValueError(f"course id {self.course_id!r} must not contain "
                             "'|', which separates group label fields")
        if self.gender is not None and self.gender not in GENDERS:
            raise ValueError(f"gender must be one of {GENDERS}, got {self.gender!r}")
        if self.continent is not None and self.continent not in CONTINENTS:
            raise ValueError(
                f"continent must be one of {CONTINENTS}, got {self.continent!r}")
        if self.outcome not in (0, 1):
            raise ValueError(f"outcome must be 0/1, got {self.outcome!r}")


class EventError(ValueError):
    """An invalid event; row is its index in the columns given to Dataset."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True, eq=False)
class EventTable:
    """Every event of a dataset as integer columns, one row per event.

    Rows are sorted by (student, timestamp), input order breaking ties, so
    student i's events are rows offsets[i]:offsets[i + 1]. student indexes
    the dataset's sorted student_ids, course its course_ids, kind
    EVENT_KINDS, video the sorted video_ids and action FORUM_ACTIONS.
    video is -1 on forum rows; response (0/1) is set exactly on quiz rows
    and action exactly on forum rows, -1 elsewhere.
    """
    video_ids: tuple
    offsets: np.ndarray
    student: np.ndarray
    course: np.ndarray
    kind: np.ndarray
    video: np.ndarray
    response: np.ndarray
    action: np.ndarray
    timestamp: np.ndarray

    def __len__(self) -> int:
        return self.student.size


def extend_columns(rows, columns=None) -> list:
    """Append rows to columns, one list per field, and return the columns;
    when columns is None, start the seven event columns (EVENTS_HEADER)."""
    if columns is None:
        columns = [[] for _ in EVENTS_HEADER]
    for column, values in zip(columns, zip(*rows)):
        column.extend(values)
    return columns


def _coded(column, code_of):
    """int64 array of code_of(value) per row; runs once per distinct value."""
    index = dict.fromkeys(column)
    for raw in index:
        index[raw] = code_of(raw)
    return np.fromiter(map(index.__getitem__, column), np.int64, len(column))


def _text(value) -> str:
    return str(value).strip()


def _index_or(values, value, missing: int) -> int:
    return values.index(value) if value in values else missing


def _response_code(value) -> int:
    """0/1; -1 absent, 2 another integer, -2 not an integer."""
    try:
        r = _opt_int(value, "response")
    except ValueError:
        return -2
    return -1 if r is None else r if r in (0, 1) else 2


def _timestamp_code(value) -> int:
    """The timestamp; -1 negative, -2 not an integer, -3 absent, -4 beyond
    int64."""
    try:
        t = _opt_int(value, "timestamp")
    except ValueError:
        return -2
    if t is None:
        return -3
    return -1 if t < 0 else -4 if t > _INT64_MAX else t


def _parse_error(value, what: str) -> str:
    try:
        _opt_int(value, what)
    except ValueError as exc:
        return str(exc)


def _first_failure(n: int, checks):
    """Row and message of the first failing row's first failing check.

    checks: (per-row failure mask, row -> message) pairs in check order.
    """
    failed = np.zeros(n, dtype=bool)
    for mask, _ in checks:
        failed |= mask
    if not failed.any():
        return None
    row = int(np.argmax(failed))
    message = next(describe(row) for mask, describe in checks if mask[row])
    return row, message


class Dataset:
    """One dataset: the student roster and its event table.

    students maps id -> StudentRecord. columns holds the events as seven
    equal-length sequences in EVENTS_HEADER order (extend_columns builds
    them from event rows); values are strings, integers or None, text is
    stripped and an empty field is absent. Every event is checked against
    its kind and the roster, the first invalid row raising EventError;
    repeated quiz responses to one video keep the student's first (the
    count is logged).
    """

    def __init__(self, students: dict, columns=()):
        self.students = dict(students)
        self.student_ids = tuple(sorted(self.students))
        self.course_ids = tuple(sorted({s.course_id for s in self.students.values()}))
        self._student_index = {sid: i for i, sid in enumerate(self.student_ids)}
        self.events = self._event_table(columns or extend_columns([]))

    def students_by_course(self) -> dict:
        out = {c: [] for c in self.course_ids}
        for sid in self.student_ids:
            out[self.students[sid].course_id].append(sid)
        return out

    def event_mask(self, student_ids) -> np.ndarray:
        """Per event row: is its student one of student_ids?"""
        chosen = np.zeros(len(self.student_ids), dtype=bool)
        index = self._student_index
        chosen[[index[sid] for sid in student_ids if sid in index]] = True
        return chosen[self.events.student]

    def _event_table(self, columns) -> EventTable:
        if len(columns) != len(EVENTS_HEADER):
            raise ValueError(f"expected {len(EVENTS_HEADER)} event columns, "
                             f"got {len(columns)}")
        n = len(columns[0])
        if any(len(col) != n for col in columns):
            raise ValueError("event columns differ in length")
        sid_col, course_col, kind_col, video_col, resp_col, action_col, ts_col = columns
        video_ids = tuple(sorted({v for v in map(_opt, dict.fromkeys(video_col))
                                  if v is not None}))
        video_index = {v: j for j, v in enumerate(video_ids)}
        course_index = {c: j for j, c in enumerate(self.course_ids)}
        # one array per column, -1 where the field is absent; other negative
        # codes (and response 2) mark values that fail a check
        t = {
            "student": _coded(sid_col, lambda v: self._student_index.get(_text(v), -1)),
            "course": _coded(course_col, lambda v: course_index.get(_text(v), -1)),
            "kind": _coded(kind_col, lambda v: _index_or(EVENT_KINDS, _text(v), -1)),
            "video": _coded(video_col, lambda v: video_index.get(_opt(v), -1)),
            "response": _coded(resp_col, _response_code),
            "action": _coded(action_col, lambda v: -1 if _opt(v) is None
                             else _index_or(FORUM_ACTIONS, _opt(v), -2)),
            "timestamp": _coded(ts_col, _timestamp_code),
        }
        failure = self._first_invalid(t, columns)
        if failure is not None:
            raise EventError(*failure)

        order = np.argsort(t["timestamp"], kind="stable")
        order = order[np.argsort(t["student"][order], kind="stable")]
        quiz = order[t["kind"][order] == QUIZ]
        _, first = np.unique(t["student"][quiz] * len(video_ids) + t["video"][quiz],
                             return_index=True)
        if first.size < quiz.size:
            logger.warning("dropped %d repeated quiz responses (first kept)",
                           quiz.size - first.size)
            keep = np.ones(n, dtype=bool)
            keep[quiz] = False
            keep[quiz[first]] = True
            order = order[keep[order]]
        for name in t:  # one column at a time, so each pre-sort copy is freed
            t[name] = t[name][order]
        counts = np.bincount(t["student"], minlength=len(self.student_ids))
        return EventTable(video_ids=video_ids,
                          offsets=np.concatenate(([0], np.cumsum(counts))), **t)

    def _first_invalid(self, t: dict, columns):
        """(row, message) of the first invalid event, or None."""
        sid_col, course_col, kind_col, _, resp_col, _, ts_col = columns
        student, kind, video = t["student"], t["kind"], t["video"]
        response, action, ts = t["response"], t["action"], t["timestamp"]
        # an unknown student (-1) picks the trailing -1
        roster_course = np.array([self.course_ids.index(self.students[s].course_id)
                                  for s in self.student_ids] + [-1])[student]
        has_video = video >= 0
        consistent = np.where(
            kind == VIDEO, has_video & (response == -1) & (action == -1),
            np.where(kind == QUIZ,
                     has_video & (response >= 0) & (response <= 1) & (action == -1),
                     ~has_video & (response == -1) & (action >= 0)))
        return _first_failure(student.size, [
            (response == -2, lambda i: _parse_error(resp_col[i], "response")),
            (ts == -2, lambda i: _parse_error(ts_col[i], "timestamp")),
            (ts == -3, lambda i: "timestamp is required"),
            (kind == -1, lambda i: f"unknown event kind {_text(kind_col[i])!r}"),
            (ts == -1, lambda i: "timestamp must be nonnegative"),
            (~consistent,
             lambda i: f"fields inconsistent with kind {_text(kind_col[i])!r}"),
            (student == -1, lambda i: f"unknown student {_text(sid_col[i])!r}"),
            (t["course"] != roster_course,
             lambda i: (f"event course {_text(course_col[i])!r} does not match "
                        f"roster course "
                        f"{self.students[_text(sid_col[i])].course_id!r}")),
            (ts == -4, lambda i: f"timestamp {_opt_int(ts_col[i], 'timestamp')} "
                                 "is out of range"),
        ])

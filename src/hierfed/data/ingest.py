"""CSV / JSON-Lines ingestion with per-line error reporting.

The events file is read into columns and handed to Dataset, which checks
and sorts them into one event table (see records.Dataset); an invalid
event is reported with its file and line.
"""

from __future__ import annotations

import csv
import json
import sys
from array import array
from pathlib import Path

from ..errors import DataError
from .records import (
    EVENT_KINDS,
    EVENTS_HEADER,
    FORUM_ACTIONS,
    Dataset,
    EventError,
    StudentRecord,
    _opt,
    _opt_int,
    extend_columns,
)

STUDENTS_HEADER = ["student_id", "course_id", "gender", "continent",
                   "birth_year", "outcome"]
_CHUNK_ROWS = 4096  # rows held as lists at once; the rest are columns


def _iter_rows(path: Path, header):
    """Yield (line number, fields in header order) from a CSV or JSON-Lines
    file. Fields are interned text (JSON values as their text), or None
    for a missing JSON field, so repeated values share one string."""
    if path.suffix == ".jsonl":
        with open(path, encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    row = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path}:{ln}: invalid JSON: {exc}") from None
                if not isinstance(row, dict):
                    raise DataError(f"{path}:{ln}: expected an object")
                unknown = set(row) - set(header)
                if unknown:
                    raise DataError(f"{path}:{ln}: unknown fields {sorted(unknown)}")
                yield ln, [None if row.get(k) is None else sys.intern(str(row[k]))
                           for k in header]
    else:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                first = next(reader)
            except StopIteration:
                raise DataError(f"{path}:1: empty file, expected header") from None
            if first != header:
                raise DataError(f"{path}:1: bad header {first!r}, expected {header!r}")
            for ln, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}:{ln}: expected {len(header)} fields, "
                                    f"got {len(row)}")
                yield ln, list(map(sys.intern, row))


def _read_columns(path: Path, header):
    """(columns, line numbers, error) of a file, read in chunks of rows.

    Reading stops at the first malformed line, whose DataError is returned,
    not raised, so that an invalid row before it can be reported first.
    """
    columns, lines, chunk, error = [[] for _ in header], array("q"), [], None
    try:
        for ln, row in _iter_rows(path, header):
            chunk.append(row)
            lines.append(ln)
            if len(chunk) == _CHUNK_ROWS:
                extend_columns(chunk, columns)
                chunk.clear()
    except DataError as exc:
        error = exc
    extend_columns(chunk, columns)
    return columns, lines, error


def _parse_student(row) -> StudentRecord:
    fields = dict(zip(STUDENTS_HEADER, row))
    outcome = _opt_int(fields.get("outcome"), "outcome")
    if outcome is None:
        raise ValueError("outcome is required")
    return StudentRecord(
        student_id=_opt(fields["student_id"]),
        course_id=_opt(fields["course_id"]),
        gender=_opt(fields.get("gender")),
        continent=_opt(fields.get("continent")),
        birth_year=_opt_int(fields.get("birth_year"), "birth_year"),
        outcome=outcome,
    )


def ingest(events_path, students_path) -> Dataset:
    """Load and validate the two files into a Dataset.

    Raises DataError with the file and line number on any malformed row or
    on an event whose student is missing from the roster.
    """
    events_path, students_path = Path(events_path), Path(students_path)
    students: dict[str, StudentRecord] = {}
    columns, lines, malformed = _read_columns(students_path, STUDENTS_HEADER)
    for ln, row in zip(lines, zip(*columns)):
        try:
            rec = _parse_student(row)
        except ValueError as exc:
            raise DataError(f"{students_path}:{ln}: {exc}") from None
        if rec.student_id in students:
            raise DataError(f"{students_path}:{ln}: duplicate student id "
                            f"{rec.student_id!r}")
        students[rec.student_id] = rec
    if malformed is not None:
        raise malformed

    columns, lines, malformed = _read_columns(events_path, EVENTS_HEADER)
    try:
        dataset = Dataset(students, columns)
    except EventError as exc:
        raise DataError(f"{events_path}:{lines[exc.row]}: {exc}") from None
    if malformed is not None:
        raise malformed
    return dataset


def export_dataset(dataset: Dataset, events_path, students_path):
    """Write a Dataset back out in the canonical CSV formats."""
    students_path = Path(students_path)
    events_path = Path(events_path)
    with open(students_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(STUDENTS_HEADER)
        for sid in sorted(dataset.students):
            s = dataset.students[sid]
            w.writerow([s.student_id, s.course_id, s.gender or "",
                        s.continent or "",
                        "" if s.birth_year is None else s.birth_year,
                        s.outcome])
    table = dataset.events
    fields = [(dataset.student_ids, table.student), (dataset.course_ids, table.course),
              (EVENT_KINDS, table.kind), (table.video_ids, table.video),
              ((0, 1), table.response), (FORUM_ACTIONS, table.action)]
    lookups = [list(values) + [""] for values, _ in fields]  # code -1: absent
    with open(events_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(EVENTS_HEADER)
        for start in range(0, len(table), _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            w.writerows(zip(*[map(lookup.__getitem__, codes[rows].tolist())
                              for lookup, (_, codes) in zip(lookups, fields)],
                            table.timestamp[rows].tolist()))

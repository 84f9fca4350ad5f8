"""CSV / JSON-Lines ingestion with per-line error reporting.

The events file is read a chunk of rows at a time and each chunk is coded
at once (records.EventCoder); Dataset checks and sorts the coded rows into
one event table, and an invalid event is reported with its file and line:
the physical line its record starts on, as a quoted CSV field may hold
line breaks.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import accumulate, chain, islice
from pathlib import Path

from ..errors import DataError
from .records import (
    EVENT_KINDS,
    EVENTS_HEADER,
    FORUM_ACTIONS,
    Dataset,
    EventCoder,
    EventError,
    StudentRecord,
    _opt,
    _opt_int,
)

STUDENTS_HEADER = ["student_id", "course_id", "gender", "continent",
                   "birth_year", "outcome"]
_CHUNK_ROWS = 4096  # rows held as lists at once; events are coded per chunk


def _undecodable(path: Path) -> DataError:
    """The error for a file that is not UTF-8, at its first such line."""
    with open(path, "rb") as fh:
        for ln, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return DataError(f"{path}:{ln}: not UTF-8 text ({exc.reason})")
    return DataError(f"{path}: not UTF-8 text")


def _json_row(raw: str, header) -> list:
    """One JSON line's fields in header order; ValueError if malformed."""
    try:
        row = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(row, dict):
        raise ValueError("expected an object")
    unknown = set(row) - set(header)
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)}")
    fields = [None if row.get(k) is None else str(row[k]) for k in header]
    try:  # an escaped lone surrogate ("\ud800") decodes but is not text
        "".join(f for f in fields if f is not None).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"not UTF-8 text ({exc.reason})") from None
    return fields


def _json_chunks(fh, path: Path, header):
    lines, rows = [], []
    for ln, raw in enumerate(fh, start=1):
        raw = raw.strip()
        if raw:
            try:
                rows.append(_json_row(raw, header))
            except ValueError as exc:
                yield lines, rows
                raise DataError(f"{path}:{ln}: {exc}") from None
            lines.append(ln)
        if len(rows) == _CHUNK_ROWS:
            yield lines, rows
            lines, rows = [], []
    yield lines, rows


def _extra_lines(row) -> int:
    """The line breaks inside a CSV record's quoted fields: the physical
    lines it spans past its first (universal newlines, as the file is
    read)."""
    return sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row)


def _csv_chunks(fh, path: Path, header):
    reader = csv.reader(fh)
    start, rows = 1, []  # the physical line rows[0] starts on, and rows
    try:
        first = next(reader, None)
        if first is None:
            raise DataError(f"{path}:1: empty file, expected header")
        if first != header:
            raise DataError(f"{path}:1: bad header {first!r}, expected {header!r}")
        start = 2
        while True:
            rows = []
            rows.extend(islice(reader, _CHUNK_ROWS))  # kept up to a csv.Error
            if not rows:
                return
            lines = range(start, reader.line_num + 1)
            start = lines.stop
            if len(lines) != len(rows):  # a quoted field holds a line break
                lines = list(accumulate((1 + _extra_lines(row) for row in rows[:-1]),
                                        initial=lines.start))
            if set(map(len, rows)) != {len(header)}:  # a blank or malformed line
                lines = [ln for ln, row in zip(lines, rows) if row]
                rows = [row for row in rows if row]
                bad = next((i for i, row in enumerate(rows)
                            if len(row) != len(header)), None)
                if bad is not None:
                    yield lines[:bad], rows[:bad]
                    raise DataError(f"{path}:{lines[bad]}: expected "
                                    f"{len(header)} fields, got {len(rows[bad])}")
            yield lines, rows
    except csv.Error as exc:  # a field over csv.field_size_limit()
        line = start + len(rows) + sum(map(_extra_lines, rows))
        raise DataError(f"{path}:{line}: {exc}") from None


def _chunks(path: Path, header):
    """Yield (line numbers, rows) of a CSV or JSON-Lines file, at most
    _CHUNK_ROWS rows at a time (a chunk may be empty), skipping blank
    lines. A row is its fields in header order: CSV text, or JSON values as
    text and None where missing.

    The first malformed line raises DataError once the rows before it are
    yielded. So does a line with a byte that is not UTF-8 or a CSV field
    over csv.field_size_limit(), but rows read in its chunk, or decoded in
    its buffer, may not be yielded first.
    """
    chunks = _json_chunks if path.suffix == ".jsonl" else _csv_chunks
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield from chunks(fh, path, header)
    except UnicodeDecodeError:
        raise _undecodable(path) from None


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
    for lines, rows in _chunks(students_path, STUDENTS_HEADER):
        for ln, row in zip(lines, rows):
            try:
                rec = _parse_student(row)
            except ValueError as exc:
                raise DataError(f"{students_path}:{ln}: {exc}") from None
            if rec.student_id in students:
                raise DataError(f"{students_path}:{ln}: duplicate student id "
                                f"{rec.student_id!r}")
            students[rec.student_id] = rec

    # reading stops at the first malformed line, whose error is raised only
    # after the rows before it are checked, so an invalid event before it is
    # reported first
    coder, lines, malformed = EventCoder(), [], None
    try:
        for chunk_lines, rows in _chunks(events_path, EVENTS_HEADER):
            coder.add(rows)
            lines.append(chunk_lines)
    except DataError as exc:
        malformed = exc
    try:
        dataset = Dataset(students, coder)
    except EventError as exc:
        line = list(chain.from_iterable(lines))[exc.row]
        raise DataError(f"{events_path}:{line}: {exc}") from None
    if malformed is not None:
        raise malformed
    return dataset


def _csv_texts(values) -> list:
    """Each value as csv.writer writes it as a field, so quoting stays the
    csv module's rule, then "" for code -1 (absent)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    texts = []
    for value in values:
        writer.writerow([value, ""])  # alone, an empty value would be quoted
        texts.append(buf.getvalue().removesuffix(",\r\n"))
        buf.seek(0)
        buf.truncate()
    return texts + [""]


def export_dataset(dataset: Dataset, events_path, students_path):
    """Write a Dataset back out in the canonical CSV formats.

    The events file holds the bytes csv.writer would write, but each
    distinct value of an event field is made CSV text once and each row is
    the comma join of those texts, written a chunk of rows at a time.
    """
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
    texts = [_csv_texts(values) for values, _ in fields]
    with open(events_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(EVENTS_HEADER)
        for start in range(0, len(table), _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            fh.writelines(",".join(row) + "\r\n" for row in zip(
                *[map(text.__getitem__, codes[rows].tolist())
                  for text, (_, codes) in zip(texts, fields)],
                map(str, table.timestamp[rows].tolist())))

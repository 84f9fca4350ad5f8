"""Vocabulary and one-hot encodings for the two tasks.

Knowledge tracing consumes (course, video) item one-hots; the response is the
prediction target, not an input. Outcome prediction consumes a wider step
encoding: course + video + response + forum-action blocks, where a step is
either a video interaction (forum block zero) or a forum action (video and
response blocks zero).

A step is stored as the columns of its ones: (course, video) for KT, and
(course, video or forum action, response) for OP, the response NULL where
the step has none. Each encoder maps a dataset's event table to these
columns and gives each student a row slice of one integer array per
encoding, so an encoding grows with the events, not with the vocabulary;
pad_batch expands a batch into the padded boolean one-hot rows the models
read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.records import FORUM_ACTIONS

N_RESPONSE_SLOTS = 2
N_FORUM_SLOTS = len(FORUM_ACTIONS)
NULL = -1  # a step's index that sets no column: an OP step without a response


class Vocab:
    """Index maps for courses and videos.

    Built from the training split only; unseen videos map to a reserved
    trailing slot. Courses must always be known.
    """

    def __init__(self, course_ids, video_ids):
        self.course_ids = tuple(sorted(set(course_ids)))
        self.video_ids = tuple(sorted(set(video_ids)))
        self._course_index = {c: j for j, c in enumerate(self.course_ids)}
        self._video_index = {v: j for j, v in enumerate(self.video_ids)}

    @property
    def n_courses(self) -> int:
        return len(self.course_ids)

    @property
    def n_video_slots(self) -> int:
        return len(self.video_ids) + 1

    @property
    def unknown_video(self) -> int:
        return len(self.video_ids)

    @property
    def kt_input_dim(self) -> int:
        return self.n_courses + self.n_video_slots

    @property
    def op_input_dim(self) -> int:
        return self.kt_input_dim + N_RESPONSE_SLOTS + N_FORUM_SLOTS

    def course_index(self, course_id: str) -> int:
        try:
            return self._course_index[course_id]
        except KeyError:
            raise ValueError(f"unknown course id {course_id!r}") from None

    def video_index(self, video_id: str) -> int:
        return self._video_index.get(video_id, self.unknown_video)

    def __eq__(self, other) -> bool:
        """Equal vocabularies index every course and video alike, so they
        encode a dataset to the same arrays."""
        return (isinstance(other, Vocab) and self.course_ids == other.course_ids
                and self.video_ids == other.video_ids)

    def __hash__(self) -> int:
        return hash((self.course_ids, self.video_ids))

    def __repr__(self) -> str:
        return f"Vocab({self.n_courses} courses, {len(self.video_ids)} videos)"


def _slots(dataset, vocab: Vocab):
    """Vocabulary column of each dataset course and each event-table video."""
    return (np.array([vocab.course_index(c) for c in dataset.course_ids],
                     dtype=np.int64),
            np.array([vocab.video_index(v) for v in dataset.events.video_ids],
                     dtype=np.int64))


def _first_steps(dataset, rows, max_len: int):
    """The first max_len of each student's table rows among rows (ascending).

    Returns (kept rows, each student's position of every kept row, per
    student kept counts).
    """
    counts = np.bincount(dataset.events.student[rows],
                         minlength=len(dataset.student_ids))
    pos = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    keep = pos < max_len
    return rows[keep], pos[keep], np.minimum(counts, max_len)


@dataclass(frozen=True)
class Encoding:
    """One task's encoding of a dataset under one vocabulary, which every
    fold with that vocabulary shares: students maps each student id to
    (x, target), x its steps' (L, k) one-hot column indices, and width is
    the one-hot rows' width, the task's input width under the vocabulary."""
    width: int
    students: dict


def encode_kt(dataset, vocab: Vocab, max_len: int) -> Encoding:
    """Knowledge-tracing encoding of every student: (x, targets) each.

    A student's quiz responses (the rows with a response), first max_len,
    give x: (L-1, 2) (course, video) columns of items 1..L-1, and targets:
    (L-1,) responses at steps 2..L, since the prediction made after
    consuming item t scores the response to item t+1. A single response
    yields zero rows; a student with none is left out.
    """
    table = dataset.events
    course_slot, video_slot = _slots(dataset, vocab)
    quiz, pos, lengths = _first_steps(dataset, np.flatnonzero(table.response >= 0),
                                      max_len)
    items = quiz[pos < np.repeat(lengths - 1, lengths)]  # all but the last
    targets = table.response[quiz[pos > 0]]
    x = np.stack([course_slot[table.course[items]],
                  vocab.n_courses + video_slot[table.video[items]]], axis=1)
    n_items = np.maximum(lengths - 1, 0)
    ends = np.cumsum(n_items).tolist()
    return Encoding(vocab.kt_input_dim, {
        sid: (x[end - n:end], targets[end - n:end]) for sid, end, n, length
        in zip(dataset.student_ids, ends, n_items.tolist(), lengths.tolist())
        if length})


def encode_op(dataset, vocab: Vocab, max_len: int) -> Encoding:
    """Outcome-prediction encoding of every student: ((T, 3) x, (1,) label)
    each.

    Each event, first max_len, is one step: its course, then its video or
    forum action, then its quiz response, NULL on forum steps and on video
    steps without one. A student with no events is left out.
    """
    table = dataset.events
    course_slot, video_slot = _slots(dataset, vocab)
    rows, _, lengths = _first_steps(dataset, np.arange(len(table)), max_len)
    forum = table.action[rows] >= 0
    response = table.response[rows]
    x = np.empty((rows.size, 3), dtype=np.int64)
    x[:, 0] = course_slot[table.course[rows]]
    x[~forum, 1] = vocab.n_courses + video_slot[table.video[rows[~forum]]]
    x[forum, 1] = (vocab.kt_input_dim + N_RESPONSE_SLOTS
                   + table.action[rows[forum]])
    x[:, 2] = np.where(response >= 0, vocab.kt_input_dim + response, NULL)
    labels = np.array([dataset.students[sid].outcome for sid in dataset.student_ids],
                      dtype=np.int64)
    ends = np.cumsum(lengths).tolist()
    return Encoding(vocab.op_input_dim, {
        sid: (x[end - n:end], labels[j:j + 1]) for j, (sid, end, n)
        in enumerate(zip(dataset.student_ids, ends, lengths.tolist())) if n})


def pad_batch(arrays, width: int):
    """The padded one-hot rows of variable-length (L_i, k) arrays of
    column indices in [0, width) or NULL: (B, T_max, width) bool, True at
    each step's indices and False past each length, plus the lengths. The
    recurrent kernels convert the valid rows to float64 once."""
    if not arrays:
        raise ValueError("pad_batch: empty batch")
    ls = [len(a) for a in arrays]
    lengths = np.array(ls, dtype=np.int64)
    cols = np.concatenate(arrays)
    out = np.zeros((len(ls), max(ls), width), dtype=bool)
    # each step's row of out as (B * T_max, width): b * T_max + t
    rows = (np.arange(out.shape[1]) < lengths[:, None]).ravel().nonzero()[0]
    if cols.shape[1] > 2:  # only a third index, OP's response, can be NULL
        # a NULL sets no column: write the step's second column once more
        cols = np.where(cols == NULL, cols[:, 1:2], cols)
    try:
        out.reshape(-1, width)[rows[:, None], cols] = True
    except IndexError:
        raise ValueError(f"pad_batch: a column outside width {width}") from None
    return out, lengths

"""Vocabulary and one-hot encodings for the two tasks.

Knowledge tracing consumes (course, video) item one-hots; the response is the
prediction target, not an input. Outcome prediction consumes a wider step
encoding: course + video + response + forum-action blocks, where a step is
either a video interaction (forum block zero) or a forum action (video and
response blocks zero).

Each encoder reads a dataset's event table: it maps the table's course and
video codes to vocabulary columns, writes the one-hot rows of every
student into blocks of about 1 MiB, one index assignment per block and
one-hot column group, and gives each student a row slice of its block.
"""

from __future__ import annotations

import numpy as np

from ..data.records import FORUM_ACTIONS

N_RESPONSE_SLOTS = 2
N_FORUM_SLOTS = len(FORUM_ACTIONS)
_BLOCK_BYTES = 1 << 20


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


def _one_hots(counts, width: int, pieces) -> list:
    """Each student's (count, width) float64 row slice of the students'
    stacked one-hot rows. pieces are (rows, cols) pairs, rows ascending
    within each: the stack is one at every (row, col) and zero elsewhere.

    The stack is written in blocks of about _BLOCK_BYTES, each student's
    rows in one block. As one matrix it would be one large heap block per
    fold (10 MB on the heterogeneous preset): freed and requested again, its
    hole is now and then split by a smaller request, and the next fold's
    matrix then grows the heap, so peak memory would differ from run to run.
    """
    ends = np.cumsum(counts)
    starts = ends - counts
    rows_per_block = max(1, _BLOCK_BYTES // (8 * width))
    first = np.flatnonzero(np.diff(starts // rows_per_block, prepend=-1))
    bounds = np.append(starts[first], ends[-1:])
    # flat indices ascend with the rows, so each block's are one range
    flats = [rows * width + cols for rows, cols in pieces]
    cuts = [np.searchsorted(flat, bounds * width).tolist() for flat in flats]
    members = np.append(first, len(counts)).tolist()
    bounds, starts, ends = bounds.tolist(), starts.tolist(), ends.tolist()
    out = []
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        block = np.zeros((hi - lo) * width)
        for flat, cut in zip(flats, cuts):
            block[flat[cut[k]:cut[k + 1]] - lo * width] = 1.0
        block = block.reshape(hi - lo, width)
        out += [block[s - lo:e - lo]
                for s, e in zip(starts[members[k]:members[k + 1]],
                                ends[members[k]:members[k + 1]])]
    return out


def encode_kt(dataset, vocab: Vocab, max_len: int) -> dict:
    """Knowledge-tracing arrays of every student: {sid: (x, targets)}.

    A student's quiz responses (the rows with a response), first max_len,
    give x: (L-1, D) item one-hots of steps 1..L-1, and targets: (L-1,)
    responses at steps 2..L, since the prediction made after consuming
    item t scores the response to item t+1. A single response yields zero
    rows; a student with none is left out.
    """
    table = dataset.events
    course_slot, video_slot = _slots(dataset, vocab)
    quiz, pos, lengths = _first_steps(dataset, np.flatnonzero(table.response >= 0),
                                      max_len)
    items = quiz[pos < np.repeat(lengths - 1, lengths)]  # all but the last
    targets = table.response[quiz[pos > 0]]
    step = np.arange(items.size)
    n_items = np.maximum(lengths - 1, 0)
    xs = _one_hots(n_items, vocab.kt_input_dim,
                   ((step, course_slot[table.course[items]]),
                    (step, vocab.n_courses + video_slot[table.video[items]])))
    ends = np.cumsum(n_items).tolist()
    return {sid: (x, targets[end - n:end])
            for sid, x, end, n, length in zip(dataset.student_ids, xs, ends,
                                              n_items.tolist(), lengths.tolist())
            if length}


def encode_op(dataset, vocab: Vocab, max_len: int) -> dict:
    """Outcome-prediction arrays of every student: {sid: ((T, D) x, label)}.

    Each event, first max_len, is one step. Forum steps leave the video and
    response blocks zero; video steps leave the forum block zero, and the
    response block too when the event has no quiz response. A student with
    no events is left out.
    """
    table = dataset.events
    course_slot, video_slot = _slots(dataset, vocab)
    rows, _, lengths = _first_steps(dataset, np.arange(len(table)), max_len)
    step = np.arange(rows.size)
    forum = table.action[rows] >= 0
    answered = table.response[rows] >= 0
    video = vocab.n_courses
    response = vocab.kt_input_dim
    xs = _one_hots(lengths, vocab.op_input_dim,
                   ((step, course_slot[table.course[rows]]),
                    (step[~forum], video + video_slot[table.video[rows[~forum]]]),
                    (step[answered], response + table.response[rows[answered]]),
                    (step[forum], response + N_RESPONSE_SLOTS
                     + table.action[rows[forum]])))
    return {sid: (x, int(dataset.students[sid].outcome))
            for sid, x in zip(dataset.student_ids, xs) if len(x)}


def pad_batch(arrays):
    """Stack variable-length (L_i, D) arrays into (B, T_max, D) plus lengths."""
    if not arrays:
        raise ValueError("pad_batch: empty batch")
    lengths = np.array([a.shape[0] for a in arrays], dtype=np.int64)
    D = arrays[0].shape[1]
    T = int(lengths.max())
    out = np.zeros((len(arrays), T, D))
    for b, a in enumerate(arrays):
        if a.shape[1] != D:
            raise ValueError(f"pad_batch: inconsistent widths {a.shape[1]} vs {D}")
        out[b, :a.shape[0], :] = a
    return out, lengths

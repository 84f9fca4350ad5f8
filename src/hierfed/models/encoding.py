"""Vocabulary and one-hot encodings for the two tasks.

Knowledge tracing consumes (course, video) item one-hots; the response is the
prediction target, not an input. Outcome prediction consumes a wider step
encoding: course + video + response + forum-action blocks, where a step is
either a video interaction (forum block zero) or a forum action (video and
response blocks zero).

A student's events are encoded straight into a dense (steps, width) array:
the one-hot column of every block a step sets is computed first, and the
rows are then filled by one fancy-index assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FORUM_ACTIONS = ("forum_post", "forum_reply", "forum_view")

N_RESPONSE_SLOTS = 2
N_FORUM_SLOTS = len(FORUM_ACTIONS)


class Vocab:
    """Index maps for courses and videos.

    Built from the training split only; unseen videos map to a reserved
    trailing slot when reserve_unknown is set. Courses must always be known.
    """

    def __init__(self, course_ids, video_ids, reserve_unknown: bool = True):
        self.course_ids = tuple(sorted(set(course_ids)))
        self.video_ids = tuple(sorted(set(video_ids)))
        if not self.course_ids:
            raise ValueError("vocabulary needs at least one course")
        self.reserve_unknown = bool(reserve_unknown)
        self._course_index = {c: j for j, c in enumerate(self.course_ids)}
        self._video_index = {v: j for j, v in enumerate(self.video_ids)}

    @property
    def n_courses(self) -> int:
        return len(self.course_ids)

    @property
    def n_video_slots(self) -> int:
        return len(self.video_ids) + (1 if self.reserve_unknown else 0)

    @property
    def unknown_video(self) -> int:
        if not self.reserve_unknown:
            raise ValueError("vocabulary has no reserved unknown-video slot")
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
        j = self._video_index.get(video_id)
        if j is None:
            if not self.reserve_unknown:
                raise ValueError(f"unknown video id {video_id!r}")
            return self.unknown_video
        return j

    def __eq__(self, other) -> bool:
        return (isinstance(other, Vocab)
                and self.course_ids == other.course_ids
                and self.video_ids == other.video_ids
                and self.reserve_unknown == other.reserve_unknown)

    def __repr__(self) -> str:
        return (f"Vocab({self.n_courses} courses, {len(self.video_ids)} videos, "
                f"reserve_unknown={self.reserve_unknown})")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: task, hidden width, derived input width."""
    task: str
    hidden_dim: int
    input_dim: int

    def __post_init__(self):
        if self.task not in ("KT", "OP"):
            raise ValueError(f"task must be KT or OP, got {self.task!r}")
        if self.hidden_dim < 1 or self.input_dim < 1:
            raise ValueError("hidden_dim and input_dim must be >= 1")

    @staticmethod
    def kt(vocab: Vocab, hidden_dim: int = 48) -> "ModelSpec":
        return ModelSpec("KT", hidden_dim, vocab.kt_input_dim)

    @staticmethod
    def op(vocab: Vocab, hidden_dim: int = 48) -> "ModelSpec":
        return ModelSpec("OP", hidden_dim, vocab.op_input_dim)


def encode_kt(quiz, vocab: Vocab):
    """Knowledge-tracing arrays of one student's quiz-response events.

    Returns (x, targets): x is (L-1, D) item one-hots of steps 1..L-1 and
    targets is (L-1,) responses at steps 2..L, since the prediction made
    after consuming item t scores the response to item t+1. A single
    response yields zero rows.
    """
    items = quiz[:-1]
    video = vocab.n_courses
    cols = [col for ev in items
            for col in (vocab.course_index(ev.course_id),
                        video + vocab.video_index(ev.video_id))]
    x = np.zeros((len(items), vocab.kt_input_dim))
    x[np.repeat(np.arange(len(items)), 2), cols] = 1.0
    return x, np.array([ev.response for ev in quiz[1:]], dtype=np.int64)


def encode_op(events, outcome: int, vocab: Vocab):
    """Outcome-prediction arrays of one student's events: ((T, D) x, label).

    Forum steps leave the video and response blocks zero; video steps leave
    the forum block zero, and the response block too when the event has no
    quiz response.
    """
    video = vocab.n_courses
    response = vocab.kt_input_dim
    forum = response + N_RESPONSE_SLOTS
    rows, cols = [], []
    for t, ev in enumerate(events):
        rows.append(t)
        cols.append(vocab.course_index(ev.course_id))
        if ev.kind == "forum":
            rows.append(t)
            cols.append(forum + FORUM_ACTIONS.index(ev.forum_action))
            continue
        rows.append(t)
        cols.append(video + vocab.video_index(ev.video_id))
        if ev.response is not None:
            rows.append(t)
            cols.append(response + ev.response)
    x = np.zeros((len(events), vocab.op_input_dim))
    x[rows, cols] = 1.0
    return x, int(outcome)


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

"""A per-step encoder: the reference for the program's encoding.

It writes one dense boolean one-hot row per step, as pad_batch lays its
rows out, with plain element assignments,
and lists each step's one-hot columns one step at a time, so the encoding
tests can compare build_sequences against it student by student, and
other tests can hand-build clients from index-level steps. A KT step is a
(course index, video index) item; an OP step is video(c, v, response) or
forum(c, action).
"""

import numpy as np

from hierfed.models.encoding import NULL, N_RESPONSE_SLOTS, N_FORUM_SLOTS


def video(course, vid, response=None):
    return ("video", course, vid, response)


def forum(course, action):
    return ("forum", course, action)


def _check_range(j, n, what):
    if not 0 <= j < n:
        raise ValueError(f"{what} index {j} out of range [0, {n})")


def item_row(course, vid, vocab):
    """KT item one-hot: course block then video block; exactly two ones."""
    _check_range(course, vocab.n_courses, "course")
    _check_range(vid, vocab.n_video_slots, "video")
    out = np.zeros(vocab.kt_input_dim, dtype=bool)
    out[course] = True
    out[vocab.n_courses + vid] = True
    return out


def step_row(step, vocab):
    """OP step one-hot: course + video + response + forum-action blocks."""
    kind, course = step[0], step[1]
    _check_range(course, vocab.n_courses, "course")
    out = np.zeros(vocab.op_input_dim, dtype=bool)
    out[course] = True
    base = vocab.n_courses
    if kind == "video":
        _, _, vid, response = step
        _check_range(vid, vocab.n_video_slots, "video")
        out[base + vid] = True
        if response is not None:
            _check_range(response, N_RESPONSE_SLOTS, "response")
            out[base + vocab.n_video_slots + response] = True
    else:
        _check_range(step[2], N_FORUM_SLOTS, "forum action")
        out[base + vocab.n_video_slots + N_RESPONSE_SLOTS + step[2]] = True
    return out


def item_cols(course, vid, vocab):
    """KT item columns: (course, video)."""
    _check_range(course, vocab.n_courses, "course")
    _check_range(vid, vocab.n_video_slots, "video")
    return [course, vocab.n_courses + vid]


def step_cols(step, vocab):
    """OP step columns: (course, video or forum action, response or NULL)."""
    kind, course = step[0], step[1]
    _check_range(course, vocab.n_courses, "course")
    responses = vocab.n_courses + vocab.n_video_slots
    if kind == "forum":
        _check_range(step[2], N_FORUM_SLOTS, "forum action")
        return [course, responses + N_RESPONSE_SLOTS + step[2], NULL]
    _, _, vid, response = step
    _check_range(vid, vocab.n_video_slots, "video")
    if response is None:
        return [course, vocab.n_courses + vid, NULL]
    _check_range(response, N_RESPONSE_SLOTS, "response")
    return [course, vocab.n_courses + vid, responses + response]


def kt_rows(items, responses, vocab):
    """(x, targets): items 1..L-1 as one-hot rows, responses 2..L as targets."""
    assert len(items) == len(responses) >= 1
    L = len(items)
    x = np.zeros((L - 1, vocab.kt_input_dim), dtype=bool)
    targets = np.zeros(L - 1, dtype=np.int64)
    for t in range(L - 1):
        x[t] = item_row(*items[t], vocab)
        targets[t] = responses[t + 1]
    return x, targets


def op_rows(steps, outcome, vocab):
    """((T, D) x, (1,) label), one one-hot row per step."""
    assert len(steps) >= 1 and outcome in (0, 1)
    x = np.zeros((len(steps), vocab.op_input_dim), dtype=bool)
    for t, step in enumerate(steps):
        x[t] = step_row(step, vocab)
    return x, np.array([outcome], dtype=np.int64)


def kt_entry(items, responses, vocab):
    """(x, targets): items 1..L-1 as (course, video) columns, responses
    2..L as targets."""
    assert len(items) == len(responses) >= 1
    x = np.zeros((len(items) - 1, 2), dtype=np.int64)
    for t in range(len(items) - 1):
        x[t] = item_cols(*items[t], vocab)
    return x, np.array(responses[1:], dtype=np.int64)


def op_entry(steps, outcome, vocab):
    """((T, 3) x, (1,) label), one step's columns per row."""
    assert len(steps) >= 1 and outcome in (0, 1)
    x = np.zeros((len(steps), 3), dtype=np.int64)
    for t, step in enumerate(steps):
        x[t] = step_cols(step, vocab)
    return x, np.array([outcome], dtype=np.int64)


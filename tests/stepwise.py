"""A per-step one-hot encoder: the reference for the program's encoding.

It writes one dense row per step with plain element assignments, so the
encoding tests can compare build_sequences against it student by student,
and other tests can hand-build clients from index-level steps. A KT step is
a (course index, video index) item; an OP step is video(c, v, response) or
forum(c, action).
"""

import numpy as np

from hierfed.models.encoding import N_RESPONSE_SLOTS, N_FORUM_SLOTS


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
    out = np.zeros(vocab.kt_input_dim)
    out[course] = 1.0
    out[vocab.n_courses + vid] = 1.0
    return out


def step_row(step, vocab):
    """OP step one-hot: course + video + response + forum-action blocks."""
    kind, course = step[0], step[1]
    _check_range(course, vocab.n_courses, "course")
    out = np.zeros(vocab.op_input_dim)
    out[course] = 1.0
    base = vocab.n_courses
    if kind == "video":
        _, _, vid, response = step
        _check_range(vid, vocab.n_video_slots, "video")
        out[base + vid] = 1.0
        if response is not None:
            _check_range(response, N_RESPONSE_SLOTS, "response")
            out[base + vocab.n_video_slots + response] = 1.0
    else:
        _check_range(step[2], N_FORUM_SLOTS, "forum action")
        out[base + vocab.n_video_slots + N_RESPONSE_SLOTS + step[2]] = 1.0
    return out


def kt_entry(items, responses, vocab):
    """(x, targets): items 1..L-1 as rows, responses 2..L as targets."""
    assert len(items) == len(responses) >= 1
    L = len(items)
    x = np.zeros((L - 1, vocab.kt_input_dim))
    targets = np.zeros(L - 1, dtype=np.int64)
    for t in range(L - 1):
        x[t] = item_row(*items[t], vocab)
        targets[t] = responses[t + 1]
    return x, targets


def op_entry(steps, outcome, vocab):
    """((T, D) x, label), one row per step."""
    assert len(steps) >= 1 and outcome in (0, 1)
    x = np.zeros((len(steps), vocab.op_input_dim))
    for t, step in enumerate(steps):
        x[t] = step_row(step, vocab)
    return x, int(outcome)

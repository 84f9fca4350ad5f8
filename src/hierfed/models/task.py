"""The two prediction tasks behind one interface.

Knowledge tracing and outcome prediction are two case studies of one
federated method. They differ only in how a student's events are encoded,
how per-student targets stack into a batch, and which model scores the
batch; a Task holds exactly those rules, so no layer above this module
needs to know which task it is running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .encoding import ModelSpec, encode_kt, encode_op
from .kt import kt_init, kt_loss_grad, kt_predict
from .op import op_init, op_loss_grad, op_predict


@dataclass(frozen=True)
class Task:
    """What differs between the tasks; see KT and OP for the two instances.

    encode(dataset, sid, vocab, max_len) -> (x, target), or None when the
    student has no usable steps; stack_targets(targets, T) -> batch target
    array; spec(vocab, hidden_dim) -> ModelSpec; init, loss_grad and
    predict are the model's entry points.
    """
    name: str
    encode: Callable
    stack_targets: Callable
    spec: Callable
    init: Callable
    loss_grad: Callable
    predict: Callable


def _kt_encode(dataset, sid, vocab, max_len):
    """Quiz responses only, in chronological order."""
    quiz = [ev for ev in dataset.events_by_student.get(sid, [])
            if ev.kind == "quiz_response"][:max_len]
    return encode_kt(quiz, vocab) if quiz else None


def _op_encode(dataset, sid, vocab, max_len):
    """Every event as one step, labelled with the student's outcome."""
    events = dataset.events_by_student.get(sid, [])[:max_len]
    if not events:
        return None
    return encode_op(events, dataset.students[sid].outcome, vocab)


def _pad_targets(targets, T):
    """Per-step responses, zero past each student's length: (B, T)."""
    out = np.zeros((len(targets), T), dtype=np.int64)
    for i, t in enumerate(targets):
        out[i, :t.size] = t
    return out


def _label_vector(targets, T):
    """One pass/fail label per student: (B,)."""
    return np.array(targets, dtype=np.int64)


KT = Task("KT", _kt_encode, _pad_targets, ModelSpec.kt,
          kt_init, kt_loss_grad, kt_predict)
OP = Task("OP", _op_encode, _label_vector, ModelSpec.op,
          op_init, op_loss_grad, op_predict)
TASKS = {"KT": KT, "OP": OP}

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

from .encoding import encode_kt, encode_op
from .kt import kt_init, kt_loss_grad, kt_predict
from .op import op_embed, op_init, op_loss_grad, op_predict


@dataclass(frozen=True)
class Task:
    """What differs between the tasks; see KT and OP for the two instances.

    encode(dataset, vocab, max_len) -> Encoding: (x, target) of each
    student with usable steps, x its steps' one-hot column indices, and
    the one-hot width; stack_targets(targets, T) -> batch target array;
    init(vocab, hidden_dim, rng) -> initial parameters; loss_grad and
    predict score a padded batch; embed(x, lengths, params) -> one pooled
    state per student, or None when the model has none.
    """
    name: str
    encode: Callable
    stack_targets: Callable
    init: Callable
    loss_grad: Callable
    predict: Callable
    embed: Callable | None


def _pad_targets(targets, T):
    """Per-step responses, zero past each student's length: (B, T)."""
    out = np.zeros((len(targets), T), dtype=np.int64)
    for i, t in enumerate(targets):
        out[i, :t.size] = t
    return out


def _label_vector(targets, T):
    """One pass/fail label per student: (B,)."""
    return np.array(targets, dtype=np.int64)


KT = Task("KT", encode_kt, _pad_targets, kt_init, kt_loss_grad, kt_predict,
          embed=None)
OP = Task("OP", encode_op, _label_vector, op_init, op_loss_grad, op_predict,
          embed=op_embed)
TASKS = {"KT": KT, "OP": OP}

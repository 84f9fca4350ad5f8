"""The two prediction tasks behind one interface.

Knowledge tracing and outcome prediction are two case studies of one
federated method. They differ only in how a student's events are encoded
and which model scores a batch; a Task holds exactly those rules, so no
layer above this module needs to know which task it is running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .encoding import encode_kt, encode_op
from .kt import kt_init, kt_loss_grad, kt_predict
from .op import op_embed, op_init, op_loss_grad, op_predict


@dataclass(frozen=True)
class Task:
    """What differs between the tasks; see KT and OP for the two instances.

    encode(dataset, vocab, max_len) -> Encoding: (x, target) of each
    student with usable steps, x its steps' one-hot column indices, and
    the one-hot width; init(vocab, hidden_dim, rng) -> initial parameters;
    loss_grad and predict score a padded batch against its students'
    targets concatenated (KT: one response per step, OP: one label per
    student); embed(x, lengths, params) -> one pooled state per student, or
    None when the model has none.
    """
    name: str
    encode: Callable
    init: Callable
    loss_grad: Callable
    predict: Callable
    embed: Callable | None


KT = Task("KT", encode_kt, kt_init, kt_loss_grad, kt_predict, embed=None)
OP = Task("OP", encode_op, op_init, op_loss_grad, op_predict, embed=op_embed)
TASKS = {"KT": KT, "OP": OP}

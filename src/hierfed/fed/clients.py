"""Client data and local update rules.

A client is one training group (course or demographic subgroup). Its data
is selected from the fold's shared encoding; updates take the client's
data and its current parameters. Every update is one first-order meta step
(adapt on one batch, step on the gradient of the adapted parameters
evaluated on a second batch); with no adaptation it is a plain minibatch
SGD step on the second batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericsError
from ..models.encoding import Encoding, pad_batch
from ..models.task import Task
from ..nn.params import axpy_params, clip_grad_norm


@dataclass
class ClientData:
    """One group's students under one task.

    Students are encoded once per distinct vocabulary, by build_sequences,
    with one encoding resident at a time; a client holds that Encoding and
    the sorted ids of its students in it, so the clients of one fold, and
    of every fold with the same vocabulary, share every student's arrays.
    A student's x holds the one-hot column indices of its steps; batch
    expands them into one-hot rows of the encoding's width and concatenates
    the students' targets, and the task's model scores the batch.
    """
    task: Task
    encoding: Encoding
    ids: list = field(default_factory=list)     # sorted student ids

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def fingerprint(self) -> str:
        """Identity of the underlying data, used to derive RNG streams."""
        return ",".join(self.ids)

    def batch(self, ids):
        """The boolean padded one-hot x (B, T, width) of pad_batch, the
        lengths and the concatenated targets of a list of student ids."""
        entries = [self.encoding.students[sid] for sid in ids]
        x, lengths = pad_batch([e[0] for e in entries], self.encoding.width)
        return x, lengths, np.concatenate([e[1] for e in entries])

    def loss_grad(self, ids, params: dict):
        x, lengths, targets = self.batch(ids)
        loss, grads = self.task.loss_grad(x, lengths, targets, params)
        if not np.isfinite(loss):
            raise NumericsError(f"non-finite loss on batch of {len(ids)} students")
        return loss, grads

    def predict(self, params: dict):
        """(scores, labels) over every student of the client."""
        x, lengths, targets = self.batch(self.ids)
        return self.task.predict(x, lengths, targets, params)


def build_client_data(task: Task, encoded: Encoding, ids) -> ClientData:
    """The students of ids that have an encoding for this task, over
    encoded, the build_sequences encoding of the fold's vocabulary."""
    return ClientData(task, encoded,
                      [sid for sid in sorted(ids) if sid in encoded.students])


def _apply_grad(params: dict, grads: dict, step: float, clip: float) -> dict:
    return axpy_params(-step, clip_grad_norm(grads, clip), params)


def _require_students(data: ClientData):
    if data.size == 0:
        raise ValueError("client has no students")


def epoch_batches(data: ClientData, batch_size: int, rng, n_steps: int) -> list:
    """Exactly n_steps minibatches of the client's students, reshuffling as
    they run out; ceil(size / batch_size) steps are one shuffled pass."""
    _require_students(data)
    batches: list = []
    while len(batches) < n_steps:
        shuffled = [data.ids[i] for i in rng.permutation(data.size)]
        batches += [shuffled[i:i + batch_size]
                    for i in range(0, data.size, batch_size)]
    return batches[:n_steps]


def meta_batches(data: ClientData, batch_size: int, rng):
    """Two disjoint minibatches (D, D'); falls back to the whole client
    twice when there are fewer than two batches' worth of students."""
    _require_students(data)
    ids = data.ids
    perm = rng.permutation(len(ids))    # drawn on both paths: one stream
    if len(ids) < 2 * batch_size:
        return list(ids), list(ids)
    d = [ids[i] for i in perm[:batch_size]]
    d_prime = [ids[i] for i in perm[batch_size:2 * batch_size]]
    return d, d_prime


def meta_update(data: ClientData, params: dict, batches, eta: float,
                beta: float, clip: float):
    """One first-order meta-gradient update of params on the client's
    (D, D') pair of student-id batches (see meta_batches), and its loss on D':

    theta_tilde = theta - beta * grad_D(theta);
    theta_plus  = theta - eta * grad_D'(theta_tilde),

    both gradients clipped. beta = 0 never evaluates D and reduces bitwise
    to an SGD step on D'.
    """
    d, d_prime = batches
    adapted = params
    if beta != 0.0:
        adapted = _apply_grad(params, data.loss_grad(d, params)[1], beta, clip)
    loss, grads = data.loss_grad(d_prime, adapted)
    return _apply_grad(params, grads, eta, clip), loss


def apply_updates(data: ClientData, params: dict, pairs, eta: float,
                  beta: float, clip: float):
    """params after one meta_update per (D, D') pair, in order, and each
    update's loss. Plain SGD is beta = 0 over the pairs (B, B) of
    epoch_batches."""
    losses = []
    for pair in pairs:
        params, loss = meta_update(data, params, pair, eta, beta, clip)
        losses.append(loss)
    return params, losses

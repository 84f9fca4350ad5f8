"""Client-side state and local update rules.

A client is one training group (course or demographic subgroup). Its data
is selected from the fold's shared encoding; updates are plain minibatch
SGD or a first-order meta step (adapt on one batch, step on the gradient
of the adapted parameters evaluated on a second batch).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericsError
from ..keys import GroupKey
from ..models.encoding import pad_batch
from ..models.task import Task
from ..nn.params import GradSet, ParamSet, axpy_params, clip_grad_norm


@dataclass
class ClientData:
    """Encoded per-student arrays for one group under one task.

    Students are encoded once per fold, by build_sequences, and
    build_client_data selects them by id; the task decides how their
    targets stack into a batch and which model scores it.
    """
    task: Task
    ids: list = field(default_factory=list)     # sorted student ids
    arrays: dict = field(default_factory=dict)  # sid -> (x, target)

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def fingerprint(self) -> str:
        """Identity of the underlying data, used to derive RNG streams."""
        return ",".join(self.ids)

    def batch(self, ids):
        """Padded arrays (x, lengths, targets) for a list of student ids."""
        entries = [self.arrays[sid] for sid in ids]
        x, lengths = pad_batch([e[0] for e in entries])
        return x, lengths, self.task.stack_targets([e[1] for e in entries],
                                                   x.shape[1])

    def loss_grad(self, ids, params: ParamSet):
        x, lengths, targets = self.batch(ids)
        loss, grads, _ = self.task.loss_grad(x, lengths, targets, params)
        if not np.isfinite(loss):
            raise NumericsError(f"non-finite loss on batch of {len(ids)} students")
        return loss, grads

    def predict(self, params: ParamSet, ids=None):
        """(scores, labels) over the given students (default: all)."""
        ids = self.ids if ids is None else ids
        x, lengths, targets = self.batch(ids)
        return self.task.predict(x, lengths, targets, params)


def build_client_data(task: Task, encoded: dict, ids) -> ClientData:
    """The students of ids that have an encoding for this task.

    encoded is a fold's build_sequences mapping; the client holds the same
    (x, target) objects, so clients over overlapping students share them.
    """
    data = ClientData(task=task)
    for sid in sorted(ids):
        entry = encoded.get(sid)
        if entry is not None:
            data.arrays[sid] = entry
            data.ids.append(sid)
    return data


@dataclass
class ClientState:
    """A client at one point in training."""
    key: GroupKey
    params: ParamSet
    data: ClientData

    @property
    def size(self) -> int:
        return self.data.size


def _apply_grad(params: ParamSet, grads: GradSet, step: float,
                clip: float | None) -> ParamSet:
    if clip is not None:
        grads = clip_grad_norm(grads, clip)
    return axpy_params(-step, grads, params)


def _minibatches(ids, batch_size: int, rng) -> list:
    perm = rng.permutation(len(ids))
    shuffled = [ids[i] for i in perm]
    return [shuffled[i:i + batch_size]
            for i in range(0, len(shuffled), batch_size)]


def local_sgd_steps(client: ClientState, eta: float, batch_size: int, rng,
                    n_steps: int, clip: float | None = None,
                    stats: dict | None = None) -> ParamSet:
    """Exactly n_steps minibatch SGD steps, reshuffling as data runs out.

    n_steps = ceil(size / batch_size) is one shuffled pass over the client's
    students.
    """
    if client.size == 0:
        raise ValueError(f"client {client.key} has no students")
    params = client.params
    pending: list = []
    for _ in range(n_steps):
        if not pending:
            pending = _minibatches(client.data.ids, batch_size, rng)
        batch = pending.pop(0)
        loss, grads = client.data.loss_grad(batch, params)
        params = _apply_grad(params, grads, eta, clip)
        if stats is not None:
            stats["loss"] = stats.get("loss", 0.0) + loss
            stats["steps"] = stats.get("steps", 0) + 1
    return params


def meta_batches(client: ClientState, batch_size: int, rng):
    """Two disjoint minibatches (D, D'); falls back to the whole client
    twice when there are fewer than two batches' worth of students."""
    ids = client.data.ids
    if len(ids) < 2 * batch_size:
        # keep the stream aligned with the two-batch path
        rng.permutation(len(ids))
        return list(ids), list(ids)
    perm = rng.permutation(len(ids))
    d = [ids[i] for i in perm[:batch_size]]
    d_prime = [ids[i] for i in perm[batch_size:2 * batch_size]]
    return d, d_prime


def meta_step(params: ParamSet, grad_d, grad_d_prime, eta: float, beta: float,
              clip: float | None = None) -> ParamSet:
    """First-order meta update from explicit gradient callables.

    theta_tilde = theta - beta * grad_d(theta);
    theta_plus  = theta - eta * grad_d_prime(theta_tilde).
    beta = 0 reduces bitwise to an SGD step on the second batch.
    """
    if beta == 0.0:
        adapted = params
    else:
        g1 = grad_d(params)
        if clip is not None:
            g1 = clip_grad_norm(g1, clip)
        adapted = axpy_params(-beta, g1, params)
    g2 = grad_d_prime(adapted)
    return _apply_grad(params, g2, eta, clip)


def meta_update(client: ClientState, eta: float, beta: float, rng=None,
                batch_size: int = 16, clip: float | None = None,
                batches=None, stats: dict | None = None) -> ParamSet:
    """One first-order meta-gradient update on the client.

    Batches are drawn from rng unless an explicit (D, D') pair is given.
    """
    if client.size == 0:
        raise ValueError(f"client {client.key} has no students")
    if batches is None:
        if rng is None:
            raise ValueError("meta_update needs an rng when batches are not given")
        d, d_prime = meta_batches(client, batch_size, rng)
    else:
        d, d_prime = batches

    def grad_d(p):
        loss, grads = client.data.loss_grad(d, p)
        if stats is not None:
            stats["inner_loss"] = stats.get("inner_loss", 0.0) + loss
        return grads

    def grad_d_prime(p):
        loss, grads = client.data.loss_grad(d_prime, p)
        if stats is not None:
            stats["loss"] = stats.get("loss", 0.0) + loss
            stats["steps"] = stats.get("steps", 0) + 1
        return grads

    return meta_step(client.params, grad_d, grad_d_prime, eta, beta, clip)

"""Local update rules: the first-order meta-update, plain SGD as its
beta = 0 case, and the loop that applies a list of batch pairs."""

import numpy as np
import pytest

from hierfed.errors import NumericsError
from hierfed.fed.clients import (
    apply_updates,
    build_client_data,
    epoch_batches,
    meta_batches,
    meta_update,
)
from hierfed.models.encoding import Vocab
from hierfed.models.task import KT
from hierfed.nn.params import axpy_params, clip_grad_norm
from stepwise import kt_entry

VOCAB = Vocab(("c0", "c1"), ("v0", "v1", "v2", "v3"))


def kt_client(rng, n_students=12):
    """(client data, initial parameters) of a random KT client."""
    seqs = {}
    for i in range(n_students):
        L = int(rng.integers(3, 7))
        items = [(int(rng.integers(2)), int(rng.integers(5))) for _ in range(L)]
        responses = [int(rng.integers(2)) for _ in range(L)]
        sid = f"s{i:02d}"
        seqs[sid] = kt_entry(items, responses, VOCAB)
    data = build_client_data(KT, seqs, list(seqs))
    return data, KT.init(VOCAB, 5, rng)


class QuadraticClient:
    """A client whose loss on any batch is w^2 / 2, so its gradient is w."""

    def loss_grad(self, ids, params):
        w = params["w"]
        return float(w @ w) / 2.0, {"w": w.copy()}


def test_meta_step_on_a_quadratic_is_exact():
    # starting from w = 1 with an adaptation step of 0.5 and an outer step
    # of 0.1 the update lands exactly on 1 - 0.1 * (1 - 0.5) = 0.95 in double
    # precision; the clip is above every gradient norm here
    params = {"w": np.array([1.0])}
    out, loss = meta_update(QuadraticClient(), params, ([], []), eta=0.1,
                            beta=0.5, clip=5.0)
    assert out["w"][0] == 0.95
    assert loss == 0.125    # (1 - 0.5)^2 / 2 at the adapted parameters


def test_zero_adaptation_is_bitwise_plain_sgd():
    rng = np.random.default_rng(0)
    data, params = kt_client(rng)
    d = data.ids[:4]
    d_prime = data.ids[4:8]
    _, grads = data.loss_grad(d_prime, params)
    sgd = axpy_params(-0.3, clip_grad_norm(grads, 5.0), params)

    seen = []
    loss_grad = data.loss_grad

    def recording(ids, params):
        seen.append(list(ids))
        return loss_grad(ids, params)

    data.loss_grad = recording
    stepped, _ = meta_update(data, params, (d, d_prime), eta=0.3, beta=0.0,
                             clip=5.0)
    for name, arr in stepped.items():
        assert np.array_equal(arr, sgd[name])
    # the adaptation batch is never evaluated when beta is zero
    assert seen == [d_prime]


def test_meta_update_matches_manual_two_stage_computation():
    rng = np.random.default_rng(1)
    data, params = kt_client(rng)
    d = data.ids[:4]
    d_prime = data.ids[4:8]
    eta, beta, clip = 0.2, 0.05, 5.0

    out, _ = meta_update(data, params, (d, d_prime), eta, beta, clip)

    _, g1 = data.loss_grad(d, params)
    adapted = axpy_params(-beta, clip_grad_norm(g1, clip), params)
    _, g2 = data.loss_grad(d_prime, adapted)
    expect = axpy_params(-eta, clip_grad_norm(g2, clip), params)
    for name, arr in out.items():
        assert np.array_equal(arr, expect[name])

    # with adaptation on, the result differs from plain SGD on d_prime
    _, g_plain = data.loss_grad(d_prime, params)
    sgd = axpy_params(-eta, clip_grad_norm(g_plain, clip), params)
    assert any(not np.array_equal(arr, sgd[name]) for name, arr in out.items())


def test_meta_update_reports_losses():
    # the reported loss is the summed loss on D' at the adapted parameters
    rng = np.random.default_rng(2)
    data, params = kt_client(rng)
    d, d_prime = meta_batches(data, 4, np.random.default_rng(9))
    _, loss = meta_update(data, params, (d, d_prime), eta=0.1, beta=0.05,
                          clip=5.0)
    adapted = axpy_params(-0.05, clip_grad_norm(data.loss_grad(d, params)[1],
                                                5.0), params)
    assert loss == data.loss_grad(d_prime, adapted)[0]
    assert loss > 0.0


def test_meta_batches_are_disjoint_same_size_draws():
    rng = np.random.default_rng(3)
    data, _ = kt_client(rng, n_students=12)
    d, d_prime = meta_batches(data, 4, np.random.default_rng(5))
    assert len(d) == len(d_prime) == 4
    assert not set(d) & set(d_prime)
    assert set(d) | set(d_prime) <= set(data.ids)


def test_meta_batches_small_client_keeps_the_stream_aligned():
    rng = np.random.default_rng(5)
    data, _ = kt_client(rng, n_students=5)
    r1 = np.random.default_rng(7)
    assert meta_batches(data, 8, r1) == (data.ids, data.ids)
    r2 = np.random.default_rng(7)
    r2.permutation(5)
    assert r1.random() == r2.random()


def test_one_epoch_of_steps_visits_every_student():
    # ceil(10 / 4) = 3 steps take one shuffled pass: 4 + 4 + 2 students
    rng = np.random.default_rng(6)
    data, params = kt_client(rng, n_students=10)
    seen = []
    loss_grad = data.loss_grad

    def recording(ids, params):
        seen.append(list(ids))
        return loss_grad(ids, params)

    data.loss_grad = recording
    batches = epoch_batches(data, 4, np.random.default_rng(1), n_steps=3)
    out, losses = apply_updates(data, params, [(b, b) for b in batches],
                                eta=0.1, beta=0.0, clip=5.0)
    assert len(losses) == 3
    assert seen == batches
    assert [len(b) for b in seen] == [4, 4, 2]
    assert sorted(sid for b in seen for sid in b) == data.ids
    assert any(not np.array_equal(arr, params[name]) for name, arr in out.items())


def test_local_sgd_steps_runs_exactly_n_steps():
    # five steps of four over six students reshuffle twice: passes of 4 + 2
    # students, with the same permutation draws as one pass at a time
    rng = np.random.default_rng(7)
    data, params = kt_client(rng, n_students=6)
    batches = epoch_batches(data, 4, np.random.default_rng(1), n_steps=5)
    draws = np.random.default_rng(1)
    passes = [[data.ids[j] for j in draws.permutation(6)] for _ in range(3)]
    assert batches == [p[i:i + 4] for p in passes for i in (0, 4)][:5]
    _, losses = apply_updates(data, params, [(b, b) for b in batches],
                              eta=0.1, beta=0.0, clip=5.0)
    assert len(losses) == 5


def test_local_updates_reject_empty_clients():
    empty = build_client_data(KT, {}, [])
    with pytest.raises(ValueError):
        epoch_batches(empty, 4, np.random.default_rng(0), n_steps=1)
    with pytest.raises(ValueError):
        meta_batches(empty, 4, np.random.default_rng(0))


def test_gradient_clipping_bounds_the_step_size():
    rng = np.random.default_rng(9)
    data, params = kt_client(rng, n_students=4)
    clip, eta = 0.01, 0.5
    (batch,) = epoch_batches(data, 8, np.random.default_rng(1), n_steps=1)
    out, _ = apply_updates(data, params, [(batch, batch)], eta=eta, beta=0.0,
                           clip=clip)
    delta = np.concatenate([(arr - params[name]).ravel()
                            for name, arr in out.items()])
    assert np.linalg.norm(delta) <= eta * clip + 1e-12


def test_nonfinite_loss_raises_a_numerics_error():
    rng = np.random.default_rng(10)
    data, params = kt_client(rng, n_students=4)
    params["lstm.W"][0, 0] = np.inf  # simulate a diverged layer
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericsError):
            data.loss_grad(data.ids, params)

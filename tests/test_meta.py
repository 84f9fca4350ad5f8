"""Local update rules: SGD epochs and the first-order meta step."""

import numpy as np
import pytest

from hierfed.errors import NumericsError
from hierfed.fed.clients import (
    ClientState,
    build_client_data,
    local_sgd_steps,
    meta_batches,
    meta_step,
    meta_update,
)
from hierfed.keys import GroupKey
from hierfed.models.encoding import ModelSpec, Vocab
from hierfed.models.kt import kt_init
from hierfed.models.task import KT
from hierfed.nn.params import GradSet, ParamSet, axpy_params
from stepwise import kt_entry

VOCAB = Vocab(("c0", "c1"), ("v0", "v1", "v2", "v3"))


def kt_client(rng, n_students=12, course="c0"):
    seqs = {}
    for i in range(n_students):
        L = int(rng.integers(3, 7))
        items = [(int(rng.integers(2)), int(rng.integers(5))) for _ in range(L)]
        responses = [int(rng.integers(2)) for _ in range(L)]
        sid = f"s{i:02d}"
        seqs[sid] = kt_entry(items, responses, VOCAB)
    data = build_client_data(KT, seqs, list(seqs))
    params = kt_init(ModelSpec.kt(VOCAB, hidden_dim=5), rng)
    return ClientState(GroupKey(course), params, data)


def test_meta_step_on_a_quadratic_is_exact():
    # f(w) = w^2 / 2 so the gradient is w itself; starting from w = 1 with
    # an adaptation step of 0.5 and an outer step of 0.1 the update lands
    # exactly on 1 - 0.1 * (1 - 0.5) = 0.95 in double precision
    params = ParamSet({"w": np.array([1.0])})
    grad = lambda p: GradSet({"w": p["w"].copy()})
    out = meta_step(params, grad, grad, eta=0.1, beta=0.5)
    assert out["w"][0] == 0.95


def test_zero_adaptation_is_bitwise_plain_sgd():
    rng = np.random.default_rng(0)
    client = kt_client(rng)
    d = client.data.ids[:4]
    d_prime = client.data.ids[4:8]

    calls = {"d": 0}

    def grad_d(p):
        calls["d"] += 1
        return client.data.loss_grad(d, p)[1]

    def grad_d_prime(p):
        return client.data.loss_grad(d_prime, p)[1]

    stepped = meta_step(client.params, grad_d, grad_d_prime, eta=0.3, beta=0.0)
    _, grads = client.data.loss_grad(d_prime, client.params)
    sgd = axpy_params(-0.3, grads, client.params)
    for name, arr in stepped:
        assert np.array_equal(arr, sgd[name])
    # the adaptation batch is never evaluated when beta is zero
    assert calls["d"] == 0


def test_meta_update_matches_manual_two_stage_computation():
    rng = np.random.default_rng(1)
    client = kt_client(rng)
    d = client.data.ids[:4]
    d_prime = client.data.ids[4:8]
    eta, beta = 0.2, 0.05

    out = meta_update(client, eta, beta, batches=(d, d_prime))

    _, g1 = client.data.loss_grad(d, client.params)
    adapted = axpy_params(-beta, g1, client.params)
    _, g2 = client.data.loss_grad(d_prime, adapted)
    expect = axpy_params(-eta, g2, client.params)
    for name, arr in out:
        assert np.array_equal(arr, expect[name])

    # with adaptation on, the result differs from plain SGD on d_prime
    _, g_plain = client.data.loss_grad(d_prime, client.params)
    sgd = axpy_params(-eta, g_plain, client.params)
    assert any(not np.array_equal(arr, sgd[name]) for name, arr in out)


def test_meta_update_reports_losses():
    rng = np.random.default_rng(2)
    client = kt_client(rng)
    stats = {}
    meta_update(client, eta=0.1, beta=0.05, rng=np.random.default_rng(9),
                batch_size=4, stats=stats)
    assert stats["steps"] == 1
    assert stats["inner_loss"] > 0.0
    assert stats["loss"] > 0.0
    with pytest.raises(ValueError):
        meta_update(client, eta=0.1, beta=0.05)  # no rng and no batches


def test_meta_batches_are_disjoint_same_size_draws():
    rng = np.random.default_rng(3)
    client = kt_client(rng, n_students=12)
    d, d_prime = meta_batches(client, 4, np.random.default_rng(5))
    assert len(d) == len(d_prime) == 4
    assert not set(d) & set(d_prime)
    assert set(d) | set(d_prime) <= set(client.data.ids)


def test_meta_batches_small_client_keeps_the_stream_aligned():
    rng = np.random.default_rng(5)
    client = kt_client(rng, n_students=5, course="tiny-course-2")
    r1 = np.random.default_rng(7)
    meta_batches(client, 8, r1)
    r2 = np.random.default_rng(7)
    r2.permutation(5)
    assert r1.random() == r2.random()


def test_one_epoch_of_steps_visits_every_student():
    # ceil(10 / 4) = 3 steps take one shuffled pass: 4 + 4 + 2 students
    rng = np.random.default_rng(6)
    client = kt_client(rng, n_students=10)
    seen = []
    loss_grad = client.data.loss_grad

    def recording(ids, params):
        seen.append(list(ids))
        return loss_grad(ids, params)

    client.data.loss_grad = recording
    out = local_sgd_steps(client, eta=0.1, batch_size=4,
                          rng=np.random.default_rng(1), n_steps=3)
    assert [len(b) for b in seen] == [4, 4, 2]
    assert sorted(sid for b in seen for sid in b) == client.data.ids
    assert any(not np.array_equal(arr, client.params[name])
               for name, arr in out)


def test_local_sgd_steps_runs_exactly_n_steps():
    rng = np.random.default_rng(7)
    client = kt_client(rng, n_students=6)
    stats = {}
    local_sgd_steps(client, eta=0.1, batch_size=4,
                    rng=np.random.default_rng(1), n_steps=5, stats=stats)
    assert stats["steps"] == 5


def test_local_updates_reject_empty_clients():
    rng = np.random.default_rng(8)
    client = kt_client(rng)
    empty = ClientState(client.key, client.params,
                        build_client_data(KT, {}, []))
    with pytest.raises(ValueError):
        local_sgd_steps(empty, 0.1, 4, np.random.default_rng(0), n_steps=1)
    with pytest.raises(ValueError):
        meta_update(empty, 0.1, 0.05, rng=np.random.default_rng(0))


def test_gradient_clipping_bounds_the_step_size():
    rng = np.random.default_rng(9)
    client = kt_client(rng, n_students=4)
    clip, eta = 0.01, 0.5
    out = local_sgd_steps(client, eta=eta, batch_size=8,
                          rng=np.random.default_rng(1), n_steps=1, clip=clip)
    delta = np.concatenate([(arr - client.params[name]).ravel()
                            for name, arr in out])
    assert np.linalg.norm(delta) <= eta * clip + 1e-12


def test_nonfinite_loss_raises_a_numerics_error():
    rng = np.random.default_rng(10)
    client = kt_client(rng, n_students=4)
    client.params["lstm.W"][0, 0] = np.inf  # simulate a diverged layer
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericsError):
            client.data.loss_grad(client.data.ids, client.params)

"""What bench/tracing.py reads from the recurrent and attention kernels.

The traced benchmark counts a recurrent forward call's work from
result[1]["k"] and a backward call's from the cache's B, T, d and k. It
counts attention_pool's work from its first argument's (B, T, k) shape and
attention_pool_backward's from its cache's u, also (B, T, k). A kernel
refactor that drops or renames those keys, or changes those shapes, breaks
the benchmark, so they are pinned here.

The backward kernels take the valid steps' (n, k) adjoints, not a padded
(B, T, k) array, and the OP step drops the attention cache before the GRU
backward; the last test pins both, so no padded array outlives its last
reader.
"""

import weakref

import numpy as np
import pytest

import hierfed.models.kt
import hierfed.models.op
from hierfed.models.kt import kt_loss_grad
from hierfed.models.op import op_loss_grad
from hierfed.nn.layers import gru_forward, lstm_forward

B, T, D, K = 3, 5, 4, 7


def lstm_params(rng):
    return {"lstm.W": rng.normal(size=(D + K, 4 * K)),
            "lstm.b": rng.normal(size=4 * K)}


def gru_params(rng):
    return {"gru.Wzr": rng.normal(size=(D + K, 2 * K)),
            "gru.bzr": rng.normal(size=2 * K),
            "gru.Wn": rng.normal(size=(D + K, K)),
            "gru.bn": rng.normal(size=K)}


@pytest.mark.parametrize("forward, make_params", [(lstm_forward, lstm_params),
                                                  (gru_forward, gru_params)],
                         ids=["lstm", "gru"])
def test_forward_cache_holds_the_batch_dimensions(forward, make_params):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(B, T, D))
    lengths = np.array([5, 2, 4])
    result = forward(x, lengths, make_params(rng))
    cache = result[1]
    assert result[0].shape == (B, T, K)
    assert {n: cache[n] for n in ("B", "T", "d", "k")} == {"B": B, "T": T, "d": D, "k": K}
    assert all(type(cache[n]) is int for n in ("B", "T", "d", "k"))


def test_attention_kernels_see_batch_step_hidden_shapes(monkeypatch):
    # spy on the calls op_loss_grad makes, where the tracer wraps them
    seen = {}

    def spy(name):
        kernel = getattr(hierfed.models.op, name)

        def wrapper(*args):
            seen[name] = args
            return kernel(*args)
        monkeypatch.setattr(hierfed.models.op, name, wrapper)

    spy("attention_pool")
    spy("attention_pool_backward")
    rng = np.random.default_rng(1)
    params = {**gru_params(rng),
              "att.W": rng.normal(size=(K, K)), "att.p": rng.normal(size=K),
              "out.W": rng.normal(size=(K, 2)), "out.b": rng.normal(size=2)}
    x = rng.normal(size=(B, T, D))
    op_loss_grad(x, np.array([5, 2, 4]), np.array([0, 1, 1]), params)
    assert seen["attention_pool"][0].shape == (B, T, K)
    assert seen["attention_pool_backward"][1]["u"].shape == (B, T, K)


def test_backwards_take_valid_step_adjoints_once_attention_is_freed(monkeypatch):
    # the recurrent backwards get the (n, k) adjoints of the n valid steps,
    # and op_loss_grad drops the attention cache, with its (B, T, k) u,
    # before the GRU backward runs
    seen = {}
    pool = hierfed.models.op.attention_pool

    def attention_spy(*args):
        result = pool(*args)
        seen["u"] = weakref.ref(result[2]["u"])
        return result

    def spy(module, name):
        kernel = getattr(module, name)

        def wrapper(dh, cache, params):
            seen[name] = dh.shape, seen["u"]() is not None
            return kernel(dh, cache, params)
        monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setattr(hierfed.models.op, "attention_pool", attention_spy)
    spy(hierfed.models.op, "gru_backward")
    spy(hierfed.models.kt, "lstm_backward")
    rng = np.random.default_rng(2)
    lengths = np.array([5, 2, 4])
    out = {"out.W": rng.normal(size=(K, 2)), "out.b": rng.normal(size=2)}
    params = {**gru_params(rng), **out,
              "att.W": rng.normal(size=(K, K)), "att.p": rng.normal(size=K)}
    op_loss_grad(rng.normal(size=(B, T, D)), lengths, np.array([0, 1, 1]), params)
    kt_loss_grad(rng.normal(size=(B, T, D)), lengths,
                 rng.integers(0, 2, size=lengths.sum()), {**lstm_params(rng), **out})
    n = int(lengths.sum())
    assert seen["gru_backward"] == ((n, K), False)   # u is already freed
    assert seen["lstm_backward"][0] == (n, K)

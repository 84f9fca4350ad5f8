"""What bench/tracing.py reads from the recurrent and attention kernels.

The traced benchmark counts a recurrent forward call's work from
result[1]["k"] and a backward call's from the cache's B, T, d and k. It
counts attention_pool's work from its first argument's (B, T, k) shape and
attention_pool_backward's from its cache's u, also (B, T, k). A kernel
refactor that drops or renames those keys, or changes those shapes, breaks
the benchmark, so they are pinned here.
"""

import numpy as np
import pytest

import hierfed.models.op
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

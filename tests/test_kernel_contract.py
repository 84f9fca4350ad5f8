"""What bench/tracing.py reads from the recurrent kernels.

The traced benchmark counts a forward call's work from result[1]["k"] and a
backward call's from the cache's B, T, d and k. A kernel refactor that drops
or renames those keys breaks the benchmark, so they are pinned here.
"""

import numpy as np
import pytest

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

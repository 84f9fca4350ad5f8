"""Server-side reductions: weighted averaging and distance-attention pulls."""

import numpy as np
import pytest

from hierfed.fed.aggregate import (
    aggregate_attention,
    aggregate_average,
    attention_weights,
)
from hierfed.keys import GroupKey

SHAPES = {"a.W": (3, 2), "a.b": (2,)}


def rand_params(rng):
    return {k: rng.normal(size=s) for k, s in SHAPES.items()}


def make_models(rng, n):
    """{GroupKey: params} of n clients."""
    return {GroupKey(f"c{i}"): rand_params(rng) for i in range(n)}


def shares(models, sizes):
    """Size-share weights, one size per client in key order."""
    total = float(sum(sizes))
    return {key: n / total for key, n in zip(models, sizes)}


def test_equal_sizes_reduce_to_the_unweighted_mean():
    rng = np.random.default_rng(0)
    models = make_models(rng, 4)
    merged = aggregate_average(models, shares(models, [10] * 4))
    for name in SHAPES:
        plain = np.mean([p[name] for p in models.values()], axis=0)
        assert np.allclose(merged[name], plain, atol=1e-12)


def test_average_respects_client_sizes():
    rng = np.random.default_rng(1)
    models = make_models(rng, 2)
    a, b = models
    merged = aggregate_average(models, shares(models, [1, 3]))
    for name in SHAPES:
        expect = 0.25 * models[a][name] + 0.75 * models[b][name]
        assert np.allclose(merged[name], expect, atol=1e-12)


def test_average_is_input_order_invariant():
    rng = np.random.default_rng(2)
    models = make_models(rng, 5)
    weights = shares(models, [3, 1, 4, 1, 5])
    a = aggregate_average(models, weights)
    b = aggregate_average(dict(reversed(models.items())), weights)
    for name in SHAPES:
        assert np.array_equal(a[name], b[name])


def test_attention_weights_sum_to_one():
    rng = np.random.default_rng(4)
    server = rand_params(rng)
    clients = make_models(rng, 6)
    layerwise = attention_weights(server, clients, mode="layerwise")
    for name in SHAPES:
        assert layerwise[name].shape == (6,)
        assert abs(layerwise[name].sum() - 1.0) <= 1e-12
    scalar = attention_weights(server, clients, mode="scalar")
    assert scalar.shape == (6,)
    assert abs(scalar.sum() - 1.0) <= 1e-12


def test_farther_clients_attract_more_weight():
    rng = np.random.default_rng(5)
    server = rand_params(rng)
    near = {k: a + 0.01 for k, a in server.items()}
    far = {k: a + 2.0 for k, a in server.items()}
    w = attention_weights(server, {GroupKey("c0"): near, GroupKey("c1"): far},
                          mode="scalar")
    assert w[1] > w[0]


def test_attention_fixed_point_when_clients_match_server():
    rng = np.random.default_rng(6)
    server = rand_params(rng)
    clients = {GroupKey(f"c{i}"): {n: a.copy() for n, a in server.items()}
               for i in range(3)}
    for mode in ("layerwise", "scalar"):
        out = aggregate_attention(server, clients, eps=0.7, mode=mode)
        for name in SHAPES:
            assert np.array_equal(out[name], server[name])


def test_attention_pull_matches_direct_formula():
    rng = np.random.default_rng(7)
    server = rand_params(rng)
    clients = make_models(rng, 3)
    eps = 0.4
    weights = attention_weights(server, clients, mode="layerwise")
    out = aggregate_attention(server, clients, eps=eps, mode="layerwise")
    for name in SHAPES:
        pull = sum(weights[name][i] * (server[name] - p[name])
                   for i, p in enumerate(clients.values()))
        assert np.allclose(out[name], server[name] - eps * pull, atol=1e-12)


def test_attention_pull_moves_toward_a_lone_client():
    rng = np.random.default_rng(8)
    server = rand_params(rng)
    target = rand_params(rng)
    out = aggregate_attention(server, {GroupKey("c0"): target}, eps=1.0,
                              mode="scalar")
    for name in SHAPES:
        # single client takes all the weight, a full step lands on it
        assert np.allclose(out[name], target[name], atol=1e-12)

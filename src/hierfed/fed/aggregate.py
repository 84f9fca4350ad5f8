"""Server-side aggregation: size-weighted averaging and attention pulls.

All reductions iterate clients in ascending GroupKey order so results do
not depend on dict insertion order or scheduling.
"""

from __future__ import annotations

import numpy as np

from ..nn.params import ParamSet, check_congruent
from .clients import ClientState


def _ordered(clients) -> list:
    clients = list(clients)
    if not clients:
        raise ValueError("aggregation needs at least one client")
    return sorted(clients, key=lambda c: c.key.sort_key())


def aggregate_average(clients, weights: dict | None = None) -> ParamSet:
    """Weighted sum of client parameters.

    weights maps each client key to its weight and is used as given; by
    default every client weighs its share of the total size, which makes
    the sum a size-weighted mean.
    """
    clients = _ordered(clients)
    if weights is None:
        total = float(sum(c.size for c in clients))
        weights = {c.key: c.size / total for c in clients}
    head, *rest = clients
    acc = {name: weights[head.key] * arr for name, arr in head.params}
    for c in rest:
        check_congruent(head.params, c.params)
        w = weights[c.key]
        for name, arr in c.params:
            acc[name] = acc[name] + w * arr
    return ParamSet(acc)


def attention_weights(server: ParamSet, clients, mode: str = "layerwise"):
    """Distance-softmax weights per client.

    layerwise: {layer: weight vector across clients}; each layer's weights
    sum to 1. scalar: one vector across clients, the per-layer weights
    averaged over layers, so it also sums to 1. Clients farther from the
    server receive larger weight.
    """
    if mode not in ("layerwise", "scalar"):
        raise ValueError(f"unknown attention mode {mode!r}")
    clients = _ordered(clients)
    for c in clients:
        check_congruent(server, c.params)
    names = server.names()
    dist = np.zeros((len(clients), len(names)))
    for i, c in enumerate(clients):
        for j, name in enumerate(names):
            dist[i, j] = np.linalg.norm(server[name] - c.params[name])
    shifted = dist - dist.max(axis=0, keepdims=True)
    ex = np.exp(shifted)
    per_layer = ex / ex.sum(axis=0, keepdims=True)  # (clients, layers)
    if mode == "layerwise":
        return {name: per_layer[:, j].copy() for j, name in enumerate(names)}
    return per_layer.mean(axis=1)


def aggregate_attention(server: ParamSet, clients, eps: float,
                        mode: str = "layerwise") -> ParamSet:
    """Pull the server toward clients: Θ_g − ε·Σ_c α_c (Θ_g − Θ_c)."""
    clients = _ordered(clients)
    weights = attention_weights(server, clients, mode)
    out = {}
    for name in server.names():
        alpha = weights[name] if mode == "layerwise" else weights
        pull = np.zeros_like(server[name])
        for i, c in enumerate(clients):
            pull = pull + alpha[i] * (server[name] - c.params[name])
        out[name] = server[name] - eps * pull
    return ParamSet(out)

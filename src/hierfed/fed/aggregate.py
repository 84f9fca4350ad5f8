"""Server-side aggregation: weighted averaging and attention pulls.

Clients arrive as {GroupKey: ParamSet}. All reductions iterate them in
ascending GroupKey order so results do not depend on dict insertion order
or scheduling.
"""

from __future__ import annotations

import numpy as np

from ..keys import GroupKey
from ..nn.params import ParamSet


def aggregate_average(models: dict, weights: dict) -> ParamSet:
    """Weighted sum of client parameters; weights maps each client key to
    its weight and is used as given (size shares make a size-weighted
    mean)."""
    head, *rest = sorted(models, key=GroupKey.sort_key)
    acc = {name: weights[head] * arr for name, arr in models[head]}
    for key in rest:
        w = weights[key]
        for name, arr in models[key]:
            acc[name] = acc[name] + w * arr
    return ParamSet(acc)


def attention_weights(server: ParamSet, models: dict, mode: str = "layerwise"):
    """Distance-softmax weights per client, in GroupKey order.

    layerwise: {layer: weight vector across clients}; each layer's weights
    sum to 1. scalar: one vector across clients, the per-layer weights
    averaged over layers, so it also sums to 1. Clients farther from the
    server receive larger weight.
    """
    keys = sorted(models, key=GroupKey.sort_key)
    names = server.names()
    dist = np.zeros((len(keys), len(names)))
    for i, key in enumerate(keys):
        for j, name in enumerate(names):
            dist[i, j] = np.linalg.norm(server[name] - models[key][name])
    shifted = dist - dist.max(axis=0, keepdims=True)
    ex = np.exp(shifted)
    per_layer = ex / ex.sum(axis=0, keepdims=True)  # (clients, layers)
    if mode == "layerwise":
        return {name: per_layer[:, j].copy() for j, name in enumerate(names)}
    return per_layer.mean(axis=1)


def aggregate_attention(server: ParamSet, models: dict, eps: float,
                        mode: str = "layerwise") -> ParamSet:
    """Pull the server toward clients: Θ_g − ε·Σ_c α_c (Θ_g − Θ_c)."""
    keys = sorted(models, key=GroupKey.sort_key)
    weights = attention_weights(server, models, mode)
    out = {}
    for name in server.names():
        alpha = weights[name] if mode == "layerwise" else weights
        pull = np.zeros_like(server[name])
        for i, key in enumerate(keys):
            pull = pull + alpha[i] * (server[name] - models[key][name])
        out[name] = server[name] - eps * pull
    return ParamSet(out)

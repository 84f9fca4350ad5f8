"""The update algebra over a model's parameters: a dict of layer name ->
float64 ndarray, the unit of aggregation, meta updates and checkpoints.
Gradients are dicts of the same layers.

Layer order is part of the contract: parameters and gradients of one
architecture have the same names, shapes and order, and param_norm sums in
that order. A run's parameters all derive from one Task.init or from a
checkpoint checked against it at load, so nothing here re-checks them.
"""

from __future__ import annotations

import math

import numpy as np


def axpy_params(a: float, x: dict, y: dict) -> dict:
    """y + a*x, layer by layer."""
    return {k: y[k] + a * x[k] for k in y}


def param_scale(a: float, p: dict) -> dict:
    return {k: a * v for k, v in p.items()}


def param_norm(p: dict) -> float:
    """Global L2 norm over all layers."""
    total = 0.0
    for a in p.values():
        total += float(np.dot(a.ravel(), a.ravel()))
    return math.sqrt(total)


def clip_grad_norm(g: dict, max_norm: float) -> dict:
    """Scale g so its global L2 norm is at most max_norm.

    Returns g unchanged (same object) when no clipping is needed, which keeps
    the common case allocation-free.
    """
    norm = param_norm(g)
    if norm <= max_norm or norm == 0.0:
        return g
    return param_scale(max_norm / norm, g)

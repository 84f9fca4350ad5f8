"""Named-layer parameter containers and the algebra used for aggregation.

A ParamSet is an ordered mapping layer-name -> float64 array. It is the unit
that federated aggregation, meta updates, and checkpointing operate on.
Gradients use the same container, layer for layer with their parameters.
"""

from __future__ import annotations

import math

import numpy as np


class ParamSet:
    """Ordered map of layer name -> float64 ndarray.

    Iteration order is insertion order and is part of the contract: two
    ParamSets from the same model architecture always have identical layer
    names, shapes, and ordering. A run's ParamSets all derive from one
    Task.init or from a checkpoint checked against it at load, so the
    algebra below does not re-check them.
    """

    def __init__(self, layers: dict[str, np.ndarray]):
        self.layers = {name: np.asarray(arr, dtype=np.float64)
                       for name, arr in layers.items()}

    def names(self) -> list[str]:
        return list(self.layers.keys())

    def __getitem__(self, name: str) -> np.ndarray:
        return self.layers[name]

    def __iter__(self):
        return iter(self.layers.items())

    def flat(self) -> np.ndarray:
        """Concatenation of all layers in order, row-major."""
        if not self.layers:
            return np.zeros(0)
        return np.concatenate([a.ravel() for a in self.layers.values()])

    def first_nonfinite_layer(self) -> str | None:
        for name, a in self.layers.items():
            if not np.all(np.isfinite(a)):
                return name
        return None

    def __repr__(self) -> str:
        shapes = ", ".join(f"{k}:{tuple(v.shape)}" for k, v in self.layers.items())
        return f"ParamSet({shapes})"


def axpy_params(a: float, x: ParamSet, y: ParamSet) -> ParamSet:
    """y + a*x, layer by layer."""
    return ParamSet({k: y.layers[k] + a * x.layers[k] for k in y.layers})


def param_scale(a: float, p: ParamSet) -> ParamSet:
    return ParamSet({k: a * v for k, v in p.layers.items()})


def param_norm(p: ParamSet) -> float:
    """Global L2 norm over all layers."""
    total = 0.0
    for a in p.layers.values():
        total += float(np.dot(a.ravel(), a.ravel()))
    return math.sqrt(total)


def clip_grad_norm(g: ParamSet, max_norm: float) -> ParamSet:
    """Scale g so its global L2 norm is at most max_norm.

    Returns g unchanged (same object) when no clipping is needed, which keeps
    the common case allocation-free.
    """
    norm = param_norm(g)
    if norm <= max_norm or norm == 0.0:
        return g
    return param_scale(max_norm / norm, g)

"""Named-layer parameter containers and the algebra used for aggregation.

A ParamSet is an ordered mapping layer-name -> float64 array. It is the unit
that federated aggregation, meta updates, and checkpointing operate on.
Gradients use the same container (GradSet is an alias); a gradient is
congruent with its parameters layer by layer.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    """A tensor has the wrong shape for the layer consuming it."""


class StructureError(ValueError):
    """Two parameter sets disagree on layer names or shapes."""


class ParamSet:
    """Ordered map of layer name -> float64 ndarray.

    Iteration order is insertion order and is part of the contract: two
    ParamSets from the same model architecture always have identical layer
    names, shapes, and ordering.
    """

    def __init__(self, layers: dict[str, np.ndarray]):
        self.layers: dict[str, np.ndarray] = {}
        for name, arr in layers.items():
            a = np.asarray(arr, dtype=np.float64)
            if not np.all(np.isfinite(a)):
                raise ValueError(f"layer {name!r} contains non-finite values")
            self.layers[name] = a

    def names(self) -> list[str]:
        return list(self.layers.keys())

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.layers[name]
        except KeyError:
            raise StructureError(f"no layer named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.layers

    def __iter__(self):
        return iter(self.layers.items())

    def copy(self) -> "ParamSet":
        out = ParamSet.__new__(ParamSet)
        out.layers = {k: v.copy() for k, v in self.layers.items()}
        return out

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


# Gradients share the container; congruence with the owning ParamSet is
# checked wherever the two meet.
GradSet = ParamSet


def as_grads(layers: dict[str, np.ndarray]) -> GradSet:
    """GradSet over freshly computed arrays, skipping the finite-input check.

    Backward passes legitimately produce non-finite values once training has
    diverged; the training loop detects that from the loss, so wrapping the
    arrays must not raise first.
    """
    out = GradSet.__new__(GradSet)
    out.layers = {k: np.asarray(v, dtype=np.float64) for k, v in layers.items()}
    return out


def check_congruent(p: ParamSet, q: ParamSet) -> None:
    if p.names() != q.names():
        raise StructureError(f"layer names differ: {p.names()} vs {q.names()}")
    for name in p.layers:
        if p.layers[name].shape != q.layers[name].shape:
            raise StructureError(
                f"layer {name!r} shape mismatch: "
                f"{p.layers[name].shape} vs {q.layers[name].shape}"
            )


def axpy_params(a: float, x: ParamSet, y: ParamSet) -> ParamSet:
    """y + a*x, layer by layer."""
    check_congruent(x, y)
    out = ParamSet.__new__(ParamSet)
    out.layers = {k: y.layers[k] + a * x.layers[k] for k in y.layers}
    return out


def param_scale(a: float, p: ParamSet) -> ParamSet:
    out = ParamSet.__new__(ParamSet)
    out.layers = {k: a * v for k, v in p.layers.items()}
    return out


def param_norm(p: ParamSet) -> float:
    """Global L2 norm over all layers."""
    total = 0.0
    for a in p.layers.values():
        total += float(np.dot(a.ravel(), a.ravel()))
    return math.sqrt(total)


def clip_grad_norm(g: GradSet, max_norm: float) -> GradSet:
    """Scale g so its global L2 norm is at most max_norm.

    Returns g unchanged (same object) when no clipping is needed, which keeps
    the common case allocation-free.
    """
    norm = param_norm(g)
    if norm <= max_norm or norm == 0.0:
        return g
    return param_scale(max_norm / norm, g)

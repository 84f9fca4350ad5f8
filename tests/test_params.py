"""The update algebra over parameter dicts."""

import numpy as np
import pytest

from hierfed.nn.params import (
    axpy_params,
    clip_grad_norm,
    param_norm,
    param_scale,
)


def random_params(rng, shapes=None):
    shapes = shapes or {"w": (3, 4), "b": (4,), "out": (2, 2)}
    return {k: rng.normal(size=s) for k, s in shapes.items()}


def flat(p):
    """All layers concatenated in layer order, row-major."""
    return np.concatenate([a.ravel() for a in p.values()])


def test_algebra_matches_flat_vector_arithmetic():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        p = random_params(rng)
        q = random_params(rng)
        a = float(rng.normal())
        assert np.allclose(flat(axpy_params(a, p, q)), flat(q) + a * flat(p))
        assert np.allclose(flat(param_scale(a, p)), a * flat(p))
        assert param_norm(p) == pytest.approx(np.linalg.norm(flat(p)))


def test_clip_grad_norm_noop_returns_same_object():
    rng = np.random.default_rng(3)
    g = random_params(rng)
    big = param_norm(g) + 1.0
    assert clip_grad_norm(g, big) is g


def test_clip_grad_norm_scales_to_max_norm():
    rng = np.random.default_rng(4)
    g = random_params(rng)
    clipped = clip_grad_norm(g, 0.5)
    assert param_norm(clipped) == pytest.approx(0.5)
    # direction is preserved
    cos = np.dot(flat(g), flat(clipped)) / (param_norm(g) * 0.5)
    assert cos == pytest.approx(1.0)


def test_clip_grad_norm_zero_gradient_passes_through():
    g = {"w": np.zeros(3)}
    assert clip_grad_norm(g, 1.0) is g

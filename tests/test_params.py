"""Parameter container contract and the aggregation algebra."""

import numpy as np
import pytest

from hierfed.nn.params import (
    ParamSet,
    axpy_params,
    clip_grad_norm,
    param_norm,
    param_scale,
)


def random_params(rng, shapes=None):
    shapes = shapes or {"w": (3, 4), "b": (4,), "out": (2, 2)}
    return ParamSet({k: rng.normal(size=s) for k, s in shapes.items()})


def test_layer_order_is_insertion_order():
    p = ParamSet({"z": np.zeros(2), "a": np.ones(3), "m": np.zeros(1)})
    assert p.names() == ["z", "a", "m"]
    assert [k for k, _ in p] == ["z", "a", "m"]


def test_arrays_coerced_to_float64():
    p = ParamSet({"w": np.arange(4, dtype=np.int32)})
    assert p["w"].dtype == np.float64


def test_flat_concatenates_in_layer_order():
    p = ParamSet({"a": np.array([[1.0, 2.0]]), "b": np.array([3.0])})
    assert np.array_equal(p.flat(), np.array([1.0, 2.0, 3.0]))


def test_algebra_matches_flat_vector_arithmetic():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        p = random_params(rng)
        q = random_params(rng)
        a = float(rng.normal())
        assert np.allclose(axpy_params(a, p, q).flat(), q.flat() + a * p.flat())
        assert np.allclose(param_scale(a, p).flat(), a * p.flat())
        assert param_norm(p) == pytest.approx(np.linalg.norm(p.flat()))


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
    cos = np.dot(g.flat(), clipped.flat()) / (param_norm(g) * 0.5)
    assert cos == pytest.approx(1.0)


def test_clip_grad_norm_zero_gradient_passes_through():
    g = ParamSet({"w": np.zeros(3)})
    assert clip_grad_norm(g, 1.0) is g


def test_first_nonfinite_layer_reports_in_order():
    p = ParamSet({"a": np.zeros(2), "b": np.zeros(2), "c": np.zeros(2)})
    assert p.first_nonfinite_layer() is None
    p.layers["b"][0] = np.inf
    p.layers["c"][0] = np.nan
    assert p.first_nonfinite_layer() == "b"

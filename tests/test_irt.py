"""Rasch fitting, subgroup confidence weights, and parameter interpolation."""

import numpy as np
import pytest

from hierfed.fed.irt import (
    irt_confidence,
    irt_interpolate,
    mean_predictive_likelihood,
    rasch_fit,
)
from hierfed.keys import GroupKey

CLEAN, NOISY = GroupKey("c0", "gender", "F"), GroupKey("c0", "gender", "M")


def simulate_triplets(rng, abilities, difficulties, flip=0.0, tag=""):
    out = []
    for s, a in abilities.items():
        for v, d in difficulties.items():
            p = 1.0 / (1.0 + np.exp(-(a - d)))
            r = int(rng.random() < p)
            if flip and rng.random() < flip:
                r = 1 - r
            out.append((tag + s, v, r))
    return out


def world(n_students=30, n_items=12, seed=0):
    rng = np.random.default_rng(seed)
    abilities = {f"s{i:02d}": float(rng.normal()) for i in range(n_students)}
    difficulties = {f"v{j:02d}": float(x)
                    for j, x in enumerate(np.linspace(-1.5, 1.5, n_items))}
    return rng, abilities, difficulties


def test_rasch_fit_recovers_the_orderings():
    rng, abilities, difficulties = world(seed=1)
    triplets = simulate_triplets(rng, abilities, difficulties)
    fit_a, fit_d = rasch_fit(triplets)

    true_a = np.array([abilities[s] for s in sorted(abilities)])
    est_a = np.array([fit_a[s] for s in sorted(abilities)])
    assert np.corrcoef(true_a, est_a)[0, 1] > 0.7

    true_d = np.array([difficulties[v] for v in sorted(difficulties)])
    est_d = np.array([fit_d[v] for v in sorted(difficulties)])
    assert np.corrcoef(true_d, est_d)[0, 1] > 0.9


def test_rasch_fit_centers_difficulties_and_clamps_abilities():
    rng, abilities, difficulties = world(seed=2)
    triplets = simulate_triplets(rng, abilities, difficulties)
    # a perfectly separated student would push their ability to infinity
    triplets += [("ace", v, 1) for v in difficulties]
    fit_a, fit_d = rasch_fit(triplets)
    assert abs(np.mean(list(fit_d.values()))) < 1e-6
    assert all(abs(a) <= 4.0 + 1e-9 for a in fit_a.values())
    assert fit_a["ace"] >= max(v for k, v in fit_a.items() if k != "ace")


def test_rasch_fit_rejects_empty_input():
    with pytest.raises(ValueError):
        rasch_fit([])


def test_mean_predictive_likelihood_baseline():
    assert mean_predictive_likelihood([], {}, {}) == 0.5
    # zero ability against zero difficulty predicts a coin flip
    got = mean_predictive_likelihood([("s", "v", 1), ("s", "v", 0)],
                                     {"s": 0.0}, {"v": 0.0})
    assert got == pytest.approx(0.5, abs=1e-12)


def test_confidence_prefers_the_predictable_subgroup():
    wins = 0
    for seed in range(3):
        rng, abilities, difficulties = world(seed=100 + seed)
        clean = simulate_triplets(rng, abilities, difficulties, tag="a-")
        noisy = simulate_triplets(rng, abilities, difficulties, flip=0.45,
                                  tag="b-")
        conf = irt_confidence({CLEAN: clean, NOISY: noisy})
        assert abs(sum(conf.values()) - 1.0) <= 1e-12
        if conf[CLEAN] > conf[NOISY]:
            wins += 1
    assert wins >= 2


def test_confidence_uniform_prior_for_silent_subgroups():
    rng, abilities, difficulties = world(seed=7)
    triplets = simulate_triplets(rng, abilities, difficulties)
    active, silent = CLEAN, NOISY
    conf = irt_confidence({active: triplets, silent: []})
    assert set(conf) == {active, silent}
    assert abs(sum(conf.values()) - 1.0) <= 1e-12
    assert conf[silent] > 0.0
    with pytest.raises(ValueError):
        irt_confidence({})


def test_interpolate_identical_inputs_pass_through_bitwise():
    rng = np.random.default_rng(11)
    g = {"a.W": rng.normal(size=(3, 2)), "a.b": rng.normal(size=2)}
    out = irt_interpolate({n: a.copy() for n, a in g.items()}, g)
    for name, arr in out.items():
        assert np.array_equal(arr, g[name])


def test_interpolate_falls_back_to_global():
    rng = np.random.default_rng(12)
    g = {"a.W": rng.normal(size=(3, 2)), "a.b": rng.normal(size=2)}
    zero_local = {k: np.zeros_like(v) for k, v in g.items()}
    out = irt_interpolate(zero_local, g)
    for name, arr in out.items():
        assert np.array_equal(arr, g[name])
    # opposite directions clamp the similarity at zero, not -1
    neg_local = {k: -v for k, v in g.items()}
    out = irt_interpolate(neg_local, g)
    for name, arr in out.items():
        assert np.array_equal(arr, g[name])


def test_interpolate_blends_by_cosine_similarity():
    g = {"w": np.array([1.0, 0.0])}
    local = {"w": np.array([1.0, 1.0])}
    lam = 1.0 / np.sqrt(2.0)
    out = irt_interpolate(local, g)
    expect = g["w"] + lam * (local["w"] - g["w"])
    assert np.allclose(out["w"], expect, atol=1e-12)

"""Rasch-model confidence weighting and interpolation for the FedIRT baseline."""

from __future__ import annotations

import logging

import numpy as np

from ..keys import GroupKey

logger = logging.getLogger(__name__)

ABILITY_CLAMP = 4.0
MAX_ALTERNATIONS = 50
FIT_TOL = 1e-6
UNIFORM_LIKELIHOOD = 0.5


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def rasch_fit(triplets):
    """Fit a 1PL model to (student, item, response) triplets.

    Alternating maximum likelihood: one Newton step for every ability, then
    one for every difficulty, difficulties recentered each alternation and
    abilities clamped to [-4, 4]. Stops after 50 alternations or when the
    largest parameter change drops below 1e-6. Returns (abilities,
    difficulties) as dicts keyed by the original student/item ids.
    """
    if not triplets:
        raise ValueError("rasch_fit: no responses")
    students = sorted({t[0] for t in triplets})
    items = sorted({t[1] for t in triplets})
    s_idx = {s: i for i, s in enumerate(students)}
    i_idx = {v: j for j, v in enumerate(items)}
    si = np.array([s_idx[t[0]] for t in triplets])
    ii = np.array([i_idx[t[1]] for t in triplets])
    r = np.array([float(t[2]) for t in triplets])

    a = np.zeros(len(students))
    d = np.zeros(len(items))
    for _ in range(MAX_ALTERNATIONS):
        p = _sigmoid(a[si] - d[ii])
        w = p * (1.0 - p)
        num_a = np.bincount(si, weights=r - p, minlength=len(students))
        den_a = np.bincount(si, weights=w, minlength=len(students)) + 1e-9
        a_new = np.clip(a + num_a / den_a, -ABILITY_CLAMP, ABILITY_CLAMP)

        p = _sigmoid(a_new[si] - d[ii])
        w = p * (1.0 - p)
        num_d = np.bincount(ii, weights=r - p, minlength=len(items))
        den_d = np.bincount(ii, weights=w, minlength=len(items)) + 1e-9
        d_new = d - num_d / den_d  # dL/dd = -(r - p)
        shift = d_new.mean()
        d_new = d_new - shift
        a_new = np.clip(a_new - shift, -ABILITY_CLAMP, ABILITY_CLAMP)

        delta = max(np.abs(a_new - a).max(), np.abs(d_new - d).max())
        a, d = a_new, d_new
        if delta < FIT_TOL:
            break
    return ({s: float(a[s_idx[s]]) for s in students},
            {v: float(d[i_idx[v]]) for v in items})


def mean_predictive_likelihood(triplets, abilities, difficulties) -> float:
    """Mean per-response likelihood of observed responses under a fit."""
    if not triplets:
        return UNIFORM_LIKELIHOOD
    total = 0.0
    for s, v, r in triplets:
        p = float(_sigmoid(abilities[s] - difficulties[v]))
        total += p if r == 1 else 1.0 - p
    return total / len(triplets)


def irt_confidence(subgroup_responses: dict) -> dict:
    """Per-subgroup data-quality weights for one course.

    Pools every subgroup's (student, item, response) triplets into one
    Rasch fit, scores each subgroup by its mean predictive likelihood, and
    normalizes so the weights sum to 1. Subgroups with no responses score
    the uniform-prior likelihood of 0.5 (logged).
    """
    if not subgroup_responses:
        raise ValueError("irt_confidence: no subgroups")
    pooled = [t for ts in subgroup_responses.values() for t in ts]
    if pooled:
        abilities, difficulties = rasch_fit(pooled)
    else:
        abilities, difficulties = {}, {}
    raw = {}
    for key in sorted(subgroup_responses, key=GroupKey.sort_key):
        ts = subgroup_responses[key]
        if not ts:
            logger.info("subgroup %s has no quiz responses; using uniform "
                        "prior likelihood", key)
            raw[key] = UNIFORM_LIKELIHOOD
        else:
            raw[key] = mean_predictive_likelihood(ts, abilities, difficulties)
    total = sum(raw.values())
    return {key: val / total for key, val in raw.items()}


def irt_interpolate(local_prev: dict, global_params: dict) -> dict:
    """Convex blend of previous local and fresh global parameters.

    The blend weight is the cosine similarity of the flattened parameter
    vectors, clamped to [0, 1]; zero-norm operands give weight 0 (all
    global). Written as global + lam*(local - global) so identical inputs
    pass through bitwise.
    """
    x = np.concatenate([a.ravel() for a in local_prev.values()])
    y = np.concatenate([a.ravel() for a in global_params.values()])
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        logger.debug("irt_interpolate: zero-norm operand, using global")
        lam = 0.0
    else:
        lam = float(np.dot(x, y) / (nx * ny))
        lam = min(1.0, max(0.0, lam))
    out = {}
    for name, g_arr in global_params.items():
        l_arr = local_prev[name]
        out[name] = g_arr + lam * (l_arr - g_arr)
    return out

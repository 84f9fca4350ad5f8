"""Central finite differences: the reference the gradient tests compare the
analytic backward passes against."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class OracleError(RuntimeError):
    """Raised when a loss evaluation is not finite during differencing."""


def finite_diff_grad(loss_fn: Callable[[dict], float], params: dict,
                     step: float = 1e-5) -> dict:
    """Estimate d loss / d params by central differences, one entry at a time.

    loss_fn must be a pure function of the parameters. O(P) evaluations, so
    keep the models tiny when calling this.
    """
    work = {name: arr.copy() for name, arr in params.items()}
    out = {}
    for name, arr in work.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            lo_plus = loss_fn(work)
            flat[j] = orig - step
            lo_minus = loss_fn(work)
            flat[j] = orig
            if not (math.isfinite(lo_plus) and math.isfinite(lo_minus)):
                raise OracleError(
                    f"non-finite loss while differencing {name}[{j}]")
            gflat[j] = (lo_plus - lo_minus) / (2.0 * step)
        out[name] = g
    return out


def grad_rel_error(ga: dict, gfd: dict) -> float:
    """Max over layers of ||ga - gfd|| / (||ga|| + ||gfd|| + 1e-12)."""
    worst = 0.0
    for name, a in ga.items():
        f = gfd[name]
        num = float(np.linalg.norm(a - f))
        den = float(np.linalg.norm(a)) + float(np.linalg.norm(f)) + 1e-12
        worst = max(worst, num / den)
    return worst

"""The valid-step KT head and attention pooler against their padded reference.

tests/padded.py computes both layers over every padded step and masks
afterwards. The program computes only valid steps, so sums run in another
order: forward outputs may move by 1e-13 and gradients by 1e-12, relative to
each array's largest entry. KT scores and the KT loss keep their bits.
"""

import numpy as np
import pytest

import padded
from hierfed.models.kt import kt_loss_grad, kt_predict
from hierfed.nn.layers import attention_pool, attention_pool_backward
from hierfed.nn.params import ParamSet

FORWARD_TOL = 1e-13
GRAD_TOL = 1e-12

# (lengths, T): ragged with length-1 rows, B = 1, T = 1, all full length
CASES = {
    "ragged": ([3, 1, 7, 5, 1, 7, 2, 6], 7),
    "one-row": ([4], 6),
    "one-step": ([1, 1, 1], 1),
    "full": ([5, 5, 5, 5], 5),
}


def rel(actual, reference):
    """Largest absolute difference relative to the reference's largest entry."""
    diff = np.abs(actual - reference).max()
    scale = np.abs(reference).max()
    return diff / scale if scale else diff


def masked(x, lengths):
    """x with every step past its row's length zeroed, as pad_batch leaves it."""
    x = x.copy()
    for b, L in enumerate(lengths):
        x[b, L:] = 0.0
    return x


def valid_mask(lengths, T):
    return np.arange(T)[None, :] < np.asarray(lengths)[:, None]


@pytest.mark.parametrize("case", sorted(CASES))
def test_attention_matches_the_padded_reference(case):
    lengths, T = CASES[case]
    lengths = np.array(lengths)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        B, k = len(lengths), 6
        params = ParamSet({"att.W": 0.5 * rng.normal(size=(k, k)),
                           "att.p": rng.normal(size=k)})
        # zero past each length, as gru_forward returns its states
        h_seq = masked(rng.normal(size=(B, T, k)), lengths)
        dh_tilde = rng.normal(size=(B, k))

        h_tilde, alphas, cache = attention_pool(h_seq, lengths, params)
        grads, dh_seq = attention_pool_backward(dh_tilde, cache, params)
        ref_tilde, ref_alphas, ref_cache = padded.attention_pool(
            h_seq, lengths, params)
        ref_grads, ref_dh = padded.attention_pool_backward(
            dh_tilde, ref_cache, params)

        assert rel(h_tilde, ref_tilde) <= FORWARD_TOL
        assert rel(alphas, ref_alphas) <= FORWARD_TOL
        for name, g in ref_grads:
            assert rel(grads[name], g) <= GRAD_TOL, name
        assert rel(dh_seq, ref_dh) <= GRAD_TOL

        valid = valid_mask(lengths, T)
        assert cache["u"].shape == (B, T, k)
        assert np.all(cache["u"][~valid] == 0.0)
        assert rel(cache["u"][valid], ref_cache["u"][valid]) <= FORWARD_TOL
        assert np.all(alphas[~valid] == 0.0)
        assert np.all(dh_seq[~valid] == 0.0)


# KT batches may hold length-0 rows: a student with one response has no
# scored step.
KT_CASES = {**CASES, "empty-rows": ([0, 4, 0, 2], 4)}


@pytest.mark.parametrize("case", sorted(KT_CASES))
def test_kt_head_matches_the_padded_reference(case):
    lengths, T = KT_CASES[case]
    lengths = np.array(lengths)
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        B, D, k = len(lengths), 5, 6
        params = ParamSet({"lstm.W": 0.5 * rng.normal(size=(D + k, 4 * k)),
                           "lstm.b": 0.5 * rng.normal(size=4 * k),
                           "out.W": rng.normal(size=(k, 2)),
                           "out.b": rng.normal(size=2)})
        x = masked(rng.normal(size=(B, T, D)), lengths)
        targets = rng.integers(0, 2, size=(B, T))

        loss, grads = kt_loss_grad(x, lengths, targets, params)
        scores, labels = kt_predict(x, lengths, targets, params)
        ref_loss, ref_grads, ref_probs = padded.kt_loss_grad(
            x, lengths, targets, params)

        valid = valid_mask(lengths, T)
        assert np.array_equal(scores, ref_probs[:, :, 1][valid])
        assert np.array_equal(labels, targets[valid])
        assert loss == ref_loss
        for name, g in ref_grads:
            assert rel(grads[name], g) <= GRAD_TOL, name

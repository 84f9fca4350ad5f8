"""Knowledge-tracing model: LSTM over item one-hots, 2-way softmax head.

The hidden state after consuming item t produces the probability of a
correct response to item t+1; the first response is never a target and the
last hidden state is never scored, so a length-L sequence has L-1 scored
steps.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import (PROB_CLAMP, head_params, head_probs, lstm_backward,
                         lstm_forward)
from ..nn.params import ParamSet, as_grads


def kt_init(vocab, hidden_dim: int, rng: np.random.Generator) -> ParamSet:
    """Uniform(-1/sqrt(fan_in)) weights, zero biases."""
    d, k = vocab.kt_input_dim, hidden_dim
    s_in = 1.0 / np.sqrt(d + k)
    s_out = 1.0 / np.sqrt(k)
    return ParamSet({
        "lstm.W": rng.uniform(-s_in, s_in, (d + k, 4 * k)),
        "lstm.b": np.zeros(4 * k),
        "out.W": rng.uniform(-s_out, s_out, (k, 2)),
        "out.b": np.zeros(2),
    })


def _forward(x, lengths, params: ParamSet):
    """Hidden states (B, T, k), class probabilities (B, T, 2) and the LSTM
    cache of an encoded padded batch, plus its valid-step mask (B, T)."""
    W, b = head_params(params, params["lstm.b"].size // 4)
    h_seq, cache = lstm_forward(x, lengths, params)
    valid = np.arange(h_seq.shape[1])[None, :] < np.asarray(lengths)[:, None]
    return h_seq, head_probs(h_seq, W, b), cache, valid


def kt_loss_grad(x, lengths, targets, params: ParamSet):
    """Loss, gradient, and per-step probabilities on an encoded padded batch.

    x: (B, T, D); lengths: scored steps per student; targets: (B, T) int
    responses, only entries before each length are read. Returns
    (loss, grads, probs) with probs (B, T, 2); rows past a student's length
    are meaningless and must be ignored by callers.
    """
    h_seq, probs, cache, valid = _forward(x, lengths, params)
    safe_t = np.where(valid, np.asarray(targets, dtype=np.int64), 0)
    onehot = np.zeros(probs.shape)
    np.put_along_axis(onehot, safe_t[:, :, None], 1.0, axis=2)

    picked = np.take_along_axis(probs, safe_t[:, :, None], axis=2)[:, :, 0]
    picked = np.clip(picked, PROB_CLAMP, 1.0 - PROB_CLAMP)
    loss = float(-(np.log(picked) * valid).sum())

    dlogits = (probs - onehot) * valid[:, :, None]
    dW = np.einsum("btk,btj->kj", h_seq, dlogits)
    db = dlogits.sum(axis=(0, 1))
    dh_seq = dlogits @ params["out.W"].T
    g_lstm = lstm_backward(dh_seq, cache, params)

    grads = as_grads({
        "lstm.W": g_lstm["lstm.W"], "lstm.b": g_lstm["lstm.b"],
        "out.W": dW, "out.b": db,
    })
    return loss, grads, probs


def kt_predict(x, lengths, targets, params: ParamSet):
    """Scores and labels for AUC: P(correct) per valid step, flattened.

    Returns (scores, labels) in batch-major, step-minor order.
    """
    _, probs, _, valid = _forward(x, lengths, params)
    return probs[:, :, 1][valid], np.asarray(targets, dtype=np.int64)[valid]

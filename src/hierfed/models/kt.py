"""Knowledge-tracing model: LSTM over item one-hots, 2-way softmax head.

The hidden state after consuming item t produces the probability of a
correct response to item t+1; the first response is never a target and the
last hidden state is never scored, so a length-L sequence has L-1 scored
steps.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import (PROB_CLAMP, head_params, lstm_backward, lstm_forward,
                         softmax_probs)
from ..nn.params import ParamSet, as_grads
from .encoding import ModelSpec


def kt_init(model: ModelSpec, rng: np.random.Generator) -> ParamSet:
    """Uniform(-1/sqrt(fan_in)) weights, zero biases."""
    if model.task != "KT":
        raise ValueError(f"expected a KT model spec, got {model.task}")
    d, k = model.input_dim, model.hidden_dim
    s_in = 1.0 / np.sqrt(d + k)
    s_out = 1.0 / np.sqrt(k)
    return ParamSet({
        "lstm.W": rng.uniform(-s_in, s_in, (d + k, 4 * k)),
        "lstm.b": np.zeros(4 * k),
        "out.W": rng.uniform(-s_out, s_out, (k, 2)),
        "out.b": np.zeros(2),
    })


def kt_loss_grad(x, lengths, targets, params: ParamSet):
    """Loss, gradient, and per-step probabilities on an encoded padded batch.

    x: (B, T, D); lengths: scored steps per student; targets: (B, T) int
    responses, only entries before each length are read. Returns
    (loss, grads, probs) with probs (B, T, 2); rows past a student's length
    are meaningless and must be ignored by callers.
    """
    x = np.asarray(x, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    B, T, _ = x.shape
    k = params["lstm.b"].size // 4
    W, b = head_params(params, k)

    h_seq, cache = lstm_forward(x, lengths, params)
    logits = h_seq @ W + b
    probs = softmax_probs(logits)
    valid = np.arange(T)[None, :] < lengths[:, None]

    safe_t = np.where(valid, targets, 0)
    onehot = np.zeros((B, T, 2))
    np.put_along_axis(onehot, safe_t[:, :, None], 1.0, axis=2)

    picked = np.take_along_axis(probs, safe_t[:, :, None], axis=2)[:, :, 0]
    picked = np.clip(picked, PROB_CLAMP, 1.0 - PROB_CLAMP)
    loss = float(-(np.log(picked) * valid).sum())

    dlogits = (probs - onehot) * valid[:, :, None]
    dW = np.einsum("btk,btj->kj", h_seq, dlogits)
    db = dlogits.sum(axis=(0, 1))
    dh_seq = dlogits @ W.T
    g_lstm, _, _ = lstm_backward(dh_seq, cache, params)

    grads = as_grads({
        "lstm.W": g_lstm["lstm.W"], "lstm.b": g_lstm["lstm.b"],
        "out.W": dW, "out.b": db,
    })
    return loss, grads, probs


def kt_predict(x, lengths, targets, params: ParamSet):
    """Scores and labels for AUC: P(correct) per valid step, flattened.

    Returns (scores, labels) in batch-major, step-minor order.
    """
    x = np.asarray(x, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    k = params["lstm.b"].size // 4
    W, b = head_params(params, k)
    h_seq, _ = lstm_forward(x, lengths, params)
    probs = softmax_probs(h_seq @ W + b)
    T = x.shape[1]
    valid = np.arange(T)[None, :] < lengths[:, None]
    return probs[:, :, 1][valid], targets[valid]

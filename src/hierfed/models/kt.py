"""Knowledge-tracing model: LSTM over item one-hots, 2-way softmax head.

The hidden state after consuming item t produces the probability of a
correct response to item t+1; the first response is never a target and the
last hidden state is never scored, so a length-L sequence has L-1 scored
steps.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import PROB_CLAMP, head_probs, lstm_backward, lstm_forward
from ..nn.params import ParamSet


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
    """The valid-step mask (B, T) of an encoded padded batch, the hidden
    states (n, k) and class probabilities (n, 2) of its n valid steps in
    batch-major, step-minor order, and the LSTM cache."""
    h_seq, cache = lstm_forward(x, lengths, params)
    valid = np.arange(h_seq.shape[1])[None, :] < np.asarray(lengths)[:, None]
    h = h_seq[valid]
    return valid, h, head_probs(h, params["out.W"], params["out.b"]), cache


def kt_loss_grad(x, lengths, targets, params: ParamSet):
    """Loss and gradient on an encoded padded batch.

    x: (B, T, D); lengths: scored steps per student; targets: (B, T) int
    responses, only entries before each length are read. The head and the
    loss are computed at valid steps only.
    """
    valid, h, probs, cache = _forward(x, lengths, params)
    t = np.asarray(targets, dtype=np.int64)[valid]
    rows = np.arange(t.size)
    picked = np.clip(probs[rows, t], PROB_CLAMP, 1.0 - PROB_CLAMP)
    # summed in the padded (B, T) layout: numpy's pairwise sum groups the
    # terms by position there, so a batch's loss keeps the bits it has when
    # the head runs over every padded step (tests/padded.py)
    log_picked = np.zeros(valid.shape)
    log_picked[valid] = np.log(picked)
    loss = float(-log_picked.sum())

    dlogits = probs
    dlogits[rows, t] -= 1.0
    dh_seq = np.zeros(valid.shape + h.shape[1:])
    dh_seq[valid] = dlogits @ params["out.W"].T
    g_lstm = lstm_backward(dh_seq, cache, params)

    grads = ParamSet({
        "lstm.W": g_lstm["lstm.W"], "lstm.b": g_lstm["lstm.b"],
        "out.W": h.T @ dlogits, "out.b": dlogits.sum(axis=0),
    })
    return loss, grads


def kt_predict(x, lengths, targets, params: ParamSet):
    """Scores and labels for AUC: P(correct) per valid step, flattened.

    Returns (scores, labels) in batch-major, step-minor order.
    """
    valid, _, probs, _ = _forward(x, lengths, params)
    return probs[:, 1], np.asarray(targets, dtype=np.int64)[valid]

"""Knowledge-tracing model: LSTM over item one-hots, 2-way softmax head.

The hidden state after consuming item t produces the probability of a
correct response to item t+1; the first response is never a target and the
last hidden state is never scored, so a length-L sequence has L-1 scored
steps.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import head_backward, head_probs, lstm_backward, lstm_forward


def kt_init(vocab, hidden_dim: int, rng: np.random.Generator) -> dict:
    """Uniform(-1/sqrt(fan_in)) weights, zero biases."""
    d, k = vocab.kt_input_dim, hidden_dim
    s_in = 1.0 / np.sqrt(d + k)
    s_out = 1.0 / np.sqrt(k)
    return {
        "lstm.W": rng.uniform(-s_in, s_in, (d + k, 4 * k)),
        "lstm.b": np.zeros(4 * k),
        "out.W": rng.uniform(-s_out, s_out, (k, 2)),
        "out.b": np.zeros(2),
    }


def _forward(x, lengths, params: dict):
    """The valid-step mask (B, T) of an encoded padded batch, the hidden
    states (n, k) of its n valid steps in batch-major, step-minor order, and
    the LSTM cache."""
    h_seq, cache = lstm_forward(x, lengths, params)
    valid = np.arange(h_seq.shape[1])[None, :] < np.asarray(lengths)[:, None]
    return valid, h_seq[valid], cache


def kt_loss_grad(x, lengths, targets, params: dict):
    """Loss and gradient on an encoded padded batch.

    x: (B, T, D); lengths: scored steps per student; targets: (n,) int
    responses of the n valid steps, in batch-major, step-minor order. The
    head and the loss are computed at valid steps only.
    """
    valid, h, cache = _forward(x, lengths, params)
    probs = head_probs(h, params["out.W"], params["out.b"])
    log_lik, dh, g_out = head_backward(h, probs, targets, params["out.W"])
    # summed in the padded (B, T) layout: numpy's pairwise sum groups the
    # terms by position there, so a batch's loss keeps the bits it has when
    # the head runs over every padded step (tests/padded.py)
    log_padded = np.zeros(valid.shape)
    log_padded[valid] = log_lik
    loss = float(-log_padded.sum())
    return loss, {**lstm_backward(dh, cache, params), **g_out}


def kt_predict(x, lengths, targets, params: dict):
    """Scores and labels for AUC: P(correct) per valid step, and targets,
    the (n,) responses of the n valid steps, as labels.

    Returns (scores, labels) in batch-major, step-minor order. The LSTM
    cache is freed before the head runs.
    """
    h = _forward(x, lengths, params)[1]
    probs = head_probs(h, params["out.W"], params["out.b"])
    return probs[:, 1], np.asarray(targets, dtype=np.int64)

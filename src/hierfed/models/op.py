"""Outcome-prediction model: GRU over activity one-hots, attention pooling,
2-way softmax head. One BCE term per student against the pass/fail label."""

from __future__ import annotations

import numpy as np

from ..nn.layers import (
    attention_pool,
    attention_pool_backward,
    gru_forward,
    gru_backward,
    head_backward,
    head_probs,
)


def op_init(vocab, hidden_dim: int, rng: np.random.Generator) -> dict:
    """Uniform(-1/sqrt(fan_in)) weights, zero biases."""
    d, k = vocab.op_input_dim, hidden_dim
    s_in = 1.0 / np.sqrt(d + k)
    s_k = 1.0 / np.sqrt(k)
    return {
        "gru.Wzr": rng.uniform(-s_in, s_in, (d + k, 2 * k)),
        "gru.bzr": np.zeros(2 * k),
        "gru.Wn": rng.uniform(-s_in, s_in, (d + k, k)),
        "gru.bn": np.zeros(k),
        "att.W": rng.uniform(-s_k, s_k, (k, k)),
        "att.p": rng.uniform(-s_k, s_k, k),
        "out.W": rng.uniform(-s_k, s_k, (k, 2)),
        "out.b": np.zeros(2),
    }


def op_loss_grad(x, lengths, labels, params: dict):
    """Loss and gradient on an encoded padded batch; labels: (B,) int."""
    h_seq, cache_g = gru_forward(x, lengths, params)
    h_tilde, alphas, cache_a = attention_pool(h_seq, lengths, params)
    del h_seq, alphas   # the alphas go with the attention cache
    probs = head_probs(h_tilde, params["out.W"], params["out.b"])
    log_lik, dh_tilde, g_out = head_backward(h_tilde, probs, labels,
                                             params["out.W"])
    g_att, dh = attention_pool_backward(dh_tilde, cache_a, params)
    del cache_a   # nothing reads its (B, T, k) u again: freed before BPTT
    g_gru = gru_backward(dh, cache_g, params)
    return float(-log_lik.sum()), {**g_gru, **g_att, **g_out}


def op_predict(x, lengths, labels, params: dict):
    """Scores and labels for AUC: P(pass) per student. Like op_embed, it
    holds no kernel's cache."""
    probs = head_probs(op_embed(x, lengths, params), params["out.W"],
                       params["out.b"])
    return probs[:, 1], np.asarray(labels, dtype=np.int64)


def op_embed(x, lengths, params: dict) -> np.ndarray:
    """Each student's pooled hidden state h_tilde: (B, k).

    Only each kernel's output is kept: the GRU cache is freed before
    attention pooling runs, and the attention cache when it returns.
    """
    h_seq = gru_forward(x, lengths, params)[0]
    return attention_pool(h_seq, lengths, params)[0]

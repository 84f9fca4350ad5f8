"""Outcome-prediction model: GRU over activity one-hots, attention pooling,
2-way softmax head. One BCE term per student against the pass/fail label."""

from __future__ import annotations

import numpy as np

from ..nn.layers import (
    PROB_CLAMP,
    attention_pool,
    attention_pool_backward,
    gru_forward,
    gru_backward,
    head_params,
    head_probs,
)
from ..nn.params import ParamSet, as_grads
from .encoding import ActivitySeq, ModelSpec, Vocab, encode_op_student


def op_init(model: ModelSpec, rng: np.random.Generator) -> ParamSet:
    """Uniform(-1/sqrt(fan_in)) weights, zero biases."""
    if model.task != "OP":
        raise ValueError(f"expected an OP model spec, got {model.task}")
    d, k = model.input_dim, model.hidden_dim
    s_in = 1.0 / np.sqrt(d + k)
    s_k = 1.0 / np.sqrt(k)
    return ParamSet({
        "gru.Wzr": rng.uniform(-s_in, s_in, (d + k, 2 * k)),
        "gru.bzr": np.zeros(2 * k),
        "gru.Wn": rng.uniform(-s_in, s_in, (d + k, k)),
        "gru.bn": np.zeros(k),
        "att.W": rng.uniform(-s_k, s_k, (k, k)),
        "att.p": rng.uniform(-s_k, s_k, k),
        "out.W": rng.uniform(-s_k, s_k, (k, 2)),
        "out.b": np.zeros(2),
    })


def op_loss_grad(x, lengths, labels, params: ParamSet):
    """Loss, gradient, and P(pass) per student on an encoded padded batch."""
    x = np.asarray(x, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    B = x.shape[0]
    k = params["gru.bn"].size
    W, b = head_params(params, k)

    h_seq, cache_g = gru_forward(x, lengths, params)
    h_tilde, _, cache_a = attention_pool(h_seq, lengths, params)
    probs = head_probs(h_tilde, W, b)

    picked = np.clip(probs[np.arange(B), labels], PROB_CLAMP, 1.0 - PROB_CLAMP)
    loss = float(-np.log(picked).sum())

    onehot = np.zeros((B, 2))
    onehot[np.arange(B), labels] = 1.0
    dlogits = probs - onehot
    dW = h_tilde.T @ dlogits
    db = dlogits.sum(axis=0)
    dh_tilde = dlogits @ W.T
    g_att, dh_seq = attention_pool_backward(dh_tilde, cache_a, params)
    g_gru, _ = gru_backward(dh_seq, cache_g, params)

    grads = as_grads({
        "gru.Wzr": g_gru["gru.Wzr"], "gru.bzr": g_gru["gru.bzr"],
        "gru.Wn": g_gru["gru.Wn"], "gru.bn": g_gru["gru.bn"],
        "att.W": g_att["att.W"], "att.p": g_att["att.p"],
        "out.W": dW, "out.b": db,
    })
    return loss, grads, probs[:, 1]


def op_forward(seq: ActivitySeq, params: ParamSet, vocab: Vocab):
    """Single-student forward: (class probs (2,), h_tilde (k,), alphas, cache)."""
    x, _ = encode_op_student(seq, vocab)
    k = params["gru.bn"].size
    W, b = head_params(params, k)
    lengths = np.array([x.shape[0]])
    h_seq, cache_g = gru_forward(x[None, :, :], lengths, params)
    h_tilde, alphas, cache_a = attention_pool(h_seq, lengths, params)
    probs = head_probs(h_tilde, W, b)
    return probs[0], h_tilde[0], alphas[0], {"gru": cache_g, "att": cache_a}


def op_predict(x, lengths, labels, params: ParamSet):
    """Scores and labels for AUC: P(pass) per student."""
    x = np.asarray(x, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    k = params["gru.bn"].size
    W, b = head_params(params, k)
    h_seq, _ = gru_forward(x, lengths, params)
    h_tilde, _, _ = attention_pool(h_seq, lengths, params)
    probs = head_probs(h_tilde, W, b)
    return probs[:, 1], np.asarray(labels, dtype=np.int64)


def extract_embedding(seq: ActivitySeq, params: ParamSet, vocab: Vocab) -> np.ndarray:
    """Pooled hidden state h_tilde for export; identical to op_forward's."""
    _, h_tilde, _, _ = op_forward(seq, params, vocab)
    return h_tilde

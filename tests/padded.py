"""The padded output layers: the reference for the program's valid-step ones.

The KT head and loss and the attention pooler, forward and backward, as they
compute over every (row, step) of a padded (B, T, .) batch and mask the
padding out afterwards. The program computes the same quantities at valid
steps only; the tests compare the two on the same batches.
"""

import numpy as np

from hierfed.nn.layers import (PROB_CLAMP, head_probs, lstm_backward,
                               lstm_forward)
from hierfed.nn.params import ParamSet


def kt_loss_grad(x, lengths, targets, params: ParamSet):
    """(loss, grads, probs (B, T, 2)) of the KT model; probs past a
    student's length are the head's output on zero states."""
    W, b = params["out.W"], params["out.b"]
    h_seq, cache = lstm_forward(x, lengths, params)
    probs = head_probs(h_seq, W, b)
    valid = np.arange(h_seq.shape[1])[None, :] < np.asarray(lengths)[:, None]
    safe_t = np.where(valid, np.asarray(targets, dtype=np.int64), 0)
    onehot = np.zeros(probs.shape)
    np.put_along_axis(onehot, safe_t[:, :, None], 1.0, axis=2)

    picked = np.take_along_axis(probs, safe_t[:, :, None], axis=2)[:, :, 0]
    picked = np.clip(picked, PROB_CLAMP, 1.0 - PROB_CLAMP)
    loss = float(-(np.log(picked) * valid).sum())

    dlogits = (probs - onehot) * valid[:, :, None]
    dW = np.einsum("btk,btj->kj", h_seq, dlogits)
    db = dlogits.sum(axis=(0, 1))
    g_lstm = lstm_backward(dlogits @ W.T, cache, params)
    grads = ParamSet({
        "lstm.W": g_lstm["lstm.W"], "lstm.b": g_lstm["lstm.b"],
        "out.W": dW, "out.b": db,
    })
    return loss, grads, probs


def attention_pool(h_seq, lengths, params: ParamSet):
    """(h_tilde (B, k), alphas (B, T), cache) with scores at every step."""
    h_seq = np.asarray(h_seq, dtype=np.float64)
    T = h_seq.shape[1]
    W, p = params["att.W"], params["att.p"]
    lengths = np.asarray(lengths, dtype=np.int64)
    u = np.tanh(h_seq @ W)
    e = u @ p
    valid = np.arange(T)[None, :] < lengths[:, None]
    e_shift = np.where(valid, e, -np.inf)
    e_shift = e_shift - e_shift.max(axis=1, keepdims=True)
    ex = np.where(valid, np.exp(e_shift), 0.0)
    alphas = ex / ex.sum(axis=1, keepdims=True)
    h_tilde = np.einsum("bt,btk->bk", alphas, h_seq)
    return h_tilde, alphas, {"u": u, "alphas": alphas, "h_seq": h_seq}


def attention_pool_backward(dh_tilde, cache, params: ParamSet):
    """(grads, dh_seq (B, T, k)) of attention_pool above."""
    W, p = params["att.W"], params["att.p"]
    u, alphas, h_seq = cache["u"], cache["alphas"], cache["h_seq"]
    B, T, k = h_seq.shape
    dalpha = (h_seq @ dh_tilde[:, :, None])[:, :, 0]
    dh_seq = alphas[:, :, None] * dh_tilde[:, None, :]
    # padded steps have alpha 0, so they drop out of the jacobian
    inner = (alphas * dalpha).sum(axis=1, keepdims=True)
    de = alphas * (dalpha - inner)
    du = de[:, :, None] * p[None, None, :]
    dp = u.reshape(B * T, k).T @ de.reshape(B * T)
    dpre = (du * (1.0 - u * u)).reshape(B * T, k)
    dW = h_seq.reshape(B * T, k).T @ dpre
    dh_seq += (dpre @ W.T).reshape(B, T, k)
    return ParamSet({"att.W": dW, "att.p": dp}), dh_seq

"""Earlier forms of the program's layers, kept as references.

The KT head and loss and the attention pooler, forward and backward, as they
compute over every (row, step) of a padded (B, T, .) batch and mask the
padding out afterwards. The program computes the same quantities at valid
steps only; the tests compare the two on the same batches.

The packed LSTM forward and backward as they computed their sigmoid gates
in place on the strided gate columns. The program writes them to a
contiguous buffer instead; every element goes through the same operations
in the same order, so the tests compare the two bit for bit.
"""

import numpy as np

from hierfed.nn.layers import PROB_CLAMP, _Packing, head_probs


def _sigmoid_from_tanh_(t):
    t += 1.0
    t *= 0.5
    return t


def lstm_forward(x, lengths, params: dict):
    """(h_seq (B, T, k), cache) of the packed LSTM, sigmoids in place."""
    W, b = params["lstm.W"], params["lstm.b"]
    B, T, d = x.shape
    k = b.size // 4
    pk = _Packing(lengths, B, T)
    xs = pk.gather(x)
    # gates i, f, g, o; the sigmoid gates' columns are halved
    scale = np.full(4 * k, 0.5)
    scale[2 * k:3 * k] = 1.0
    Ws = W * scale
    U = Ws[d:]

    acts = xs @ Ws[:d]       # input projection of every step, hoisted
    acts += b * scale
    cs = np.empty((pk.n, k))
    tc = np.empty((pk.n, k))
    hs = np.empty((pk.n, k))
    zero = np.zeros((B, k))
    rec = np.empty((B, 4 * k))
    tmp = np.empty((B, k))
    for start, end, prev in pk.spans:
        m = end - start
        hp, cp = ((hs[prev:prev + m], cs[prev:prev + m]) if prev >= 0
                  else (zero[:m], zero[:m]))
        a = acts[start:end]
        a += np.matmul(hp, U, out=rec[:m])
        np.tanh(a, out=a)
        _sigmoid_from_tanh_(a[:, :2 * k])
        _sigmoid_from_tanh_(a[:, 3 * k:])
        c = cs[start:end]
        np.multiply(a[:, k:2 * k], cp, out=c)
        c += np.multiply(a[:, :k], a[:, 2 * k:3 * k], out=tmp[:m])
        np.tanh(c, out=tc[start:end])
        np.multiply(a[:, 3 * k:], tc[start:end], out=hs[start:end])

    cache = {
        "d": d, "k": k, "T": T, "B": B, "packing": pk,
        "x": xs, "acts": acts, "c": cs, "tanh_c": tc, "h": hs,
    }
    return pk.scatter(hs), cache


def lstm_backward(dh_seq, cache, params: dict):
    """Gradients of lstm_forward above, tanh(c) read from a fourth coef slot."""
    d, k, B = (cache[n] for n in ("d", "k", "B"))
    pk = cache["packing"]
    acts, tc = cache["acts"], cache["tanh_c"]
    U_T = params["lstm.W"][d:].T
    i, f, g, o = (acts[:, j * k:(j + 1) * k] for j in range(4))
    # d gate / d pre-activation: s(1 - s) for the sigmoids, 1 - g^2 for g
    dact = acts * (1.0 - acts)
    np.subtract(1.0, g * g, out=dact[:, 2 * k:3 * k])
    # the adjoints of i, f, g are dc times these; that of o is dh times tanh(c)
    coef = np.stack([g, pk.previous(cache["c"]), i, tc], axis=1)
    dc_dh = o * (1.0 - tc * tc)
    dhs = pk.gather(np.asarray(dh_seq, dtype=np.float64))
    da = np.empty((pk.n, 4 * k))
    da4 = da.reshape(pk.n, 4, k)
    dh = np.zeros((B, k))
    dc = np.zeros((B, k))
    tmp = np.empty((B, k))

    for start, end, _ in reversed(pk.spans):
        m = end - start
        dh_m, dc_m = dh[:m], dc[:m]
        dh_m += dhs[start:end]
        dc_m += np.multiply(dh_m, dc_dh[start:end], out=tmp[:m])
        np.multiply(dc_m[:, None, :], coef[start:end, :3], out=da4[start:end, :3])
        np.multiply(dh_m, coef[start:end, 3], out=da4[start:end, 3])
        da[start:end] *= dact[start:end]
        np.matmul(da[start:end], U_T, out=dh_m)
        dc_m *= f[start:end]

    dW = np.concatenate([cache["x"].T @ da, pk.previous(cache["h"]).T @ da])
    return {"lstm.W": dW, "lstm.b": da.sum(axis=0)}


def kt_loss_grad(x, lengths, targets, params: dict):
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
    return loss, {**g_lstm, "out.W": dW, "out.b": db}, probs


def attention_pool(h_seq, lengths, params: dict):
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


def attention_pool_backward(dh_tilde, cache, params: dict):
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
    return {"att.W": dW, "att.p": dp}, dh_seq

"""Dense forward/backward kernels for the two student models.

Everything here is hand-written numpy: LSTM and GRU recurrences, a
tanh-score attention pooler, and a 2-way softmax head.
The batched sequence drivers operate on padded (B, T, D) inputs with
per-sequence lengths; steps past a sequence's length are computed but carry
zero adjoint, so they never influence gradients. Backward passes return
parameter gradients accumulated over the whole batch.

Gate conventions are the standard ones: LSTM input/forget/output gates are
sigmoids and the candidate is tanh; the GRU update gate z mixes as
h = (1-z)*h_prev + z*h_candidate.
"""

from __future__ import annotations

import numpy as np

from .params import ParamSet, ShapeError, as_grads

PROB_CLAMP = 1e-7


def sigmoid(x: np.ndarray) -> np.ndarray:
    # evaluated via tanh to stay stable for large |x|
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

def lstm_param_shapes(input_dim: int, hidden_dim: int, prefix: str = "lstm"):
    return {
        f"{prefix}.W": (input_dim + hidden_dim, 4 * hidden_dim),
        f"{prefix}.b": (4 * hidden_dim,),
    }


def _lstm_dims(params: ParamSet, prefix: str):
    W = params[f"{prefix}.W"]
    b = params[f"{prefix}.b"]
    if b.ndim != 1 or b.size % 4 != 0:
        raise ShapeError(f"{prefix}.b must be a flat vector of length 4*k, got {b.shape}")
    k = b.size // 4
    if W.ndim != 2 or W.shape[1] != 4 * k:
        raise ShapeError(f"{prefix}.W must have 4*k={4 * k} columns, got {W.shape}")
    d = W.shape[0] - k
    if d < 1:
        raise ShapeError(f"{prefix}.W rows must exceed hidden dim {k}, got {W.shape}")
    return W, b, d, k


def lstm_forward(x, lengths, params: ParamSet, prefix: str = "lstm",
                 h0: np.ndarray | None = None, c0: np.ndarray | None = None):
    """Run the LSTM over a padded batch.

    x: (B, T, D); lengths: (B,) valid step counts. Returns (h_seq, cache)
    where h_seq is (B, T, k). Initial state defaults to zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"lstm input must be (B, T, D), got {x.shape}")
    W, b, d, k = _lstm_dims(params, prefix)
    B, T, D = x.shape
    if D != d:
        raise ShapeError(f"{prefix}.W expects input dim {d}, got {D}")

    h = np.zeros((B, k)) if h0 is None else np.asarray(h0, dtype=np.float64).copy()
    c = np.zeros((B, k)) if c0 is None else np.asarray(c0, dtype=np.float64).copy()

    zcat = np.empty((T, B, d + k))
    gi = np.empty((T, B, k))
    gf = np.empty((T, B, k))
    gg = np.empty((T, B, k))
    go = np.empty((T, B, k))
    cs = np.empty((T, B, k))
    tc = np.empty((T, B, k))
    c_prev = np.empty((T, B, k))
    h_seq = np.empty((B, T, k))

    for t in range(T):
        zc = np.concatenate([x[:, t, :], h], axis=1)
        acts = zc @ W + b
        i = sigmoid(acts[:, :k])
        f = sigmoid(acts[:, k:2 * k])
        g = np.tanh(acts[:, 2 * k:3 * k])
        o = sigmoid(acts[:, 3 * k:])
        c_prev[t] = c
        c = f * c + i * g
        t_c = np.tanh(c)
        h = o * t_c
        zcat[t], gi[t], gf[t], gg[t], go[t] = zc, i, f, g, o
        cs[t], tc[t] = c, t_c
        h_seq[:, t, :] = h

    cache = {
        "prefix": prefix, "d": d, "k": k, "T": T, "B": B,
        "zcat": zcat, "i": gi, "f": gf, "g": gg, "o": go,
        "c": cs, "tanh_c": tc, "c_prev": c_prev,
    }
    return h_seq, cache


def lstm_backward(dh_seq, cache, params: ParamSet):
    """Backprop through time for lstm_forward.

    dh_seq: (B, T, k) adjoints of each hidden state from the loss heads;
    entries past a sequence's length must be zero. Returns (grads, dh0, dc0).
    """
    prefix, d, k, T, B = (cache[n] for n in ("prefix", "d", "k", "T", "B"))
    W = params[f"{prefix}.W"]
    dW = np.zeros_like(W)
    db = np.zeros(4 * k)
    dh = np.zeros((B, k))
    dc = np.zeros((B, k))

    for t in range(T - 1, -1, -1):
        dh = dh + dh_seq[:, t, :]
        i, f, g, o = cache["i"][t], cache["f"][t], cache["g"][t], cache["o"][t]
        t_c = cache["tanh_c"][t]
        do = dh * t_c
        dc = dc + dh * o * (1.0 - t_c * t_c)
        df = dc * cache["c_prev"][t]
        di = dc * g
        dg = dc * i
        da = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ], axis=1)
        zc = cache["zcat"][t]
        dW += zc.T @ da
        db += da.sum(axis=0)
        dzc = da @ W.T
        dh = dzc[:, d:]
        dc = dc * f

    grads = as_grads({f"{prefix}.W": dW, f"{prefix}.b": db})
    return grads, dh, dc


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------

def gru_param_shapes(input_dim: int, hidden_dim: int, prefix: str = "gru"):
    return {
        f"{prefix}.Wzr": (input_dim + hidden_dim, 2 * hidden_dim),
        f"{prefix}.bzr": (2 * hidden_dim,),
        f"{prefix}.Wn": (input_dim + hidden_dim, hidden_dim),
        f"{prefix}.bn": (hidden_dim,),
    }


def _gru_dims(params: ParamSet, prefix: str):
    Wzr = params[f"{prefix}.Wzr"]
    bzr = params[f"{prefix}.bzr"]
    Wn = params[f"{prefix}.Wn"]
    bn = params[f"{prefix}.bn"]
    k = bn.size
    if bzr.size != 2 * k:
        raise ShapeError(f"{prefix}.bzr must have length 2*k={2 * k}, got {bzr.shape}")
    if Wzr.ndim != 2 or Wzr.shape[1] != 2 * k or Wn.shape[1] != k:
        raise ShapeError(f"{prefix} weight columns inconsistent with hidden dim {k}")
    d = Wn.shape[0] - k
    if Wzr.shape[0] != d + k or d < 1:
        raise ShapeError(f"{prefix}.Wzr rows {Wzr.shape[0]} inconsistent with {prefix}.Wn rows {Wn.shape[0]}")
    return Wzr, bzr, Wn, bn, d, k


def gru_forward(x, lengths, params: ParamSet, prefix: str = "gru",
                h0: np.ndarray | None = None):
    """Run the GRU over a padded batch. Returns (h_seq, cache)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"gru input must be (B, T, D), got {x.shape}")
    Wzr, bzr, Wn, bn, d, k = _gru_dims(params, prefix)
    B, T, D = x.shape
    if D != d:
        raise ShapeError(f"{prefix}.Wn expects input dim {d}, got {D}")

    h = np.zeros((B, k)) if h0 is None else np.asarray(h0, dtype=np.float64).copy()

    zcat = np.empty((T, B, d + k))
    ncat = np.empty((T, B, d + k))
    gz = np.empty((T, B, k))
    gr = np.empty((T, B, k))
    gn = np.empty((T, B, k))
    h_prev = np.empty((T, B, k))
    h_seq = np.empty((B, T, k))

    for t in range(T):
        zc = np.concatenate([x[:, t, :], h], axis=1)
        a_zr = zc @ Wzr + bzr
        z = sigmoid(a_zr[:, :k])
        r = sigmoid(a_zr[:, k:])
        nc = np.concatenate([x[:, t, :], r * h], axis=1)
        n = np.tanh(nc @ Wn + bn)
        h_prev[t] = h
        h = (1.0 - z) * h + z * n
        zcat[t], ncat[t], gz[t], gr[t], gn[t] = zc, nc, z, r, n
        h_seq[:, t, :] = h

    cache = {
        "prefix": prefix, "d": d, "k": k, "T": T, "B": B,
        "zcat": zcat, "ncat": ncat, "z": gz, "r": gr, "n": gn, "h_prev": h_prev,
    }
    return h_seq, cache


def gru_backward(dh_seq, cache, params: ParamSet):
    """Backprop through time for gru_forward. Returns (grads, dh0)."""
    prefix, d, k, T, B = (cache[n] for n in ("prefix", "d", "k", "T", "B"))
    Wzr = params[f"{prefix}.Wzr"]
    Wn = params[f"{prefix}.Wn"]
    dWzr = np.zeros_like(Wzr)
    dbzr = np.zeros(2 * k)
    dWn = np.zeros_like(Wn)
    dbn = np.zeros(k)
    dh = np.zeros((B, k))

    for t in range(T - 1, -1, -1):
        dh = dh + dh_seq[:, t, :]
        z, r, n = cache["z"][t], cache["r"][t], cache["n"][t]
        hp = cache["h_prev"][t]
        dz = dh * (n - hp)
        dn = dh * z
        dhp = dh * (1.0 - z)
        da_n = dn * (1.0 - n * n)
        nc = cache["ncat"][t]
        dWn += nc.T @ da_n
        dbn += da_n.sum(axis=0)
        dnc = da_n @ Wn.T
        drh = dnc[:, d:]
        dr = drh * hp
        dhp = dhp + drh * r
        da_zr = np.concatenate([dz * z * (1.0 - z), dr * r * (1.0 - r)], axis=1)
        zc = cache["zcat"][t]
        dWzr += zc.T @ da_zr
        dbzr += da_zr.sum(axis=0)
        dzc = da_zr @ Wzr.T
        dh = dhp + dzc[:, d:]

    grads = as_grads({
        f"{prefix}.Wzr": dWzr, f"{prefix}.bzr": dbzr,
        f"{prefix}.Wn": dWn, f"{prefix}.bn": dbn,
    })
    return grads, dh


# ---------------------------------------------------------------------------
# Attention pooling
# ---------------------------------------------------------------------------

def attention_param_shapes(hidden_dim: int, prefix: str = "att"):
    return {
        f"{prefix}.W": (hidden_dim, hidden_dim),
        f"{prefix}.p": (hidden_dim,),
    }


def attention_pool(h_seq, lengths, params: ParamSet, prefix: str = "att"):
    """Pool hidden states with tanh-score attention.

    Scores e_t = p . tanh(W h_t); weights are a softmax over each sequence's
    valid steps; output is the weighted sum of hidden states. Returns
    (h_tilde (B, k), alphas (B, T), cache). Alphas are zero at padded steps.
    """
    h_seq = np.asarray(h_seq, dtype=np.float64)
    B, T, k = h_seq.shape
    W = params[f"{prefix}.W"]
    p = params[f"{prefix}.p"]
    if W.shape != (k, k):
        raise ShapeError(f"{prefix}.W must be ({k}, {k}), got {W.shape}")
    if p.shape != (k,):
        raise ShapeError(f"{prefix}.p must have length {k}, got {p.shape}")
    lengths = np.asarray(lengths, dtype=np.int64)
    if np.any(lengths < 1):
        raise ValueError("attention_pool requires nonempty sequences")

    u = np.tanh(h_seq @ W)               # (B, T, k)
    e = u @ p                            # (B, T)
    valid = np.arange(T)[None, :] < lengths[:, None]
    e_shift = np.where(valid, e, -np.inf)
    e_shift = e_shift - e_shift.max(axis=1, keepdims=True)
    ex = np.where(valid, np.exp(e_shift), 0.0)
    alphas = ex / ex.sum(axis=1, keepdims=True)
    h_tilde = np.einsum("bt,btk->bk", alphas, h_seq)
    cache = {"prefix": prefix, "u": u, "alphas": alphas, "valid": valid,
             "h_seq": h_seq}
    return h_tilde, alphas, cache


def attention_pool_backward(dh_tilde, cache, params: ParamSet):
    """Backward for attention_pool. Returns (grads, dh_seq)."""
    prefix = cache["prefix"]
    W = params[f"{prefix}.W"]
    p = params[f"{prefix}.p"]
    u, alphas, h_seq = cache["u"], cache["alphas"], cache["h_seq"]

    dalpha = np.einsum("bk,btk->bt", dh_tilde, h_seq)
    dh_seq = alphas[:, :, None] * dh_tilde[:, None, :]
    # softmax jacobian, rowwise; padded steps have alpha 0 so they drop out
    inner = (alphas * dalpha).sum(axis=1, keepdims=True)
    de = alphas * (dalpha - inner)
    du = de[:, :, None] * p[None, None, :]
    dp = np.einsum("bt,btk->k", de, u)
    dpre = du * (1.0 - u * u)
    dW = np.einsum("btd,btk->dk", h_seq, dpre)
    dh_seq = dh_seq + dpre @ W.T
    grads = as_grads({f"{prefix}.W": dW, f"{prefix}.p": dp})
    return grads, dh_seq


# ---------------------------------------------------------------------------
# Softmax head
# ---------------------------------------------------------------------------

def head_params(params: ParamSet, k: int):
    """The 2-way output layer (out.W (k, 2), out.b (2,)), shape-checked."""
    W = params["out.W"]
    b = params["out.b"]
    if W.shape != (k, 2):
        raise ShapeError(f"out.W must be ({k}, 2), got {W.shape}")
    if b.shape != (2,):
        raise ShapeError(f"out.b must be (2,), got {b.shape}")
    return W, b


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)

"""Dense forward/backward kernels for the two student models.

Everything here is hand-written numpy: LSTM and GRU recurrences, a
tanh-score attention pooler, and a 2-way softmax head.

The recurrences take padded (B, T, D) inputs with per-sequence lengths but
compute only valid steps, packed as in cuDNN and PyTorch's packed
sequences: the batch is ordered by length (descending, stable), and step t
runs on the leading rows whose sequences are still running. Valid (step,
row) pairs are stored time-major as rows of one packed matrix, so the input
projection of every step is one GEMM before the time loop and the weight
gradients are GEMMs after backprop through time (Appleyard, Kocisky &
Blunsom 2016, arXiv:1604.01946). The returned h_seq is in the caller's row
order and zero past each sequence's length; adjoints at those positions are
ignored. Backward passes return parameter gradients accumulated over the
whole batch.

Gate conventions are the standard ones: LSTM input/forget/output gates are
sigmoids and the candidate is tanh; the GRU update gate z mixes as
h = (1-z)*h_prev + z*h_candidate.
"""

from __future__ import annotations

import numpy as np

from .params import ParamSet, ShapeError, as_grads

PROB_CLAMP = 1e-7


def _sigmoid_from_tanh_(t: np.ndarray) -> np.ndarray:
    """(1 + t) / 2 in place: sigmoid(2a) from t = tanh(a), stable for any a.

    Kernels halve the weights and biases of their sigmoid gates (exact in
    floating point), so one tanh over all gate pre-activations serves both
    the tanh and the sigmoid gates.
    """
    t += 1.0
    t *= 0.5
    return t


# ---------------------------------------------------------------------------
# Packed sequences
# ---------------------------------------------------------------------------

class _Packing:
    """Valid (step, row) pairs of a padded batch, in packed time-major order.

    Sequences are ordered by length, descending (stable). Step t occupies
    packed rows start:end of spans[t], one per sequence still running, in
    that order; the same sequences' rows at step t - 1 begin at prev
    (-1 at step 0, whose previous state is zero).
    """

    def __init__(self, lengths, B: int, T: int):
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (B,) or np.any(lengths < 0) or np.any(lengths > T):
            raise ShapeError(f"lengths must be {B} step counts within 0..{T}, "
                             f"got {lengths!r}")
        order = np.argsort(-lengths, kind="stable")
        steps = int(lengths.max()) if B else 0
        active = (lengths[None, :] > np.arange(steps)[:, None]).sum(axis=1)
        offsets = np.concatenate([[0], np.cumsum(active)])
        step_of = np.repeat(np.arange(steps), active)
        rank = np.arange(offsets[-1]) - offsets[step_of]
        self.B, self.T, self.n = B, T, int(offsets[-1])
        self.rows = order[rank]          # batch row of each packed row
        self.cols = step_of              # time step of each packed row
        self.spans = [(int(offsets[t]), int(offsets[t + 1]),
                       int(offsets[t - 1]) if t else -1) for t in range(steps)]
        # packed row of each step-(t >= 1) row's previous state
        self.first = int(active[0]) if steps else 0
        self.prev_rows = (np.arange(self.first, self.n)
                          - np.repeat(active[:-1], active[1:]))

    def gather(self, seq: np.ndarray) -> np.ndarray:
        """(B, T, D) -> (n, D) packed rows."""
        return seq[self.rows, self.cols]

    def scatter(self, packed: np.ndarray) -> np.ndarray:
        """(n, D) packed rows -> (B, T, D), zero past each length."""
        out = np.zeros((self.B, self.T, packed.shape[1]))
        out[self.rows, self.cols] = packed
        return out

    def previous(self, packed: np.ndarray) -> np.ndarray:
        """Each packed row's state one step earlier; zeros at step 0."""
        out = np.zeros_like(packed)
        out[self.first:] = packed[self.prev_rows]
        return out


def _check_input(x, d: int, kind: str):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"{kind} input must be (B, T, D), got {x.shape}")
    if x.shape[2] != d:
        raise ShapeError(f"{kind} weights expect input dim {d}, got {x.shape[2]}")
    return x


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

def _lstm_dims(params: ParamSet):
    W = params["lstm.W"]
    b = params["lstm.b"]
    if b.ndim != 1 or b.size % 4 != 0:
        raise ShapeError(f"lstm.b must be a flat vector of length 4*k, got {b.shape}")
    k = b.size // 4
    if W.ndim != 2 or W.shape[1] != 4 * k:
        raise ShapeError(f"lstm.W must have 4*k={4 * k} columns, got {W.shape}")
    d = W.shape[0] - k
    if d < 1:
        raise ShapeError(f"lstm.W rows must exceed hidden dim {k}, got {W.shape}")
    return W, b, d, k


def lstm_forward(x, lengths, params: ParamSet):
    """Run the LSTM over the valid steps of a padded batch from zero state.

    x: (B, T, D); lengths: (B,) valid step counts. Returns (h_seq, cache)
    where h_seq is (B, T, k), zero past each length.
    """
    W, b, d, k = _lstm_dims(params)
    x = _check_input(x, d, "lstm")
    B, T, _ = x.shape
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


def lstm_backward(dh_seq, cache, params: ParamSet):
    """Backprop through time for lstm_forward.

    dh_seq: (B, T, k) adjoints of each hidden state from the loss heads;
    entries past a sequence's length are ignored. Returns the gradients.
    """
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
    return as_grads({"lstm.W": dW, "lstm.b": da.sum(axis=0)})


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------

def _gru_dims(params: ParamSet):
    Wzr = params["gru.Wzr"]
    bzr = params["gru.bzr"]
    Wn = params["gru.Wn"]
    bn = params["gru.bn"]
    k = bn.size
    if bzr.size != 2 * k:
        raise ShapeError(f"gru.bzr must have length 2*k={2 * k}, got {bzr.shape}")
    if Wzr.ndim != 2 or Wzr.shape[1] != 2 * k or Wn.shape[1] != k:
        raise ShapeError(f"gru weight columns inconsistent with hidden dim {k}")
    d = Wn.shape[0] - k
    if Wzr.shape[0] != d + k or d < 1:
        raise ShapeError(f"gru.Wzr rows {Wzr.shape[0]} inconsistent with "
                         f"gru.Wn rows {Wn.shape[0]}")
    return Wzr, bzr, Wn, bn, d, k


def gru_forward(x, lengths, params: ParamSet):
    """Run the GRU over the valid steps of a padded batch from zero state.

    Returns (h_seq, cache); h_seq is (B, T, k), zero past each length.
    """
    Wzr, bzr, Wn, bn, d, k = _gru_dims(params)
    x = _check_input(x, d, "gru")
    B, T, _ = x.shape
    pk = _Packing(lengths, B, T)
    xs = pk.gather(x)
    Uzr, Un = 0.5 * Wzr[d:], Wn[d:]   # z and r are sigmoids: halved

    # input projections of every step, hoisted
    zr = xs @ (0.5 * Wzr[:d])
    zr += 0.5 * bzr
    n = xs @ Wn[:d]
    n += bn
    rh = np.empty((pk.n, k))
    hs = np.empty((pk.n, k))
    zero = np.zeros((B, k))
    rec = np.empty((B, 2 * k))
    rec_n = np.empty((B, k))
    for start, end, prev in pk.spans:
        m = end - start
        hp = hs[prev:prev + m] if prev >= 0 else zero[:m]
        a_zr, a_n, h = zr[start:end], n[start:end], hs[start:end]
        a_zr += np.matmul(hp, Uzr, out=rec[:m])
        _sigmoid_from_tanh_(np.tanh(a_zr, out=a_zr))
        np.multiply(a_zr[:, k:], hp, out=rh[start:end])
        a_n += np.matmul(rh[start:end], Un, out=rec_n[:m])
        np.tanh(a_n, out=a_n)
        # h = (1 - z) * hp + z * n, as hp + z * (n - hp)
        np.subtract(a_n, hp, out=h)
        h *= a_zr[:, :k]
        h += hp

    cache = {
        "d": d, "k": k, "T": T, "B": B, "packing": pk,
        "x": xs, "zr": zr, "n": n, "rh": rh, "h": hs,
    }
    return pk.scatter(hs), cache


def gru_backward(dh_seq, cache, params: ParamSet):
    """Backprop through time for gru_forward. Returns the gradients."""
    d, k, B = (cache[n] for n in ("d", "k", "B"))
    pk = cache["packing"]
    zr, n = cache["zr"], cache["n"]
    Uzr_T = params["gru.Wzr"][d:].T
    Un_T = params["gru.Wn"][d:].T
    hp = pk.previous(cache["h"])
    z, r = zr[:, :k], zr[:, k:]
    dzr = zr * (1.0 - zr)
    dtanh = 1.0 - n * n
    n_hp = n - hp
    one_z = 1.0 - z
    dhs = pk.gather(np.asarray(dh_seq, dtype=np.float64))
    da_zr = np.empty((pk.n, 2 * k))
    da_n = np.empty((pk.n, k))
    dh = np.zeros((B, k))
    drh = np.empty((B, k))
    tmp = np.empty((B, k))

    for start, end, _ in reversed(pk.spans):
        m = end - start
        dh_m, drh_m = dh[:m], drh[:m]
        dh_m += dhs[start:end]
        dazr, dan = da_zr[start:end], da_n[start:end]
        np.multiply(dh_m, n_hp[start:end], out=dazr[:, :k])
        np.multiply(dh_m, z[start:end], out=dan)
        dan *= dtanh[start:end]
        np.matmul(dan, Un_T, out=drh_m)
        np.multiply(drh_m, hp[start:end], out=dazr[:, k:])
        dazr *= dzr[start:end]
        # adjoint of the previous state: (1 - z) dh + r drh + U_zr dazr
        drh_m *= r[start:end]
        drh_m += np.multiply(dh_m, one_z[start:end], out=tmp[:m])
        np.matmul(dazr, Uzr_T, out=dh_m)
        dh_m += drh_m

    xs = cache["x"]
    dWzr = np.concatenate([xs.T @ da_zr, hp.T @ da_zr])
    dWn = np.concatenate([xs.T @ da_n, cache["rh"].T @ da_n])
    return as_grads({
        "gru.Wzr": dWzr, "gru.bzr": da_zr.sum(axis=0),
        "gru.Wn": dWn, "gru.bn": da_n.sum(axis=0),
    })


# ---------------------------------------------------------------------------
# Attention pooling
# ---------------------------------------------------------------------------

def attention_pool(h_seq, lengths, params: ParamSet):
    """Pool hidden states with tanh-score attention.

    Scores e_t = p . tanh(W h_t); weights are a softmax over each sequence's
    valid steps; output is the weighted sum of hidden states. Returns
    (h_tilde (B, k), alphas (B, T), cache). Alphas are zero at padded steps.
    """
    h_seq = np.asarray(h_seq, dtype=np.float64)
    B, T, k = h_seq.shape
    W = params["att.W"]
    p = params["att.p"]
    if W.shape != (k, k):
        raise ShapeError(f"att.W must be ({k}, {k}), got {W.shape}")
    if p.shape != (k,):
        raise ShapeError(f"att.p must have length {k}, got {p.shape}")
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
    cache = {"u": u, "alphas": alphas, "h_seq": h_seq}
    return h_tilde, alphas, cache


def attention_pool_backward(dh_tilde, cache, params: ParamSet):
    """Backward for attention_pool. Returns (grads, dh_seq)."""
    W = params["att.W"]
    p = params["att.p"]
    u, alphas, h_seq = cache["u"], cache["alphas"], cache["h_seq"]

    B, T, k = h_seq.shape
    dalpha = (h_seq @ dh_tilde[:, :, None])[:, :, 0]
    dh_seq = alphas[:, :, None] * dh_tilde[:, None, :]
    # softmax jacobian, rowwise; padded steps have alpha 0 so they drop out
    inner = (alphas * dalpha).sum(axis=1, keepdims=True)
    de = alphas * (dalpha - inner)
    du = de[:, :, None] * p[None, None, :]
    dp = u.reshape(B * T, k).T @ de.reshape(B * T)
    dpre = (du * (1.0 - u * u)).reshape(B * T, k)
    dW = h_seq.reshape(B * T, k).T @ dpre
    dh_seq += (dpre @ W.T).reshape(B, T, k)
    return as_grads({"att.W": dW, "att.p": dp}), dh_seq


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


def head_probs(h: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Class probabilities of the 2-way head for each row of h (..., k).

    The logits are not one BLAS product: BLAS computes the last M % 4 rows
    of an (M, k) @ (k, 2) product by another path, so two students with
    identical inputs scored differently by their row in the batch, and
    their AUC tie broke. einsum sums every row the same way.
    """
    return softmax_probs(np.einsum("...k,kj->...j", h, W) + b)


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)

"""Dense forward/backward kernels for the two student models.

Everything here is hand-written numpy: LSTM and GRU recurrences, a
tanh-score attention pooler, and a 2-way softmax head with its
cross-entropy backward, shared by both models.

The recurrences take padded (B, T, D) inputs, float64 or pad_batch's
boolean one-hots, with per-sequence lengths but compute only valid steps,
packed as in cuDNN and PyTorch's packed sequences: the batch is ordered by
length (descending, stable), and step t runs on the leading rows whose
sequences are still running. Valid (step, row) pairs are stored time-major
as rows of one packed matrix, converted to float64 once, so the input
projection of every step is one GEMM before the time loop and the weight
gradients are GEMMs after backprop through time (Appleyard, Kocisky &
Blunsom 2016, arXiv:1604.01946). The returned h_seq is (B, T, k) in the
caller's row order and zero past each sequence's length. Only valid steps
pass back: the recurrent backwards take the (n, k) adjoints of the n valid
states, batch-major and step-minor (h_seq[valid]'s order), which is what
the KT head and attention_pool_backward compute. The attention pooler
likewise scores valid steps only, and its cache keeps h_seq's valid rows.
Backward passes return parameter gradients accumulated over the whole
batch.

Kernels read their dimensions from their inputs and parameters without
checking them: a run's parameters all derive from one Task.init or from a
checkpoint checked against it when it loads.

Gate conventions are the standard ones: LSTM input/forget/output gates are
sigmoids and the candidate is tanh; the GRU update gate z mixes as
h = (1-z)*h_prev + z*h_candidate.

At the models' shapes a step is a few rows (about 8 for KT, 6 for OP), so
the pointwise gate operations around its one GEMM set its time, and on
strided column slices they cost 2-3 times as much as on a contiguous block.
So the LSTM writes its sigmoid gates into a contiguous buffer, not in place.

At such sizes numpy's per-call dispatch costs more than the arithmetic, so
the time loops trim it without changing any operation, operand or order:
- The step products call ndarray.dot, not np.matmul: both reach the same
  BLAS routine with identical bits, and at (6, 48) @ (48, 96) with one BLAS
  thread the call took 1.6 us against np.matmul's 2.5 us.
- Row-prefix views buf[:m] of the step scratch buffers come from one table
  per call, built for the step sizes that occur, and the ufuncs are bound to
  locals.
- The kernels halve the weights and biases of their sigmoid gates (exact in
  floating point), so one tanh over all gate pre-activations serves both
  kinds of gate: sigmoid(2a) = (1 + tanh(a)) / 2, stable for any a, is then
  an add and a multiply.
"""

from __future__ import annotations

import numpy as np

PROB_CLAMP = 1e-7


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
        order = np.argsort(-lengths, kind="stable")
        steps = int(lengths.max()) if B else 0
        active = (lengths[None, :] > np.arange(steps)[:, None]).sum(axis=1)
        offsets = np.concatenate([[0], np.cumsum(active)])
        step_of = np.repeat(np.arange(steps), active)
        rank = np.arange(offsets[-1]) - offsets[step_of]
        self.B, self.T, self.n = B, T, int(offsets[-1])
        self.rows = order[rank]          # batch row of each packed row
        self.cols = step_of              # time step of each packed row
        # batch-major, step-minor position of each packed row
        self.valid_pos = (np.cumsum(lengths) - lengths)[self.rows] + self.cols
        bounds = offsets.tolist()
        self.spans = [(bounds[t], bounds[t + 1], bounds[t - 1] if t else -1)
                      for t in range(steps)]
        # packed row of each step-(t >= 1) row's previous state
        self.first = int(active[0]) if steps else 0
        self.prev_rows = (np.arange(self.first, self.n)
                          - np.repeat(active[:-1], active[1:]))

    def prefixes(self, *bufs) -> dict:
        """Each step size m -> the row-prefix views buf[:m] of bufs."""
        return {m: [b[:m] for b in bufs] for m in {e - s for s, e, _ in self.spans}}

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


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

def lstm_forward(x, lengths, params: dict):
    """Run the LSTM over the valid steps of a padded batch from zero state.

    x: (B, T, D); lengths: (B,) valid step counts. Returns (h_seq, cache)
    where h_seq is (B, T, k), zero past each length.
    """
    W, b = params["lstm.W"], params["lstm.b"]
    B, T, d = x.shape
    k = b.size // 4
    pk = _Packing(lengths, B, T)
    xs = pk.gather(x).astype(np.float64, copy=False)
    # gates i, f, g, o; the sigmoid gates' columns are halved
    scale = np.full(4 * k, 0.5)
    scale[2 * k:3 * k] = 1.0
    Ws = W * scale
    U = Ws[d:]

    acts = xs @ Ws[:d]       # input projection of every step, hoisted
    acts += b * scale
    sig = np.empty((pk.n, 4 * k))   # i, f and o are read from here, g from acts
    cs = np.empty((pk.n, k))
    tc = np.empty((pk.n, k))
    hs = np.empty((pk.n, k))
    zero = np.zeros((B, k))
    views = pk.prefixes(np.empty((B, 4 * k)), np.empty((B, k)))
    tanh, add, multiply = np.tanh, np.add, np.multiply
    for start, end, prev in pk.spans:
        m = end - start
        rec, tmp = views[m]
        hp, cp = ((hs[prev:prev + m], cs[prev:prev + m]) if prev >= 0
                  else (zero[:m], zero[:m]))
        a, s = acts[start:end], sig[start:end]
        a += hp.dot(U, out=rec)
        tanh(a, out=a)
        add(a, 1.0, out=s)   # sigmoid from tanh
        s *= 0.5
        c, t_c = cs[start:end], tc[start:end]
        multiply(s[:, k:2 * k], cp, out=c)
        c += multiply(s[:, :k], a[:, 2 * k:3 * k], out=tmp)
        tanh(c, out=t_c)
        multiply(s[:, 3 * k:], t_c, out=hs[start:end])
    sig[:, 2 * k:3 * k] = acts[:, 2 * k:3 * k]   # so the cache holds every gate

    cache = {
        "d": d, "k": k, "T": T, "B": B, "packing": pk,
        "x": xs, "acts": sig, "c": cs, "tanh_c": tc, "h": hs,
    }
    return pk.scatter(hs), cache


def lstm_backward(dh, cache, params: dict):
    """Backprop through time for lstm_forward.

    dh: (n, k) adjoints of the n valid hidden states from the loss heads,
    batch-major and step-minor (h_seq[valid]'s order). Returns the
    gradients.
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
    coef = np.stack([g, pk.previous(cache["c"]), i], axis=1)
    dc_dh = o * (1.0 - tc * tc)
    f = np.ascontiguousarray(f)
    dhs = dh[pk.valid_pos]
    da = np.empty((pk.n, 4 * k))
    da4 = da.reshape(pk.n, 4, k)
    views = pk.prefixes(np.zeros((B, k)), np.zeros((B, k)), np.empty((B, k)))
    multiply = np.multiply

    for start, end, _ in reversed(pk.spans):
        dh_m, dc_m, tmp = views[end - start]
        dh_m += dhs[start:end]
        dc_m += multiply(dh_m, dc_dh[start:end], out=tmp)
        multiply(dc_m[:, None, :], coef[start:end], out=da4[start:end, :3])
        multiply(dh_m, tc[start:end], out=da4[start:end, 3])
        da_t = da[start:end]
        da_t *= dact[start:end]
        da_t.dot(U_T, out=dh_m)
        dc_m *= f[start:end]

    dW = np.concatenate([cache["x"].T @ da, pk.previous(cache["h"]).T @ da])
    return {"lstm.W": dW, "lstm.b": da.sum(axis=0)}


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------

def gru_forward(x, lengths, params: dict):
    """Run the GRU over the valid steps of a padded batch from zero state.

    Returns (h_seq, cache); h_seq is (B, T, k), zero past each length.
    """
    Wzr, Wn = params["gru.Wzr"], params["gru.Wn"]
    bzr, bn = params["gru.bzr"], params["gru.bn"]
    B, T, d = x.shape
    k = bn.size
    pk = _Packing(lengths, B, T)
    xs = pk.gather(x).astype(np.float64, copy=False)
    Uzr, Un = 0.5 * Wzr[d:], Wn[d:]   # z and r are sigmoids: halved

    # input projections of every step, hoisted
    zr = xs @ (0.5 * Wzr[:d])
    zr += 0.5 * bzr
    n = xs @ Wn[:d]
    n += bn
    rh = np.empty((pk.n, k))
    hs = np.empty((pk.n, k))
    zero = np.zeros((B, k))
    views = pk.prefixes(np.empty((B, 2 * k)), np.empty((B, k)))
    tanh, multiply, subtract = np.tanh, np.multiply, np.subtract
    for start, end, prev in pk.spans:
        m = end - start
        rec, rec_n = views[m]
        hp = hs[prev:prev + m] if prev >= 0 else zero[:m]
        a_zr, a_n, r_h, h = zr[start:end], n[start:end], rh[start:end], hs[start:end]
        a_zr += hp.dot(Uzr, out=rec)
        tanh(a_zr, out=a_zr)
        a_zr += 1.0   # sigmoid from tanh
        a_zr *= 0.5
        multiply(a_zr[:, k:], hp, out=r_h)
        a_n += r_h.dot(Un, out=rec_n)
        tanh(a_n, out=a_n)
        # h = (1 - z) * hp + z * n, as hp + z * (n - hp)
        subtract(a_n, hp, out=h)
        h *= a_zr[:, :k]
        h += hp

    cache = {
        "d": d, "k": k, "T": T, "B": B, "packing": pk,
        "x": xs, "zr": zr, "n": n, "rh": rh, "h": hs,
    }
    return pk.scatter(hs), cache


def gru_backward(dh, cache, params: dict):
    """Backprop through time for gru_forward.

    dh: (n, k) adjoints of the n valid hidden states, batch-major and
    step-minor, as lstm_backward takes them. Returns the gradients.
    """
    d, k, B = (cache[n] for n in ("d", "k", "B"))
    pk = cache["packing"]
    zr, n = cache["zr"], cache["n"]
    Uzr_T = params["gru.Wzr"][d:].T
    Un_T = params["gru.Wn"][d:].T
    hp = pk.previous(cache["h"])
    z, r = zr[:, :k], zr[:, k:]
    dzr = 1.0 - zr
    dzr *= zr
    dtanh = n * n
    np.subtract(1.0, dtanh, out=dtanh)
    n_hp = n - hp
    one_z = 1.0 - z
    dhs = dh[pk.valid_pos]
    da_zr = np.empty((pk.n, 2 * k))
    da_n = np.empty((pk.n, k))
    views = pk.prefixes(np.zeros((B, k)), np.empty((B, k)), np.empty((B, k)))
    multiply = np.multiply

    for start, end, _ in reversed(pk.spans):
        dh_m, drh_m, tmp = views[end - start]
        dh_m += dhs[start:end]
        dazr, dan = da_zr[start:end], da_n[start:end]
        multiply(dh_m, n_hp[start:end], out=dazr[:, :k])
        multiply(dh_m, z[start:end], out=dan)
        dan *= dtanh[start:end]
        dan.dot(Un_T, out=drh_m)
        multiply(drh_m, hp[start:end], out=dazr[:, k:])
        dazr *= dzr[start:end]
        # adjoint of the previous state: (1 - z) dh + r drh + U_zr dazr
        drh_m *= r[start:end]
        drh_m += multiply(dh_m, one_z[start:end], out=tmp)
        dazr.dot(Uzr_T, out=dh_m)
        dh_m += drh_m

    xs = cache["x"]
    dWzr = np.concatenate([xs.T @ da_zr, hp.T @ da_zr])
    dWn = np.concatenate([xs.T @ da_n, cache["rh"].T @ da_n])
    return {
        "gru.Wzr": dWzr, "gru.bzr": da_zr.sum(axis=0),
        "gru.Wn": dWn, "gru.bn": da_n.sum(axis=0),
    }


# ---------------------------------------------------------------------------
# Attention pooling
# ---------------------------------------------------------------------------

def attention_pool(h_seq, lengths, params: dict):
    """Pool hidden states with tanh-score attention.

    Scores e_t = p . tanh(W h_t); weights are a softmax over each sequence's
    valid steps; output is the weighted sum of hidden states. Scores are
    computed at valid steps only. Returns (h_tilde (B, k), alphas (B, T),
    cache). Alphas, and the cache's u (B, T, k), are zero at padded steps;
    the cache holds h_seq's (n, k) valid rows, batch-major, not h_seq.
    """
    B, T, k = h_seq.shape
    W, p = params["att.W"], params["att.p"]
    lengths = np.asarray(lengths, dtype=np.int64)

    valid = np.arange(T)[None, :] < lengths[:, None]
    h = h_seq[valid]
    u_valid = np.tanh(h @ W)             # (n, k), batch-major
    e = np.full((B, T), -np.inf)
    e[valid] = u_valid @ p
    e -= e.max(axis=1, keepdims=True)
    ex = np.exp(e)                       # exactly 0 at padded steps
    alphas = ex / ex.sum(axis=1, keepdims=True)
    h_tilde = np.einsum("bt,btk->bk", alphas, h_seq)
    u = np.zeros((B, T, k))
    u[valid] = u_valid
    cache = {"u": u, "alphas": alphas, "h": h, "valid": valid}
    return h_tilde, alphas, cache


def attention_pool_backward(dh_tilde, cache, params: dict):
    """Backward for attention_pool, at valid steps only. Returns (grads,
    dh), with dh (n, k) the adjoints of the valid hidden states,
    batch-major and step-minor, as the recurrent backwards take them."""
    W, p = params["att.W"], params["att.p"]
    h, u, alphas, valid = (cache[n] for n in ("h", "u", "alphas", "valid"))
    row = np.nonzero(valid)[0]           # batch row of each valid step
    u, a = u[valid], alphas[valid]
    g = dh_tilde[row]                    # adjoint of h_tilde, per valid step
    dalpha = np.einsum("nk,nk->n", h, g)
    # softmax jacobian, rowwise: de_t = a_t (dalpha_t - sum_s a_s dalpha_s)
    inner = np.zeros(valid.shape)
    inner[valid] = a * dalpha
    de = a * (dalpha - inner.sum(axis=1)[row])
    dpre = np.outer(de, p)
    dtanh = u * u
    dpre *= np.subtract(1.0, dtanh, out=dtanh)
    dh = dpre @ W.T
    dh += a[:, None] * g
    return {"att.W": h.T @ dpre, "att.p": u.T @ de}, dh


# ---------------------------------------------------------------------------
# Softmax head
# ---------------------------------------------------------------------------

def head_probs(h: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Class probabilities of the 2-way head for each row of h (..., k).

    The logits are not one BLAS product: BLAS computes the last M % 4 rows
    of an (M, k) @ (k, 2) product by another path, so two students with
    identical inputs scored differently by their row in the batch, and
    their AUC tie broke. einsum sums every row the same way.
    """
    return softmax_probs(np.einsum("...k,kj->...j", h, W) + b)


def head_backward(h: np.ndarray, probs: np.ndarray, targets, W: np.ndarray):
    """Cross-entropy backward of the 2-way head over rows h (n, k), whose
    head_probs are probs (n, 2), against one class index per row.

    Returns (each row's log-likelihood, the adjoint of h (n, k), the
    gradients {"out.W", "out.b"}). The likelihood is clamped to
    [PROB_CLAMP, 1 - PROB_CLAMP] so a saturated head stays finite; the
    adjoints are those of the unclamped loss. probs is overwritten with the
    adjoint of the logits.
    """
    rows = np.arange(probs.shape[0])
    log_lik = np.log(np.clip(probs[rows, targets], PROB_CLAMP, 1.0 - PROB_CLAMP))
    dlogits = probs
    dlogits[rows, targets] -= 1.0
    return log_lik, dlogits @ W.T, {"out.W": h.T @ dlogits,
                                    "out.b": dlogits.sum(axis=0)}


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Softmax of (..., 2) logits over the last axis, on its two columns:
    np.maximum and ex0 + ex1 give the bits of max and sum along the axis at
    under half their cost."""
    top = np.maximum(logits[..., 0], logits[..., 1])
    ex = np.exp(logits - top[..., None])
    return ex / (ex[..., 0] + ex[..., 1])[..., None]

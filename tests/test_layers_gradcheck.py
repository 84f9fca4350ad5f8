"""Finite-difference gradient checks for the recurrent and attention layers
and the softmax head."""

import numpy as np
import pytest

from hierfed.fed.clients import build_client_data
from hierfed.models.encoding import Encoding, Vocab
from hierfed.models.task import KT, OP
from hierfed.nn.layers import (
    PROB_CLAMP,
    attention_pool,
    attention_pool_backward,
    gru_backward,
    gru_forward,
    head_backward,
    head_probs,
    lstm_backward,
    lstm_forward,
    softmax_probs,
)
from gradcheck import OracleError, finite_diff_grad, grad_rel_error
from stepwise import kt_entry, op_entry, video

TOL = 1e-6


def make_params(rng, shapes):
    return {k: 0.4 * rng.normal(size=s) for k, s in shapes.items()}


def lstm_shapes(D, k):
    return {"lstm.W": (D + k, 4 * k), "lstm.b": (4 * k,)}


def gru_shapes(D, k):
    return {"gru.Wzr": (D + k, 2 * k), "gru.bzr": (2 * k,),
            "gru.Wn": (D + k, k), "gru.bn": (k,)}


def attention_shapes(k):
    return {"att.W": (k, k), "att.p": (k,)}


def batch_inputs(rng, B, T, D):
    x = rng.normal(size=(B, T, D))
    lengths = rng.integers(1, T + 1, size=B)
    # zero out padded steps so they can't leak into the loss
    for b, L in enumerate(lengths):
        x[b, L:, :] = 0.0
    return x, lengths


def valid_mask(lengths, T):
    return np.arange(T)[None, :] < np.asarray(lengths)[:, None]


def masked_weight_loss(h_seq, lengths, weight):
    """Scalar readout sum_t w . h_t over valid steps only."""
    total = 0.0
    for b, L in enumerate(lengths):
        total += float(np.sum(h_seq[b, :L, :] * weight))
    return total


def test_lstm_gradients_match_finite_differences():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        D, k, B, T = 3, 4, 2, 5
        params = make_params(rng, lstm_shapes(D, k))
        x, lengths = batch_inputs(rng, B, T, D)
        weight = rng.normal(size=k)

        h_seq, cache = lstm_forward(x, lengths, params)
        dh_seq = np.zeros_like(h_seq)
        for b, L in enumerate(lengths):
            dh_seq[b, :L, :] = weight
        grads = lstm_backward(dh_seq[valid_mask(lengths, T)], cache, params)

        def loss(p):
            h, _ = lstm_forward(x, lengths, p)
            return masked_weight_loss(h, lengths, weight)

        fd = finite_diff_grad(loss, params)
        assert grad_rel_error(grads, fd) < TOL


def test_gru_gradients_match_finite_differences():
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        D, k, B, T = 3, 4, 2, 5
        params = make_params(rng, gru_shapes(D, k))
        x, lengths = batch_inputs(rng, B, T, D)
        weight = rng.normal(size=k)

        h_seq, cache = gru_forward(x, lengths, params)
        dh_seq = np.zeros_like(h_seq)
        for b, L in enumerate(lengths):
            dh_seq[b, :L, :] = weight
        grads = gru_backward(dh_seq[valid_mask(lengths, T)], cache, params)

        def loss(p):
            h, _ = gru_forward(x, lengths, p)
            return masked_weight_loss(h, lengths, weight)

        fd = finite_diff_grad(loss, params)
        assert grad_rel_error(grads, fd) < TOL


def test_attention_gradients_match_finite_differences():
    for seed in range(8):
        rng = np.random.default_rng(200 + seed)
        k, B, T = 4, 3, 5
        params = make_params(rng, attention_shapes(k))
        h_seq = rng.normal(size=(B, T, k))
        lengths = rng.integers(1, T + 1, size=B)
        weight = rng.normal(size=k)

        h_tilde, _, cache = attention_pool(h_seq, lengths, params)
        dh_tilde = np.tile(weight, (B, 1))
        grads, _ = attention_pool_backward(dh_tilde, cache, params)

        def loss(p):
            ht, _, _ = attention_pool(h_seq, lengths, p)
            return float(np.sum(ht * weight))

        fd = finite_diff_grad(loss, params)
        assert grad_rel_error(grads, fd) < TOL


def head_inputs(rng, n, k):
    return {"h": rng.normal(size=(n, k)), "out.W": rng.normal(size=(k, 2)),
            "out.b": rng.normal(size=2)}


def head_loss(p, targets):
    """Unclamped cross-entropy of the head over the rows of p["h"]."""
    probs = head_probs(p["h"], p["out.W"], p["out.b"])
    return float(-np.log(probs[np.arange(targets.size), targets]).sum())


def check_head_backward(p, targets):
    """head_backward's gradients against finite differences of head_loss;
    returns its log-likelihoods and each row's probability of its target."""
    probs = head_probs(p["h"], p["out.W"], p["out.b"])
    picked = probs[np.arange(targets.size), targets]
    log_lik, dh, grads = head_backward(p["h"], probs, targets, p["out.W"])
    assert list(grads) == ["out.W", "out.b"]
    fd = finite_diff_grad(lambda q: head_loss(q, targets), p)
    assert grad_rel_error({"h": dh, **grads}, fd) < TOL
    return log_lik, picked


def test_head_gradients_match_finite_differences():
    for seed in range(8):
        rng = np.random.default_rng(400 + seed)
        p = head_inputs(rng, 5, 3)
        log_lik, picked = check_head_backward(p, rng.integers(0, 2, size=5))
        assert np.array_equal(log_lik, np.log(picked))


def test_head_clamps_saturated_rows_but_keeps_their_gradients():
    # rows 0 and 1 have logit gap 25 towards class 0: row 0 gives its
    # target about 1e-11 and row 1 about 1 - 1e-11. Their log-likelihoods
    # stop at the clamp; their adjoints stay those of the unclamped loss
    rng = np.random.default_rng(410)
    p = head_inputs(rng, 4, 3)
    targets = np.array([1, 0, 0, 1])
    w = p["out.W"][:, 0] - p["out.W"][:, 1]
    gap = 25.0 - (p["out.b"][0] - p["out.b"][1])
    p["h"][:2] = gap / (w @ w) * w
    log_lik, picked = check_head_backward(p, targets)
    assert picked[0] < PROB_CLAMP and picked[1] > 1.0 - PROB_CLAMP
    assert log_lik[0] == np.log(PROB_CLAMP)
    assert log_lik[1] == np.log(1.0 - PROB_CLAMP)
    assert np.array_equal(log_lik[2:], np.log(picked[2:]))


# Batched kernels against per-student runs. Lengths are unsorted and tied,
# and the LSTM batch has a length-0 row: a KT student with one response
# encodes to no steps.
KERNELS = {
    "lstm": ([3, 5, 0, 5, 2, 4], lstm_shapes),
    "gru": ([3, 5, 1, 5, 2, 4], gru_shapes),
    "attention": ([3, 5, 1, 5, 2, 4], lambda D, k: attention_shapes(k)),
}
EQUIV_TOL = 1e-12


def run_kernel(kind, x, lengths, params, weight):
    """Per-row outputs on valid steps and the gradients of a masked readout.

    Recurrences read out sum_t w . h_t over valid steps; attention reads out
    w . h_tilde, and its rows also carry the alphas and the input adjoint.
    """
    B = x.shape[0]
    valid = np.arange(x.shape[1])[None, :] < lengths[:, None]
    if kind == "attention":
        h_tilde, alphas, cache = attention_pool(x, lengths, params)
        grads, dx = attention_pool_backward(np.tile(weight, (B, 1)), cache,
                                            params)
        dx = np.split(dx, np.cumsum(lengths)[:-1])   # each row's valid steps
        rows = [np.concatenate([h_tilde[b], alphas[b, :L], dx[b].ravel()])
                for b, L in enumerate(lengths)]
        return rows, grads
    forward, backward = ((lstm_forward, lstm_backward) if kind == "lstm"
                         else (gru_forward, gru_backward))
    h_seq, cache = forward(x, lengths, params)
    grads = backward((valid[:, :, None] * weight)[valid], cache, params)
    assert np.all(h_seq[~valid] == 0.0)
    return [h_seq[b, :L] for b, L in enumerate(lengths)], grads


def kernel_batch(kind, seed):
    lengths, shapes = KERNELS[kind]
    lengths = np.array(lengths)
    rng = np.random.default_rng(seed)
    D, k, T = 3, 4, int(lengths.max())
    x = rng.normal(size=(len(lengths), T, k if kind == "attention" else D))
    for b, L in enumerate(lengths):
        x[b, L:, :] = 0.0
    return x, lengths, make_params(rng, shapes(D, k)), rng.normal(size=k)


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_batched_kernels_match_per_student_runs(kind):
    x, lengths, params, weight = kernel_batch(kind, 300)
    rows, grads = run_kernel(kind, x, lengths, params, weight)
    total = None
    for b, L in enumerate(lengths):
        (row,), g = run_kernel(kind, x[b:b + 1, :L], lengths[b:b + 1],
                               params, weight)
        np.testing.assert_allclose(rows[b], row, rtol=0, atol=EQUIV_TOL)
        total = g if total is None else {
            name: total[name] + arr for name, arr in g.items()}
    for name, arr in grads.items():
        np.testing.assert_allclose(arr, total[name], rtol=0, atol=EQUIV_TOL)


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_permuting_batch_rows_permutes_outputs_and_keeps_gradients(kind):
    x, lengths, params, weight = kernel_batch(kind, 301)
    rows, grads = run_kernel(kind, x, lengths, params, weight)
    perm = np.array([3, 0, 5, 1, 4, 2])   # tied row 3 now comes before row 1
    rows_p, grads_p = run_kernel(kind, x[perm], lengths[perm], params, weight)
    for i, b in enumerate(perm):
        np.testing.assert_allclose(rows_p[i], rows[b], rtol=0, atol=EQUIV_TOL)
    for name, arr in grads.items():
        np.testing.assert_allclose(grads_p[name], arr, rtol=0, atol=EQUIV_TOL)


def test_attention_backward_input_adjoint():
    # check the adjoint of h_seq by differencing the inputs instead of the
    # parameters
    rng = np.random.default_rng(77)
    k, B, T = 3, 2, 4
    params = make_params(rng, attention_shapes(k))
    h_seq = rng.normal(size=(B, T, k))
    lengths = np.array([T, T - 1])
    weight = rng.normal(size=k)

    _, _, cache = attention_pool(h_seq, lengths, params)
    _, dh = attention_pool_backward(np.tile(weight, (B, 1)), cache, params)
    start = np.cumsum(lengths) - lengths   # row b's first valid step in dh

    step = 1e-6
    for b in range(B):
        for t in range(lengths[b]):
            for j in range(k):
                hp = h_seq.copy()
                hp[b, t, j] += step
                hm = h_seq.copy()
                hm[b, t, j] -= step
                lp, _, _ = attention_pool(hp, lengths, params)
                lm, _, _ = attention_pool(hm, lengths, params)
                fd = (np.sum(lp * weight) - np.sum(lm * weight)) / (2 * step)
                assert dh[start[b] + t, j] == pytest.approx(fd, abs=1e-5)


def test_attention_weights_sum_to_one_and_ignore_padding():
    rng = np.random.default_rng(5)
    k, B, T = 4, 3, 6
    params = make_params(rng, attention_shapes(k))
    h_seq = rng.normal(size=(B, T, k))
    lengths = np.array([6, 3, 1])
    _, alphas, _ = attention_pool(h_seq, lengths, params)
    assert np.allclose(alphas.sum(axis=1), 1.0, atol=1e-10)
    assert np.all(alphas[1, 3:] == 0.0)
    assert np.all(alphas[2, 1:] == 0.0)
    assert alphas[2, 0] == pytest.approx(1.0)


def test_identical_steps_pool_to_common_hidden_state():
    rng = np.random.default_rng(6)
    k = 5
    params = make_params(rng, attention_shapes(k))
    h = rng.normal(size=k)
    h_tilde, alphas, _ = attention_pool(np.tile(h, (1, 4, 1)), np.array([4]), params)
    assert np.allclose(h_tilde[0], h, atol=1e-12)
    assert np.allclose(alphas[0], 0.25, atol=1e-12)


def test_bce_clamp_keeps_loss_finite():
    # saturated heads predict the wrong label with probability ~1; the
    # clamp caps each term at -log(PROB_CLAMP) instead of returning inf
    vocab = Vocab(("c0",), ("v0",))
    rng = np.random.default_rng(10)
    for task, entry in (
            (KT, kt_entry([(0, 0)] * 3, [1, 1, 1], vocab)),
            (OP, op_entry([video(0, 0, 1)], 1, vocab))):
        params = task.init(vocab, 3, rng)
        params["out.b"] = np.array([1e4, -1e4])
        width = vocab.kt_input_dim if task is KT else vocab.op_input_dim
        data = build_client_data(task, Encoding(width, {"s": entry}), ["s"])
        loss, grads = data.loss_grad(["s"], params)
        n_terms = len(data.predict(params)[0])
        assert loss == pytest.approx(-n_terms * np.log(PROB_CLAMP))
        assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_softmax_probs_rows_normalized():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(4, 2))
    out = softmax_probs(logits)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    # extreme logits stay finite
    big = softmax_probs(1e4 * logits)
    assert np.all(np.isfinite(big))


@pytest.mark.parametrize("shape", [(16, 2), (124, 2), (600, 2), (16, 15, 2)])
def test_softmax_probs_keeps_the_bits_of_the_axis_reductions(shape):
    rng = np.random.default_rng(12)
    for scale in (1.0, 30.0, 1e3):
        logits = scale * rng.normal(size=shape)
        logits[0, ...] = logits[0, ..., :1]          # tied columns
        shifted = logits - logits.max(axis=-1, keepdims=True)
        ex = np.exp(shifted)
        want = ex / ex.sum(axis=-1, keepdims=True)
        assert softmax_probs(logits).tobytes() == want.tobytes(), scale


def test_finite_diff_grad_flags_nonfinite_loss():
    params = {"w": np.zeros(1)}

    def bad(p):
        return float("nan")

    with pytest.raises(OracleError):
        finite_diff_grad(bad, params)


def test_grad_rel_error_zero_for_identical_grads():
    g = {"w": np.array([1.0, -2.0])}
    assert grad_rel_error(g, g) == 0.0

"""Finite-difference gradient checks for the recurrent and attention layers."""

import numpy as np
import pytest

from hierfed.fed.clients import build_client_data
from hierfed.models.encoding import ActivitySeq, InteractionSeq, VideoStep, Vocab
from hierfed.models.task import KT, OP
from hierfed.nn.gradcheck import OracleError, finite_diff_grad, grad_rel_error
from hierfed.nn.layers import (
    PROB_CLAMP,
    attention_param_shapes,
    attention_pool,
    attention_pool_backward,
    gru_backward,
    gru_forward,
    gru_param_shapes,
    lstm_backward,
    lstm_forward,
    lstm_param_shapes,
    softmax_probs,
)
from hierfed.nn.params import GradSet, ParamSet

TOL = 1e-6


def make_params(rng, shapes):
    return ParamSet({k: 0.4 * rng.normal(size=s) for k, s in shapes.items()})


def batch_inputs(rng, B, T, D):
    x = rng.normal(size=(B, T, D))
    lengths = rng.integers(1, T + 1, size=B)
    # zero out padded steps so they can't leak into the loss
    for b, L in enumerate(lengths):
        x[b, L:, :] = 0.0
    return x, lengths


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
        params = make_params(rng, lstm_param_shapes(D, k))
        x, lengths = batch_inputs(rng, B, T, D)
        weight = rng.normal(size=k)

        h_seq, cache = lstm_forward(x, lengths, params)
        dh_seq = np.zeros_like(h_seq)
        for b, L in enumerate(lengths):
            dh_seq[b, :L, :] = weight
        grads, _, _ = lstm_backward(dh_seq, cache, params)

        def loss(p):
            h, _ = lstm_forward(x, lengths, p)
            return masked_weight_loss(h, lengths, weight)

        fd = finite_diff_grad(loss, params)
        assert grad_rel_error(grads, fd) < TOL


def test_gru_gradients_match_finite_differences():
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        D, k, B, T = 3, 4, 2, 5
        params = make_params(rng, gru_param_shapes(D, k))
        x, lengths = batch_inputs(rng, B, T, D)
        weight = rng.normal(size=k)

        h_seq, cache = gru_forward(x, lengths, params)
        dh_seq = np.zeros_like(h_seq)
        for b, L in enumerate(lengths):
            dh_seq[b, :L, :] = weight
        grads, _ = gru_backward(dh_seq, cache, params)

        def loss(p):
            h, _ = gru_forward(x, lengths, p)
            return masked_weight_loss(h, lengths, weight)

        fd = finite_diff_grad(loss, params)
        assert grad_rel_error(grads, fd) < TOL


def test_attention_gradients_match_finite_differences():
    for seed in range(8):
        rng = np.random.default_rng(200 + seed)
        k, B, T = 4, 3, 5
        params = make_params(rng, attention_param_shapes(k))
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


def test_attention_backward_input_adjoint():
    # check dh_seq by differencing the inputs instead of the parameters
    rng = np.random.default_rng(77)
    k, B, T = 3, 2, 4
    params = make_params(rng, attention_param_shapes(k))
    h_seq = rng.normal(size=(B, T, k))
    lengths = np.array([T, T - 1])
    weight = rng.normal(size=k)

    _, _, cache = attention_pool(h_seq, lengths, params)
    _, dh_seq = attention_pool_backward(np.tile(weight, (B, 1)), cache, params)

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
                assert dh_seq[b, t, j] == pytest.approx(fd, abs=1e-5)


def test_attention_weights_sum_to_one_and_ignore_padding():
    rng = np.random.default_rng(5)
    k, B, T = 4, 3, 6
    params = make_params(rng, attention_param_shapes(k))
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
    params = make_params(rng, attention_param_shapes(k))
    h = rng.normal(size=k)
    h_tilde, alphas, _ = attention_pool(np.tile(h, (1, 4, 1)), np.array([4]), params)
    assert np.allclose(h_tilde[0], h, atol=1e-12)
    assert np.allclose(alphas[0], 0.25, atol=1e-12)


def test_bce_clamp_keeps_loss_finite():
    # saturated heads predict the wrong label with probability ~1; the
    # clamp caps each term at -log(PROB_CLAMP) instead of returning inf
    vocab = Vocab(("c0",), ("v0",))
    rng = np.random.default_rng(10)
    for task, seq in (
            (KT, InteractionSeq("s", [(0, 0)] * 3, [1, 1, 1])),
            (OP, ActivitySeq("s", [VideoStep(0, 0, 1)], 1))):
        params = task.init(task.spec(vocab, 3), rng)
        params.layers["out.b"] = np.array([1e4, -1e4])
        data = build_client_data(task, vocab, {"s": seq}, ["s"])
        loss, grads = data.loss_grad(["s"], params)
        n_terms = len(data.predict(params)[0])
        assert loss == pytest.approx(-n_terms * np.log(PROB_CLAMP))
        assert all(np.all(np.isfinite(g)) for _, g in grads)


def test_softmax_probs_rows_normalized():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(4, 2))
    out = softmax_probs(logits)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    # extreme logits stay finite
    big = softmax_probs(1e4 * logits)
    assert np.all(np.isfinite(big))


def test_finite_diff_grad_flags_nonfinite_loss():
    params = ParamSet({"w": np.zeros(1)})

    def bad(p):
        return float("nan")

    with pytest.raises(OracleError):
        finite_diff_grad(bad, params)


def test_grad_rel_error_zero_for_identical_grads():
    g = GradSet({"w": np.array([1.0, -2.0])})
    assert grad_rel_error(g, g) == 0.0

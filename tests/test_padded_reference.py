"""The program's layers against their earlier forms in tests/padded.py.

tests/padded.py computes the KT head and the attention pooler over every
padded step and masks afterwards. The program computes only valid steps, so
sums run in another order: forward outputs may move by 1e-13 and gradients
by 1e-12, relative to each array's largest entry. KT scores and the KT loss
keep their bits.

The LSTM kernels changed only where their sigmoid gates are written, so
they must match their reference bit for bit.
"""

import numpy as np
import pytest

import padded
import hierfed.models.kt
from hierfed.data.partition import make_folds
from hierfed.data.sequences import build_sequences, build_vocab
from hierfed.fed.clients import build_client_data
from hierfed.models.kt import kt_init, kt_loss_grad, kt_predict
from hierfed.models.task import KT
from hierfed.nn.layers import (_Packing, attention_pool, attention_pool_backward,
                               lstm_backward, lstm_forward)
from hierfed.synth.generate import generate, preset

FORWARD_TOL = 1e-13
GRAD_TOL = 1e-12

# (lengths, T): ragged with length-1 rows, B = 1, T = 1, all full length
CASES = {
    "ragged": ([3, 1, 7, 5, 1, 7, 2, 6], 7),
    "one-row": ([4], 6),
    "one-step": ([1, 1, 1], 1),
    "full": ([5, 5, 5, 5], 5),
}


def rel(actual, reference):
    """Largest absolute difference relative to the reference's largest entry."""
    diff = np.abs(actual - reference).max()
    scale = np.abs(reference).max()
    return diff / scale if scale else diff


def masked(x, lengths):
    """x with every step past its row's length zeroed, as pad_batch leaves it."""
    x = x.copy()
    for b, L in enumerate(lengths):
        x[b, L:] = 0.0
    return x


def valid_mask(lengths, T):
    return np.arange(T)[None, :] < np.asarray(lengths)[:, None]


@pytest.mark.parametrize("case", sorted(CASES))
def test_attention_matches_the_padded_reference(case):
    lengths, T = CASES[case]
    lengths = np.array(lengths)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        B, k = len(lengths), 6
        params = {"att.W": 0.5 * rng.normal(size=(k, k)),
                  "att.p": rng.normal(size=k)}
        # zero past each length, as gru_forward returns its states
        h_seq = masked(rng.normal(size=(B, T, k)), lengths)
        dh_tilde = rng.normal(size=(B, k))

        h_tilde, alphas, cache = attention_pool(h_seq, lengths, params)
        grads, dh_seq = attention_pool_backward(dh_tilde, cache, params)
        ref_tilde, ref_alphas, ref_cache = padded.attention_pool(
            h_seq, lengths, params)
        ref_grads, ref_dh = padded.attention_pool_backward(
            dh_tilde, ref_cache, params)

        assert rel(h_tilde, ref_tilde) <= FORWARD_TOL
        assert rel(alphas, ref_alphas) <= FORWARD_TOL
        for name, g in ref_grads.items():
            assert rel(grads[name], g) <= GRAD_TOL, name
        assert rel(dh_seq, ref_dh) <= GRAD_TOL

        valid = valid_mask(lengths, T)
        assert cache["u"].shape == (B, T, k)
        assert np.all(cache["u"][~valid] == 0.0)
        assert rel(cache["u"][valid], ref_cache["u"][valid]) <= FORWARD_TOL
        assert np.all(alphas[~valid] == 0.0)
        assert np.all(dh_seq[~valid] == 0.0)


# KT batches may hold length-0 rows: a student with one response has no
# scored step.
KT_CASES = {**CASES, "empty-rows": ([0, 4, 0, 2], 4)}


@pytest.mark.parametrize("case", sorted(KT_CASES))
def test_kt_head_matches_the_padded_reference(case):
    lengths, T = KT_CASES[case]
    lengths = np.array(lengths)
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        B, D, k = len(lengths), 5, 6
        params = {"lstm.W": 0.5 * rng.normal(size=(D + k, 4 * k)),
                  "lstm.b": 0.5 * rng.normal(size=4 * k),
                  "out.W": rng.normal(size=(k, 2)),
                  "out.b": rng.normal(size=2)}
        x = masked(rng.normal(size=(B, T, D)), lengths)
        targets = rng.integers(0, 2, size=(B, T))
        valid = valid_mask(lengths, T)

        loss, grads = kt_loss_grad(x, lengths, targets[valid], params)
        scores, labels = kt_predict(x, lengths, targets[valid], params)
        ref_loss, ref_grads, ref_probs = padded.kt_loss_grad(
            x, lengths, targets, params)

        assert np.array_equal(scores, ref_probs[:, :, 1][valid])
        assert np.array_equal(labels, targets[valid])
        assert loss == ref_loss
        for name, g in ref_grads.items():
            assert rel(grads[name], g) <= GRAD_TOL, name


# LSTM batches: the KT cases and tied lengths
LSTM_CASES = {**KT_CASES, "tied": ([4, 2, 4, 1, 2, 4], 5)}


def lstm_params(rng, D, k):
    return {"lstm.W": 0.5 * rng.normal(size=(D + k, 4 * k)),
            "lstm.b": 0.5 * rng.normal(size=4 * k)}


@pytest.mark.parametrize("case", sorted(LSTM_CASES))
def test_lstm_matches_the_in_place_reference_bit_for_bit(case):
    lengths, T = LSTM_CASES[case]
    lengths = np.array(lengths)
    for seed, (D, k) in enumerate([(5, 6), (5, 6), (20, 48)]):
        rng = np.random.default_rng(200 + seed)
        params = lstm_params(rng, D, k)
        x = masked(rng.normal(size=(len(lengths), T, D)), lengths)
        dh_seq = masked(rng.normal(size=(len(lengths), T, k)), lengths)

        h_seq, cache = lstm_forward(x, lengths, params)
        ref_h, ref_cache = padded.lstm_forward(x, lengths, params)
        assert np.array_equal(h_seq, ref_h)
        for key in ("acts", "c", "tanh_c"):
            assert np.array_equal(cache[key], ref_cache[key]), key

        grads = lstm_backward(dh_seq, cache, params)
        ref_grads = padded.lstm_backward(dh_seq, ref_cache, params)
        for name, g in ref_grads.items():
            assert np.array_equal(grads[name], g), name


@pytest.mark.parametrize("case", sorted(LSTM_CASES))
def test_packing_spans_count_the_rows_still_running(case):
    lengths, T = LSTM_CASES[case]
    pk = _Packing(lengths, len(lengths), T)
    # rows before step t: every row's valid steps among the first t
    before = [sum(min(L, t) for L in lengths) for t in range(max(lengths) + 1)]
    expected = [(before[t], before[t + 1], before[t - 1] if t else -1)
                for t in range(max(lengths))]
    assert pk.spans == expected
    assert all(type(v) is int for span in pk.spans for v in span)


def test_kt_loss_grad_keeps_its_bits_on_encoded_batches(monkeypatch):
    ds = generate(preset("heterogeneous-3course"))
    part = make_folds(ds, 101)[0]
    train_ids = part.train_ids()
    vocab = build_vocab(ds, train_ids)
    data = build_client_data(KT, build_sequences(ds, KT, vocab), train_ids)
    params = kt_init(vocab, 48, np.random.default_rng(7))
    # non-zero biases, as after training
    params["lstm.b"][:] = np.random.default_rng(8).normal(scale=0.3, size=4 * 48)
    batches = [data.batch(data.ids[i:i + 16]) for i in range(0, 160, 16)]

    results = [kt_loss_grad(*batch, params) for batch in batches]
    monkeypatch.setattr(hierfed.models.kt, "lstm_forward", padded.lstm_forward)
    monkeypatch.setattr(hierfed.models.kt, "lstm_backward", padded.lstm_backward)
    for batch, (loss, grads) in zip(batches, results):
        ref_loss, ref_grads = kt_loss_grad(*batch, params)
        assert loss == ref_loss
        for name, g in ref_grads.items():
            assert np.array_equal(grads[name], g), name

"""Model-level behavior: losses, predictions, masking, and gradients."""

import numpy as np
import pytest

from hierfed.models.encoding import Encoding, Vocab, pad_batch
from hierfed.fed.clients import build_client_data
from hierfed.models.kt import kt_init, kt_loss_grad, kt_predict
from hierfed.models.op import op_embed, op_init, op_predict
from hierfed.models.task import KT, OP
from hierfed.nn.layers import attention_pool, gru_forward
from gradcheck import finite_diff_grad, grad_rel_error
from stepwise import forum, kt_entry, op_entry, video

TOL = 1e-6

COURSES = ("c0", "c1")
VIDEOS = ("v0", "v1", "v2", "v3")


def small_vocab():
    return Vocab(COURSES, VIDEOS)


def random_interaction(rng, sid, min_len=2, max_len=6):
    """(sid, (x, targets)) of a random quiz sequence."""
    L = int(rng.integers(min_len, max_len + 1))
    items = [(int(rng.integers(2)), int(rng.integers(5))) for _ in range(L)]
    responses = [int(rng.integers(2)) for _ in range(L)]
    return sid, kt_entry(items, responses, small_vocab())


def random_activity(rng, sid, min_len=1, max_len=7):
    """(sid, (x, label)) of a random activity sequence."""
    L = int(rng.integers(min_len, max_len + 1))
    steps = []
    for _ in range(L):
        c = int(rng.integers(2))
        if rng.random() < 0.3:
            steps.append(forum(c, int(rng.integers(3))))
        elif rng.random() < 0.5:
            steps.append(video(c, int(rng.integers(5))))
        else:
            steps.append(video(c, int(rng.integers(5)), int(rng.integers(2))))
    return sid, op_entry(steps, int(rng.integers(2)), small_vocab())


def zero_params(params):
    return {name: np.zeros_like(arr) for name, arr in params.items()}


def valid_mask(lengths, T):
    """(B, T) mask of each student's steps before its length."""
    return np.arange(T)[None, :] < lengths[:, None]


def per_student(scores, lengths):
    """Flat batch-major KT scores split into one array per student."""
    return np.split(scores, np.cumsum(lengths)[:-1])


def client_data(task, students):
    """Client over the given (sid, entry) students, ids in the given order."""
    ids = [sid for sid, _ in students]
    vocab = small_vocab()
    width = vocab.kt_input_dim if task is KT else vocab.op_input_dim
    return build_client_data(task, Encoding(width, dict(students)), ids), ids


def test_kt_init_layout():
    vocab = small_vocab()
    params = kt_init(vocab, 6, np.random.default_rng(0))
    assert list(params) == ["lstm.W", "lstm.b", "out.W", "out.b"]
    d, k = vocab.kt_input_dim, 6
    assert params["lstm.W"].shape == (d + k, 4 * k)
    assert np.all(params["lstm.b"] == 0.0)
    assert np.all(params["out.b"] == 0.0)
    assert np.abs(params["lstm.W"]).max() <= 1.0 / np.sqrt(d + k)


def test_op_init_layout():
    vocab = small_vocab()
    params = op_init(vocab, 5, np.random.default_rng(0))
    assert list(params) == [
        "gru.Wzr", "gru.bzr", "gru.Wn", "gru.bn",
        "att.W", "att.p", "out.W", "out.b",
    ]
    d, k = vocab.op_input_dim, 5
    assert params["gru.Wzr"].shape == (d + k, 2 * k)
    assert params["gru.Wn"].shape == (d + k, k)
    assert np.all(params["gru.bzr"] == 0.0)
    assert np.all(params["gru.bn"] == 0.0)


def test_kt_zero_params_predicts_even_odds():
    vocab = small_vocab()
    rng = np.random.default_rng(7)
    seqs = [random_interaction(rng, f"s{i}") for i in range(5)]
    params = zero_params(kt_init(vocab, 4, rng))
    data, ids = client_data(KT, seqs)

    loss, _ = data.loss_grad(ids, params)
    n_steps = sum(x.shape[0] for _, (x, _) in seqs)
    assert np.isclose(loss, n_steps * np.log(2.0), rtol=1e-12)

    scores, _ = data.predict(params)
    assert scores.size == n_steps
    assert np.all(scores == 0.5)


def test_op_zero_params_predicts_even_odds():
    vocab = small_vocab()
    rng = np.random.default_rng(8)
    seqs = [random_activity(rng, f"s{i}") for i in range(5)]
    params = zero_params(op_init(vocab, 4, rng))
    data, ids = client_data(OP, seqs)

    loss, _ = data.loss_grad(ids, params)
    assert np.isclose(loss, len(seqs) * np.log(2.0), rtol=1e-12)

    scores, _ = data.predict(params)
    assert np.all(scores == 0.5)
    x, lengths, _ = data.batch(ids)
    assert np.all(op_embed(x, lengths, params) == 0.0)


def test_kt_single_interaction_contributes_nothing():
    # one quiz interaction means zero predictable steps
    vocab = small_vocab()
    rng = np.random.default_rng(11)
    params = kt_init(vocab, 4, rng)
    seqs = [random_interaction(rng, f"s{i}") for i in range(3)]
    stub = ("stub", kt_entry([(0, 1)], [1], vocab))

    data, ids = client_data(KT, seqs + [stub])
    base, gbase = data.loss_grad(ids[:-1], params)
    with_stub, gstub = data.loss_grad(ids, params)
    assert with_stub == base
    for name, g in gbase.items():
        assert np.array_equal(g, gstub[name])


def test_duplicating_a_batch_doubles_the_loss():
    vocab = small_vocab()
    rng = np.random.default_rng(13)
    kt_params = kt_init(vocab, 5, rng)
    op_params = op_init(vocab, 5, rng)
    iseqs = [random_interaction(rng, f"s{i}") for i in range(4)]
    aseqs = [random_activity(rng, f"s{i}") for i in range(4)]

    for task, seqs, params in ((KT, iseqs, kt_params), (OP, aseqs, op_params)):
        data, ids = client_data(task, seqs)
        l1, g1 = data.loss_grad(ids, params)
        l2, g2 = data.loss_grad(ids + ids, params)
        assert np.isclose(l2, 2.0 * l1, rtol=1e-12)
        for name, g in g1.items():
            assert np.allclose(g2[name], 2.0 * g, rtol=1e-10, atol=1e-12)


def test_batch_loss_matches_per_student_sum():
    vocab = small_vocab()
    for seed in range(6):
        rng = np.random.default_rng(seed)
        kt_params = kt_init(vocab, 5, rng)
        op_params = op_init(vocab, 5, rng)
        iseqs = [random_interaction(rng, f"s{i}") for i in range(5)]
        aseqs = [random_activity(rng, f"s{i}") for i in range(5)]

        for task, seqs, params in ((KT, iseqs, kt_params),
                                   (OP, aseqs, op_params)):
            data, ids = client_data(task, seqs)
            batch, _ = data.loss_grad(ids, params)
            solo = sum(data.loss_grad([sid], params)[0] for sid in ids)
            assert np.isclose(batch, solo, rtol=1e-12)


def test_batch_order_does_not_change_the_loss():
    vocab = small_vocab()
    rng = np.random.default_rng(29)
    params = kt_init(vocab, 5, rng)
    seqs = [random_interaction(rng, f"s{i}") for i in range(6)]
    data, ids = client_data(KT, seqs)
    fwd, _ = data.loss_grad(ids, params)
    rev, _ = data.loss_grad(ids[::-1], params)
    assert np.isclose(fwd, rev, rtol=1e-12)


@pytest.mark.parametrize("task, make", [(KT, random_interaction),
                                        (OP, random_activity)])
def test_identical_students_score_identically_at_any_batch_row(task, make):
    # the last 31 % 4 rows of a BLAS (31, k) @ (k, 2) product take another
    # path; identical students must still score alike, or their AUC tie breaks
    vocab = small_vocab()
    rng = np.random.default_rng(31)
    for _ in range(10):
        params = task.init(vocab, 16, rng)
        seqs = [make(rng, f"s{i:02d}") for i in range(31)]
        seqs[30] = ("s30", seqs[0][1])
        data, ids = client_data(task, seqs)
        x, lengths, targets = data.batch(ids)
        scores = task.predict(x, lengths, targets, params)[0]
        if task is KT:
            scores = per_student(scores, lengths)
        assert np.array_equal(scores[0], scores[30])


def test_kt_predictions_are_causal():
    # perturbing the input at step t must not move predictions before t
    vocab = small_vocab()
    rng = np.random.default_rng(17)
    params = kt_init(vocab, 6, rng)
    B, T, D = 3, 6, vocab.kt_input_dim
    x = rng.normal(size=(B, T, D))
    lengths = np.array([6, 4, 5])
    targets = rng.integers(0, 2, size=(B, T))[valid_mask(lengths, T)]

    probs = per_student(kt_predict(x, lengths, targets, params)[0], lengths)
    cut = 3
    x2 = x.copy()
    x2[0, cut:, :] += rng.normal(size=(T - cut, D))
    probs2 = per_student(kt_predict(x2, lengths, targets, params)[0], lengths)
    assert np.array_equal(probs[0][:cut], probs2[0][:cut])
    assert not np.allclose(probs[0][cut:], probs2[0][cut:])
    # untouched students are untouched
    assert np.array_equal(probs[1], probs2[1])


def test_padding_garbage_is_ignored():
    vocab = small_vocab()
    rng = np.random.default_rng(19)
    kt_params = kt_init(vocab, 5, rng)
    B, T, D = 3, 6, vocab.kt_input_dim
    x = rng.normal(size=(B, T, D))
    lengths = np.array([6, 3, 4])
    targets = rng.integers(0, 2, size=(B, T))[valid_mask(lengths, T)]
    for b, L in enumerate(lengths):
        x[b, L:, :] = 0.0

    loss, grads = kt_loss_grad(x, lengths, targets, kt_params)
    x2 = x.copy()
    for b, L in enumerate(lengths):
        x2[b, L:, :] = rng.normal(size=(T - L, D))
    loss2, grads2 = kt_loss_grad(x2, lengths, targets, kt_params)
    assert loss == loss2
    for name, g in grads.items():
        assert np.array_equal(g, grads2[name])


def test_kt_single_student_loss_matches_its_predictions():
    vocab = small_vocab()
    rng = np.random.default_rng(23)
    params = kt_init(vocab, 5, rng)
    seq = random_interaction(rng, "s0", min_len=4, max_len=4)
    data, ids = client_data(KT, [seq])

    scores, labels = data.predict(params)
    assert scores.shape == (3,)
    assert np.array_equal(labels, seq[1][1])
    assert np.all((scores > 0.0) & (scores < 1.0))

    loss, _ = data.loss_grad(ids, params)
    picked = np.where(labels == 1, scores, 1.0 - scores)
    assert np.isclose(loss, -np.log(picked).sum(), rtol=1e-12)


def test_kt_predict_flattens_valid_steps_only():
    vocab = small_vocab()
    rng = np.random.default_rng(31)
    params = kt_init(vocab, 4, rng)
    B, T, D = 3, 5, vocab.kt_input_dim
    x = rng.normal(size=(B, T, D))
    lengths = np.array([5, 2, 3])
    targets = rng.integers(0, 2, size=(B, T))

    scores, labels = kt_predict(x, lengths,
                                targets[valid_mask(lengths, T)], params)
    assert scores.shape == (10,)
    assert labels.shape == (10,)
    assert np.array_equal(labels[:5], targets[0, :5])
    assert np.array_equal(labels[5:7], targets[1, :2])
    assert np.all((scores > 0.0) & (scores < 1.0))


def op_alphas(x, lengths, params):
    """The OP model's attention weights over a padded batch: (B, T)."""
    h_seq, _ = gru_forward(x, lengths, params)
    return attention_pool(h_seq, lengths, params)[1]


def test_op_single_step_gets_full_attention():
    vocab = small_vocab()
    rng = np.random.default_rng(37)
    params = op_init(vocab, 4, rng)
    x, lengths = pad_batch([op_entry([video(0, 1, 1)], 1, vocab)[0]],
                           vocab.op_input_dim)
    alphas = op_alphas(x, lengths, params)
    assert np.array_equal(alphas, np.array([[1.0]]))


def test_op_attention_weights_sum_to_one():
    vocab = small_vocab()
    rng = np.random.default_rng(41)
    params = op_init(vocab, 4, rng)
    seqs = [random_activity(rng, f"s{i}", min_len=2, max_len=7)[1][0]
            for i in range(5)]
    x, lengths = pad_batch(seqs, vocab.op_input_dim)
    alphas = op_alphas(x, lengths, params)
    for row, n in zip(alphas, lengths):
        assert np.isclose(row.sum(), 1.0, atol=1e-12)
        assert np.all(row >= 0.0)
        assert np.all(row[n:] == 0.0)


def test_op_embed_is_the_pooled_state():
    vocab = small_vocab()
    rng = np.random.default_rng(43)
    params = op_init(vocab, 6, rng)
    seqs = [random_activity(rng, f"s{i}", min_len=3, max_len=6)[1][0]
            for i in range(3)]
    x, lengths = pad_batch(seqs, vocab.op_input_dim)
    emb = op_embed(x, lengths, params)
    assert emb.shape == (3, 6)
    h_seq, _ = gru_forward(x, lengths, params)
    h_tilde = np.einsum("bt,btk->bk", op_alphas(x, lengths, params), h_seq)
    assert np.array_equal(emb, h_tilde)


def test_op_predict_scores_probability_of_passing():
    vocab = small_vocab()
    rng = np.random.default_rng(47)
    params = op_init(vocab, 4, rng)
    encoded = [random_activity(rng, f"s{i}")[1] for i in range(4)]
    x, lengths = pad_batch([e[0] for e in encoded], vocab.op_input_dim)
    labels = np.array([e[1] for e in encoded])

    scores, out_labels = op_predict(x, lengths, labels, params)
    assert np.array_equal(out_labels, labels)
    assert np.all((scores > 0.0) & (scores < 1.0))
    # a student scores the same alone as in the batch
    x0, lengths0 = pad_batch([encoded[0][0]], vocab.op_input_dim)
    alone, _ = op_predict(x0, lengths0, labels[:1], params)
    assert np.isclose(scores[0], alone[0], atol=1e-12)


def test_empty_batches_are_rejected():
    vocab = small_vocab()
    rng = np.random.default_rng(53)
    kt_params = kt_init(vocab, 4, rng)
    op_params = op_init(vocab, 4, rng)
    for task, seqs, params in (
            (KT, [random_interaction(rng, "s0")], kt_params),
            (OP, [random_activity(rng, "s0")], op_params)):
        data, _ = client_data(task, seqs)
        with pytest.raises(ValueError):
            data.loss_grad([], params)


def test_kt_gradients_match_finite_differences():
    vocab = small_vocab()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        params = kt_init(vocab, 4, rng)
        seqs = [random_interaction(rng, f"s{i}", min_len=2, max_len=5)
                for i in range(3)]
        data, ids = client_data(KT, seqs)
        _, grads = data.loss_grad(ids, params)
        assert list(grads) == list(params)   # param_norm sums in this order
        fd = finite_diff_grad(lambda p: data.loss_grad(ids, p)[0], params)
        assert grad_rel_error(grads, fd) < TOL


def test_op_gradients_match_finite_differences():
    vocab = small_vocab()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        params = op_init(vocab, 4, rng)
        seqs = [random_activity(rng, f"s{i}", min_len=1, max_len=5)
                for i in range(3)]
        data, ids = client_data(OP, seqs)
        _, grads = data.loss_grad(ids, params)
        assert list(grads) == list(params)   # param_norm sums in this order
        fd = finite_diff_grad(lambda p: data.loss_grad(ids, p)[0], params)
        assert grad_rel_error(grads, fd) < TOL

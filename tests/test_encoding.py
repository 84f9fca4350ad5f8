"""Vocabulary, one-hot layouts, and per-student encoding contracts.

The program encodes each student straight from the event log as one-hot
column indices, and pad_batch expands them into one-hot rows; every check
here compares the columns and the expanded rows against the per-step
reference encoder in stepwise.py.
"""

from dataclasses import replace

import numpy as np
import pytest

from hierfed.data.partition import make_folds
from hierfed.data.records import Dataset, StudentRecord
from hierfed.data.sequences import MAX_SEQ_LEN, build_sequences, build_vocab
from hierfed.models.encoding import FORUM_ACTIONS, NULL, Vocab, pad_batch
from hierfed.models.task import KT, OP
from hierfed.runner import ExperimentConfig, _Data, _prepare, dataset_hash
from hierfed.synth.generate import generate, preset
from rowwise import Event, coded, events_of
from stepwise import (forum, item_row, kt_entry, kt_rows, op_entry, op_rows,
                      step_row, video)


def quiz(course, vid, response, sid="s"):
    return Event(sid, course, "quiz_response", vid, response, None, 0)


def watch(course, vid, sid="s"):
    return Event(sid, course, "video", vid, None, None, 0)


def post(course, action, sid="s"):
    return Event(sid, course, "forum", None, None, action, 0)


def rows_of(x, width):
    """A student's one-hot rows: its column indices expanded by pad_batch."""
    return pad_batch([x], width)[0][0]


def encode_one(task, events, vocab, outcome=0):
    """One student's (one-hot rows, target) under task, encoded through a
    Dataset."""
    sid, course = events[0].student_id, events[0].course_id
    ds = Dataset({sid: StudentRecord(sid, course, outcome=outcome)},
                 coded(events))
    encoded = task.encode(ds, vocab, MAX_SEQ_LEN)
    x, target = encoded.students[sid]
    return rows_of(x, encoded.width), target


def stepwise_reference(dataset, task, vocab, max_len=MAX_SEQ_LEN) -> dict:
    """{sid: (one-hot rows, column indices, target)} built one step at a
    time from the event log."""
    out = {}
    for sid, events in events_of(dataset).items():
        if task is KT:
            quizzes = [ev for ev in events if ev.kind == "quiz_response"][:max_len]
            if quizzes:
                items = [(vocab.course_index(ev.course_id),
                          vocab.video_index(ev.video_id)) for ev in quizzes]
                responses = [ev.response for ev in quizzes]
                rows, targets = kt_rows(items, responses, vocab)
                out[sid] = rows, kt_entry(items, responses, vocab)[0], targets
            continue
        steps = [forum(vocab.course_index(ev.course_id),
                       FORUM_ACTIONS.index(ev.forum_action))
                 if ev.kind == "forum" else
                 video(vocab.course_index(ev.course_id),
                       vocab.video_index(ev.video_id), ev.response)
                 for ev in events[:max_len]]
        if steps:
            outcome = dataset.students[sid].outcome
            rows, label = op_rows(steps, outcome, vocab)
            out[sid] = rows, op_entry(steps, outcome, vocab)[0], label
    return out


def assert_same_encoding(got, want: dict):
    """got, an Encoding, holds want's columns and targets, and its columns
    expand to want's one-hot rows bit for bit, alone and in one batch."""
    assert list(got.students) == list(want)
    for sid, (rows, cols, target) in want.items():
        gx, gtarget = got.students[sid]
        assert gx.dtype == cols.dtype and np.array_equal(gx, cols), sid
        grows = rows_of(gx, got.width)
        assert grows.dtype == rows.dtype and grows.shape == rows.shape, sid
        assert grows.tobytes() == rows.tobytes(), sid
        if isinstance(target, np.ndarray):
            assert gtarget.dtype == target.dtype
            assert np.array_equal(gtarget, target), sid
        else:
            assert type(gtarget) is type(target) and gtarget == target, sid
    sids = list(want)[:32]
    x, lengths = pad_batch([got.students[sid][0] for sid in sids], got.width)
    for b, sid in enumerate(sids):
        rows = want[sid][0]
        assert lengths[b] == len(rows)
        assert x[b, :len(rows)].tobytes() == rows.tobytes(), sid
        assert not x[b, len(rows):].any(), sid


def test_vocab_sorts_and_dedupes():
    vocab = Vocab(["b", "a", "b"], ["v2", "v0", "v2", "v1"])
    assert vocab.course_ids == ("a", "b")
    assert vocab.video_ids == ("v0", "v1", "v2")
    assert vocab.n_courses == 2
    assert vocab.n_video_slots == 4  # three known plus the unknown slot
    assert vocab.unknown_video == 3
    assert vocab.course_index("b") == 1
    assert vocab.video_index("v1") == 1


def test_vocabs_of_the_same_ids_are_equal():
    # equal vocabularies share one encoding, so equality is over the id
    # sets: order and repeats do not count, one more video does
    vocab = Vocab(["b", "a"], ["v2", "v0", "v1"])
    same = Vocab(["a", "b", "a"], ["v1", "v2", "v0", "v1"])
    assert vocab == same and not vocab != same
    assert hash(vocab) == hash(same)
    assert len({vocab, same}) == 1
    wider = Vocab(["a", "b"], ["v0", "v1", "v2", "v3"])
    assert vocab != wider and not vocab == wider
    assert Vocab(["a"], ["v0"]) != Vocab(["b"], ["v0"])
    assert vocab != ("a", "b")
    assert repr(vocab) == "Vocab(2 courses, 3 videos)"


def test_vocab_unknown_video_maps_to_reserved_slot():
    vocab = Vocab(["a"], ["v0"])
    assert vocab.video_index("never-seen") == vocab.unknown_video


def test_vocab_rejects_unknown_course():
    vocab = Vocab(["a"], ["v0"])
    with pytest.raises(ValueError):
        vocab.course_index("z")


def test_input_widths_follow_block_layout():
    vocab = Vocab(["a", "b", "c"], ["v0", "v1"])
    assert vocab.kt_input_dim == 3 + 3
    assert vocab.op_input_dim == 6 + 2 + len(FORUM_ACTIONS)
    # each task's first layer reads its own width
    rng = np.random.default_rng(0)
    assert KT.init(vocab, 7, rng)["lstm.W"].shape == (vocab.kt_input_dim + 7, 28)
    assert OP.init(vocab, 7, rng)["gru.Wn"].shape == (vocab.op_input_dim + 7, 7)


def test_interaction_encoding_has_exactly_two_ones():
    vocab = Vocab(["a", "b"], ["v0", "v1", "v2"])
    x, _ = encode_one(KT, [quiz("b", "v2", 1), quiz("b", "v0", 0)], vocab)
    assert x.shape == (1, vocab.kt_input_dim)
    assert x[0].sum() == 2.0
    assert x[0, 1] == 1.0  # course block
    assert x[0, 2 + 2] == 1.0  # video block offset by course count


def test_activity_encoding_video_step():
    vocab = Vocab(["a", "b"], ["v0", "v1"])
    base = vocab.n_courses
    x, _ = encode_one(OP, [quiz("a", "v1", 1)], vocab, outcome=1)
    assert x[0, 0] == 1.0
    assert x[0, base + 1] == 1.0
    assert x[0, base + vocab.n_video_slots + 1] == 1.0
    assert x[0].sum() == 3.0
    # forum block stays zero for video steps
    assert np.all(x[0, base + vocab.n_video_slots + 2:] == 0.0)


def test_activity_encoding_video_step_without_response():
    vocab = Vocab(["a", "b"], ["v0", "v1"])
    x, _ = encode_one(OP, [watch("b", "v0")], vocab)
    assert x[0].sum() == 2.0
    assert np.all(x[0, vocab.n_courses + vocab.n_video_slots:] == 0.0)


def test_activity_encoding_forum_step():
    vocab = Vocab(["a", "b"], ["v0", "v1"])
    base = vocab.n_courses
    x, _ = encode_one(OP, [post("b", "forum_view")], vocab)
    assert x[0, 1] == 1.0
    assert x[0, base + vocab.n_video_slots + 2 + 2] == 1.0
    assert x[0].sum() == 2.0
    # video and response blocks stay zero for forum steps
    assert np.all(x[0, base:base + vocab.n_video_slots + 2] == 0.0)


def test_activity_encoding_rejects_bad_steps():
    vocab = Vocab(["a"], ["v0"])
    with pytest.raises(ValueError):
        encode_one(OP, [post("z", "forum_post")], vocab)
    with pytest.raises(ValueError):
        encode_one(KT, [quiz("z", "v0", 1), quiz("z", "v1", 1)], vocab)


def test_unseen_video_maps_to_the_reserved_slot():
    vocab = Vocab(["a"], ["v0"])
    unknown = vocab.n_courses + vocab.unknown_video
    x, _ = encode_one(OP, [watch("a", "never-seen"), quiz("a", "never-seen", 0)],
                      vocab, outcome=1)
    assert np.all(x[:, unknown] == 1.0)
    assert np.array_equal(x, op_rows([video(0, vocab.unknown_video),
                                      video(0, vocab.unknown_video, 0)],
                                     1, vocab)[0])
    x, _ = encode_one(KT, [quiz("a", "never-seen", 1), quiz("a", "v0", 0)], vocab)
    assert x[0, unknown] == 1.0


def test_kt_student_encoding_shifts_targets():
    vocab = Vocab(["a", "b"], ["v0", "v1", "v2"])
    x, targets = encode_one(KT, [quiz("b", "v0", 1), quiz("b", "v2", 0),
                                 quiz("b", "v1", 1)], vocab)
    # inputs are the first L-1 items, targets the last L-1 responses
    assert x.shape == (2, vocab.kt_input_dim)
    assert np.array_equal(x[0], item_row(1, 0, vocab))
    assert np.array_equal(x[1], item_row(1, 2, vocab))
    assert targets.dtype == np.int64
    assert np.array_equal(targets, np.array([0, 1]))


def test_kt_student_encoding_length_one_is_empty():
    vocab = Vocab(["a"], ["v0"])
    x, targets = encode_one(KT, [quiz("a", "v0", 1)], vocab)
    assert x.shape == (0, vocab.kt_input_dim)
    assert targets.shape == (0,)


def test_op_student_encoding():
    vocab = Vocab(["a", "b"], ["v0", "v1"])
    x, label = encode_one(OP, [quiz("a", "v1", 1), post("a", "forum_post")], vocab,
                          outcome=1)
    assert x.shape == (2, vocab.op_input_dim)
    assert label == 1
    assert np.array_equal(x[0], step_row(video(0, 1, 1), vocab))
    assert np.array_equal(x[1], step_row(forum(0, 0), vocab))


@pytest.fixture(scope="module")
def heterogeneous():
    ds = generate(preset("heterogeneous-3course"))
    return ds, make_folds(ds, 101)


@pytest.mark.parametrize("task", [KT, OP], ids=["KT", "OP"])
def test_every_fold_matches_the_stepwise_reference(heterogeneous, task):
    ds, parts = heterogeneous
    for part in parts:
        vocab = build_vocab(ds, part.train_ids())
        got = build_sequences(ds, task, vocab)
        assert_same_encoding(got, stepwise_reference(ds, task, vocab))


def edge_case_dataset():
    """s1: forum steps, unanswered and unseen videos; s2: a single quiz;
    s3: forum steps only; s4: no events; s5: longer than the step budget."""
    students = {sid: StudentRecord(sid, "c0", outcome=int(sid == "s1"))
                for sid in ("s1", "s2", "s3", "s4", "s5")}
    long_run = [quiz("c0", f"v{t}", t % 2, "s5")
                for t in range(MAX_SEQ_LEN + 5)]
    events = [watch("c0", "v0", "s1"), post("c0", "forum_reply", "s1"),
              quiz("c0", "v1", 1, "s1"), quiz("c0", "u9", 0, "s1"),
              watch("c0", "u8", "s1"),
              quiz("c0", "v0", 1, "s2"), post("c0", "forum_view", "s2"),
              post("c0", "forum_post", "s3")] + long_run
    return Dataset(students, coded(events))


@pytest.mark.parametrize("task", [KT, OP], ids=["KT", "OP"])
def test_edge_cases_match_the_stepwise_reference(task):
    ds = edge_case_dataset()
    # s1 is held out: u8 and u9 are unseen in training
    vocab = build_vocab(ds, ["s2", "s3", "s5"])
    assert set(vocab.video_ids) == {f"v{t}" for t in range(MAX_SEQ_LEN + 5)}
    encoded = build_sequences(ds, task, vocab)
    assert_same_encoding(encoded, stepwise_reference(ds, task, vocab))
    got = encoded.students
    if task is KT:
        # students with no quiz response are skipped; one response is no row
        assert set(got) == {"s1", "s2", "s5"}
        assert got["s2"][0].shape == (0, 2)
        assert got["s2"][1].shape == (0,)
        assert rows_of(got["s2"][0], encoded.width).shape == (0, vocab.kt_input_dim)
        assert got["s5"][0].shape == (MAX_SEQ_LEN - 1, 2)
    else:
        assert set(got) == {"s1", "s2", "s3", "s5"}
        assert got["s5"][0].shape == (MAX_SEQ_LEN, 3)
        unknown = vocab.n_courses + vocab.unknown_video
        assert got["s1"][0][:, 1].tolist().count(unknown) == 2
        assert rows_of(got["s1"][0], encoded.width)[:, unknown].tolist() == [
            0, 0, 0, 1, 1]
        # s1's forum step and its unanswered videos have no response
        assert (got["s1"][0][:, 2] == NULL).tolist() == [True, True, False,
                                                          False, True]


@pytest.mark.parametrize("task", [KT, OP], ids=["KT", "OP"])
def test_a_folds_encoding_does_not_grow_with_the_vocabulary(task):
    ds = generate(replace(preset("balanced-small"), videos_per_course=1000))
    vocab = build_vocab(ds, make_folds(ds, 101)[0].train_ids())
    encoded = build_sequences(ds, task, vocab)
    assert encoded.width > 300
    xs = [x for x, _ in encoded.students.values()]
    steps = sum(len(x) for x in xs)
    assert steps > 0
    # at most three indices a step, however wide its one-hot row
    assert sum(x.nbytes for x in xs) <= steps * 3 * xs[0].itemsize


def test_clients_of_a_fold_share_each_students_arrays(heterogeneous):
    ds, parts = heterogeneous
    config = ExperimentConfig(dataset="heterogeneous-3course", task="OP",
                              strategy="sc2-P-AT-B", demographic="age",
                              folds=(0,), seed=101)
    ctx, val, test = _prepare(config, _Data(ds, parts, dataset_hash(ds)),
                              0, 0)
    assert len(ctx.clients) > 1
    for key, data in ctx.clients.items():
        pool = ctx.course_pools[key.course]
        assert val.clients[key] is data and test.clients[key] is data
        assert data.ids
        assert pool.encoding is data.encoding
        assert data.encoding.width == (ctx.init_params["gru.Wn"].shape[0]
                                       - config.hidden_dim)
        assert set(data.ids) <= set(pool.ids)


def test_pad_batch_shapes_and_lengths():
    vocab = Vocab(["a", "b"], ["v0", "v1", "v2"])
    # an answered video, a forum step and an unanswered video: three, two
    # and two ones, the last two with a NULL response
    students = [[video(1, 2, 0), forum(0, 2)], [video(0, 3)],
                [forum(1, 0), video(1, 1, 1), video(0, 0)]]
    arrays = [op_entry(steps, 0, vocab)[0] for steps in students]
    assert [(a[:, 2] == NULL).sum() for a in arrays] == [1, 1, 2]
    copies = [a.copy() for a in arrays]
    x, lengths = pad_batch(arrays, vocab.op_input_dim)
    assert x.shape == (3, 3, vocab.op_input_dim) and x.dtype == bool
    assert x.flags.c_contiguous
    assert np.array_equal(lengths, np.array([2, 1, 3]))
    for b, steps in enumerate(students):
        L = len(steps)
        assert x[b, :L].tobytes() == op_rows(steps, 0, vocab)[0].tobytes()
        assert np.all(x[b, L:] == 0.0)
        assert np.array_equal(arrays[b], copies[b])  # the entries are not written
    assert x.sum() == 3 + 2 + 2 + 2 + 3 + 2
    # KT rows: two indices a step; a student with no item is an empty row set
    items = [kt_entry([(1, 0), (0, 3), (1, 1)], [1, 0, 1], vocab)[0],
             kt_entry([(0, 2)], [0], vocab)[0]]
    x, lengths = pad_batch(items, vocab.kt_input_dim)
    assert x.shape == (2, 2, vocab.kt_input_dim)
    assert lengths.tolist() == [2, 0]
    assert x[0].tobytes() == kt_rows([(1, 0), (0, 3), (1, 1)], [1, 0, 1],
                                     vocab)[0].tobytes()
    assert not x[1].any()
    x, lengths = pad_batch(items[1:], vocab.kt_input_dim)
    assert x.shape == (1, 0, vocab.kt_input_dim) and lengths.tolist() == [0]
    with pytest.raises(ValueError, match="empty batch"):
        pad_batch([], vocab.op_input_dim)
    # a column past the width: an entry encoded under a wider vocabulary
    with pytest.raises(ValueError, match="outside width"):
        pad_batch(arrays, vocab.op_input_dim - 1)
    with pytest.raises(ValueError, match="outside width"):
        pad_batch(items, vocab.kt_input_dim - 1)

"""Ingestion, cross-validation folds, demographic grouping, and sampling."""

import logging

import numpy as np
import pytest

from hierfed.data.grouping import age_bucket, group_by_demographic
from hierfed.data.ingest import export_dataset, ingest
from hierfed.data.partition import make_folds
from hierfed.data.records import Dataset, EventRecord, StudentRecord
from hierfed.data.sampling import stratified_batch
from hierfed.data.sequences import build_sequences, build_vocab
from hierfed.errors import ConfigError, DataError
from hierfed.keys import GroupKey
from hierfed.models.task import KT, OP

STUDENTS_CSV = """\
student_id,course_id,gender,continent,birth_year,outcome
s1,c0,M,EU,1985,1
s2,c0,F,,1992,0
s3,c1,,,,1
"""

EVENTS_CSV = """\
student_id,course_id,kind,video_id,response,forum_action,timestamp
s1,c0,video,v0,,,0
s1,c0,quiz_response,v0,1,,1
s1,c0,forum,,,forum_post,2
s2,c0,quiz_response,v1,0,,5
s3,c1,video,v9,,,3
"""


def write_inputs(tmp_path, events=EVENTS_CSV, students=STUDENTS_CSV):
    ep = tmp_path / "events.csv"
    sp = tmp_path / "students.csv"
    ep.write_text(events)
    sp.write_text(students)
    return ep, sp


def test_ingest_parses_both_files(tmp_path):
    ds = ingest(*write_inputs(tmp_path))
    assert set(ds.students) == {"s1", "s2", "s3"}
    assert ds.students["s1"].gender == "M"
    assert ds.students["s2"].continent is None
    assert ds.students["s3"].birth_year is None
    assert ds.course_ids == ("c0", "c1")
    kinds = [e.kind for e in ds.events_by_student["s1"]]
    assert kinds == ["video", "quiz_response", "forum"]


def test_ingest_round_trips_through_export(tmp_path):
    ds = ingest(*write_inputs(tmp_path))
    ep2 = tmp_path / "events2.csv"
    sp2 = tmp_path / "students2.csv"
    export_dataset(ds, ep2, sp2)
    again = ingest(ep2, sp2)
    assert again.students == ds.students
    assert again.events_by_student == ds.events_by_student


def test_ingest_accepts_json_lines(tmp_path):
    ep = tmp_path / "events.jsonl"
    ep.write_text(
        '{"student_id": "s1", "course_id": "c0", "kind": "video", '
        '"video_id": "v0", "timestamp": 4}\n'
        "\n"
        '{"student_id": "s1", "course_id": "c0", "kind": "quiz_response", '
        '"video_id": "v0", "response": 1, "timestamp": 5}\n')
    sp = tmp_path / "students.csv"
    sp.write_text("student_id,course_id,gender,continent,birth_year,outcome\n"
                  "s1,c0,,,,0\n")
    ds = ingest(ep, sp)
    assert [e.kind for e in ds.events_by_student["s1"]] == ["video",
                                                           "quiz_response"]


@pytest.mark.parametrize("mutation, fragment", [
    (lambda e, s: (e.replace("timestamp", "ts"), s), "bad header"),
    (lambda e, s: (e + "s1,c0,video,v0\n", s), "expected 7 fields"),
    (lambda e, s: (e + "zz,c0,video,v0,,,9\n", s), "unknown student"),
    (lambda e, s: (e + "s1,c1,video,v0,,,9\n", s), "does not match roster"),
    (lambda e, s: (e + "s1,c0,hover,v0,,,9\n", s), "unknown event kind"),
    (lambda e, s: (e + "s1,c0,video,v0,,,\n", s), "timestamp is required"),
    (lambda e, s: (e, s + "s1,c0,M,EU,1985,1\n"), "duplicate student"),
    (lambda e, s: (e, s + "s9,c0,X,,1985,1\n"), "gender"),
])
def test_ingest_reports_file_and_line(tmp_path, mutation, fragment):
    ev, st = mutation(EVENTS_CSV, STUDENTS_CSV)
    with pytest.raises(DataError, match=fragment):
        ingest(*write_inputs(tmp_path, events=ev, students=st))


def test_ingest_rejects_malformed_json(tmp_path):
    ep = tmp_path / "events.jsonl"
    sp = tmp_path / "students.csv"
    sp.write_text("student_id,course_id,gender,continent,birth_year,outcome\n"
                  "s1,c0,,,,0\n")
    ep.write_text("{not json\n")
    with pytest.raises(DataError, match="invalid JSON"):
        ingest(ep, sp)
    ep.write_text('{"student_id": "s1", "surprise": 1}\n')
    with pytest.raises(DataError, match="unknown fields"):
        ingest(ep, sp)


def test_ingest_sorts_by_timestamp_keeping_input_order_on_ties(tmp_path):
    events = ("student_id,course_id,kind,video_id,response,forum_action,timestamp\n"
              "s1,c0,video,v2,,,7\n"
              "s1,c0,video,v0,,,1\n"
              "s1,c0,video,v1,,,1\n")
    ds = ingest(*write_inputs(tmp_path, events=events))
    assert [e.video_id for e in ds.events_by_student["s1"]] == ["v0", "v1", "v2"]


def test_ingest_keeps_first_repeated_quiz_response(tmp_path, caplog):
    events = ("student_id,course_id,kind,video_id,response,forum_action,timestamp\n"
              "s1,c0,quiz_response,v0,1,,1\n"
              "s1,c0,quiz_response,v0,0,,2\n"
              "s1,c0,quiz_response,v1,0,,3\n")
    with caplog.at_level(logging.WARNING, logger="hierfed.data.ingest"):
        ds = ingest(*write_inputs(tmp_path, events=events))
    quiz = [e for e in ds.events_by_student["s1"] if e.kind == "quiz_response"]
    assert [(e.video_id, e.response) for e in quiz] == [("v0", 1), ("v1", 0)]
    assert any("repeated quiz responses" in r.message for r in caplog.records)


def random_dataset(rng):
    students = {}
    for c in range(int(rng.integers(1, 4))):
        cid = f"c{c}"
        for i in range(int(rng.integers(5, 31))):
            sid = f"{cid}-s{i:03d}"
            students[sid] = StudentRecord(sid, cid)
    return Dataset(students, {sid: [] for sid in students})


def test_fold_invariants_hold_on_random_datasets():
    for trial in range(10):
        rng = np.random.default_rng(trial)
        ds = random_dataset(rng)
        folds = make_folds(ds, seed=trial)
        assert len(folds) == 5
        by_course = ds.students_by_course()
        for course, ids in by_course.items():
            everyone = set(ids)
            # the five test chunks partition the course
            tests = [folds[i].test[course] for i in range(5)]
            assert set.union(*tests) == everyone
            assert sum(len(t) for t in tests) == len(everyone)
            for f in folds:
                train, val, test = f.train[course], f.val[course], f.test[course]
                assert train | val | test == everyone
                assert not (train & val or train & test or val & test)
                assert len(val) == len(everyone - test) // 5


def test_folds_are_deterministic_in_the_seed():
    ds = random_dataset(np.random.default_rng(99))
    a = make_folds(ds, seed=7)
    b = make_folds(ds, seed=7)
    c = make_folds(ds, seed=8)
    for fa, fb in zip(a, b):
        assert fa.train == fb.train and fa.val == fb.val and fa.test == fb.test
    assert any(fa.test != fc.test for fa, fc in zip(a, c))


def test_folds_need_five_students_per_course():
    students = {f"s{i}": StudentRecord(f"s{i}", "c0") for i in range(4)}
    ds = Dataset(students, {sid: [] for sid in students})
    with pytest.raises(ConfigError, match="at least 5"):
        make_folds(ds, seed=0)


def test_age_buckets_are_left_inclusive():
    assert age_bucket(1979) == "~80"
    assert age_bucket(1980) == "80~90"
    assert age_bucket(1989) == "80~90"
    assert age_bucket(1990) == "90~"


def grouping_dataset():
    rows = [
        ("a1", "c0", "M", "EU", 1985, 1),
        ("a2", "c0", "F", "EU", 1992, 0),
        ("a3", "c0", None, "AS", 1975, 1),
        ("b1", "c1", "M", None, None, 0),
    ]
    students = {r[0]: StudentRecord(*r) for r in rows}
    return Dataset(students, {sid: [] for sid in students})


def test_grouping_splits_by_course_and_bucket():
    ds = grouping_dataset()
    groups = group_by_demographic(ds, "gender")
    assert groups == {
        GroupKey("c0", "gender", "M"): {"a1"},
        GroupKey("c0", "gender", "F"): {"a2"},
        GroupKey("c1", "gender", "M"): {"b1"},
    }
    ages = group_by_demographic(ds, "age")
    assert ages[GroupKey("c0", "age", "~80")] == {"a3"}
    assert GroupKey("c1", "age", "~80") not in ages


def test_grouping_handles_undisclosed_values():
    ds = grouping_dataset()
    dropped = group_by_demographic(ds, "continent")
    assert "b1" not in set().union(*dropped.values())
    kept = group_by_demographic(ds, "continent", include_unspecified=True)
    assert kept[GroupKey("c1", "continent", "unspecified")] == {"b1"}


def test_grouping_respects_the_student_filter():
    ds = grouping_dataset()
    groups = group_by_demographic(ds, "gender", student_ids=["a1", "b1"])
    assert set().union(*groups.values()) == {"a1", "b1"}
    with pytest.raises(ValueError):
        group_by_demographic(ds, "favorite_color")


def sequence_dataset():
    students = {
        "s1": StudentRecord("s1", "c0", outcome=1),
        "s2": StudentRecord("s2", "c0", outcome=0),
    }
    events = {
        "s1": [
            EventRecord("s1", "c0", "video", video_id="v0", timestamp=0),
            EventRecord("s1", "c0", "quiz_response", video_id="v0",
                        response=1, timestamp=1),
            EventRecord("s1", "c0", "forum", forum_action="forum_view",
                        timestamp=2),
            EventRecord("s1", "c0", "quiz_response", video_id="v1",
                        response=0, timestamp=3),
        ],
        "s2": [EventRecord("s2", "c0", "forum", forum_action="forum_post",
                           timestamp=0)],
    }
    return Dataset(students, events)


def test_vocab_comes_from_the_training_split_only():
    ds = sequence_dataset()
    vocab = build_vocab(ds, ["s1"])
    assert vocab.course_ids == ("c0",)
    assert vocab.video_ids == ("v0", "v1")
    empty = build_vocab(ds, ["s2"])
    assert empty.video_ids == ()


def test_kt_sequences_keep_quiz_responses_only():
    ds = sequence_dataset()
    vocab = build_vocab(ds, ["s1", "s2"])
    seqs = build_sequences(ds, KT, vocab)
    assert set(seqs) == {"s1"}  # s2 never answered a quiz
    x, targets = seqs["s1"]
    # the first response is input only; the second is the one target
    assert targets.tolist() == [0]
    assert x.shape == (1, vocab.kt_input_dim)
    assert np.flatnonzero(x[0]).tolist() == [
        0, vocab.n_courses + vocab.video_index("v0")]


def test_op_sequences_keep_every_event_and_the_outcome():
    ds = sequence_dataset()
    vocab = build_vocab(ds, ["s1", "s2"])
    seqs = build_sequences(ds, OP, vocab)
    assert set(seqs) == {"s1", "s2"}
    assert seqs["s1"][0].shape == (4, vocab.op_input_dim)
    assert seqs["s1"][1] == 1
    assert seqs["s2"][1] == 0


def test_sequences_truncate_to_the_step_budget():
    students = {"s1": StudentRecord("s1", "c0")}
    events = {"s1": [EventRecord("s1", "c0", "quiz_response", video_id=f"v{t}",
                                 response=t % 2, timestamp=t)
                     for t in range(30)]}
    ds = Dataset(students, events)
    vocab = build_vocab(ds, ["s1"])
    seqs = build_sequences(ds, KT, vocab, max_len=8)
    x, targets = seqs["s1"]
    assert x.shape[0] == 7
    assert targets.tolist() == [t % 2 for t in range(1, 8)]


def test_stratified_batch_draws_from_every_subgroup():
    groups = {"a": ["s1", "s2", "s3", "s4"], "b": ["s9"]}
    batch = stratified_batch(groups, per_group=2, rng=0)
    assert len(batch) == 3
    assert "s9" in batch
    assert stratified_batch(groups, per_group=2, rng=0) == batch
    with pytest.raises(ValueError):
        stratified_batch(groups, per_group=0, rng=0)
    with pytest.raises(ValueError):
        stratified_batch({"a": []}, per_group=1, rng=0)

"""Ingestion, cross-validation folds, demographic grouping, and sampling."""

import csv
import json
import logging
import random
from itertools import zip_longest

import numpy as np
import pytest

import hierfed.data.ingest as ingest_module
import hierfed.runner as runner_module
from hierfed.data.grouping import age_bucket, group_by_demographic
from hierfed.data.ingest import EVENTS_HEADER, export_dataset, ingest
from hierfed.data.partition import make_folds
from hierfed.data.records import Dataset, EventCoder, StudentRecord
from hierfed.data.sampling import stratified_batch
from hierfed.data.sequences import build_sequences, build_vocab
from hierfed.errors import ConfigError, DataError
from hierfed.keys import GroupKey
from hierfed.models.task import KT, OP
from hierfed.runner import dataset_hash
from hierfed.synth.generate import generate, preset
from rowwise import Event, coded, events_of, reference_events

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
    kinds = [e.kind for e in events_of(ds)["s1"]]
    assert kinds == ["video", "quiz_response", "forum"]
    assert len(ds.events) == 5
    assert ds.events.video_ids == ("v0", "v1", "v9")


def test_ingest_round_trips_through_export(tmp_path):
    ds = ingest(*write_inputs(tmp_path))
    ep2 = tmp_path / "events2.csv"
    sp2 = tmp_path / "students2.csv"
    export_dataset(ds, ep2, sp2)
    again = ingest(ep2, sp2)
    assert again.students == ds.students
    assert events_of(again) == events_of(ds)


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
    assert [e.kind for e in events_of(ds)["s1"]] == ["video", "quiz_response"]


# a valid event whose quoted video id holds a line break: two physical lines
SPLIT_ROW = 's1,c0,video,"v\n0",,,9\n'

INGEST_FAULTS = [
    (lambda e, s: (e.replace("timestamp", "ts"), s), "bad header"),
    (lambda e, s: (e + "s1,c0,video,v0\n", s), "expected 7 fields"),
    (lambda e, s: (e + "zz,c0,video,v0,,,9\n", s), "unknown student"),
    (lambda e, s: (e + "s1,c1,video,v0,,,9\n", s), "does not match roster"),
    (lambda e, s: (e + "s1,c0,hover,v0,,,9\n", s), "unknown event kind"),
    (lambda e, s: (e + "s1,c0,video,v0,,,\n", s), "timestamp is required"),
    (lambda e, s: (e, s + "s1,c0,M,EU,1985,1\n"), "duplicate student"),
    (lambda e, s: (e, s + "s9,c0,X,,1985,1\n"), "gender"),
    (lambda e, s: (e, s + "s9,c0|x,,,,1\n"), "course id 'c0|x' must not contain"),
    # these made a student "" and a course ""
    (lambda e, s: (e, s + ",c0,F,,,1\n"), "student_id is required"),
    (lambda e, s: (e, s + "s3,,M,,,0\n"), "course_id is required"),
    (lambda e, s: (e + "s1,c0,video,v0,,,-3\n", s), "timestamp must be nonnegative"),
    (lambda e, s: (e + "s1,c0,quiz_response,v0,x,,9\n", s),
     "response must be an integer, got 'x'"),
    (lambda e, s: (e + "s1,c0,quiz_response,v0,2,,9\n", s),
     "fields inconsistent with kind 'quiz_response'"),
    (lambda e, s: (e + "s1,c0,video,v0,1,,9\n", s),
     "fields inconsistent with kind 'video'"),
    (lambda e, s: (e + "s1,c0,forum,,,,9\n", s),
     "fields inconsistent with kind 'forum'"),
    # of two bad lines the first is reported, whatever the later one's fault
    (lambda e, s: (e + "zz,c0,video,v0,,,9\ns1,c0,video,v0,,,-1\n", s),
     "unknown student 'zz'"),
    (lambda e, s: (e + "s1,c0,hover,v0,,,9\ns1,c0\n", s),
     "unknown event kind 'hover'"),
    (lambda e, s: (e + "s1,c0\ns1,c0,hover,v0,,,9\n", s),
     "expected 7 fields, got 2"),
    # within one line, the checks run in a fixed order
    (lambda e, s: (e + "zz,c0,hover,v0,y,,\n", s),
     "response must be an integer, got 'y'"),
    # blank lines are skipped but counted
    (lambda e, s: (e + "\n\ns9,c0,video,v0,,,9\n", s), "unknown student 's9'"),
    # so is each line of a quoted field: lines are physical, not records
    (lambda e, s: (e + SPLIT_ROW + "s1,c0,click,v0,,,9\n", s),
     "unknown event kind 'click'"),
    (lambda e, s: (e + SPLIT_ROW + "s1,c0,video\n", s), "expected 7 fields, got 3"),
    # an oversized field is reported at its record's first line
    (lambda e, s: (e + SPLIT_ROW + 's1,c0,video,"v\n' + "v" * 200_000 + '",,,9\n', s),
     "field larger than field limit"),
]


@pytest.mark.parametrize("mutation, fragment", INGEST_FAULTS)
def test_ingest_reports_file_and_line(tmp_path, mutation, fragment):
    assert_reported(tmp_path, mutation, fragment)


@pytest.mark.parametrize("chunk_rows", [1, 3])
def test_ingest_reports_file_and_line_across_chunk_edges(tmp_path, monkeypatch,
                                                          chunk_rows):
    monkeypatch.setattr(ingest_module, "_CHUNK_ROWS", chunk_rows)
    for mutation, fragment in INGEST_FAULTS:
        assert_reported(tmp_path, mutation, fragment)


def assert_reported(tmp_path, mutation, fragment):
    ev, st = mutation(EVENTS_CSV, STUDENTS_CSV)
    # the error names the first nonblank line the mutation touched, a
    # SPLIT_ROW counting as blank lines, since it is valid
    name, before, after = (("events.csv", EVENTS_CSV, ev) if ev != EVENTS_CSV
                           else ("students.csv", STUDENTS_CSV, st))
    after = after.replace(SPLIT_ROW, "\n" * SPLIT_ROW.count("\n"))
    line = next(i for i, (old, new) in enumerate(
        zip_longest(before.splitlines(), after.splitlines()), start=1)
        if old != new and new)
    with pytest.raises(DataError, match=fragment) as info:
        ingest(*write_inputs(tmp_path, events=ev, students=st))
    assert str(info.value).startswith(f"{tmp_path / name}:{line}: "), info.value


def test_event_coder_refuses_rows_of_another_width():
    row = ("s1", "c0", "video", "v0", None, None, 0)
    with pytest.raises(ValueError):
        EventCoder().add([row, row[:6]])
    with pytest.raises(ValueError, match="expected 7 event fields, got 6"):
        EventCoder().add([row[:6]])


def test_ingest_requires_a_student_id_in_json_lines(tmp_path):
    # a line without one ingested as a student named "None"
    ep = tmp_path / "events.csv"
    ep.write_text(",".join(EVENTS_HEADER) + "\n")
    sp = tmp_path / "students.jsonl"
    sp.write_text('{"student_id": "s1", "course_id": "c0", "outcome": 0}\n'
                  '{"course_id": "c0", "outcome": 1}\n')
    with pytest.raises(DataError) as info:
        ingest(ep, sp)
    assert str(info.value) == f"{sp}:2: student_id is required"


def test_ingest_rejects_timestamps_beyond_int64(tmp_path):
    events = EVENTS_CSV + f"s1,c0,video,v0,,,{2 ** 63}\n"
    with pytest.raises(DataError, match=f"events.csv:7: timestamp {2 ** 63} "
                                        "is out of range"):
        ingest(*write_inputs(tmp_path, events=events))


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
    # an invalid event on an earlier line is reported first
    ep.write_text('{"student_id": "zz", "course_id": "c0", "kind": "video", '
                  '"video_id": "v0", "timestamp": 1}\n{not json\n')
    with pytest.raises(DataError) as info:
        ingest(ep, sp)
    assert str(info.value) == f"{ep}:1: unknown student 'zz'"


def test_ingest_sorts_by_timestamp_keeping_input_order_on_ties(tmp_path):
    events = ("student_id,course_id,kind,video_id,response,forum_action,timestamp\n"
              "s1,c0,video,v2,,,7\n"
              "s1,c0,video,v0,,,1\n"
              "s1,c0,video,v1,,,1\n")
    ds = ingest(*write_inputs(tmp_path, events=events))
    assert [e.video_id for e in events_of(ds)["s1"]] == ["v0", "v1", "v2"]


def test_ingest_keeps_first_repeated_quiz_response(tmp_path, caplog):
    events = ("student_id,course_id,kind,video_id,response,forum_action,timestamp\n"
              "s1,c0,quiz_response,v0,1,,1\n"
              "s1,c0,quiz_response,v0,0,,2\n"
              "s1,c0,quiz_response,v1,0,,3\n")
    with caplog.at_level(logging.WARNING, logger="hierfed.data.ingest"):
        ds = ingest(*write_inputs(tmp_path, events=events))
    quiz = [e for e in events_of(ds)["s1"] if e.kind == "quiz_response"]
    assert [(e.video_id, e.response) for e in quiz] == [("v0", 1), ("v1", 0)]
    assert any("repeated quiz responses" in r.message for r in caplog.records)


def _padded(rng, text):
    return " " * rng.randint(0, 2) + text + " " * rng.randint(0, 2)


def random_log(rng, students):
    """Shuffled event rows with timestamp ties, repeated quiz responses and
    whitespace-padded fields, as text fields in EVENTS_HEADER order."""
    rows = []
    for sid, course in students.items():
        for _ in range(rng.randint(0, 12)):
            kind = rng.choice(["video", "quiz_response", "forum"])
            vid = rng.choice(["v0", "v1", "v2", "vidéo", 'say "hi"'])
            ts = str(rng.randint(0, 5))
            rows.append({
                "video": [sid, course, kind, vid, "", "", ts],
                "quiz_response": [sid, course, kind, vid,
                                  str(rng.randint(0, 1)), "", ts],
                "forum": [sid, course, kind, "", "", rng.choice(
                    ["forum_post", "forum_reply", "forum_view"]), ts],
            }[kind])
    rng.shuffle(rows)
    return [[_padded(rng, v) if rng.random() < 0.2 else v for v in row]
            for row in rows]


# one fault per mutation, each caught by a different check
MUTATIONS = [
    lambda row: row[:2] + ["hover"] + row[3:],
    lambda row: row[:6] + ["-2"],
    lambda row: row[:6] + [""],
    lambda row: row[:6] + ["1.5"],
    lambda row: row[:4] + ["x"] + row[5:],
    lambda row: row[:4] + ["2"] + row[5:],
    lambda row: row[:4] + ["1"] + row[5:],
    lambda row: row[:3] + [""] + row[4:],
    lambda row: row[:5] + [""] + row[6:],
    lambda row: ["zz"] + row[1:],
    lambda row: row[:1] + ["cX"] + row[2:],
    lambda row: row[:2],  # in CSV a malformed line, in JSON Lines missing fields
]


def write_log(path, rows, rng):
    """CSV, or JSON Lines with integer fields where they parse as integers;
    now and then a blank line follows a row."""
    if path.suffix == ".csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(EVENTS_HEADER)
            for row in rows:
                w.writerow(row)
                if rng.random() < 0.1:
                    fh.write("\r\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            doc = {}
            for key, value in zip(EVENTS_HEADER, row):
                if key in ("response", "timestamp") and value.strip().lstrip("-").isdigit():
                    doc[key] = int(value)
                elif value or rng.random() < 0.5:
                    doc[key] = value
            fh.write(json.dumps(doc) + "\n")
            if rng.random() < 0.1:
                fh.write(" \n")


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_event_table_matches_the_rowwise_reference(tmp_path, suffix, caplog):
    assert_matches_the_rowwise_reference(tmp_path, suffix, caplog)


@pytest.mark.parametrize("chunk_rows", [1, 3])
@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_event_table_matches_the_rowwise_reference_across_chunk_edges(
        tmp_path, suffix, caplog, monkeypatch, chunk_rows):
    monkeypatch.setattr(ingest_module, "_CHUNK_ROWS", chunk_rows)
    assert_matches_the_rowwise_reference(tmp_path, suffix, caplog)


def assert_matches_the_rowwise_reference(tmp_path, suffix, caplog):
    for trial in range(40):
        rng = random.Random(trial)
        courses = [f"c{i}" for i in range(rng.randint(1, 3))]
        students = {f"s{i:02d}": rng.choice(courses)
                    for i in range(rng.randint(1, 10))}
        roster = {sid: StudentRecord(sid, c) for sid, c in students.items()}
        rows = random_log(rng, students)
        if trial % 2 and rows:
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(rows))
                rows[i] = rng.choice(MUTATIONS)(rows[i])
        ep = tmp_path / f"events{trial}{suffix}"
        sp = tmp_path / f"students{trial}.csv"
        write_log(ep, rows, rng)
        export_dataset(Dataset(roster), tmp_path / "unused.csv", sp)
        try:
            want, dropped = reference_events(ep, roster)
        except DataError as exc:
            with pytest.raises(DataError) as info:
                ingest(ep, sp)
            assert str(info.value) == str(exc)
            continue
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="hierfed"):
            ds = ingest(ep, sp)
        assert events_of(ds) == want
        logged = [r.getMessage() for r in caplog.records]
        assert logged == ([f"dropped {dropped} repeated quiz responses "
                           "(first kept)"] if dropped else [])


PINNED_STUDENTS = """\
student_id,course_id,gender,continent,birth_year,outcome
 s1 ,c0, M ,EU, 1985 , 1
s2,c0,F,,1992,0
s3, c1 ,,,,1
"""
PINNED_EVENTS_JSONL = (
    '{"student_id": " s1", "course_id": "c0 ", "kind": "video", '
    '"video_id": " vid\\u00e9o-1 ", "timestamp": 4}\n'
    '{"student_id": "s1", "course_id": "c0", "kind": "quiz_response", '
    '"video_id": "vid\\u00e9o-1", "response": 1, "timestamp": 5}\n'
    '{"student_id": "s1", "course_id": "c0", "kind": " forum ", '
    '"forum_action": "forum_post", "timestamp": 5}\n'
    '{"student_id": "s2", "course_id": "c0", "kind": "quiz_response", '
    '"video_id": "say \\"hi\\"", "response": "0", "timestamp": " 2 "}\n'
    '{"student_id": "s2", "course_id": "c0", "kind": "video", '
    '"video_id": "say \\"hi\\"", "timestamp": 2}\n'
    '{"student_id": "s1", "course_id": "c0", "kind": "quiz_response", '
    '"video_id": "vid\\u00e9o-1", "response": 0, "timestamp": 9}\n'
    '{"student_id": "s3", "course_id": "c1", "kind": "video", '
    '"video_id": "v9", "timestamp": 0}\n')
PINNED_EVENTS_CSV = '''\
student_id,course_id,kind,video_id,response,forum_action,timestamp
 s1,c0 ,video, vidéo-1 ,,,4
s1,c0,quiz_response,vidéo-1,1,,5
s1,c0, forum ,,,forum_post,5
s2,c0,quiz_response,"say ""hi""",0 , , 2
s2,c0,video,"say ""hi""",,,2
s1,c0,quiz_response,vidéo-1,0,,9
s3,c1,video,v9,,,0
'''



def test_dataset_hash_keeps_its_digests(tmp_path):
    """Digests recorded before the event table existed: re-scoring a run
    trained then must still find its dataset unchanged."""
    sp = tmp_path / "students.csv"
    sp.write_text(PINNED_STUDENTS, encoding="utf-8")
    for name, text in (("events.jsonl", PINNED_EVENTS_JSONL),
                       ("events.csv", PINNED_EVENTS_CSV)):
        (tmp_path / name).write_text(text, encoding="utf-8")
        assert dataset_hash(ingest(tmp_path / name, sp)) == (
            "e02cf59cd2138af18df8fce27197ae5c25caa90c968416bf2276373e85965604")
    assert dataset_hash(generate(preset("heterogeneous-3course"))) == (
        "a720131018d248cf8e0c4466892fc6154a6c6000324e2c0c0cffd2f72fbc1ae8")


@pytest.mark.parametrize("rows", [1, 7, 4096])
def test_dataset_hash_streams_to_the_same_digest(monkeypatch, rows):
    # runs of students cut anywhere, and a student with more events than a
    # run holds, hash to the digest of the whole text at once
    monkeypatch.setattr(runner_module, "_HASH_ROWS", rows)
    assert dataset_hash(generate(preset("heterogeneous-3course"))) == (
        "a720131018d248cf8e0c4466892fc6154a6c6000324e2c0c0cffd2f72fbc1ae8")


def random_dataset(rng):
    students = {}
    for c in range(int(rng.integers(1, 4))):
        cid = f"c{c}"
        for i in range(int(rng.integers(5, 31))):
            sid = f"{cid}-s{i:03d}"
            students[sid] = StudentRecord(sid, cid)
    return Dataset(students)


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
    ds = Dataset(students)
    with pytest.raises(ConfigError, match="at least 5"):
        make_folds(ds, seed=0)


def test_folds_need_students():
    # an empty roster stops here, before any vocabulary is built
    with pytest.raises(ConfigError, match="dataset has no students"):
        make_folds(Dataset({}), seed=0)


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
    return Dataset(students)


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
    events = [
        Event("s1", "c0", "video", "v0", None, None, 0),
        Event("s1", "c0", "quiz_response", "v0", 1, None, 1),
        Event("s1", "c0", "forum", None, None, "forum_view", 2),
        Event("s1", "c0", "quiz_response", "v1", 0, None, 3),
        Event("s2", "c0", "forum", None, None, "forum_post", 0),
    ]
    return Dataset(students, coded(events))


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
    seqs = build_sequences(ds, KT, vocab).students
    assert set(seqs) == {"s1"}  # s2 never answered a quiz
    x, targets = seqs["s1"]
    # the first response is input only; the second is the one target
    assert targets.tolist() == [0]
    assert x.tolist() == [[0, vocab.n_courses + vocab.video_index("v0")]]


def test_op_sequences_keep_every_event_and_the_outcome():
    ds = sequence_dataset()
    vocab = build_vocab(ds, ["s1", "s2"])
    seqs = build_sequences(ds, OP, vocab).students
    assert set(seqs) == {"s1", "s2"}
    assert seqs["s1"][0].shape == (4, 3)
    assert seqs["s1"][1] == 1
    assert seqs["s2"][1] == 0


def test_sequences_truncate_to_the_step_budget():
    students = {"s1": StudentRecord("s1", "c0")}
    events = [Event("s1", "c0", "quiz_response", f"v{t}", t % 2, None, t)
              for t in range(30)]
    ds = Dataset(students, coded(events))
    vocab = build_vocab(ds, ["s1"])
    seqs = build_sequences(ds, KT, vocab, max_len=8).students
    x, targets = seqs["s1"]
    assert x.shape[0] == 7
    assert targets.tolist() == [t % 2 for t in range(1, 8)]


def test_stratified_batch_draws_from_every_subgroup():
    a, b = GroupKey("c0", "gender", "F"), GroupKey("c0", "gender", "M")
    groups = {b: ["s9"], a: ["s1", "s2", "s3", "s4"]}
    batch = stratified_batch(groups, per_group=2, rng=np.random.default_rng(0))
    assert len(batch) == 3
    assert batch[-1] == "s9"  # subgroups in GroupKey order
    assert stratified_batch(groups, per_group=2,
                            rng=np.random.default_rng(0)) == batch
    with pytest.raises(ValueError):
        stratified_batch(groups, per_group=0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        stratified_batch({a: []}, per_group=1, rng=np.random.default_rng(0))

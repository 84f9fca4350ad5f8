"""Synthetic data generator: archetypes, walks, labels, and presets."""

import hashlib
import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from hierfed.data.grouping import group_by_demographic
from hierfed.data.ingest import ingest
from hierfed.errors import ConfigError
from hierfed.keys import GroupKey
from hierfed.metrics import _engagement_fractions
from hierfed.synth.archetypes import (
    ArchetypeSpec,
    GenConfig,
    _difficulty_pattern,
    build_archetypes,
    study_order,
)
from hierfed.synth.generate import _cumulative, _share_counts, generate, preset
from rowwise import events_of


def two_group_config(tau, n=60, seed=1234, noise=0.05, name="t"):
    return GenConfig(
        name=name, courses=("c0",), students_per_course=n,
        videos_per_course=10, shared_videos=0, demographic="gender",
        subgroup_labels=("M", "F"), subgroup_shares=(0.5, 0.5),
        tau=tau, undisclosed_fraction=0.0, label_noise=noise, seed=seed)


def test_config_validation():
    good = two_group_config(0.5)
    with pytest.raises(ConfigError):
        GenConfig(**{**good.__dict__, "demographic": "shoe_size"})
    with pytest.raises(ConfigError):
        GenConfig(**{**good.__dict__, "subgroup_shares": (0.6, 0.6)})
    with pytest.raises(ConfigError):
        GenConfig(**{**good.__dict__, "subgroup_labels": ("M",)})
    with pytest.raises(ConfigError):
        GenConfig(**{**good.__dict__, "tau": 1.5})
    with pytest.raises(ConfigError):
        GenConfig(**{**good.__dict__, "shared_videos": 11})
    with pytest.raises(ConfigError):
        GenConfig(**{**good.__dict__, "courses": ()})
    with pytest.raises(ConfigError, match=r"courses must be free of '\|'"):
        GenConfig(**{**good.__dict__, "courses": ("c0", "a|b")})
    with pytest.raises(ConfigError, match="and not empty"):
        GenConfig(**{**good.__dict__, "courses": ("c0", "")})
    # a repeated course merged its walks into the first course's students
    with pytest.raises(ConfigError, match="courses must be distinct"):
        GenConfig(**{**good.__dict__, "courses": ("c0", "c0")})
    # probabilities outside [0, 1]; shares of 1.5 and -0.5 sum to one
    for field, value in (("subgroup_shares", (1.5, -0.5)),
                         ("label_noise", 7.0), ("label_noise", -0.1),
                         ("undisclosed_fraction", -3.0),
                         ("undisclosed_fraction", float("nan"))):
        with pytest.raises(ConfigError, match=f"^{field} must be in \\[0, 1\\]"):
            GenConfig(**{**good.__dict__, field: value})


@pytest.mark.parametrize("demographic, labels", [
    ("age", ("old", "young")),
    ("gender", ("X", "F")),
    ("continent", ("EU", "Mars")),
    ("gender", ("M", "M")),  # one archetype silently served both
])
def test_subgroup_labels_must_be_values_of_the_demographic(demographic, labels):
    good = two_group_config(0.5)
    with pytest.raises(ConfigError, match="subgroup_labels"):
        GenConfig(**{**good.__dict__, "demographic": demographic,
                     "subgroup_labels": labels})


def test_presets_match_their_documentation():
    small = preset("balanced-small")
    assert len(small.courses) == 1
    assert small.tau == 0.0
    assert small.subgroup_shares == (0.5, 0.5)

    het = preset("heterogeneous-3course")
    assert len(het.courses) == 3
    assert het.students_per_course == 300
    assert het.tau == 0.8
    assert min(het.subgroup_shares) == 0.15

    imb = preset("imbalanced-minority")
    assert min(imb.subgroup_shares) == 0.15

    with pytest.raises(ConfigError):
        preset("galaxy-brain")


def test_share_counts_use_largest_remainder():
    rng = np.random.default_rng(0)
    for _ in range(30):
        k = int(rng.integers(2, 5))
        w = rng.random(k)
        shares = w / w.sum()
        n = int(rng.integers(10, 400))
        counts = _share_counts(n, shares)
        assert sum(counts) == n
        for c, s in zip(counts, shares):
            assert int(np.floor(n * s)) <= c <= int(np.ceil(n * s))


def test_tau_zero_archetypes_are_identical_across_subgroups():
    specs = build_archetypes(two_group_config(0.0))
    m = specs[("c0", "M")]
    f = specs[("c0", "F")]
    assert np.array_equal(m.transitions, f.transitions)
    assert np.array_equal(m.start, f.start)
    assert np.array_equal(m.difficulty, f.difficulty)
    assert m.pass_threshold == f.pass_threshold
    assert m.ability_mean == 0.0 and f.ability_mean == 0.0


def test_tau_one_archetypes_are_distinct_but_share_difficulty_levels():
    specs = build_archetypes(two_group_config(1.0))
    m = specs[("c0", "M")]
    f = specs[("c0", "F")]
    assert not np.array_equal(m.transitions, f.transitions)
    assert not np.array_equal(m.difficulty, f.difficulty)
    # subgroups permute one shared difficulty ladder
    assert np.allclose(np.sort(m.difficulty), np.sort(f.difficulty))
    assert m.pass_threshold != f.pass_threshold


def test_study_orders_and_difficulty_patterns_are_permutations():
    for pattern in range(3):
        order = study_order(7, pattern)
        assert sorted(order) == list(range(7))
    base = np.linspace(-2.0, 2.0, 8)
    assert np.array_equal(_difficulty_pattern(base, 0), base)
    for pattern in (1, 2):
        out = _difficulty_pattern(base, pattern)
        assert not np.array_equal(out, base)
        assert np.allclose(np.sort(out), np.sort(base))


@pytest.mark.parametrize("courses,shared", [
    (("c0", "c1"), 0),   # the second course reflects an empty shared ramp
    (("c0",), 10),       # the second subgroup reflects an empty local ramp
])
def test_empty_difficulty_ramps_still_generate(courses, shared):
    cfg = replace(two_group_config(0.5, n=20), courses=courses,
                  shared_videos=shared)
    assert len(build_archetypes(cfg)) == 2 * len(courses)
    assert len(generate(cfg).students) == 20 * len(courses)


def test_archetype_validation_rejects_broken_chains():
    def spec_with(transitions, start):
        return ArchetypeSpec(
            course="c0", subgroup="M", video_ids=("v0",),
            transitions=transitions, start=start, ability_mean=0.0,
            ability_std=0.25, difficulty=np.zeros(1), pass_threshold=0.5,
            label_noise=0.0, share=1.0)

    start = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ConfigError, match="stop unreachable"):
        spec_with(np.eye(5), start).validate()
    bad_rows = np.full((5, 5), 0.2)
    bad_rows[0, 0] = 0.9
    with pytest.raises(ConfigError, match="sum to 1"):
        spec_with(bad_rows, start).validate()
    neg = np.full((5, 5), 0.25)
    neg[:, 0] = -0.0001
    neg[:, 1] = 0.2501  # rows still sum to 1
    for transitions in (neg, np.where(np.eye(5) > 0, 1.2, -0.05)):
        with pytest.raises(ConfigError, match="negative probability"):
            spec_with(transitions, start).validate()
    ok = np.zeros((5, 5))
    ok[:, 4] = 1.0
    with pytest.raises(ConfigError, match="mass on stop"):
        spec_with(ok, np.array([0.5, 0.0, 0.0, 0.0, 0.5])).validate()
    # a NaN start sums to NaN, which no "sum to 1" comparison rejects
    with pytest.raises(ConfigError, match="non-finite probability"):
        spec_with(ok, np.array([np.nan, 1.0, 0.0, 0.0, 0.0])).validate()
    nan_row = ok.copy()
    nan_row[0] = [np.nan, 0.0, 0.0, 0.0, 1.0]
    with pytest.raises(ConfigError, match="non-finite probability"):
        spec_with(nan_row, start).validate()


@pytest.mark.parametrize("seed", range(6))
def test_cumulative_row_draws_match_generator_choice(seed):
    # the walk draws with cdf.searchsorted(rng.random(), side="right"); this
    # pins it to Generator.choice(n, p=row): the same index from the same
    # one double, row after row, under whatever numpy is installed
    maker = np.random.default_rng(seed)
    n = 9
    rows = maker.random((30, n))
    rows[maker.random(rows.shape) < 0.3] = 0.0  # zero-mass entries
    rows[::2, -1] = 0.0                         # a zero last entry
    rows[:, 0] += 1e-3                          # no all-zero row
    rows /= rows.sum(axis=1, keepdims=True)
    cdf = _cumulative(rows)
    for i in range(len(rows)):  # a single row, as the start row is built
        assert np.array_equal(_cumulative(rows[i]), cdf[i])
    rng_a = np.random.default_rng(1000 + seed)
    rng_b = np.random.default_rng(1000 + seed)
    for i in maker.integers(0, len(rows), size=2000):
        got = int(cdf[i].searchsorted(rng_a.random(), side="right"))
        assert got == int(rng_b.choice(n, p=rows[i])), i
        assert rows[i, got] > 0.0
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


# sha256 of what generate writes, recorded with the walk drawing through
# Generator.choice; the cumulative-row walk must write the same bytes
GENERATED_DIGESTS = {
    ("balanced-small", None): (
        "b11cde3180d5f3068d8434162e78e3c5d9e3a774ec89d25179fe9b2d15cc306e",
        "6c070f8a4f3a242c88c0699d8312e99b1d7ccae80918ab48e60e1cddc9f32a45",
        "dd57cc467d35301ae81b40996eee77532df09456da5226918129af6194bf56dd"),
    ("heterogeneous-3course", None): (
        "801727af91da9574c7dad392241e13d5a94f6832a0a21ff771fffe8d730cc8d6",
        "ea83c43d96e8273b0d6f504299c72794677d609642c560ab598932d0500e3be1",
        "9a2f7b8d58b19dea1daa3f9fe92f838a3e01eefd2dc68a7455927ae0145a32cb"),
    ("imbalanced-minority", None): (
        "3bd966d57915f8dfe83d6058a5e33a4a1ef2c01d9e84d6096c70581ec898e7bc",
        "cf7863302cf2c637140568b52f1a3490129763159f951de51a990469dc26f58c",
        "09f1e266ada0449bacca5b0cb430fa079f9434e78d3dfe66ef6884e42b957f0b"),
    ("heterogeneous-3course", 1): (  # the benchmark's dataset
        "324950f4bd3628e7f7ecec68e881c5e495d202d7b9a252df461fe76272b60d08",
        "45c24ae00082f28150cd158c900ba6cfbe364358ab24ec68208b6f674307871f",
        "cade6dd03c9254822e59b05fe5f7fadcf689d97c614a5274279cd4edd8911567"),
}


@pytest.mark.parametrize("name, seed", sorted(GENERATED_DIGESTS, key=str))
def test_generated_files_keep_their_digests(tmp_path, name, seed):
    cfg = preset(name) if seed is None else replace(preset(name), seed=seed)
    generate(cfg, out_dir=tmp_path)
    got = tuple(hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest()
                for fname in ("events.csv", "students.csv", "manifest.json"))
    assert got == GENERATED_DIGESTS[(name, seed)]


def test_same_seed_generates_identical_files(tmp_path):
    cfg = two_group_config(0.7, n=20)
    generate(cfg, out_dir=tmp_path / "a")
    generate(cfg, out_dir=tmp_path / "b")
    for fname in ("events.csv", "students.csv", "manifest.json"):
        assert ((tmp_path / "a" / fname).read_bytes()
                == (tmp_path / "b" / fname).read_bytes()), fname
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["config"]["tau"] == 0.7
    assert manifest["config"]["seed"] == cfg.seed


def test_generated_output_passes_ingestion_without_warnings(tmp_path, caplog):
    generate(preset("balanced-small"), out_dir=tmp_path)
    with caplog.at_level(logging.WARNING):
        ds = ingest(tmp_path / "events.csv", tmp_path / "students.csv")
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(ds.students) == 60
    genders = [s.gender for s in ds.students.values()]
    assert genders.count("M") == 30 and genders.count("F") == 30


def test_timestamps_increase_and_quizzes_follow_first_watch():
    ds = generate(two_group_config(0.8, n=30))
    for sid, events in events_of(ds).items():
        ts = [e.timestamp for e in events]
        assert ts == sorted(ts) and len(set(ts)) == len(ts)
        answered = set()
        for prev, ev in zip(events, events[1:]):
            if ev.kind == "quiz_response":
                assert ev.video_id not in answered
                answered.add(ev.video_id)
                # the response directly follows that video's first watch
                assert prev.kind == "video" and prev.video_id == ev.video_id


def test_outcome_matches_the_label_rule_when_noise_is_off():
    cfg = two_group_config(0.0, n=80, noise=0.0, seed=4242)
    threshold = build_archetypes(cfg)[("c0", "M")].pass_threshold
    ds = generate(cfg)
    by_student = events_of(ds)
    for sid, s in ds.students.items():
        events = by_student[sid]
        quiz = [e.response for e in events if e.kind == "quiz_response"]
        forum = sum(1 for e in events if e.kind == "forum")
        frac = sum(quiz) / len(quiz) if quiz else 0.0
        bonus = 0.1 * min(1.0, forum / 10.0)
        assert s.outcome == int(frac + bonus > threshold), sid


def test_undisclosed_fraction_blanks_demographics():
    cfg = GenConfig(**{**two_group_config(0.0, n=40).__dict__,
                       "undisclosed_fraction": 1.0})
    ds = generate(cfg)
    for s in ds.students.values():
        assert s.gender is None
        assert s.continent is None
        assert s.birth_year is None


def test_age_labels_map_to_matching_birth_years():
    cfg = GenConfig(
        name="ages", courses=("c0",), students_per_course=45,
        videos_per_course=8, shared_videos=0, demographic="age",
        subgroup_labels=("~80", "80~90", "90~"),
        subgroup_shares=(1 / 3, 1 / 3, 1 / 3),
        tau=0.0, undisclosed_fraction=0.0, label_noise=0.05, seed=88)
    ds = generate(cfg)
    buckets = group_by_demographic(ds, "age")
    sizes = {k.subgroup: len(v) for k, v in buckets.items()}
    assert sizes == {"~80": 15, "80~90": 15, "90~": 15}


def empirical_joint(ds, ids, state_index, S):
    """Joint distribution over (state, next state) recovered from events."""
    counts = np.zeros((S, S))
    by_student = events_of(ds)
    for sid in ids:
        path = [state_index[ev.video_id if ev.kind == "video" else ev.forum_action]
                for ev in by_student[sid]
                if ev.kind in ("video", "forum")]
        path.append(S - 1)
        for a, b in zip(path, path[1:]):
            counts[a, b] += 1
    return counts / counts.sum()


def test_tau_zero_subgroup_walks_are_statistically_identical():
    # two subgroups of 2000 students each, same behavioral parameters: the
    # empirical transition distributions must agree to within sampling noise
    cfg = two_group_config(0.0, n=4000, seed=1234)
    ds = generate(cfg)
    vids = list(ds.events.video_ids)
    states = vids + ["forum_post", "forum_reply", "forum_view"]
    sidx = {s: i for i, s in enumerate(states)}
    S = len(states) + 1
    m = [sid for sid, s in ds.students.items() if s.gender == "M"]
    f = [sid for sid, s in ds.students.items() if s.gender == "F"]
    assert len(m) == len(f) == 2000
    tv = 0.5 * np.abs(empirical_joint(ds, m, sidx, S)
                      - empirical_joint(ds, f, sidx, S)).sum()
    assert tv <= 0.05


def test_tau_one_extreme_subgroups_diverge_in_the_heatmap():
    cfg = GenConfig(
        name="tv1", courses=("c0",), students_per_course=450,
        videos_per_course=10, shared_videos=0, demographic="age",
        subgroup_labels=("~80", "80~90", "90~"),
        subgroup_shares=(1 / 3, 1 / 3, 1 / 3),
        tau=1.0, undisclosed_fraction=0.0, label_noise=0.05, seed=5150)
    ds = generate(cfg)
    groups = group_by_demographic(ds, "age")
    a = groups[GroupKey("c0", "age", "~80")]
    b = groups[GroupKey("c0", "age", "90~")]
    fa = _engagement_fractions(ds, a, 50)
    fb = _engagement_fractions(ds, b, 50)
    tv = 0.5 * np.abs(fa / fa.sum() - fb / fb.sum()).sum()
    assert tv >= 0.3


def test_pass_rate_is_monotone_in_ability_mean(monkeypatch):
    import importlib
    gen_mod = importlib.import_module("hierfed.synth.generate")
    real_build = gen_mod.build_archetypes

    def shifted(cfg):
        specs = real_build(cfg)
        for (course, label), spec in specs.items():
            spec.ability_mean = (2.0 if label == "M" else -2.0) * spec.ability_std
        return specs

    monkeypatch.setattr(gen_mod, "build_archetypes", shifted)
    for seed in range(10):
        ds = generate(two_group_config(0.0, n=500, noise=0.0, seed=seed))
        rates = {"M": [], "F": []}
        for s in ds.students.values():
            rates[s.gender].append(s.outcome)
        assert np.mean(rates["M"]) > np.mean(rates["F"]), seed

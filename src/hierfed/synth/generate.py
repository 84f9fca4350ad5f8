"""Synthetic dataset generation: Markov activity walks + Rasch responses."""

from __future__ import annotations

import dataclasses
import json
import math
from bisect import bisect_right
from pathlib import Path

import numpy as np

from ..data.grouping import AGE_BANDS
from ..data.ingest import export_dataset
from ..data.records import (
    CONTINENTS,
    FORUM_ACTIONS,
    GENDERS,
    Dataset,
    EventCoder,
    StudentRecord,
)
from ..errors import ConfigError
from ..seeding import substream
from .archetypes import ENGAGEMENT_CAP, N_FORUM, ArchetypeSpec, GenConfig, build_archetypes

MAX_WALK = 120


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def _bucket_value(variable: str, label: str, rng) -> dict:
    """Map a behavioral subgroup label onto roster field values."""
    if variable == "gender":
        return {"gender": label}
    if variable == "continent":
        return {"continent": label}
    return {"birth_year": int(rng.integers(*AGE_BANDS[label]))}


def _fill_other_fields(fields: dict, rng):
    if "gender" not in fields:
        fields["gender"] = GENDERS[int(rng.integers(0, len(GENDERS)))]
    if "continent" not in fields:
        fields["continent"] = CONTINENTS[int(rng.integers(0, len(CONTINENTS)))]
    if "birth_year" not in fields:
        bands = list(AGE_BANDS.values())
        fields["birth_year"] = int(rng.integers(bands[0][0], bands[-1][1]))


def _cumulative(p: np.ndarray) -> np.ndarray:
    """The rows of p as the normalised cumulative sums Generator.choice
    builds for one draw; bisect_right on one, as a list, for rng.random()
    picks the state choice(n, p=row) would, from the same single double."""
    c = np.cumsum(p, axis=-1)
    c /= c[..., -1:]
    return c


def _walk_events(sid: str, spec: ArchetypeSpec, start_cdf: list,
                 step_cdf: list, difficulty: list, ability: float, rng):
    """One student's chronological event rows (EVENTS_HEADER order) plus
    their quiz-correct fraction and forum count.

    start_cdf and step_cdf are spec's start row and transition rows made
    cumulative, and difficulty is spec.difficulty, all as Python lists:
    bisect_right on a non-decreasing row is the index searchsorted(u,
    side="right") gives, without a numpy call per draw.
    """
    V = spec.n_videos
    stop = V + N_FORUM
    course, video_ids = spec.course, spec.video_ids
    draw = rng.random
    events = []
    append = events.append
    answered = set()
    n_correct = 0
    n_forum = 0
    t = 0
    state = bisect_right(start_cdf, draw())
    for _ in range(MAX_WALK):
        if state == stop:
            break
        if state < V:
            vid = video_ids[state]
            append((sid, course, "video", vid, None, None, t))
            t += 1
            if state not in answered:
                answered.add(state)
                p = _sigmoid(ability - difficulty[state])
                r = int(draw() < p)
                n_correct += r
                append((sid, course, "quiz_response", vid, r, None, t))
                t += 1
        else:
            action = FORUM_ACTIONS[state - V]
            append((sid, course, "forum", None, None, action, t))
            t += 1
            n_forum += 1
        state = bisect_right(step_cdf[state], draw())
    frac_correct = n_correct / len(answered) if answered else 0.0
    return events, frac_correct, n_forum


def generate(config: GenConfig, out_dir=None) -> Dataset:
    """Generate a Dataset; optionally write events/students/manifest files.

    Students are produced in id order with per-student RNG substreams, so
    output is bitwise-stable for a fixed config.
    """
    archetypes = build_archetypes(config)
    students: dict[str, StudentRecord] = {}
    events = EventCoder()

    for course in config.courses:
        n = config.students_per_course
        counts = _share_counts(n, config.subgroup_shares)
        idx = 0
        rows = []
        for label, count in zip(config.subgroup_labels, counts):
            spec = archetypes[(course, label)]
            start_cdf = _cumulative(spec.start).tolist()
            step_cdf = _cumulative(spec.transitions).tolist()
            difficulty = spec.difficulty.tolist()
            for _ in range(count):
                sid = f"{course}_s{idx:04d}"
                idx += 1
                rng = substream(config.seed, "student", sid)
                ability = spec.ability_mean + spec.ability_std * rng.normal()
                walk, frac, n_forum = _walk_events(sid, spec, start_cdf, step_cdf,
                                                   difficulty, ability, rng)
                rows += walk
                bonus = 0.1 * min(1.0, n_forum / ENGAGEMENT_CAP)
                outcome = int(frac + bonus > spec.pass_threshold)
                if rng.random() < spec.label_noise:
                    outcome = 1 - outcome
                fields = _bucket_value(config.demographic, label, rng)
                _fill_other_fields(fields, rng)
                for key in ("gender", "continent", "birth_year"):
                    if rng.random() < config.undisclosed_fraction:
                        fields[key] = None
                students[sid] = StudentRecord(sid, course, outcome=outcome,
                                              **fields)
        events.add(rows)

    dataset = Dataset(students, events)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        export_dataset(dataset, out_dir / "events.csv", out_dir / "students.csv")
        manifest = {"config": dataclasses.asdict(config)}
        with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return dataset


def _share_counts(n: int, shares) -> list:
    """Integer subgroup sizes summing to n, largest-remainder rounding."""
    raw = [n * s for s in shares]
    counts = [int(math.floor(r)) for r in raw]
    rem = n - sum(counts)
    order = sorted(range(len(shares)), key=lambda j: raw[j] - counts[j],
                   reverse=True)
    for j in order[:rem]:
        counts[j] += 1
    return counts


PRESETS = {
    "balanced-small": GenConfig(
        name="balanced-small",
        courses=("c0",),
        students_per_course=60,
        videos_per_course=10,
        shared_videos=0,
        demographic="gender",
        subgroup_labels=("M", "F"),
        subgroup_shares=(0.5, 0.5),
        tau=0.0,
        undisclosed_fraction=0.0,
        label_noise=0.05,
        seed=90210,
    ),
    "heterogeneous-3course": GenConfig(
        name="heterogeneous-3course",
        courses=("c0", "c1", "c2"),
        students_per_course=300,
        videos_per_course=16,
        shared_videos=6,
        demographic="age",
        subgroup_labels=("~80", "80~90", "90~"),
        subgroup_shares=(0.50, 0.35, 0.15),
        tau=0.8,
        undisclosed_fraction=0.10,
        label_noise=0.02,
        seed=413870,
    ),
    "imbalanced-minority": GenConfig(
        name="imbalanced-minority",
        courses=("c0", "c1"),
        students_per_course=200,
        videos_per_course=10,
        shared_videos=5,
        demographic="gender",
        subgroup_labels=("M", "F"),
        subgroup_shares=(0.85, 0.15),
        tau=0.6,
        undisclosed_fraction=0.05,
        label_noise=0.05,
        seed=552801,
    ),
}


def preset(name: str) -> GenConfig:
    """Named, versioned generation configs used across tests and docs."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          f"{sorted(PRESETS)}") from None

"""Behavioral archetypes for the synthetic data generator.

Each (course, subgroup) pair gets an ArchetypeSpec: a Markov chain over
activity states, a Rasch ability distribution, per-video difficulties, and
outcome-label parameters. Subgroup-specific patterns are blended with the
course's base behavior by the heterogeneity knob tau: tau=0 makes all
subgroups of a course behave identically, tau=1 gives fully distinct
archetypes.

Heterogeneity enters through deliberate, learnable contrasts:
- each subgroup walks the course in its own study order (forward, backward,
  or interleaved), so the next video is predictable within a subgroup but
  the pooled next-step distribution is diffuse;
- difficulties on course-local videos are a ladder permuted per subgroup
  (identity / value reflection / rank rotation), so which videos are hard
  depends on the subgroup and pooled response rates flatten out while
  within-subgroup rates stay sharply ranked;
- difficulties on the shared video slice are stable across subgroups but
  rotated across courses, so course identity matters for the shared items;
- forum appetite, forum-action mix, session phase (forum-first vs
  video-first), preferred videos, and dropout rate differ per subgroup;
- pass thresholds shift per subgroup, so the label boundary sits at
  different score levels for behaviorally distinguishable populations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.grouping import AGE_BUCKETS
from ..data.records import CONTINENTS, GENDERS
from ..errors import ConfigError
from ..keys import DEMOGRAPHIC_VARIABLES

# the subgroup labels each demographic variable can take
SUBGROUP_VALUES = {"gender": GENDERS, "continent": CONTINENTS, "age": AGE_BUCKETS}

N_FORUM = 3

# per-subgroup pattern tables, indexed by subgroup position within a course.
# Forum appetite rises as subgroup share falls: the largest subgroup produces
# clean video/quiz walks while the smallest buries its quiz steps in forum
# chatter, so models tuned on pooled data under-serve the small subgroups.
FORUM_RATE_PATTERNS = (0.04, 0.16, 0.45)
FORUM_MIX_PATTERNS = ((0.04, 0.16, 0.80), (0.25, 0.25, 0.50), (0.55, 0.30, 0.15))
FORUM_START_PATTERNS = (0.0, 0.10, 0.50)
STOP_PATTERNS = (0.045, 0.040, 0.028)
ABILITY_MEAN_PATTERNS = (-0.2, 0.2, 0.0)
THRESHOLD_PATTERNS = (-0.15, 0.15, 0.0)
PREFER_BOOST = 3.0
CURRICULUM_WEIGHT = 9.0  # transition mass pulled onto the study-order successor
BASE_VIDEO_WEIGHT = 0.12

BASE_FORUM_RATE = 0.16
BASE_FORUM_MIX = (0.25, 0.30, 0.45)
BASE_STOP = 0.040
BASE_THRESHOLD_PATTERNS = (0.56, 0.52, 0.53)
ENGAGEMENT_CAP = 10  # forum events that saturate the outcome bonus


@dataclass(frozen=True)
class GenConfig:
    """Knobs for one synthetic dataset.

    The behavioral subgroup structure is keyed to one demographic variable;
    the other two variables are populated uniformly at random so they carry
    no behavioral signal. undisclosed_fraction independently blanks each
    demographic field.
    """
    name: str
    courses: tuple[str, ...]
    students_per_course: int
    videos_per_course: int
    shared_videos: int
    demographic: str
    subgroup_labels: tuple[str, ...]
    subgroup_shares: tuple[float, ...]
    tau: float
    undisclosed_fraction: float
    label_noise: float
    seed: int
    ability_std: float = 0.25
    difficulty_span: float = 3.2

    def __post_init__(self):
        if not self.courses:
            raise ConfigError("need at least one course")
        if any(not c or "|" in c for c in self.courses):
            raise ConfigError(f"courses must be free of '|', which separates "
                              f"group label fields, and not empty, got "
                              f"{list(self.courses)}")
        if len(set(self.courses)) < len(self.courses):
            raise ConfigError(f"courses must be distinct, got {list(self.courses)}")
        if self.demographic not in DEMOGRAPHIC_VARIABLES:
            raise ConfigError(f"unknown demographic {self.demographic!r}")
        labels, allowed = self.subgroup_labels, SUBGROUP_VALUES[self.demographic]
        if not set(labels) <= set(allowed) or len(set(labels)) < len(labels):
            raise ConfigError(f"subgroup_labels must be distinct values of "
                              f"demographic {self.demographic!r} {allowed}, "
                              f"got {list(labels)}")
        if len(self.subgroup_labels) != len(self.subgroup_shares):
            raise ConfigError("subgroup labels/shares length mismatch")
        for name, values in (("subgroup_shares", self.subgroup_shares),
                             ("tau", (self.tau,)),
                             ("label_noise", (self.label_noise,)),
                             ("undisclosed_fraction", (self.undisclosed_fraction,))):
            bad = [v for v in values if not 0.0 <= v <= 1.0]
            if bad:
                raise ConfigError(f"{name} must be in [0, 1], got {bad[0]!r}")
        if abs(sum(self.subgroup_shares) - 1.0) > 1e-9:
            raise ConfigError("subgroup shares must sum to 1")
        if not 0 <= self.shared_videos <= self.videos_per_course:
            raise ConfigError("shared_videos must be within videos_per_course")
        if self.students_per_course < 1 or self.videos_per_course < 1:
            raise ConfigError("students and videos per course must be >= 1")


@dataclass
class ArchetypeSpec:
    """Effective generation parameters for one (course, subgroup)."""
    course: str
    subgroup: str
    video_ids: tuple
    transitions: np.ndarray  # (S, S), S = n videos + 3 forum + stop
    start: np.ndarray        # (S,), zero mass on stop
    ability_mean: float
    ability_std: float
    difficulty: np.ndarray   # per video, aligned with video_ids
    pass_threshold: float
    label_noise: float
    share: float

    @property
    def n_videos(self) -> int:
        return len(self.video_ids)

    def validate(self):
        """Reject a chain the walk cannot draw from. The walk searches
        cumulative rows and checks nothing itself, so this is its guard."""
        S = self.n_videos + N_FORUM + 1
        if self.transitions.shape != (S, S):
            raise ConfigError(f"transition matrix must be ({S}, {S})")
        if not (np.isfinite(self.transitions).all() and np.isfinite(self.start).all()):
            raise ConfigError("non-finite probability in archetype")
        if np.any(self.transitions < 0) or np.any(self.start < 0):
            raise ConfigError("negative probability in archetype")
        if not np.allclose(self.transitions.sum(axis=1), 1.0, atol=1e-9):
            raise ConfigError("transition rows must sum to 1")
        if abs(self.start.sum() - 1.0) > 1e-9:
            raise ConfigError("start distribution must sum to 1")
        if self.start[S - 1] != 0.0:
            raise ConfigError("start distribution must not place mass on stop")
        if not _stop_reachable(self.transitions):
            raise ConfigError(
                f"stop unreachable from some state in archetype "
                f"({self.course}, {self.subgroup})")


def _stop_reachable(transitions: np.ndarray) -> bool:
    """True when every state can reach the terminal stop state."""
    S = transitions.shape[0]
    stop = S - 1
    can = {stop}
    frontier = [stop]
    incoming = [np.nonzero(transitions[:, j] > 0)[0] for j in range(S)]
    while frontier:
        j = frontier.pop()
        for i in incoming[j]:
            if i not in can:
                can.add(int(i))
                frontier.append(int(i))
    return len(can) == S


def course_video_ids(config: GenConfig, course: str) -> tuple:
    """Shared ids first (common across courses), then course-local ids."""
    shared = [f"sv{j:03d}" for j in range(config.shared_videos)]
    local = [f"{course}_v{j:03d}"
             for j in range(config.videos_per_course - config.shared_videos)]
    return tuple(shared + local)


def _difficulty_pattern(base: np.ndarray, pattern: int) -> np.ndarray:
    """Transform a difficulty vector: identity, reflection, or rank rotation."""
    if pattern % 3 == 0 or base.size == 0:
        return base.copy()
    if pattern % 3 == 1:
        return (base.max() + base.min()) - base
    order = np.argsort(base, kind="mergesort")
    vals = base[order]
    shifted = np.roll(vals, len(vals) // 2)
    out = np.empty_like(base)
    out[order] = shifted
    return out


def study_order(n_videos: int, pattern: int) -> tuple:
    """Curriculum order a behavioral profile walks the videos in."""
    if pattern % 3 == 0:
        return tuple(range(n_videos))
    if pattern % 3 == 1:
        return tuple(range(n_videos - 1, -1, -1))
    return tuple(range(0, n_videos, 2)) + tuple(range(1, n_videos, 2))


def _successor_map(order) -> np.ndarray:
    succ = np.empty(len(order), dtype=np.int64)
    for k, v in enumerate(order):
        succ[v] = order[(k + 1) % len(order)]
    return succ


def _chain(n_videos: int, forum_rate: float, forum_mix, stop_rate: float,
           forum_start: float, preferred, order) -> tuple:
    """Build (transitions, start) for one behavioral profile."""
    S = n_videos + N_FORUM + 1
    stop = S - 1
    succ = _successor_map(order)
    video_w = np.full(n_videos, BASE_VIDEO_WEIGHT)
    for v in preferred:
        video_w[v] *= PREFER_BOOST
    mix = np.asarray(forum_mix, dtype=np.float64)

    T = np.zeros((S, S))
    for i in range(n_videos):
        row = np.zeros(S)
        row[:n_videos] = video_w
        row[succ[i]] += CURRICULUM_WEIGHT
        row[:n_videos] *= (1.0 - forum_rate - stop_rate) / row[:n_videos].sum()
        row[n_videos:n_videos + N_FORUM] = forum_rate * mix
        row[stop] = stop_rate
        T[i] = row
    for f in range(N_FORUM):
        # forum posts do not advance the curriculum position; resume near the
        # start of the study order so the walk re-enters the main track
        row = np.zeros(S)
        resume = video_w.copy()
        resume[order[0]] += CURRICULUM_WEIGHT / 3.0
        row[:n_videos] = resume / resume.sum() * (1.0 - forum_rate - stop_rate)
        row[n_videos:n_videos + N_FORUM] = forum_rate * mix
        row[stop] = stop_rate
        T[n_videos + f] = row
    T[stop, stop] = 1.0

    start = np.zeros(S)
    start[:n_videos] = video_w
    start[order[0]] += CURRICULUM_WEIGHT  # sessions open at the study-order head
    start[:n_videos] *= (1.0 - forum_start) / start[:n_videos].sum()
    start[n_videos:n_videos + N_FORUM] = forum_start * mix
    return T, start


def build_archetypes(config: GenConfig) -> dict:
    """{(course, subgroup label): ArchetypeSpec} for the whole config."""
    n_groups = len(config.subgroup_labels)
    out = {}
    for ci, course in enumerate(config.courses):
        vids = course_video_ids(config, course)
        V = len(vids)
        ns = config.shared_videos
        span = config.difficulty_span
        # shared videos: a difficulty ladder rotated per course, identical for
        # all subgroups of the course; local videos: a ladder permuted per
        # subgroup so subgroup identity decides which local videos are hard
        shared_ramp = np.linspace(-span, span, ns) if ns else np.empty(0)
        local_ramp = (np.linspace(-span, span, V - ns)
                      if V > ns else np.empty(0))
        d_shared = _difficulty_pattern(shared_ramp, ci)
        d_base = np.concatenate([d_shared, local_ramp])

        base_thr = BASE_THRESHOLD_PATTERNS[ci % len(BASE_THRESHOLD_PATTERNS)]
        base_T, base_start = _chain(V, BASE_FORUM_RATE, BASE_FORUM_MIX,
                                    BASE_STOP, 0.05, preferred=(),
                                    order=study_order(V, 0))

        for gi, label in enumerate(config.subgroup_labels):
            tau = config.tau
            d_g = np.concatenate(
                [d_shared, _difficulty_pattern(local_ramp, gi)])
            preferred = tuple(v for v in range(V) if v % n_groups == gi)
            g_T, g_start = _chain(
                V,
                FORUM_RATE_PATTERNS[gi % 3],
                FORUM_MIX_PATTERNS[gi % 3],
                STOP_PATTERNS[gi % 3],
                FORUM_START_PATTERNS[gi % 3],
                preferred,
                study_order(V, gi),
            )
            spec = ArchetypeSpec(
                course=course,
                subgroup=label,
                video_ids=vids,
                transitions=(1.0 - tau) * base_T + tau * g_T,
                start=(1.0 - tau) * base_start + tau * g_start,
                ability_mean=tau * ABILITY_MEAN_PATTERNS[gi % 3],
                ability_std=config.ability_std,
                difficulty=(1.0 - tau) * d_base + tau * d_g,
                pass_threshold=base_thr + tau * THRESHOLD_PATTERNS[gi % 3],
                label_noise=config.label_noise,
                share=config.subgroup_shares[gi],
            )
            spec.validate()
            out[(course, label)] = spec
    return out

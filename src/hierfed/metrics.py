"""AUC, cross-repetition summaries, and activity-divergence heatmaps."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

ACTIVITY_TYPES = ("video", "quiz_response", "forum_post", "forum_reply", "forum_view")


def auc(scores, labels):
    """Area under the ROC curve via tied-rank Mann-Whitney statistics.

    Ties between a positive and a negative score credit 0.5. Returns None
    when the labels are single-class (AUC undefined); callers must exclude
    None from averages rather than substituting a default.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores/labels must be equal-length vectors, got "
                         f"{scores.shape} vs {labels.shape}")
    if scores.size == 0:
        raise ValueError("auc: empty scored set")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        logger.debug("auc undefined: %d positives, %d negatives", n_pos, n_neg)
        return None

    order = np.argsort(scores, kind="mergesort")
    sorted_s = scores[order]
    new_group = np.r_[True, sorted_s[1:] != sorted_s[:-1]]
    group_id = np.cumsum(new_group) - 1
    counts = np.bincount(group_id)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    avg_rank = starts + (counts + 1) / 2.0  # 1-based midrank per tie group
    ranks = np.empty(scores.size)
    ranks[order] = avg_rank[group_id]

    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass
class GroupStat:
    mean: float | None
    std: float | None
    n_runs: int


@dataclass
class SubgroupSummary:
    """Per-subgroup mean/std over repetitions plus the across-subgroup view.

    Standard deviations use the population (n) divisor. Subgroups whose AUC
    was undefined or absent in some runs are listed in flagged.
    """
    per_group: dict = field(default_factory=dict)
    overall_mean: float | None = None
    overall_std: float | None = None
    flagged: set = field(default_factory=set)


def summarize(runs) -> SubgroupSummary:
    """Aggregate a list of {GroupKey: auc-or-None} maps across repetitions."""
    if not runs:
        raise ValueError("summarize: no runs")
    keys = sorted({k for run in runs for k in run}, key=lambda k: k.sort_key())
    out = SubgroupSummary()
    for key in keys:
        values = [run[key] for run in runs if key in run and run[key] is not None]
        if len(values) < len(runs):
            out.flagged.add(key)
        if values:
            arr = np.asarray(values, dtype=np.float64)
            out.per_group[key] = GroupStat(float(arr.mean()),
                                           float(arr.std()), len(values))
        else:
            out.per_group[key] = GroupStat(None, None, 0)
    means = np.asarray([s.mean for s in out.per_group.values()
                        if s.mean is not None], dtype=np.float64)
    if means.size:
        out.overall_mean = float(means.mean())
        out.overall_std = float(means.std())
    return out


def _activity_row(event) -> int:
    if event.kind == "forum":
        return ACTIVITY_TYPES.index(event.forum_action)
    return ACTIVITY_TYPES.index(event.kind)


def _engagement_fractions(dataset, students, t_bins: int) -> np.ndarray:
    frac = np.zeros((len(ACTIVITY_TYPES), t_bins))
    for sid in students:
        events = dataset.events_by_student.get(sid, [])
        if not events:
            continue
        seen = np.zeros((len(ACTIVITY_TYPES), t_bins), dtype=bool)
        T = len(events)
        for j, ev in enumerate(events):
            b = min(int(j * t_bins / T), t_bins - 1)
            seen[_activity_row(ev), b] = True
        frac += seen
    return frac / len(students)


def activity_heatmap(dataset, group_a, group_b, t_bins: int = 50) -> np.ndarray:
    """|engagement fraction difference| per (activity type, time bin).

    Each student's event sequence is normalized to [0, 1] by position and
    binned; a cell's fraction is the share of the group's students with at
    least one event of that type in that bin.
    """
    group_a, group_b = set(group_a), set(group_b)
    if not group_a or not group_b:
        raise ValueError("activity_heatmap: empty group")
    if t_bins < 1:
        raise ValueError("activity_heatmap: t_bins must be >= 1")
    fa = _engagement_fractions(dataset, group_a, t_bins)
    fb = _engagement_fractions(dataset, group_b, t_bins)
    return np.abs(fa - fb)

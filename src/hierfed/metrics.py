"""AUC, cross-repetition summaries, and activity-divergence heatmaps."""

from __future__ import annotations

import logging

import numpy as np

from .data.records import EVENT_KINDS, FORUM_ACTIONS
from .keys import GroupKey

logger = logging.getLogger(__name__)

ACTIVITY_TYPES = ("video", "quiz_response", "forum_post", "forum_reply", "forum_view")


def auc(scores, labels):
    """Area under the ROC curve via tied-rank Mann-Whitney statistics.

    Ties between a positive and a negative score credit 0.5. Returns None
    when the labels are single-class or empty (AUC undefined); callers must
    exclude None from averages rather than substituting a default.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores/labels must be equal-length vectors, got "
                         f"{scores.shape} vs {labels.shape}")
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


def _mean_std(values) -> dict:
    """Mean and population std of a list of floats; None for both if empty."""
    if not values:
        return {"mean": None, "std": None}
    return {"mean": float(np.mean(values)), "std": float(np.std(values))}


def summarize(runs) -> dict:
    """The report's summary of a list of {group label: auc-or-None} maps.

    per_group gives each label's mean, population std and count over the
    runs where its AUC is defined; a label undefined or absent in some run
    is flagged. The overall view reduces the defined means in GroupKey
    order, as every reduction over groups does.
    """
    if not runs:
        raise ValueError("summarize: no runs")
    labels = sorted({label for run in runs for label in run},
                    key=lambda label: GroupKey.from_label(label).sort_key())
    per_group = {}
    for label in labels:
        values = [run[label] for run in runs if run.get(label) is not None]
        per_group[label] = {**_mean_std(values), "n_runs": len(values)}
    overall = _mean_std([stat["mean"] for stat in per_group.values()
                         if stat["mean"] is not None])
    return {"per_group": per_group, "overall_mean": overall["mean"],
            "overall_std": overall["std"],
            "flagged": sorted(label for label, stat in per_group.items()
                              if stat["n_runs"] < len(runs))}


def _engagement_fractions(dataset, students, t_bins: int) -> np.ndarray:
    """Share of students with an event of each activity type in each bin."""
    table = dataset.events
    rows = np.flatnonzero(dataset.event_mask(students))
    student = table.student[rows]
    # each row's position in its student's sequence, over that length
    lengths = np.diff(table.offsets)[student]
    pos = rows - table.offsets[student]
    bins = np.minimum((pos * t_bins / lengths).astype(np.int64), t_bins - 1)
    # forum rows take their action's row, the others their kind's
    kind_row = np.array([ACTIVITY_TYPES.index(k) if k in ACTIVITY_TYPES else -1
                         for k in EVENT_KINDS])
    action_row = np.array([ACTIVITY_TYPES.index(a) for a in FORUM_ACTIONS])
    action = table.action[rows]
    activity = np.where(action >= 0, action_row[action], kind_row[table.kind[rows]])
    n_cells = len(ACTIVITY_TYPES) * t_bins
    # a student counts once per (activity, bin) cell
    seen = np.unique(student * n_cells + activity * t_bins + bins)
    counts = np.bincount(seen % n_cells, minlength=n_cells)
    return counts.reshape(len(ACTIVITY_TYPES), t_bins) / len(students)


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

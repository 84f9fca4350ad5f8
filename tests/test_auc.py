"""Ranking metric, repetition summaries, and engagement heatmaps."""

import numpy as np
import pytest

from hierfed.data.records import Dataset, EventRecord, StudentRecord
from hierfed.keys import GroupKey
from hierfed.metrics import (
    ACTIVITY_TYPES,
    activity_heatmap,
    auc,
    summarize,
)


def pair_count_auc(scores, labels):
    """O(n^2) oracle: fraction of (positive, negative) pairs ranked right."""
    wins = 0.0
    pairs = 0
    for sp, lp in zip(scores, labels):
        if lp != 1:
            continue
        for sn, ln in zip(scores, labels):
            if ln != 0:
                continue
            pairs += 1
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / pairs if pairs else None


def test_auc_matches_pair_counting_oracle():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 31))
        # coarse integer scores force plenty of ties
        scores = rng.integers(0, 5, size=n).astype(float)
        labels = rng.integers(0, 2, size=n)
        expect = pair_count_auc(scores, labels)
        got = auc(scores, labels)
        if expect is None:
            assert got is None
        else:
            assert got == pytest.approx(expect, abs=1e-12)


def test_auc_is_invariant_to_monotone_transforms():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=40)
    labels = rng.integers(0, 2, size=40)
    base = auc(scores, labels)
    assert auc(3.0 * scores + 7.0, labels) == base
    assert auc(np.tanh(scores), labels) == base


def test_auc_score_reversal_flips_the_area():
    rng = np.random.default_rng(6)
    scores = rng.normal(size=30)
    labels = np.r_[np.ones(10, dtype=int), np.zeros(20, dtype=int)]
    a = auc(scores, labels)
    assert auc(-scores, labels) == pytest.approx(1.0 - a, abs=1e-12)


def test_auc_extremes_and_ties():
    assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0
    assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_auc_single_class_is_undefined():
    assert auc([0.1, 0.9], [1, 1]) is None
    assert auc([0.1, 0.9], [0, 0]) is None
    assert auc([0.2], [1]) is None


def test_auc_rejects_malformed_input():
    with pytest.raises(ValueError):
        auc([], [])
    with pytest.raises(ValueError):
        auc([0.1, 0.2], [1])
    with pytest.raises(ValueError):
        auc([[0.1]], [[1]])


def K(course, subgroup=None):
    return GroupKey(course, "gender" if subgroup else None, subgroup)


def test_summarize_mean_and_population_std():
    a, b = K("c0", "M"), K("c0", "F")
    runs = [{a: 0.6, b: 0.5}, {a: 0.8, b: 0.7}]
    s = summarize(runs)
    assert s.per_group[a].mean == pytest.approx(0.7, abs=1e-12)
    assert s.per_group[a].std == pytest.approx(0.1, abs=1e-12)
    assert s.per_group[a].n_runs == 2
    assert s.overall_mean == pytest.approx(0.65, abs=1e-12)
    assert s.overall_std == pytest.approx(0.05, abs=1e-12)
    assert not s.flagged


def test_summarize_flags_missing_and_undefined_groups():
    a, b, c = K("c0", "M"), K("c0", "F"), K("c1", "M")
    runs = [{a: 0.6, b: None, c: None}, {a: 0.8, c: None}]
    s = summarize(runs)
    assert s.flagged == {b, c}
    assert s.per_group[b].mean is None
    assert s.per_group[b].n_runs == 0
    assert s.per_group[c].mean is None
    # undefined groups are excluded from the across-subgroup view
    assert s.overall_mean == pytest.approx(0.7, abs=1e-12)


def test_summarize_is_order_invariant():
    a, b = K("c0", "M"), K("c1", "F")
    runs = [{a: 0.61, b: 0.52}, {a: 0.66, b: 0.58}, {a: 0.70, b: 0.55}]
    s1 = summarize(runs)
    s2 = summarize(runs[::-1])
    for key in (a, b):
        assert s1.per_group[key].mean == pytest.approx(
            s2.per_group[key].mean, abs=1e-15)
        assert s1.per_group[key].std == pytest.approx(
            s2.per_group[key].std, abs=1e-15)
    assert s1.overall_mean == pytest.approx(s2.overall_mean, abs=1e-15)
    with pytest.raises(ValueError):
        summarize([])


def _video(sid, t):
    return EventRecord(sid, "c", "video", video_id="v0", timestamp=t)


def _quiz(sid, t):
    return EventRecord(sid, "c", "quiz_response", video_id="v0", response=1,
                       timestamp=t)


def _forum(sid, action, t):
    return EventRecord(sid, "c", "forum", forum_action=action, timestamp=t)


def heatmap_dataset():
    students = {
        "s1": StudentRecord("s1", "c"),
        "s2": StudentRecord("s2", "c"),
        "s3": StudentRecord("s3", "c"),
    }
    events = {
        "s1": [_video("s1", t) for t in range(4)],
        "s2": [_forum("s2", "forum_post", t) for t in range(4)],
        "s3": [_video("s3", 0), _quiz("s3", 1),
               _forum("s3", "forum_view", 2), _forum("s3", "forum_reply", 3)],
    }
    return Dataset(students, events)


def test_heatmap_identical_groups_are_flat():
    ds = heatmap_dataset()
    h = activity_heatmap(ds, ["s1", "s3"], ["s1", "s3"], t_bins=8)
    assert h.shape == (len(ACTIVITY_TYPES), 8)
    assert np.all(h == 0.0)


def test_heatmap_separates_video_and_forum_groups():
    ds = heatmap_dataset()
    h = activity_heatmap(ds, ["s1"], ["s2"], t_bins=4)
    # four events spread evenly across four normalized-time bins
    assert np.all(h[ACTIVITY_TYPES.index("video")] == 1.0)
    assert np.all(h[ACTIVITY_TYPES.index("forum_post")] == 1.0)
    assert np.all(h[ACTIVITY_TYPES.index("quiz_response")] == 0.0)


def test_heatmap_routes_each_event_kind_to_its_row():
    ds = heatmap_dataset()
    h = activity_heatmap(ds, ["s3"], ["s1"], t_bins=4)
    assert h[ACTIVITY_TYPES.index("quiz_response"), 1] == 1.0
    assert h[ACTIVITY_TYPES.index("forum_view"), 2] == 1.0
    assert h[ACTIVITY_TYPES.index("forum_reply"), 3] == 1.0
    # both groups watched a video in the first bin, so the cell cancels
    assert h[ACTIVITY_TYPES.index("video"), 0] == 0.0


def test_heatmap_fractions_average_over_students():
    ds = heatmap_dataset()
    h = activity_heatmap(ds, ["s1", "s2"], ["s3"], t_bins=4)
    # half of group A posts in each bin, group B never posts in bin 0
    assert h[ACTIVITY_TYPES.index("forum_post"), 0] == pytest.approx(0.5)


def test_heatmap_rejects_degenerate_input():
    ds = heatmap_dataset()
    with pytest.raises(ValueError):
        activity_heatmap(ds, [], ["s1"])
    with pytest.raises(ValueError):
        activity_heatmap(ds, ["s1"], ["s2"], t_bins=0)

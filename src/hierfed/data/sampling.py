"""Stratified minibatch sampling across subgroups."""

from __future__ import annotations

from ..keys import GroupKey


def stratified_batch(groups: dict, per_group: int, rng) -> list:
    """Sample min(per_group, |subgroup|) students from each subgroup.

    groups maps a GroupKey to a collection of student ids; rng is a numpy
    Generator. Subgroups are visited in GroupKey order, so the draw is
    deterministic for a fixed rng state.
    """
    if per_group < 1:
        raise ValueError("per_group must be >= 1")
    batch: list = []
    for key in sorted(groups, key=GroupKey.sort_key):
        members = sorted(groups[key])
        if not members:
            continue
        take = min(per_group, len(members))
        idx = rng.choice(len(members), size=take, replace=False)
        batch.extend(members[i] for i in sorted(idx.tolist()))
    if not batch:
        raise ValueError("stratified_batch: all subgroups empty")
    return batch


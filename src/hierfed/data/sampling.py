"""Stratified minibatch sampling across subgroups."""

from __future__ import annotations

import numpy as np

from ..seeding import substream


def stratified_batch(groups: dict, per_group: int, rng) -> list:
    """Sample min(per_group, |subgroup|) students from each subgroup.

    groups maps a sortable key to a collection of student ids; rng is a
    numpy Generator or an integer seed. Subgroups are visited in key order,
    so the draw is deterministic for a fixed rng state.
    """
    if per_group < 1:
        raise ValueError("per_group must be >= 1")
    if isinstance(rng, (int, np.integer)):
        rng = substream(int(rng), "stratified")
    batch: list = []
    any_nonempty = False
    for key in sorted(groups, key=key_order):
        members = sorted(groups[key])
        if not members:
            continue
        any_nonempty = True
        take = min(per_group, len(members))
        idx = rng.choice(len(members), size=take, replace=False)
        batch.extend(members[i] for i in sorted(idx.tolist()))
    if not any_nonempty:
        raise ValueError("stratified_batch: all subgroups empty")
    return batch


def key_order(key):
    """Sort key for group keys and for any other sortable key."""
    sk = getattr(key, "sort_key", None)
    return sk() if callable(sk) else key

"""Course-stratified 5-fold cross-validation splits."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..seeding import substream
from .records import Dataset

N_FOLDS = 5
VAL_SHARE = 5  # validation = 1/5 of the per-fold training pool


@dataclass
class Partition:
    """One fold's per-course train/validation/test student-id sets."""
    fold: int
    train: dict = field(default_factory=dict)  # course -> set of ids
    val: dict = field(default_factory=dict)
    test: dict = field(default_factory=dict)

    def train_ids(self) -> set:
        return set().union(*self.train.values())


def make_folds(dataset: Dataset, seed: int):
    """Five folds, stratified by course, deterministic in the seed.

    Per course: students are shuffled once, cut into five nearly equal test
    chunks; each fold's validation set is 1/5 of its training pool, drawn
    with a fold-specific shuffle.
    """
    if not dataset.students:
        raise ConfigError(f"dataset has no students; need at least {N_FOLDS} "
                          f"per course for {N_FOLDS}-fold CV")
    by_course = dataset.students_by_course()
    for course, ids in by_course.items():
        if len(ids) < N_FOLDS:
            raise ConfigError(f"course {course!r} has {len(ids)} students; "
                              f"need at least {N_FOLDS} for {N_FOLDS}-fold CV")

    folds = [Partition(fold=i) for i in range(N_FOLDS)]
    for course, ids in by_course.items():
        ids = np.array(sorted(ids))
        perm = substream(seed, "folds", course).permutation(len(ids))
        shuffled = ids[perm]
        chunks = np.array_split(shuffled, N_FOLDS)
        for i in range(N_FOLDS):
            test = set(chunks[i].tolist())
            pool = [s for s in shuffled.tolist() if s not in test]
            vperm = substream(seed, "val", course, str(i)).permutation(len(pool))
            n_val = len(pool) // VAL_SHARE
            val = {pool[j] for j in vperm[:n_val]}
            train = {s for s in pool if s not in val}
            folds[i].test[course] = test
            folds[i].val[course] = val
            folds[i].train[course] = train
    return folds

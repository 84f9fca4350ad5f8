"""Per-student model inputs encoded from the event log."""

from __future__ import annotations

import logging

import numpy as np

from ..models.encoding import Vocab
from ..models.task import Task
from .records import Dataset

logger = logging.getLogger(__name__)

MAX_SEQ_LEN = 512


def build_vocab(dataset: Dataset, train_ids) -> Vocab:
    """Vocabulary from the training split only; all courses, train videos."""
    table = dataset.events
    video = table.video[dataset.event_mask(train_ids)]
    return Vocab(dataset.course_ids,
                 [table.video_ids[j] for j in np.unique(video[video >= 0]).tolist()])


def build_sequences(dataset: Dataset, task: Task, vocab: Vocab,
                    max_len: int = MAX_SEQ_LEN) -> dict:
    """Encode every student once for one task: {student_id: (x, target)}.

    The task's encode rule writes the fold's one-hot rows in blocks and
    each student's x is a row slice of one; students with no usable steps
    for the task are skipped (count logged). Sequences longer than max_len
    keep their first max_len steps. Every client of a fold selects its
    students from this one mapping, so a student's arrays are shared, not
    copied, across clients.
    """
    out = task.encode(dataset, vocab, max_len)
    skipped = len(dataset.students) - len(out)
    if skipped:
        logger.info("build_sequences(%s): skipped %d students with no usable steps",
                    task.name, skipped)
    return out

"""Per-student model inputs encoded from the event log."""

from __future__ import annotations

import logging

from ..models.encoding import Vocab
from ..models.task import Task
from .records import Dataset

logger = logging.getLogger(__name__)

MAX_SEQ_LEN = 512


def build_vocab(dataset: Dataset, train_ids) -> Vocab:
    """Vocabulary from the training split only; all courses, train videos."""
    videos = set()
    for sid in train_ids:
        for ev in dataset.events_by_student.get(sid, []):
            if ev.video_id is not None:
                videos.add(ev.video_id)
    return Vocab(dataset.course_ids, videos)


def build_sequences(dataset: Dataset, task: Task, vocab: Vocab,
                    max_len: int = MAX_SEQ_LEN) -> dict:
    """Encode every student once for one task: {student_id: (x, target)}.

    The task's encode rule turns a student's events straight into dense
    arrays; students with no usable steps for the task are skipped (count
    logged). Sequences longer than max_len keep their first max_len steps.
    Every client of a fold selects its students from this one mapping, so
    a student's arrays are shared, not copied, across clients.
    """
    out: dict[str, tuple] = {}
    for sid in sorted(dataset.students):
        entry = task.encode(dataset, sid, vocab, max_len)
        if entry is not None:
            out[sid] = entry
    skipped = len(dataset.students) - len(out)
    if skipped:
        logger.info("build_sequences(%s): skipped %d students with no usable steps",
                    task.name, skipped)
    return out

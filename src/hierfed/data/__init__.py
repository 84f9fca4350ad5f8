"""Data layer: records, ingestion, folds, grouping, sequences, sampling."""

from .grouping import AGE_BUCKETS, age_bucket, group_by_demographic, subgroup_of
from .ingest import STUDENTS_HEADER, export_dataset, ingest
from .partition import N_FOLDS, Partition, make_folds
from .records import (
    CONTINENTS,
    EVENT_KINDS,
    EVENTS_HEADER,
    GENDERS,
    Dataset,
    EventTable,
    StudentRecord,
)
from .sampling import stratified_batch
from .sequences import MAX_SEQ_LEN, build_sequences, build_vocab

__all__ = [
    "AGE_BUCKETS",
    "CONTINENTS",
    "Dataset",
    "EVENTS_HEADER",
    "EVENT_KINDS",
    "EventTable",
    "GENDERS",
    "MAX_SEQ_LEN",
    "N_FOLDS",
    "Partition",
    "STUDENTS_HEADER",
    "StudentRecord",
    "age_bucket",
    "build_sequences",
    "build_vocab",
    "export_dataset",
    "group_by_demographic",
    "ingest",
    "make_folds",
    "stratified_batch",
    "subgroup_of",
]

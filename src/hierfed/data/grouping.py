"""Demographic subgrouping of students within each course."""

from __future__ import annotations

from ..keys import DEMOGRAPHIC_VARIABLES, UNSPECIFIED, GroupKey
from .records import Dataset

# age band -> the birth years [first, end) the generator draws it from
AGE_BANDS = {"~80": (1965, 1980), "80~90": (1980, 1990), "90~": (1990, 2005)}
AGE_BUCKETS = tuple(AGE_BANDS)


def age_bucket(birth_year: int) -> str:
    """Left-inclusive birth-year bands: <1980, 1980-1989, >=1990."""
    for label, (_, end) in AGE_BANDS.items():
        if birth_year < end:
            return label
    return AGE_BUCKETS[-1]


def subgroup_of(student, variable: str) -> str | None:
    """The student's bucket for the variable, or None when undisclosed."""
    if variable == "gender":
        return student.gender
    if variable == "continent":
        return student.continent
    if variable == "age":
        return None if student.birth_year is None else age_bucket(student.birth_year)
    raise ValueError(f"unknown demographic variable {variable!r}")


def group_by_demographic(dataset: Dataset, variable: str,
                         include_unspecified: bool = False,
                         student_ids=None) -> dict:
    """Partition students into {GroupKey: set of ids} per (course, bucket).

    Students who did not disclose the variable form one "unspecified"
    subgroup per course when include_unspecified is set, and are dropped
    otherwise. Only nonempty subgroups appear.
    """
    if variable not in DEMOGRAPHIC_VARIABLES:
        raise ValueError(f"demographic variable must be one of "
                         f"{DEMOGRAPHIC_VARIABLES}, got {variable!r}")
    pool = dataset.students.keys() if student_ids is None else student_ids
    out: dict[GroupKey, set] = {}
    for sid in pool:
        student = dataset.students[sid]
        bucket = subgroup_of(student, variable)
        if bucket is None:
            if not include_unspecified:
                continue
            bucket = UNSPECIFIED
        key = GroupKey(student.course_id, variable, bucket)
        out.setdefault(key, set()).add(sid)
    return out

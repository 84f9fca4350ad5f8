"""Client identity keys for the federation hierarchy."""

from __future__ import annotations

from dataclasses import dataclass

DEMOGRAPHIC_VARIABLES = ("gender", "continent", "age")
UNSPECIFIED = "unspecified"
# the name of the global model in a run's model map and its checkpoint
GLOBAL_MODEL = "global"


@dataclass(frozen=True)
class GroupKey:
    """Identifies a client: a whole course, or a demographic subgroup in one.

    Course-level keys have variable=None and subgroup=None; subgroup keys
    carry both. All reductions over clients iterate keys in sort_key order.
    """
    course: str
    variable: str | None = None
    subgroup: str | None = None

    def __post_init__(self):
        if (self.variable is None) != (self.subgroup is None):
            raise ValueError(
                f"variable and subgroup must be set together, got {self!r}")
        if self.variable is not None and self.variable not in DEMOGRAPHIC_VARIABLES:
            raise ValueError(f"unknown demographic variable {self.variable!r}")

    @property
    def is_course_level(self) -> bool:
        return self.variable is None

    def course_key(self) -> "GroupKey":
        return GroupKey(self.course)

    def sort_key(self):
        return (self.course, self.variable or "", self.subgroup or "")

    def label(self) -> str:
        return f"{self.course}|{self.variable or 'none'}|{self.subgroup or 'all'}"

    def model_name(self) -> str:
        """The name of this client's model in a run's model map and its
        checkpoint: "course:<label>" or "subgroup:<label>"."""
        return f"{'course' if self.is_course_level else 'subgroup'}:{self.label()}"

    @staticmethod
    def from_label(text: str) -> "GroupKey":
        parts = text.split("|")
        if len(parts) != 3:
            raise ValueError(f"bad group label {text!r}")
        course, variable, subgroup = parts
        if variable == "none" and subgroup == "all":
            return GroupKey(course)
        return GroupKey(course, variable, subgroup)

    def __repr__(self) -> str:
        return f"GroupKey({self.label()})"

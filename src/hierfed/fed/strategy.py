"""Strategy-name grammar and the training configuration it populates.

Names follow <scenario>-<architecture>-<aggregation>[-<hierarchy>]:
  sc1-L, sc1-G, sc1-G-AV, sc1-G-AT, sc1-P-AV, sc1-P-AT,
  sc2-L, sc2-G, sc2-G-{AV,AT}-{M,T}, sc2-P-{AV,AT}-{M,B}, sc2-FedIRT.
L trains one model per group without FL; G without a suffix is centralized
training; federated G runs plain local SGD between aggregations; P runs
meta-gradient updates and is adapted at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ConfigError

SC1_FORMS = {
    ("L",): ("L", "none", "none"),
    ("G",): ("G", "none", "none"),
    ("G", "AV"): ("G", "AV", "none"),
    ("G", "AT"): ("G", "AT", "none"),
    ("P", "AV"): ("P", "AV", "none"),
    ("P", "AT"): ("P", "AT", "none"),
}

SC2_FORMS = {
    ("L",): ("L", "none", "none"),
    ("G",): ("G", "none", "none"),
    ("G", "AV", "M"): ("G", "AV", "M"),
    ("G", "AV", "T"): ("G", "AV", "T"),
    ("G", "AT", "M"): ("G", "AT", "M"),
    ("G", "AT", "T"): ("G", "AT", "T"),
    ("P", "AV", "M"): ("P", "AV", "M"),
    ("P", "AV", "B"): ("P", "AV", "B"),
    ("P", "AT", "M"): ("P", "AT", "M"),
    ("P", "AT", "B"): ("P", "AT", "B"),
    ("FedIRT",): ("P", "IRT", "B"),
}


@dataclass(frozen=True)
class StrategyConfig:
    """Parsed strategy plus every training hyperparameter."""
    name: str
    scenario: str            # sc1 | sc2
    architecture: str        # L | G | P
    aggregation: str         # AV | AT | IRT | none
    hierarchy: str           # B | M | T | none
    eta: float = 0.3         # local / adaptation step size
    beta: float | None = None  # inner meta step; defaults to eta
    eps: float = 1.0         # server step for attention aggregation
    rounds: int = 10         # K
    local_iters: int = 5     # E minibatch iterations per round
    epochs: int = 50         # non-FL training epochs
    batch_size: int = 16
    per_group: int = 4       # stratified-batch draw per subgroup
    attention_mode: str = "layerwise"
    clip: float = 5.0        # global gradient-norm cap

    def __post_init__(self):
        if self.eta <= 0 or self.eps <= 0:
            raise ConfigError("eta and eps must be positive")
        if self.beta is not None and self.beta < 0:
            raise ConfigError("beta must be nonnegative")
        if self.rounds < 1 or self.local_iters < 1 or self.epochs < 1:
            raise ConfigError("rounds, local_iters, and epochs must be >= 1")
        if self.batch_size < 1 or self.per_group < 1:
            raise ConfigError("batch_size and per_group must be >= 1")
        if self.clip <= 0:
            raise ConfigError("clip must be positive")
        if self.attention_mode not in ("layerwise", "scalar"):
            raise ConfigError(f"unknown attention mode {self.attention_mode!r}")

    @property
    def inner_step(self) -> float:
        return self.eta if self.beta is None else self.beta

    @property
    def is_federated(self) -> bool:
        return self.aggregation != "none"

    @property
    def is_centralized(self) -> bool:
        """G without aggregation trains one pooled client."""
        return self.architecture == "G" and not self.is_federated

    def with_overrides(self, **kwargs) -> "StrategyConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs) if kwargs else self


def parse_strategy(name: str) -> StrategyConfig:
    """Parse a strategy name; errors carry the offending token position."""
    tokens = tuple(name.split("-"))
    if not tokens or tokens[0] not in ("sc1", "sc2"):
        raise ConfigError(
            f"bad strategy {name!r}: token 1 must be sc1 or sc2")
    forms = SC1_FORMS if tokens[0] == "sc1" else SC2_FORMS
    rest = tokens[1:]
    if rest not in forms:
        known = ", ".join("-".join((tokens[0],) + f) for f in sorted(forms))
        bad = _first_bad_token(rest, forms)
        raise ConfigError(
            f"bad strategy {name!r}: token {bad + 2} unrecognized; "
            f"valid forms: {known}")
    architecture, aggregation, hierarchy = forms[rest]
    return StrategyConfig(name=name, scenario=tokens[0],
                          architecture=architecture, aggregation=aggregation,
                          hierarchy=hierarchy)


def _first_bad_token(rest, forms) -> int:
    for j in range(len(rest)):
        if not any(f[:j + 1] == rest[:j + 1] for f in forms):
            return j
    return len(rest)

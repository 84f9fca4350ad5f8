"""Federated training: strategies, aggregation, clients, engines."""

from .aggregate import aggregate_attention, aggregate_average, attention_weights
from .checkpoint import load_checkpoint, save_checkpoint
from .clients import (
    ClientData,
    apply_updates,
    build_client_data,
    epoch_batches,
    meta_batches,
    meta_update,
)
from .engine import (
    RunContext,
    TrainedBundle,
    adapted_params,
    evaluate_adapted,
    train_strategy,
)
from .irt import irt_confidence, irt_interpolate, mean_predictive_likelihood, rasch_fit
from .strategy import StrategyConfig, parse_strategy

__all__ = [
    "ClientData",
    "RunContext",
    "StrategyConfig",
    "TrainedBundle",
    "adapted_params",
    "aggregate_attention",
    "aggregate_average",
    "apply_updates",
    "attention_weights",
    "build_client_data",
    "epoch_batches",
    "evaluate_adapted",
    "irt_confidence",
    "irt_interpolate",
    "load_checkpoint",
    "mean_predictive_likelihood",
    "meta_batches",
    "meta_update",
    "parse_strategy",
    "rasch_fit",
    "save_checkpoint",
    "train_strategy",
]

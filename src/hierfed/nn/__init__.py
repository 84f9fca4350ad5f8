from .params import (
    ParamSet,
    axpy_params,
    clip_grad_norm,
    param_norm,
    param_scale,
)
from .layers import (
    attention_pool,
    attention_pool_backward,
    gru_forward,
    gru_backward,
    lstm_forward,
    lstm_backward,
)

__all__ = [
    "ParamSet",
    "axpy_params",
    "clip_grad_norm",
    "param_norm",
    "param_scale",
    "attention_pool",
    "attention_pool_backward",
    "gru_forward",
    "gru_backward",
    "lstm_forward",
    "lstm_backward",
]

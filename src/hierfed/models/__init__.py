"""Student models: knowledge tracing (LSTM) and outcome prediction (GRU)."""

from .encoding import FORUM_ACTIONS, ModelSpec, Vocab, pad_batch
from .kt import kt_init, kt_loss_grad, kt_predict
from .op import extract_embedding, op_forward, op_init, op_loss_grad, op_predict
from .task import KT, OP, TASKS, Task

__all__ = [
    "FORUM_ACTIONS",
    "KT",
    "OP",
    "TASKS",
    "ModelSpec",
    "Task",
    "Vocab",
    "extract_embedding",
    "kt_init",
    "kt_loss_grad",
    "kt_predict",
    "op_forward",
    "op_init",
    "op_loss_grad",
    "op_predict",
    "pad_batch",
]

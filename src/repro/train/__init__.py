"""Training and evaluation harness (paper protocol of Section V-A.5)."""

from .config import TrainConfig
from .evaluate import (
    evaluate_auc,
    evaluate_model,
    evaluate_ranking,
    measure_inference_ms,
)
from .trainer import NonFiniteLossError, Trainer, TrainHistory

__all__ = [
    "TrainConfig",
    "Trainer",
    "TrainHistory",
    "NonFiniteLossError",
    "evaluate_auc",
    "evaluate_ranking",
    "evaluate_model",
    "measure_inference_ms",
]

"""Simulated parameter-server training (the paper's PAI substrate)."""

from .parameter_server import (
    ParameterServer,
    ParameterServerTrainer,
    PSConfig,
    Worker,
)
from .sharding import shard_parameters, shard_samples

__all__ = [
    "ParameterServer",
    "Worker",
    "ParameterServerTrainer",
    "PSConfig",
    "shard_parameters",
    "shard_samples",
]

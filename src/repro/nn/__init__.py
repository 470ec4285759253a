"""Neural network layers built on the :mod:`repro.tensor` autograd engine."""

from . import init
from .attention import MultiHeadAttention, QueryAttention
from .layers import (
    MLP, Dropout, Embedding, LayerNorm, Linear, Sequential, project,
)
from .module import Module, Parameter
from .recurrent import LSTM, LSTMCell, STGN, STGNCell

__all__ = [
    "init",
    "Module",
    "Parameter",
    "Linear",
    "project",
    "Embedding",
    "MLP",
    "Dropout",
    "LayerNorm",
    "Sequential",
    "MultiHeadAttention",
    "QueryAttention",
    "LSTM",
    "LSTMCell",
    "STGN",
    "STGNCell",
]

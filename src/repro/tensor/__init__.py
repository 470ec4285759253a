"""From-scratch numpy autograd engine (substrate for the ODNET reproduction).

The ICDE 2022 paper trained ODNET with TensorFlow on Alibaba PAI; neither is
available in this environment, so this package provides the equivalent
reverse-mode automatic differentiation on top of numpy.
"""

from .core import (
    Tensor,
    as_array,
    as_tensor,
    concat,
    is_grad_enabled,
    maximum,
    no_grad,
    split,
    stack,
    where,
)
from . import functional

__all__ = [
    "Tensor",
    "as_tensor",
    "as_array",
    "concat",
    "split",
    "stack",
    "where",
    "maximum",
    "no_grad",
    "is_grad_enabled",
    "functional",
]

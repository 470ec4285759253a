"""Plain SGD with optional momentum (used in ablation benchmarks)."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..nn.module import Parameter

__all__ = ["SGD"]


class SGD:
    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        grad_clip: float | None = 5.0,
    ):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.momentum = momentum
        self.grad_clip = grad_clip
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.grad = None

    def step(self) -> None:
        for i, param in enumerate(self.parameters):
            grad = param.grad
            if grad is None:
                continue
            if self.grad_clip is not None:
                norm = np.linalg.norm(grad)
                if norm > self.grad_clip:
                    grad = grad * (self.grad_clip / (norm + 1e-12))
            if self.momentum:
                self._velocity[i] = self.momentum * self._velocity[i] + grad
                grad = self._velocity[i]
            # A 0-d difference is a numpy scalar: keep the parameter an array.
            param.data = np.asarray(param.data - self.lr * grad)
            param.bump_version()

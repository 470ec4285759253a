"""Adam optimizer (Kingma & Ba, 2015).

The paper trains every deep model with Adam, batch size 128, learning rate
0.01, 5 epochs (Section V-A.5); those are the defaults used throughout the
experiment harness.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..nn.module import Parameter

__all__ = ["Adam"]


class Adam:
    """Adam with optional gradient clipping and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        grad_clip: float | None = 5.0,
    ):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.grad_clip = grad_clip
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.grad = None

    def step(self) -> None:
        """Apply one Adam update using the gradients stored on parameters:
        weight decay, norm clipping, the moments and the bias-corrected
        update.

        The moments are updated in place; ``param.data`` is never
        written — it is rebound to a new array (a 0-d one for 0-d data),
        so whoever holds the old array keeps the old weights.
        """
        self._step += 1
        beta1, beta2 = self.beta1, self.beta2
        for param, m, v in zip(self.parameters, self._m, self._v):
            grad = param.grad
            if grad is None:
                continue
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.grad_clip is not None:
                norm = np.linalg.norm(grad)
                if norm > self.grad_clip:
                    grad = grad * (self.grad_clip / (norm + 1e-12))
            m *= beta1
            m += (1.0 - beta1) * grad
            square = grad ** 2
            square *= 1.0 - beta2
            v *= beta2
            v += square
            # lr * m_hat / (sqrt(v_hat) + eps), in that order, in two buffers.
            update = np.divide(
                m, 1.0 - beta1 ** self._step, out=np.empty_like(m)
            )
            update *= self.lr
            denominator = np.divide(
                v, 1.0 - beta2 ** self._step, out=np.empty_like(v)
            )
            np.sqrt(denominator, out=denominator)
            denominator += self.eps
            update /= denominator
            param.data = np.asarray(param.data - update)
            param.bump_version()

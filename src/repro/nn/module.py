"""Module/Parameter abstractions for building networks on the autograd engine."""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

from ..tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A trainable tensor: always requires grad and is tracked by modules.

    Every mutation of the weights (optimizer steps, ``load_state_dict``)
    bumps :attr:`version`; serving-time caches key their frozen state on
    the aggregate :attr:`Module.param_version` and drop it when any
    parameter moved.
    """

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)
        self.version = 0

    def bump_version(self) -> None:
        """Record that :attr:`data` was mutated (invalidates caches)."""
        self.version += 1


class Module:
    """Base class for layers and models.

    Sub-modules and parameters assigned as attributes are registered
    automatically, mirroring the familiar torch-style API:

    - :meth:`parameters` iterates every trainable tensor (recursively);
    - :meth:`zero_grad` clears gradients before a backward pass;
    - :meth:`train` / :meth:`eval` toggle the ``training`` flag used by
      dropout and similar layers;
    - :meth:`state_dict` / :meth:`load_state_dict` snapshot weights.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        elif isinstance(value, (list, tuple)) and value and all(
            isinstance(v, Module) for v in value
        ):
            for i, module in enumerate(value):
                self._modules[f"{name}.{i}"] = module
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all trainable parameters, depth first, without duplicates."""
        seen: set[int] = set()
        yield from self._parameters_impl(seen)

    def _parameters_impl(self, seen: set[int]) -> Iterator[Parameter]:
        for param in self._parameters.values():
            if id(param) not in seen:
                seen.add(id(param))
                yield param
        for module in self._modules.values():
            yield from module._parameters_impl(seen)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def num_parameters(self) -> int:
        """Total scalar parameter count (useful for capacity reporting)."""
        return sum(p.size for p in self.parameters())

    @property
    def param_version(self) -> int:
        """Monotone counter over all weight mutations (recursively).

        Optimizer steps and :meth:`load_state_dict` bump the
        per-parameter versions, so this sum changes whenever *any*
        weight changed through a sanctioned mutation path.
        Serving caches (``repro.perf.InferenceSession``) compare it to
        decide whether their frozen tables are still valid; code that
        writes ``param.data`` directly must call
        :meth:`Parameter.bump_version` itself.
        """
        return sum(p.version for p in self.parameters())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # ------------------------------------------------------------------
    def train(self) -> "Module":
        return self._set_training(True)

    def eval(self) -> "Module":
        return self._set_training(False)

    def _set_training(self, mode: bool) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module._set_training(mode)
        return self

    @contextlib.contextmanager
    def eval_mode(self):
        """Temporarily switch to eval mode, restoring the prior flag.

        Inference helpers must not assume the model was training before
        they ran — unconditionally calling ``train()`` afterwards silently
        flips a model that was already serving in eval mode back to
        training mode.  This context manager saves and restores the flag.
        """
        was_training = self.training
        self.eval()
        try:
            yield self
        finally:
            self._set_training(was_training)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        # Check every shape before binding anything: a rejected state
        # must leave the model exactly as it was, never half-loaded.
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{param.data.shape} vs {state[name].shape}"
                )
        for name, param in own.items():
            param.data = np.array(state[name], dtype=np.float64)
            param.bump_version()

    def on_frozen_view(self) -> None:
        """Called once on a view :func:`repro.core.fused.frozen_view`
        built, after its parameters became arrays.  A module whose
        forward reads arrays derived from its weights alone builds them
        here, so that no request does.  Nothing by default."""

    # ------------------------------------------------------------------
    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

"""O&D Joint Learning Component — MMoE multi-task head (Figure 5, Eqs. 6-7).

Three expert networks and two task gates consume the concatenated
representation ``q⊕ = concat(q^O, q^D)``.  Each gate emits a softmax
triplet (Eq. 7) that mixes the experts' outputs (Eq. 6) for its task; the
mixed representation goes through a task tower — a nonlinear transform
with a sigmoid output — yielding ``p^O`` and ``p^D``.  Because both tasks
read the *shared* q⊕ through *differently-gated* experts, correlations
between origin and destination (return-ticket demand, route-level
preference) are learned explicitly.

One projection
--------------
Experts and gates all read the same q⊕, so :meth:`forward` projects it
once, through the row stack ``[expert_0 | … | gate_0 | …]`` of their
weights, and runs the towers as batched ``(T, ·, ·)`` matmuls.  The
parameters keep their per-expert layout (names, shapes and init draws
are what snapshots and ``state_dict`` readers know); the stack is
derived from them — per call on a live module, once per frozen view.
"""

from __future__ import annotations

import numpy as np

from ..nn import Linear, MLP, Module, project
from ..tensor import Tensor, as_array, concat, functional as F, stack

__all__ = ["MMoEJointLearning"]


class MMoEJointLearning(Module):
    """MMoE with task towers; returns per-task probabilities."""

    def __init__(
        self,
        input_dim: int,
        expert_dim: int,
        tower_hidden: int,
        rng: np.random.Generator,
        num_experts: int = 3,
        num_tasks: int = 2,
    ):
        super().__init__()
        if num_experts < 1 or num_tasks < 1:
            raise ValueError("need at least one expert and one task")
        self.num_experts = num_experts
        self.num_tasks = num_tasks
        self.expert_dim = expert_dim
        # Eq. 6: expert outputs r_i = W^expert_i q⊕ (we add a ReLU so the
        # experts are the "MLP networks" of Figure 5).
        self.experts = [
            MLP(input_dim, [], expert_dim, rng, final_activation=F.relu)
            for _ in range(num_experts)
        ]
        # Eq. 7: gate outputs softmax(W^gate_j q⊕), no bias in the paper.
        self.gates = [
            Linear(input_dim, num_experts, rng, bias=False)
            for _ in range(num_tasks)
        ]
        # Task towers: nonlinear transform + sigmoid output.
        self.towers = [
            MLP(expert_dim, [tower_hidden], 1, rng, final_activation=F.sigmoid)
            for _ in range(num_tasks)
        ]

    def stacked(self) -> tuple:
        """The weights in the layout :meth:`forward` reads:
        ``(weight, bias, towers)``.  ``weight`` is the row stack of the
        experts' and then the gates' weights, ``(E·D + T·E, input_dim)``;
        ``bias`` the experts' biases then ``T·E`` zeros — a constant, not
        a Parameter, since Eq. 7's gates have none; ``towers`` per tower
        layer ``(Wᵀ (T, in, out), b (T, 1, out))``.

        A live module builds them per call with Tensor ``concat`` /
        ``stack``, so every parameter gets its gradient back; a frozen
        view reads the arrays it captured once (:meth:`on_frozen_view`).
        """
        captured = vars(self).get("_captured")
        if captured is not None:
            return captured
        layers = [expert.layers[0] for expert in self.experts] + self.gates
        # Wᵀ in row order, so that each block's GEMM reads one contiguous
        # run of rows.  ``concat`` keeps the column order of transposed
        # inputs; a reshape through 1-D is numpy's row-order copy.
        weight_t = concat(
            [layer.weight.transpose() for layer in layers], axis=-1
        )
        weight = weight_t.reshape(-1).reshape(weight_t.shape).transpose()
        bias = concat(
            [layer.bias for layer in layers[:self.num_experts]]
            + [np.zeros(self.num_tasks * self.num_experts)], axis=0,
        )
        towers = [
            (stack([tower.layers[depth].weight for tower in self.towers])
             .swapaxes(-1, -2),
             stack([tower.layers[depth].bias for tower in self.towers])
             .reshape(self.num_tasks, 1, -1))
            for depth in range(len(self.towers[0].layers))
        ]
        return weight, bias, towers

    def on_frozen_view(self) -> None:
        """Capture the stacked arrays once: every request scored from
        this view reads them, none concatenates."""
        vars(self)["_captured"] = self.stacked()

    def _experts_and_mixtures(self, joint_query, weight, bias):
        """Eqs. 6-7 on one projection of q⊕: the experts' outputs
        ``(B, E, D)`` and the gates' softmax mixtures ``(B, T, E)``."""
        projected = project(joint_query, weight, bias)
        width = self.num_experts * self.expert_dim
        experts = F.relu(
            projected[:, :width].reshape(-1, self.num_experts, self.expert_dim)
        )
        gates = projected[:, width:].reshape(-1, self.num_tasks,
                                             self.num_experts)
        return experts, F.softmax(gates, axis=-1)

    def forward(self, joint_query) -> list[Tensor]:
        """``joint_query`` is q⊕ of shape (B, input_dim), or its column
        blocks ``[(q^O, rows_o), (q^D, rows_d), (pair, None)]`` (see
        :func:`repro.nn.project`): the one projection then runs on each
        side's distinct rows only.  Returns task probs, each (B,)."""
        weight, bias, towers = self.stacked()
        experts, mixtures = self._experts_and_mixtures(
            joint_query, weight, bias
        )
        hidden = (mixtures @ experts).swapaxes(0, 1)   # (T, B, D)
        tower = self.towers[0]   # built alike: one set of activations
        for depth, (tower_weight, tower_bias) in enumerate(towers):
            hidden = hidden @ tower_weight + tower_bias
            last = depth == len(towers) - 1
            activation = tower.final_activation if last else tower.activation
            if activation is not None:
                hidden = activation(hidden)
        return [hidden[task, :, 0] for task in range(self.num_tasks)]

    def gate_mixtures(self, joint_query) -> np.ndarray:
        """Inspection helper: the per-task expert mixtures
        :meth:`forward` applies, (tasks, B, experts)."""
        weight, bias, _ = self.stacked()
        _, mixtures = self._experts_and_mixtures(joint_query, weight, bias)
        return as_array(mixtures).transpose(1, 0, 2)

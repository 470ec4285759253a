"""O&D Joint Learning Component — MMoE multi-task head (Figure 5, Eqs. 6-7).

Three expert networks and two task gates consume the concatenated
representation ``q⊕ = concat(q^O, q^D)``.  Each gate emits a softmax
triplet (Eq. 7) that mixes the experts' outputs (Eq. 6) for its task; the
mixed representation goes through a task tower — a nonlinear transform
with a sigmoid output — yielding ``p^O`` and ``p^D``.  Because both tasks
read the *shared* q⊕ through *differently-gated* experts, correlations
between origin and destination (return-ticket demand, route-level
preference) are learned explicitly.
"""

from __future__ import annotations

import numpy as np

from ..nn import Linear, MLP, Module
from ..tensor import Tensor, functional as F, stack

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

    def forward(self, joint_query) -> list[Tensor]:
        """``joint_query`` is q⊕ of shape (B, input_dim), or its column
        blocks ``[(q^O, rows_o), (q^D, rows_d), (pair, None)]`` (see
        :meth:`repro.nn.Linear.forward`): experts and gates then project
        each side on its distinct rows only.  Returns task probs."""
        expert_outputs = stack(
            [expert(joint_query) for expert in self.experts], axis=1
        )  # (B, E, expert_dim)
        probabilities = []
        for gate, tower in zip(self.gates, self.towers):
            mixture = F.softmax(gate(joint_query), axis=-1)    # (B, E)
            mixed = (F.expand_dims(mixture, 1) @ expert_outputs).squeeze(1)
            probabilities.append(tower(mixed).squeeze(-1))     # (B,)
        return probabilities

    def gate_mixtures(self, joint_query) -> np.ndarray:
        """Inspection helper: per-task expert mixtures (tasks, B, experts)."""
        return np.stack(
            [gate(joint_query).softmax(axis=-1).data for gate in self.gates]
        )

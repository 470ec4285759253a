"""Module/Parameter registration, state dicts, train/eval modes."""

import numpy as np
import pytest

from repro.nn import Linear, Module, Parameter, Sequential


class _Net(Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(4, 3, rng)
        self.fc2 = Linear(3, 1, rng)
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return self.fc2(self.fc1(x)) * self.scale


class TestRegistration:
    def test_parameters_found_recursively(self, rng):
        net = _Net(rng)
        params = list(net.parameters())
        # fc1 (w, b) + fc2 (w, b) + scale
        assert len(params) == 5

    def test_named_parameters_have_dotted_paths(self, rng):
        names = dict(_Net(rng).named_parameters())
        assert "fc1.weight" in names
        assert "scale" in names

    def test_module_list_registration(self, rng):
        class Listy(Module):
            def __init__(self):
                super().__init__()
                self.layers = [Linear(2, 2, rng) for _ in range(3)]

        assert len(list(Listy().parameters())) == 6

    def test_shared_parameter_not_duplicated(self, rng):
        class Shared(Module):
            def __init__(self):
                super().__init__()
                layer = Linear(2, 2, rng)
                self.a = layer
                self.b = layer

        assert len(list(Shared().parameters())) == 2

    def test_num_parameters_counts_scalars(self, rng):
        net = _Net(rng)
        assert net.num_parameters() == 4 * 3 + 3 + 3 * 1 + 1 + 1


class TestStateDict:
    def test_roundtrip(self, rng):
        net = _Net(rng)
        state = net.state_dict()
        other = _Net(np.random.default_rng(99))
        other.load_state_dict(state)
        np.testing.assert_allclose(other.fc1.weight.data, net.fc1.weight.data)

    def test_state_dict_is_a_copy(self, rng):
        net = _Net(rng)
        state = net.state_dict()
        state["fc1.weight"][:] = 0.0
        assert not np.allclose(net.fc1.weight.data, 0.0)

    def test_load_rejects_missing_keys(self, rng):
        net = _Net(rng)
        state = net.state_dict()
        del state["scale"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_rejects_shape_mismatch(self, rng):
        net = _Net(rng)
        state = net.state_dict()
        state["scale"] = np.ones(2)
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_rejected_state_binds_nothing(self, rng):
        net = _Net(rng)
        before = {name: (param.data, param.version)
                  for name, param in net.named_parameters()}
        state = {name: value + 1.0 for name, value in net.state_dict().items()}
        state[list(state)[-1]] = np.ones(7)  # the last parameter bound
        with pytest.raises(ValueError, match="shape mismatch"):
            net.load_state_dict(state)
        for name, param in net.named_parameters():
            assert param.data is before[name][0]
            assert param.version == before[name][1]

    def test_load_binds_one_float64_copy(self, rng):
        # A loaded snapshot's arrays are views of one read buffer: the
        # model must own native float64 copies, never alias them.
        net = _Net(rng)
        state = net.state_dict()
        state["scale"] = np.array([3.0], dtype=">f8")
        net.load_state_dict(state)
        assert net.scale.data.dtype == np.float64
        assert net.scale.data.dtype.isnative
        assert not np.shares_memory(net.scale.data, state["scale"])
        np.testing.assert_array_equal(net.scale.data, [3.0])


class TestModes:
    def test_train_eval_propagates(self, rng):
        net = Sequential(Linear(2, 2, rng), Linear(2, 1, rng))
        net.eval()
        assert not net.training
        assert all(not m.training for m in net.steps)
        net.train()
        assert net.training

    def test_zero_grad_clears(self, rng):
        from repro.tensor import Tensor

        net = _Net(rng)
        out = net(Tensor(np.ones((2, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

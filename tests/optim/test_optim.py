"""Adam and SGD optimizers."""

import numpy as np
import pytest

from repro.nn import Linear, Parameter
from repro.optim import Adam, SGD
from repro.tensor import Tensor, functional as F


def _quadratic_minimisation(optimizer_factory, steps=300):
    """Minimise ||x - target||^2 and return the final distance."""
    target = np.array([1.0, -2.0, 0.5])
    param = Parameter(np.zeros(3))
    optimizer = optimizer_factory([param])
    for _ in range(steps):
        optimizer.zero_grad()
        loss = ((param - target) ** 2).sum()
        loss.backward()
        optimizer.step()
    return float(np.abs(param.data - target).max())


class TestAdam:
    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_converges_on_quadratic(self):
        assert _quadratic_minimisation(lambda p: Adam(p, lr=0.05)) < 1e-3

    def test_skips_parameters_without_grad(self):
        a, b = Parameter(np.ones(2)), Parameter(np.ones(2))
        opt = Adam([a, b], lr=0.1)
        (a.sum() * 2.0).backward()
        opt.step()
        np.testing.assert_allclose(b.data, np.ones(2))
        assert not np.allclose(a.data, np.ones(2))

    def test_grad_clipping_limits_update(self):
        param = Parameter(np.zeros(4))
        opt = Adam([param], lr=0.1, grad_clip=1.0)
        param.grad = np.full(4, 1e6)
        opt.step()
        # With clipping the effective gradient norm is 1; Adam still takes
        # a bounded ~lr-sized step.
        assert np.abs(param.data).max() <= 0.11

    def test_weight_decay_shrinks_weights(self):
        param = Parameter(np.ones(3) * 10)
        opt = Adam([param], lr=0.1, weight_decay=1.0)
        for _ in range(50):
            param.grad = np.zeros(3)
            opt.step()
        assert np.abs(param.data).max() < 10.0

    def test_trains_logistic_regression(self, rng):
        X = rng.normal(size=(128, 4))
        y = (X @ np.array([1.0, -2.0, 0.5, 0.0]) > 0).astype(float)
        layer = Linear(4, 1, rng)
        opt = Adam(layer.parameters(), lr=0.05)
        for _ in range(150):
            opt.zero_grad()
            loss = F.binary_cross_entropy_with_logits(
                layer(Tensor(X)).squeeze(-1), y
            )
            loss.backward()
            opt.step()
        assert loss.item() < 0.3

    def test_matches_the_textbook_rule_bit_for_bit(self, rng):
        """In-place moments and update buffers round exactly like the
        fresh-array formula; the weights are rebound, the moments kept."""
        param = Parameter(rng.normal(size=(5, 3)))
        opt = Adam([param], lr=0.05, weight_decay=0.01, grad_clip=1.0)
        data, m, v = param.data.copy(), np.zeros((5, 3)), np.zeros((5, 3))
        moments = opt._m[0], opt._v[0]
        for t in range(1, 6):
            grad = rng.normal(size=(5, 3)) * t
            param.grad = grad
            before = param.data
            opt.step()
            assert param.data is not before
            grad = grad + 0.01 * data
            norm = np.linalg.norm(grad)
            if norm > 1.0:
                grad = grad * (1.0 / (norm + 1e-12))
            m = 0.9 * m + (1.0 - 0.9) * grad
            v = 0.999 * v + (1.0 - 0.999) * grad ** 2
            m_hat, v_hat = m / (1.0 - 0.9 ** t), v / (1.0 - 0.999 ** t)
            data = data - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_array_equal(param.data, data)
        assert (opt._m[0], opt._v[0]) == moments
        np.testing.assert_array_equal(opt._m[0], m)


@pytest.mark.parametrize(
    "make", [lambda p: Adam(p, lr=0.1), lambda p: SGD(p, lr=0.1)],
    ids=["adam", "sgd"],
)
def test_zero_d_parameter_stays_a_0d_array(make):
    """A 0-d ``param.data - step`` is a numpy scalar; the optimizers keep
    a 0-d parameter (ODNET's theta_logit) an ndarray across steps."""
    theta = Parameter(np.zeros(()))
    optimizer = make([theta])
    for _ in range(3):
        optimizer.zero_grad()
        ((theta - 1.0) ** 2).backward()
        optimizer.step()
        assert isinstance(theta.data, np.ndarray) and theta.data.shape == ()
    assert 0.0 < theta.item() < 1.0


class TestSGD:
    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            SGD([])

    def test_converges_on_quadratic(self):
        assert _quadratic_minimisation(lambda p: SGD(p, lr=0.05)) < 1e-3

    def test_momentum_accelerates(self):
        slow = _quadratic_minimisation(lambda p: SGD(p, lr=0.01), steps=60)
        fast = _quadratic_minimisation(
            lambda p: SGD(p, lr=0.01, momentum=0.9), steps=60
        )
        assert fast < slow

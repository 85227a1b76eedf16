import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (cfm_alone, finite_difference_check, global_velocity,
                      interpolate_state, target_velocity)
from prismflow.errors import ContractViolation, ShapeError
from prismflow.flowpath import cfm_loss, trunk_forward
from prismflow.model import ModelConfig, PrismFlowModel
from prismflow.numcore import RngStream, Workspace


class TestInterpolate:
    def test_endpoints(self):
        x0 = np.arange(6.0).reshape(3, 2)
        x1 = -np.ones((3, 2))
        np.testing.assert_array_equal(interpolate_state(x0, x1, 0.0), x0)
        np.testing.assert_array_equal(interpolate_state(x0, x1, 1.0), x1)

    def test_midpoint(self):
        x0 = np.zeros((2, 2))
        x1 = 2.0 * np.ones((2, 2))
        np.testing.assert_array_equal(interpolate_state(x0, x1, 0.5),
                                      np.ones((2, 2)))

    def test_shape_mismatch(self, tiny_model):
        """The trunk pass refuses a pair of two shapes, naming both."""
        with pytest.raises(ShapeError, match=r"shape mismatch \(4, 8, 2\) "
                                             r"vs \(3, 8, 2\)"):
            trunk_forward(tiny_model, np.zeros((4, 8, 2)),
                          np.zeros((3, 8, 2)), np.zeros(4),
                          Workspace(tiny_model))

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_path_consistency(self, t):
        # x_t + (1-t)*u = x1 for any t
        gen = np.random.default_rng(0)
        x0 = gen.standard_normal((4, 3))
        x1 = gen.standard_normal((4, 3))
        xt = interpolate_state(x0, x1, t)
        u = target_velocity(x0, x1)
        np.testing.assert_allclose(xt + (1.0 - t) * u, x1, atol=1e-12)


class TestTargetVelocity:
    def test_equal_points_zero(self):
        x = np.ones((2, 3))
        np.testing.assert_array_equal(target_velocity(x, x), 0.0 * x)

    def test_from_origin(self):
        v = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(target_velocity(np.zeros((2, 3)), v), v)

    def test_antisymmetry(self):
        gen = np.random.default_rng(1)
        a, b = gen.standard_normal((2, 4, 2))
        np.testing.assert_array_equal(target_velocity(a, b),
                                      -target_velocity(b, a))


@pytest.mark.parametrize("s,d,b", [(64, 1, 128), (7, 3, 5)],
                         ids=["acceptance", "odd"])
def test_trunk_pass_is_the_path_oracles_bit_for_bit(s, d, b):
    """The trunk pass forms x_t, and the CFM term its target x1 - x0, as
    the path oracles do, to the last bit."""
    model = PrismFlowModel.init(ModelConfig(seq_len=s, channels=d),
                                RngStream(0))
    gen = RngStream(2).generator()
    x0, x1 = gen.standard_normal((2, b, s, d))
    t = gen.uniform(size=b)
    ws = Workspace(model)
    trunk = trunk_forward(model, x0, x1, t, ws)
    np.testing.assert_array_equal(
        trunk.xt, interpolate_state(x0, x1, t).reshape(b, -1))
    _, _, v = cfm_loss(model, trunk, ws)
    resid = v - target_velocity(x0, x1).reshape(b, -1)
    loss = float(np.add.reduce(resid * resid, axis=None) / resid.size)
    assert cfm_alone(model, x0, x1, t)[0] == loss


class TestGlobalVelocity:
    def test_zero_weight_model(self, tiny_model, tiny_batch):
        x0, _, t = tiny_batch
        for w in tiny_model.head.weights:
            w[:] = 0.0
        tiny_model.head.biases[-1][:] = 0.0
        v = global_velocity(tiny_model, x0, t)
        assert np.all(v == 0.0)

    def test_output_shape(self, tiny_model, tiny_batch):
        x0, _, t = tiny_batch
        assert global_velocity(tiny_model, x0, t).shape == x0.shape

    def test_deterministic(self, tiny_model, tiny_batch):
        x0, _, t = tiny_batch
        a = global_velocity(tiny_model, x0, t)
        b = global_velocity(tiny_model, x0, t)
        np.testing.assert_array_equal(a, b)


class TestCfmLoss:
    def test_perfect_model_zero_loss(self, tiny_model, tiny_batch):
        x0, x1, t = tiny_batch
        # constant target velocity exactly representable by bias-only head
        x1 = x0 + 1.5
        for net in (tiny_model.encoder, tiny_model.head):
            for w in net.weights:
                w[:] = 0.0
            for b in net.biases:
                b[:] = 0.0
        tiny_model.head.biases[-1][:] = 1.5
        loss, _ = cfm_alone(tiny_model, x0, x1, t)
        assert loss == pytest.approx(0.0, abs=1e-24)

    def test_constant_offset(self, tiny_model, tiny_batch):
        x0, x1, t = tiny_batch
        x1 = x0.copy()  # target velocity is zero
        for net in (tiny_model.encoder, tiny_model.head):
            for w in net.weights:
                w[:] = 0.0
            for b in net.biases:
                b[:] = 0.0
        tiny_model.head.biases[-1][:] = 0.7  # prediction offset c
        loss, _ = cfm_alone(tiny_model, x0, x1, t)
        assert loss == pytest.approx(0.7 ** 2, abs=1e-15)

    def test_empty_batch(self, tiny_model):
        with pytest.raises(ContractViolation):
            cfm_alone(tiny_model, np.zeros((0, 8, 2)), np.zeros((0, 8, 2)),
                     np.zeros(0))

    def test_nonnegative_and_permutation_invariant(self, tiny_model,
                                                   tiny_batch):
        x0, x1, t = tiny_batch
        loss, _ = cfm_alone(tiny_model, x0, x1, t)
        assert loss >= 0.0
        perm = [2, 0, 3, 1]
        loss_p, _ = cfm_alone(tiny_model, x0[perm], x1[perm], t[perm])
        assert loss_p == pytest.approx(loss, abs=1e-12)

    def test_gradients_match_finite_differences(self, tiny_model, tiny_batch):
        x0, x1, t = tiny_batch
        params = tiny_model.params()
        blocks = [n for n in params if n.startswith(("encoder", "head"))]
        err = finite_difference_check(
            lambda p: cfm_alone(tiny_model, x0, x1, t), params, 1e-5,
            blocks=blocks)
        assert err < 1e-4

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (balance_alone, finite_difference_check,
                      frozen_wta_loss_fn, wta_alone)
import prismflow.model as model_module
from prismflow.errors import ContractViolation, NumericError
from prismflow.experts import assemble_operator
from prismflow.flowpath import encode, time_features
from prismflow.router import (balance_loss, endpoint, route, select_winner,
                              softmax, wta_scores)
from prismflow.trainer import TrainConfig


class TestSoftmax:
    def test_uniform_logits(self):
        np.testing.assert_allclose(softmax(np.zeros((3, 4))), 0.25)

    def test_shift_invariant(self):
        logits = np.array([[1.0, 2.0, -1.0]])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_simplex(self, seed):
        p = softmax(np.random.default_rng(seed).standard_normal((5, 3)) * 10)
        assert np.all(p > 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


class TestRoute:
    def test_shapes_and_simplex(self, tiny_model, tiny_batch):
        x0, _, t = tiny_batch
        tf = time_features(t, tiny_model.cfg.time_freqs)
        h, _ = encode(tiny_model, x0, tf)
        probs, tape = route(tiny_model, tf, h)
        assert probs.shape == (4, tiny_model.n_experts)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        width = 8 + 2 * len(tiny_model.cfg.time_freqs)
        assert tape.inputs[0].shape[1] == width


class TestEstimateEndpoint:
    """The endpoint estimate `router.endpoint`, for a float t or a
    column of them."""

    def test_at_terminal_time(self):
        x = np.ones((2, 3))
        out = endpoint(x, np.ones((2, 1)), 5.0 * x + -2.0 * x)
        np.testing.assert_array_equal(out, x)

    def test_hand_case(self):
        x = np.zeros((1, 2))
        out = endpoint(x, 0.25, np.full((1, 2), 2.0) + np.full((1, 2), -0.4))
        np.testing.assert_allclose(out, 0.75 * 1.6)

    def test_exact_velocity_recovers_target(self):
        gen = np.random.default_rng(0)
        x0, x1 = gen.standard_normal((2, 3, 4))
        t = np.array([0.3, 0.8, 0.5])[:, None]
        xt = (1 - t) * x0 + t * x1
        out = endpoint(xt, t, x1 - x0)
        np.testing.assert_allclose(out, x1, atol=1e-12)

    def test_expert_axis_gives_each_single_expert_endpoint(self):
        gen = np.random.default_rng(1)
        xt = gen.standard_normal((3, 4))
        t = gen.uniform(size=(3, 1))
        v = gen.standard_normal((5, 3, 4))  # (K, B, S*D)
        out = endpoint(xt, t, v)
        assert out.shape == v.shape
        for k in range(5):
            np.testing.assert_array_equal(out[k], endpoint(xt, t, v[k]))


class TestWtaScores:
    def test_hand_computed(self):
        cfg = TrainConfig(beta=0.5, wta_eps=1e-12)
        # endpoint MSEs of ones and zeros against a zero target
        mses = np.array([[1.0, 0.0]])
        probs = np.array([[0.25, 0.75]])
        s = wta_scores(mses, probs, cfg)
        np.testing.assert_allclose(
            s, [[1.0 - 0.5 * np.log(0.25), -0.5 * np.log(0.75)]], atol=1e-10)

    def test_beta_zero_is_pure_mse(self):
        cfg = TrainConfig(beta=0.0)
        s = wta_scores(np.array([[4.0, 0.0]]), np.array([[0.9, 0.1]]), cfg)
        np.testing.assert_allclose(s, [[4.0, 0.0]], atol=1e-12)

    def test_negative_prob_rejected(self):
        with pytest.raises(ContractViolation):
            wta_scores(np.zeros((1, 1)), np.array([[-0.1]]), TrainConfig())


class TestSelectWinner:
    def test_argmin(self):
        scores = np.array([[3.0, 1.0, 2.0], [0.5, 1.0, 2.0]])
        np.testing.assert_array_equal(select_winner(scores), [1, 0])

    def test_tie_smallest_index(self):
        np.testing.assert_array_equal(select_winner([[2.0, 1.0, 1.0]]), [1])

    def test_nan_raises(self):
        with pytest.raises(NumericError):
            select_winner([[0.0, 1.0], [1.0, np.nan]])

    def test_empty_raises(self):
        with pytest.raises(ContractViolation):
            select_winner(np.zeros((2, 0)))


class TestWtaLoss:
    def test_identical_experts_winner_is_most_probable(self, tiny_model,
                                                       tiny_batch):
        x0, x1, t = tiny_batch
        for w in tiny_model.decoder.weights:
            w[:] = 0.0
        for b in tiny_model.decoder.biases:
            b[:] = 0.0
        _, _, info = wta_alone(tiny_model, x0, x1, t, TrainConfig(beta=0.1))
        np.testing.assert_array_equal(info.winners,
                                      np.argmax(info.probs, axis=1))

    def test_masked_experts_get_exact_zero_gradient(self, four_expert_model,
                                                    tiny_batch):
        model = four_expert_model
        x0, x1, t = tiny_batch
        _, grads, info = wta_alone(model, x0, x1, t, TrainConfig())
        losers = [k for k in range(model.n_experts) if k not in info.winners]
        assert losers
        for k in losers:  # never written: +0.0, not -0.0
            for part in "SR":
                g = grads[f"expert{k}.{part}"]
                assert g.tobytes() == bytes(g.nbytes), (k, part)

    def test_perturbing_masked_expert_does_not_move_loss(self,
                                                         four_expert_model,
                                                         tiny_batch):
        model = four_expert_model
        x0, x1, t = tiny_batch
        cfg = TrainConfig()
        loss, _, info = wta_alone(model, x0, x1, t, cfg)
        losers = [k for k in range(model.n_experts) if k not in info.winners]
        assert losers
        for k in losers:
            model.expert_pairs[k] += 1e-3  # its S and its R
        loss2, _, info2 = wta_alone(model, x0, x1, t, cfg)
        np.testing.assert_array_equal(info2.winners, info.winners)
        assert abs(loss2 - loss) <= 1e-12

    def test_lambda_weighting_scales_loss(self, tiny_model, tiny_batch):
        x0, x1, t = tiny_batch
        cfg = TrainConfig()
        base, _, info = wta_alone(tiny_model, x0, x1, t, cfg)
        doubled, _, info2 = wta_alone(tiny_model, x0, x1, t, cfg,
                                      lam=2.0 * np.ones(4))
        np.testing.assert_array_equal(info2.winners, info.winners)
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)

    def test_one_call_returns_the_operator_bank(self, four_expert_model,
                                                tiny_batch, monkeypatch):
        shapes = []

        def counted(*args):
            bank = assemble_operator(*args)
            shapes.append(bank.shape)
            return bank

        monkeypatch.setattr(model_module, "assemble_operator", counted)
        x0, x1, t = tiny_batch
        wta_alone(four_expert_model, x0, x1, t, TrainConfig())
        assert shapes == [(4, 4, 4)]  # (K, d_z, d_z)

    def test_gradients_match_finite_differences(self, tiny_model, tiny_batch):
        x0, x1, t = tiny_batch
        loss_fn = frozen_wta_loss_fn(tiny_model, x0, x1, t,
                                     TrainConfig(beta=0.5))
        blocks = [n for n in tiny_model.params()
                  if not n.startswith("head")]
        err = finite_difference_check(loss_fn, tiny_model.params(), 1e-5,
                                      blocks=blocks)
        assert err < 1e-4


class TestBalanceLoss:
    def test_uniform_routing_is_zero(self):
        probs = np.full((6, 4), 0.25)
        assert abs(balance_loss(probs)) <= 1e-12

    def test_uniform_on_average_is_zero(self):
        probs = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert abs(balance_loss(probs)) <= 1e-12

    def test_closed_form_three_quarters(self):
        probs = np.tile([0.75, 0.25], (5, 1))
        expected = 0.5 * (np.log(0.5 / 0.75) + np.log(0.5 / 0.25))
        assert balance_loss(probs) == pytest.approx(expected, abs=1e-12)
        assert balance_loss(probs) == pytest.approx(0.14384, abs=1e-5)

    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, seed):
        probs = softmax(
            np.random.default_rng(seed).standard_normal((8, 4)) * 3)
        assert balance_loss(probs) >= -1e-15

    def test_collapsed_routing_is_large(self):
        probs = np.zeros((4, 4))
        probs[:, 0] = 1.0
        assert balance_loss(probs) > 1.0

    def test_gradients_touch_router_only(self, tiny_model, tiny_batch):
        x0, x1, t = tiny_batch
        _, grads, _ = balance_alone(tiny_model, x0, x1, t, TrainConfig())
        for name, g in grads.items():
            if name.startswith("router"):
                continue
            assert np.all(g == 0.0), name
        assert any(np.any(grads[n] != 0.0) for n in grads
                   if n.startswith("router"))

    def test_router_gradients_match_finite_differences(self, tiny_model,
                                                       tiny_batch):
        x0, x1, t = tiny_batch
        cfg = TrainConfig()
        # skew the routing away from uniform so the KL gradient is not
        # vanishingly small relative to finite-difference roundoff
        tiny_model.router.biases[-1][:] = [0.8, -0.8]
        tiny_model.router.bump_version()

        # the router blocks perturbed here cannot move the trunk features
        def loss_fn(params):
            loss, grads, _ = balance_alone(tiny_model, x0, x1, t, cfg)
            return loss, grads
        blocks = [n for n in tiny_model.params() if n.startswith("router")]
        err = finite_difference_check(loss_fn, tiny_model.params(), 3e-5,
                                      blocks=blocks)
        assert err < 1e-4

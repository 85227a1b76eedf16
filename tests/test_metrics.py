import numpy as np
import pytest

from conftest import traced_peak
from prismflow import metrics
from prismflow.errors import ContractViolation
from prismflow.metrics import (MetricReport, correlational_score,
                               discriminative_score, predictive_score)
from prismflow.numcore import (AdamState, Mlp, Params, RngStream,
                               adam_update, mlp_apply, mlp_gradients,
                               mlp_shapes)


def noise(n, s=8, d=2, seed=0, scale=1.0, shift=0.0):
    gen = RngStream(seed).generator()
    return gen.standard_normal((n, s, d)) * scale + shift


class TestDiscriminativeScore:
    def test_identical_distributions_near_zero(self):
        score = discriminative_score(noise(200, seed=1), noise(200, seed=2),
                                     RngStream(0))
        assert score <= 0.15

    def test_separated_distributions_near_half(self):
        score = discriminative_score(noise(200, seed=1),
                                     noise(200, seed=2, shift=6.0),
                                     RngStream(0))
        assert score >= 0.4

    def test_range(self):
        score = discriminative_score(noise(100, seed=3), noise(100, seed=4),
                                     RngStream(1))
        assert 0.0 <= score <= 0.5

    def test_deterministic(self):
        a = discriminative_score(noise(80, seed=5), noise(80, seed=6),
                                 RngStream(2))
        b = discriminative_score(noise(80, seed=5), noise(80, seed=6),
                                 RngStream(2))
        assert a == b

    def test_too_few_windows(self):
        with pytest.raises(ContractViolation):
            discriminative_score(noise(10), noise(100), RngStream(0))


class TestPredictiveScore:
    def test_learnable_dynamics_beats_chance(self):
        # x_{s+1} = x_s: the one-step predictor can reach low MAE
        base = noise(100, s=1, d=2, seed=7)
        const = np.repeat(base, 8, axis=1)
        score = predictive_score(const, const, RngStream(0))
        chance = np.abs(const).mean()
        assert score < 0.5 * chance

    def test_needs_two_steps(self):
        with pytest.raises(ContractViolation):
            predictive_score(noise(80, s=1), noise(80, s=1), RngStream(0))

    def test_working_memory_is_a_few_window_arrays(self):
        """4,000 windows of S=64 give 252,000 (x, y) pairs; one forward
        over all of them held two 252,000 x HIDDEN activation arrays
        (about 70 times the windows' bytes). Sliced, the score holds a few
        window-sized arrays."""
        real, gen = noise(4000, s=64, d=1, seed=12), noise(4000, s=64, d=1)
        score, peak = traced_peak(predictive_score, real, gen, RngStream(0))
        assert np.isfinite(score)
        assert peak < 8 * real.nbytes


class TestForward:
    @pytest.mark.parametrize("width", [1, 64, 300])
    @pytest.mark.parametrize("slices,extra", [
        (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
        ids=["1", "slice-1", "slice", "slice+1", "2slice+1"])
    def test_slices_match_one_call_bitwise(self, width, slices, extra):
        """For the pred net at D=1 and disc nets on 64 and 300 inputs: a
        lone row past a slice boundary would take BLAS's matrix-vector
        path and differ in the last bit from one multi-row product."""
        dims = [width, metrics.HIDDEN, 1]
        net = Mlp.view(Params(mlp_shapes("", dims)), "", dims)
        net.draw(RngStream(13))
        n = slices * metrics.FORWARD_ROWS + extra
        x = RngStream(14).generator().standard_normal((n, width))
        want, _ = mlp_apply(net, x)
        assert metrics._forward(net, x).tobytes() == want.tobytes()


def per_step_train_net(dims, x, y, rng, kind):
    """Reference `metrics._train_net`: each step draws its own batch
    indices."""
    params = Params(mlp_shapes("", dims))
    net = Mlp.view(params, "", dims)
    net.draw(rng.child(1))
    opt = AdamState.create(params, lr=1e-3)
    gen = rng.child(2).generator()
    n = x.shape[0]
    grads = params.zeros_like()
    grad = Mlp.view(grads, "", dims)
    for _ in range(metrics.TRAIN_STEPS):
        idx = gen.integers(0, n, size=min(metrics.BATCH, n))
        out, tape = mlp_apply(net, x[idx])
        if kind == "logistic":
            upstream = (1.0 / (1.0 + np.exp(-out)) - y[idx]) / idx.size
        else:
            upstream = 2.0 * (out - y[idx]) / out.size
        grads.flat.fill(0.0)
        mlp_gradients(net, tape, upstream, grad, False)
        adam_update(opt, params, grads)
        net.bump_version()
    return net


class TestTrainNet:
    @pytest.mark.parametrize("n", [metrics.BATCH - 14, 3 * metrics.BATCH])
    @pytest.mark.parametrize("kind", ["logistic", "l2"])
    def test_one_index_draw_matches_a_draw_per_step(self, kind, n):
        """The steps' batch indices, drawn in one call, are those of one
        call per step, so the trained net is the same to the bit."""
        gen = RngStream(15).generator()
        x = gen.standard_normal((n, 6))
        y = (gen.uniform(size=(n, 1)) < 0.5) * 1.0 if kind == "logistic" \
            else gen.standard_normal((n, 1))
        dims = [6, metrics.HIDDEN, 1]
        net = metrics._train_net(dims, x, y, RngStream(16), kind)
        want = per_step_train_net(dims, x, y, RngStream(16), kind)
        for got, ref in zip(net.weights + net.biases,
                            want.weights + want.biases):
            assert got.tobytes() == ref.tobytes()


class TestCorrelationalScore:
    def test_self_comparison_is_zero(self):
        w = noise(50, d=3, seed=8)
        assert correlational_score(w, w) == 0.0

    def test_single_channel_is_zero(self):
        assert correlational_score(noise(50, d=1), noise(50, d=1, seed=9)) \
            == 0.0

    def test_detects_correlation_mismatch(self):
        gen = RngStream(10).generator()
        a = gen.standard_normal((200, 8, 1))
        correlated = np.concatenate([a, a + 0.01 * gen.standard_normal(
            (200, 8, 1))], axis=2)
        independent = gen.standard_normal((200, 8, 2))
        assert correlational_score(correlated, independent) > 0.5

    def test_zero_variance_channel_warns(self):
        w = noise(30, d=2, seed=11)
        dead = w.copy()
        dead[:, :, 1] = 4.0
        with pytest.warns(UserWarning, match="zero-variance"):
            score = correlational_score(w, dead)
        assert np.isfinite(score)


class TestMetricReport:
    def test_hash_depends_on_config(self):
        a = MetricReport.build("disc", 0.1, 0, {"k": 1})
        b = MetricReport.build("disc", 0.1, 0, {"k": 2})
        assert a.config_hash != b.config_hash
        assert a.value == pytest.approx(0.1)

    def test_hash_stable_under_key_order(self):
        a = MetricReport.build("disc", 0.1, 0, {"a": 1, "b": 2})
        b = MetricReport.build("disc", 0.1, 0, {"b": 2, "a": 1})
        assert a.config_hash == b.config_hash

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_operators
from prismflow.errors import NumericError, ShapeError
from prismflow.experts import (assemble_operator, decode_experts,
                               expert_bank, operator_eigenvalues)
from prismflow.flowpath import encode, time_features
from prismflow.model import ModelConfig, PrismFlowModel
from prismflow.numcore import RngStream, mlp_apply


def latent_codes(model, x, t):
    h, _ = encode(model, x, time_features(t, model.cfg.time_freqs))
    z, _ = mlp_apply(model.projector, h)
    return z


class TestAssembleOperator:
    def test_all_zero(self):
        a = assemble_operator(np.zeros((3, 3)), np.zeros((3, 3)), 0.0)
        np.testing.assert_array_equal(a, np.zeros((3, 3)))

    def test_identity_dissipation(self):
        a = assemble_operator(np.zeros((3, 3)), np.eye(3), 0.0)
        np.testing.assert_array_equal(a, -np.eye(3))
        np.testing.assert_allclose(operator_eigenvalues(a), [-1, -1, -1])

    def test_rotation_plus_damping(self):
        s = np.array([[0.0, 0.5], [-0.5, 0.0]])
        a = assemble_operator(s, np.zeros((2, 2)), 0.1)
        np.testing.assert_allclose(a, [[-0.1, 1.0], [-1.0, -0.1]])
        eig = operator_eigenvalues(a)
        np.testing.assert_allclose(sorted(eig.imag), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(eig.real, [-0.1, -0.1], atol=1e-12)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            assemble_operator(np.zeros((2, 3)), np.zeros((2, 3)), 0.0)
        with pytest.raises(ShapeError):
            assemble_operator(np.zeros((2, 2)), np.zeros((3, 3)), 0.0)
        with pytest.raises(ShapeError):
            assemble_operator(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)), 0.0)
        with pytest.raises(ShapeError):
            assemble_operator(np.zeros((1, 2, 2, 2)), np.zeros((1, 2, 2, 2)),
                              0.0)

    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 8),
           st.sampled_from([0.0, 0.05, 0.5]))
    @settings(max_examples=40, deadline=None)
    def test_stack_is_each_pair_bitwise(self, seed, k, d, delta):
        gen = np.random.default_rng(seed)
        s, r = gen.standard_normal((2, k, d, d))
        bank = assemble_operator(s, r, delta)
        assert bank.shape == (k, d, d)
        for j in range(k):
            assert bank[j].tobytes() == \
                assemble_operator(s[j], r[j], delta).tobytes()

    @given(st.integers(0, 10_000), st.sampled_from([0.0, 0.05, 0.5]))
    @settings(max_examples=60, deadline=None)
    def test_dissipativity(self, seed, delta):
        gen = np.random.default_rng(seed)
        a = assemble_operator(gen.standard_normal((5, 5)),
                              gen.standard_normal((5, 5)), delta)
        assert operator_eigenvalues(a).real.max() <= -delta + 1e-9
        sym = 0.5 * (a + a.T)
        assert np.linalg.eigvalsh(sym).max() <= -delta + 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_skew_decomposition_exact(self, seed):
        gen = np.random.default_rng(seed)
        r = gen.standard_normal((4, 4))
        delta = 0.3
        a = assemble_operator(gen.standard_normal((4, 4)), r, delta)
        skew = a + delta * np.eye(4) + r.T @ r
        np.testing.assert_allclose(skew, -skew.T, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_latent_energy_decay(self, seed):
        gen = np.random.default_rng(seed)
        delta = 0.2
        a = assemble_operator(gen.standard_normal((4, 4)),
                              gen.standard_normal((4, 4)), delta)
        z = gen.standard_normal(4)
        # d/dt ||z||^2 = 2 z^T A z <= -2 delta ||z||^2
        assert 2 * z @ a @ z <= -2 * delta * z @ z + 1e-9


class TestOperatorBank:
    """`PrismFlowModel.operators` assembles the whole bank in one call,
    byte-equal to the bank built one expert at a time."""

    @pytest.mark.parametrize("variant", [
        dict(), dict(n_experts=1), dict(expert_init="spread"),
        dict(delta=0.0), dict(latent_dim=3), dict(n_experts=8, latent_dim=16)],
        ids=["base", "K1", "spread", "delta0", "dz3", "K8-dz16"])
    def test_bitwise_equal_to_per_expert_bank(self, variant):
        kw = dict(seq_len=8, channels=2, n_experts=4, latent_dim=4,
                  hidden_dim=8, dec_hidden=8, router_hidden=8)
        model = PrismFlowModel.init(ModelConfig(**{**kw, **variant}),
                                    RngStream(3))
        ref = reference_operators(model)
        assert model.operators().tobytes() == ref.tobytes()
        assert model.operators().shape == ref.shape

    def test_bitwise_equal_on_a_perturbed_store(self, four_expert_model):
        model = four_expert_model
        gen = np.random.default_rng(17)
        pairs = model.expert_pairs
        for block in [*pairs[:, 0], *pairs[:, 1]]:  # each S, then each R
            block += gen.standard_normal(block.shape) * 10.0 ** gen.integers(
                -3, 3)
        assert model.operators().tobytes() == \
            reference_operators(model).tobytes()

    def test_overflow_names_the_first_expert(self, four_expert_model):
        model = four_expert_model
        model.expert_pairs[1, 1, 0, 0] = 1e300  # expert 1's R
        model.expert_pairs[3, 1, 1, 1] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match="^expert 1 has a non-finite operator$"):
                model.operators()


class TestLatentVelocity:
    """The linear latent velocity A^k z that `decode_experts` feeds the
    decoder, with A^k from `model.operators` or `assemble_operator`."""

    def test_zero_state(self, tiny_model):
        assert np.all(np.zeros(4) @ tiny_model.operators()[0].T == 0.0)

    def test_negative_identity(self, tiny_model):
        tiny_model.expert_pairs[0, 0] = 0.0
        tiny_model.expert_pairs[0, 1] = np.eye(4)
        tiny_model.cfg = replace(tiny_model.cfg, delta=0.0)
        v = np.array([1.0, -2.0, 0.5, 3.0])
        np.testing.assert_allclose(v @ tiny_model.operators()[0].T, -v)

    def test_rotation_example(self):
        a = assemble_operator(np.array([[0.0, 0.5], [-0.5, 0.0]]),
                              np.zeros((2, 2)), 0.1)
        out = np.array([1.0, 0.0]) @ a.T
        np.testing.assert_allclose(out, [-0.1, -1.0])


class TestDecodeExpertVelocity:
    """One expert's residual velocity, decoded by `decode_experts`."""

    def test_zero_decoder(self, tiny_model, tiny_batch):
        x0, _, t = tiny_batch
        for w in tiny_model.decoder.weights:
            w[:] = 0.0
        for b in tiny_model.decoder.biases:
            b[:] = 0.0
        z = latent_codes(tiny_model, x0, t)
        bank = expert_bank(tiny_model.operators())
        for k in range(tiny_model.n_experts):
            resid = decode_experts(tiny_model, bank, z, np.full(len(z), k))
            assert np.all(resid == 0.0)

    def test_output_shape(self, tiny_model, tiny_batch):
        x0, _, t = tiny_batch
        z = latent_codes(tiny_model, x0, t)
        bank = expert_bank(tiny_model.operators())
        for k in range(tiny_model.n_experts):
            resid = decode_experts(tiny_model, bank, z, np.full(len(z), k))
            assert resid.shape == (x0.shape[0], 16)

    def test_experts_generically_distinct(self, tiny_model, tiny_batch):
        x0, _, t = tiny_batch
        z = latent_codes(tiny_model, x0, t)
        bank = expert_bank(tiny_model.operators())
        r0 = decode_experts(tiny_model, bank, z, np.full(len(z), 0))
        r1 = decode_experts(tiny_model, bank, z, np.full(len(z), 1))
        assert np.abs(r0 - r1).max() > 0.0


class TestOperatorEigenvalues:
    def test_pure_rotation(self):
        eig = operator_eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(sorted(eig.imag), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(eig.real, 0.0, atol=1e-12)

    def test_sorted_output(self):
        eig = operator_eigenvalues(np.diag([-3.0, 1.0, -0.5]))
        assert list(eig.real) == sorted(eig.real)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            operator_eigenvalues(np.zeros((2, 3)))

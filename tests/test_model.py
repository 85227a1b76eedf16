"""The one parameter layout: every block of a model is a view of one flat
vector, in checkpoint order, however the model was made; gradients share
that layout in a fresh buffer per call; the config that the layout is
derived from is validated."""

import numpy as np
import pytest

from prismflow.checkpoint import load_checkpoint
from prismflow.errors import ConfigError
from prismflow.model import ModelConfig, PrismFlowModel, param_layout
from prismflow.numcore import RngStream, Workspace
from prismflow.trainer import TrainConfig, fit, total_loss


def offset(block, flat) -> int:
    """Start of `block` inside `flat`, in elements."""
    return (block.__array_interface__["data"][0]
            - flat.__array_interface__["data"][0]) // flat.itemsize


def assert_one_flat_vector(model, order):
    params = model.params()
    flat = params.flat
    assert flat.dtype == np.float64 and flat.flags.c_contiguous
    assert list(params) == order
    start = 0
    for name, block in params.items():
        assert np.shares_memory(block, flat), name
        assert offset(block, flat) == start, name
        start += block.size
    assert start == flat.size
    for net in ("encoder", "head", "projector", "decoder", "router"):
        mlp = getattr(model, net)
        for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            # each bias a (1, d) row view of its block's memory
            block = params[f"{net}.b{i}"]
            assert w is params[f"{net}.W{i}"] and b.shape == (1, block.size)
            assert np.shares_memory(b, flat)
            assert offset(b, flat) == offset(block, flat), f"{net}.b{i}"
    for k in range(model.n_experts):
        for half, part in enumerate("SR"):  # [k, 0] its S, [k, 1] its R
            view = model.expert_pairs[k, half]
            block = params[f"expert{k}.{part}"]
            assert view.shape == block.shape and np.shares_memory(view, flat)
            assert offset(view, flat) == offset(block, flat), (k, part)


def block_order(model, path) -> list:
    model.save(path)
    _, blocks = load_checkpoint(path)
    return list(blocks)


class TestOneLayout:
    def test_init_blocks_are_views_of_one_vector(self, tiny_model, tmp_path):
        order = block_order(tiny_model, str(tmp_path / "m.ckpt"))
        assert order == list(param_layout(tiny_model.cfg)[1])
        assert_one_flat_vector(tiny_model, order)

    def test_loaded_blocks_are_views_of_one_vector(self, tiny_model,
                                                   tmp_path):
        path = str(tmp_path / "m.ckpt")
        order = block_order(tiny_model, path)
        back = PrismFlowModel.load(path)
        assert_one_flat_vector(back, order)
        assert back.params().flat.tobytes() == \
            tiny_model.params().flat.tobytes()

    def test_fitted_blocks_are_views_of_one_vector(self, tmp_path):
        mc = ModelConfig(seq_len=8, channels=2, n_experts=3, latent_dim=4,
                         hidden_dim=8, dec_hidden=8, router_hidden=8,
                         enc_layers=3)
        windows = RngStream(2).generator().standard_normal((16, 8, 2))
        model, _ = fit(windows, mc, TrainConfig(epochs=1, batch_size=8))
        assert_one_flat_vector(model,
                               block_order(model, str(tmp_path / "m.ckpt")))

    def test_header_mlp_dims_come_from_the_layout(self, tiny_model,
                                                  tmp_path):
        path = str(tmp_path / "m.ckpt")
        tiny_model.save(path)
        header, blocks = load_checkpoint(path)
        dims, shapes = param_layout(tiny_model.cfg)
        assert header["mlp_dims"] == dims
        assert {n: np.atleast_2d(b).shape for n, b in blocks.items()} == \
            {n: np.atleast_2d(np.zeros(s)).shape for n, s in shapes.items()}


class TestGradientBuffers:
    def test_each_call_returns_a_fresh_buffer(self, tiny_model, tiny_batch):
        x0, x1, t = tiny_batch
        cfg = TrainConfig(beta=0.5)
        _, g1, _, _ = total_loss(tiny_model, x0, x1, t, cfg)
        kept = g1.flat.copy()
        _, g2, _, _ = total_loss(tiny_model, 2.0 * x0, x1, t, cfg)
        assert not np.shares_memory(g1.flat, g2.flat)
        np.testing.assert_array_equal(g1.flat, kept)
        for g in (g1, g2):
            assert list(g) == list(tiny_model.params())
            for name, block in g.items():
                assert np.shares_memory(block, g.flat), name
                assert block.shape == tiny_model.params()[name].shape

    def test_workspace_grad_is_the_model_over_its_store(self, tiny_model,
                                                        tmp_path):
        """`ws.grad` has the model's nets and expert bank, each a view of
        the gradient store `ws.grads` at the offsets of the parameters."""
        ws = Workspace(tiny_model)
        assert ws.grad.params() is ws.grads
        assert not np.shares_memory(ws.grads.flat, tiny_model.params().flat)
        assert_one_flat_vector(ws.grad,
                               block_order(tiny_model, str(tmp_path / "m")))

    def test_zero_grads_is_one_zeroed_vector(self, tiny_model):
        params = tiny_model.params()
        a, b = params.zeros_like(), params.zeros_like()
        assert not np.shares_memory(a.flat, b.flat)
        assert a.flat.shape == tiny_model.params().flat.shape
        assert not a.flat.any()


class TestModelConfigValidate:
    @pytest.mark.parametrize("key", ["seq_len", "channels", "n_experts",
                                     "latent_dim", "hidden_dim",
                                     "head_hidden", "enc_layers",
                                     "dec_hidden", "router_hidden"])
    @pytest.mark.parametrize("value", [0, -3, 2.0, "4"])
    def test_sizes_are_integers_of_at_least_one(self, key, value):
        ModelConfig(**{key: 1})
        with pytest.raises(ConfigError, match=key):
            ModelConfig(**{key: value})

    def test_head_hidden_may_be_unset(self):
        ModelConfig(head_hidden=None)

    @pytest.mark.parametrize("key", ["delta", "expert_init_scale",
                                     "expert_spread_base"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf"), 10 ** 400, "0.1",
                                       None])
    def test_reals_are_finite(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ModelConfig(**{key: value})

    @pytest.mark.parametrize("freqs", [(1.0, float("nan")), (float("inf"),),
                                       ("a",)])
    def test_time_freqs_are_finite(self, freqs):
        with pytest.raises(ConfigError, match="time_freqs"):
            ModelConfig(time_freqs=freqs)

    def test_unknown_activation(self):
        with pytest.raises(ConfigError, match="activation"):
            ModelConfig(activation="relu")

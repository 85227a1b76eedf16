import numpy as np
import pytest

from prismflow.flowpath import encode
from prismflow.model import ModelConfig, PrismFlowModel
from prismflow.numcore import RngStream, mlp_apply


def vanilla_euler_generate(model, n: int, steps: int,
                           rng: RngStream) -> np.ndarray:
    """Reference flow-matching sampler: Euler on the global field only."""
    s, d = model.cfg.seq_len, model.cfg.channels
    x = rng.generator().standard_normal((n, s, d))
    dt = 1.0 / steps
    for i in range(steps):
        b = x.shape[0]
        tvec = np.full(b, i / steps)
        h, _ = encode(model, x, tvec)
        v, _ = mlp_apply(model.head, h)
        x = x + v.reshape(x.shape) * dt
    return x


@pytest.fixture
def tiny_model():
    """S=8, D=2, d_z=4, K=2, hidden 8."""
    cfg = ModelConfig(seq_len=8, channels=2, n_experts=2, latent_dim=4,
                      hidden_dim=8, dec_hidden=8, router_hidden=8)
    return PrismFlowModel.init(cfg, RngStream(0))


@pytest.fixture
def tiny_batch():
    gen = RngStream(1).generator()
    x1 = gen.standard_normal((4, 8, 2))
    x0 = gen.standard_normal((4, 8, 2))
    t = gen.uniform(size=4)
    return x0, x1, t

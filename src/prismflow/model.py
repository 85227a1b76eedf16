"""Model assembly: the global velocity estimator, Koopman expert bank,
projector/decoder pair, and router, with a flat named-parameter view for
the optimizer and checkpointing."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import checkpoint as ckpt
from .errors import ConfigError, ParseError
from .flowpath import DEFAULT_TIME_FREQS
from .experts import assemble_operator
from .numcore import Mlp, RngStream, mlp_blocks

# fixed child-stream ids for reproducible initialization
_STREAM_ENCODER = 1
_STREAM_HEAD = 2
_STREAM_PROJECTOR = 3
_STREAM_DECODER = 4
_STREAM_ROUTER = 5
_STREAM_EXPERTS = 6


@dataclass
class ModelConfig:
    seq_len: int = 24
    channels: int = 5
    n_experts: int = 4
    latent_dim: int = 16
    delta: float = 0.05
    hidden_dim: int = 48
    head_hidden: int | None = 32  # width of the global head's hidden
    # layer (None: same as hidden_dim). Kept a bit narrower than the
    # trunk so part of the structure must flow through the expert
    # residuals rather than the monolithic field.
    enc_layers: int = 2
    dec_hidden: int = 64
    router_hidden: int = 64
    time_freqs: tuple = DEFAULT_TIME_FREQS
    activation: str = "tanh"
    expert_init_scale: float = 0.1
    # "random": i.i.d. normal (S, R). "spread": add a deterministic
    # block rotation to S^k at rate expert_spread_base * 2^k, giving the
    # bank spectrally distinct operators from the start so competition
    # can attach dynamically distinct data regimes to distinct experts.
    expert_init: str = "random"
    expert_spread_base: float = 0.25

    def validate(self) -> None:
        if self.expert_init not in ("random", "spread"):
            raise ConfigError(f"unknown expert_init {self.expert_init!r}")
        if self.seq_len < 1 or self.channels < 1:
            raise ConfigError("seq_len and channels must be >= 1")
        if self.n_experts < 1:
            raise ConfigError("n_experts must be >= 1")
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be >= 1")
        if self.delta < 0:
            raise ConfigError("delta must be >= 0")


class PrismFlowModel:
    """All learnable state of the generator.

    Networks: `encoder` (shared trunk), `head` (global velocity),
    `projector` (trunk -> latent), `decoder` (latent pair -> residual
    velocity, shared across experts), `router` (time features + trunk ->
    expert logits). Experts hold raw (S, R) pairs; the dissipative
    operators are derived on demand.
    """

    def __init__(self, cfg: ModelConfig, encoder, head, projector, decoder,
                 router, expert_s, expert_r, norm_shift=None, norm_scale=None):
        cfg.validate()
        self.cfg = cfg
        self.encoder = encoder
        self.head = head
        self.projector = projector
        self.decoder = decoder
        self.router = router
        self.expert_s = expert_s  # list of (d_z, d_z) arrays
        self.expert_r = expert_r
        self.norm_shift = norm_shift  # per-channel, set when trained on
        self.norm_scale = norm_scale  # normalized data

    @classmethod
    def init(cls, cfg: ModelConfig, rng: RngStream) -> "PrismFlowModel":
        cfg.validate()
        sd = cfg.seq_len * cfg.channels
        tf = 2 * len(cfg.time_freqs)
        enc_dims = [sd + tf] + [cfg.hidden_dim] * cfg.enc_layers
        encoder = Mlp.init(enc_dims, rng.child(_STREAM_ENCODER), cfg.activation)
        head_mid = cfg.head_hidden or cfg.hidden_dim
        head = Mlp.init([cfg.hidden_dim, head_mid, sd],
                        rng.child(_STREAM_HEAD), cfg.activation)
        projector = Mlp.init([cfg.hidden_dim, cfg.latent_dim],
                             rng.child(_STREAM_PROJECTOR), cfg.activation)
        decoder = Mlp.init([2 * cfg.latent_dim, cfg.dec_hidden, sd],
                           rng.child(_STREAM_DECODER), cfg.activation)
        router = Mlp.init([tf + cfg.hidden_dim, cfg.router_hidden, cfg.n_experts],
                          rng.child(_STREAM_ROUTER), cfg.activation)
        gen = rng.child(_STREAM_EXPERTS).generator()
        scale = cfg.expert_init_scale / np.sqrt(cfg.latent_dim)
        expert_s = [gen.normal(0.0, scale, (cfg.latent_dim, cfg.latent_dim))
                    for _ in range(cfg.n_experts)]
        expert_r = [gen.normal(0.0, scale, (cfg.latent_dim, cfg.latent_dim))
                    for _ in range(cfg.n_experts)]
        if cfg.expert_init == "spread":
            rot = np.zeros((cfg.latent_dim, cfg.latent_dim))
            for i in range(0, cfg.latent_dim - 1, 2):
                rot[i, i + 1] = 1.0
                rot[i + 1, i] = -1.0
            for k in range(cfg.n_experts):
                expert_s[k] += cfg.expert_spread_base * (2.0 ** k) * rot
        return cls(cfg, encoder, head, projector, decoder, router,
                   expert_s, expert_r)

    # -- expert bank view ------------------------------------------------

    @property
    def n_experts(self) -> int:
        return self.cfg.n_experts

    def operator(self, k: int) -> np.ndarray:
        return assemble_operator(self.expert_s[k], self.expert_r[k],
                                 self.cfg.delta)

    # -- flat parameter view ---------------------------------------------

    _MLPS = ("encoder", "head", "projector", "decoder", "router")

    def params(self) -> dict:
        out = {}
        for name in self._MLPS:
            net = getattr(self, name)
            out.update(mlp_blocks(f"{name}.", net.weights, net.biases))
        for k in range(self.n_experts):
            out[f"expert{k}.S"] = self.expert_s[k]
            out[f"expert{k}.R"] = self.expert_r[k]
        return out

    def zero_grads(self) -> dict:
        return {name: np.zeros_like(p) for name, p in self.params().items()}

    @staticmethod
    def pack_mlp_grads(grads: dict, name: str, wgrads, bgrads,
                       scale: float = 1.0) -> None:
        for key, g in mlp_blocks(f"{name}.", wgrads, bgrads).items():
            grads[key] += scale * g

    def bump_versions(self) -> None:
        for name in self._MLPS:
            getattr(self, name).bump_version()

    # -- checkpointing ---------------------------------------------------

    def save(self, path: str, extra_header: dict | None = None) -> None:
        header = {"model_config": asdict(self.cfg)}
        header["model_config"]["time_freqs"] = list(self.cfg.time_freqs)
        header["mlp_dims"] = {n: list(getattr(self, n).layer_dims)
                              for n in self._MLPS}
        header["normalization"] = None
        if self.norm_shift is not None:
            header["normalization"] = {"shift": list(np.asarray(self.norm_shift)),
                                       "scale": list(np.asarray(self.norm_scale))}
        if extra_header:
            header.update(extra_header)
        ckpt.save_checkpoint(path, header, self.params())

    @classmethod
    def load(cls, path: str) -> "PrismFlowModel":
        header, blocks = ckpt.load_checkpoint(path)
        try:
            mc = dict(header["model_config"])
            mc["time_freqs"] = tuple(mc["time_freqs"])
            # a fresh model has exactly the blocks and shapes the config
            # implies; the checkpoint's blocks then replace its values
            model = cls.init(ModelConfig(**mc), RngStream(0))
            norm = header["normalization"]
            if norm:
                model.norm_shift = np.asarray(norm["shift"], dtype=np.float64)
                model.norm_scale = np.asarray(norm["scale"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: malformed checkpoint header: "
                             f"{exc!r}") from None
        dims = {n: list(getattr(model, n).layer_dims) for n in cls._MLPS}
        if header.get("mlp_dims") != dims:
            raise ParseError(f"{path}: mlp_dims {header.get('mlp_dims')} do "
                             f"not match the model config ({dims})")
        params = model.params()
        if blocks.keys() != params.keys():
            missing = sorted(params.keys() - blocks.keys())
            extra = sorted(blocks.keys() - params.keys())
            raise ParseError(f"{path}: block set does not match the model "
                             f"config: missing {missing}, unexpected {extra}")
        for name, p in params.items():
            # rows == 1 blocks come back 1-D
            if np.atleast_2d(blocks[name]).shape != np.atleast_2d(p).shape:
                raise ParseError(f"{path}: block {name!r} has shape "
                                 f"{blocks[name].shape}, expected {p.shape}")
            p[...] = blocks[name].reshape(p.shape)
        model.extra_header = {k: v for k, v in header.items()
                              if k not in ("model_config", "mlp_dims",
                                           "normalization")}
        return model

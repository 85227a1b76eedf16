"""Model assembly: the global velocity estimator, Koopman expert bank,
projector/decoder pair, and router, all views of one flat parameter
vector (laid out by `param_layout`) that optimizer and checkpoint share."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import checkpoint as ckpt
from .errors import (ConfigError, NumericError, ParseError, check_int,
                     check_real)
from .flowpath import DEFAULT_TIME_FREQS
from .experts import assemble_operator
from .numcore import ACTIVATIONS, Mlp, Params, RngStream, mlp_shapes

# fixed child-stream ids for reproducible initialization, per network
_MLP_STREAMS = dict(encoder=1, head=2, projector=3, decoder=4, router=5)
_STREAM_EXPERTS = 6

_SIZES = ("seq_len", "channels", "n_experts", "latent_dim", "hidden_dim",
          "enc_layers", "dec_hidden", "router_hidden")


@dataclass(frozen=True)
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

    def __post_init__(self):
        sizes = {key: getattr(self, key) for key in _SIZES}
        if self.head_hidden is not None:
            sizes["head_hidden"] = self.head_hidden
        for key, value in sizes.items():
            check_int(key, value, 1)
        check_real("delta", self.delta, least=0)
        for key in ("expert_init_scale", "expert_spread_base"):
            check_real(key, getattr(self, key))
        for f in self.time_freqs:
            check_real("time_freqs", f)
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.expert_init not in ("random", "spread"):
            raise ConfigError(f"unknown expert_init {self.expert_init!r}")


def param_layout(cfg: ModelConfig) -> tuple[dict, dict]:
    """The parameter layout, by arithmetic on the config: each network's
    layer widths (the checkpoint header's `mlp_dims`) and every block's
    name and shape, in flat-vector and checkpoint order."""
    sd = cfg.seq_len * cfg.channels
    tf = 2 * len(cfg.time_freqs)
    dims = {"encoder": [sd + tf] + [cfg.hidden_dim] * cfg.enc_layers,
            "head": [cfg.hidden_dim, cfg.head_hidden or cfg.hidden_dim, sd],
            "projector": [cfg.hidden_dim, cfg.latent_dim],
            "decoder": [2 * cfg.latent_dim, cfg.dec_hidden, sd],
            "router": [tf + cfg.hidden_dim, cfg.router_hidden,
                       cfg.n_experts]}
    shapes = {}
    for name, widths in dims.items():
        shapes.update(mlp_shapes(f"{name}.", widths))
    for k in range(cfg.n_experts):
        shapes[f"expert{k}.S"] = shapes[f"expert{k}.R"] = (cfg.latent_dim,) * 2
    return dims, shapes


class PrismFlowModel:
    """All learnable state of the generator.

    Networks: `encoder` (shared trunk), `head` (global velocity),
    `projector` (trunk -> latent), `decoder` (latent pair -> residual
    velocity, shared across experts), `router` (time features + trunk ->
    expert logits). Experts hold raw (S, R) pairs; the dissipative
    operators are derived on demand.
    """

    def __init__(self, cfg: ModelConfig, params: Params, norm_shift=None,
                 norm_scale=None):
        """`params` holds the blocks of `param_layout(cfg)`, in order."""
        self.cfg, self._params = cfg, params
        for name, widths in param_layout(cfg)[0].items():
            setattr(self, name,
                    Mlp.view(params, f"{name}.", widths, cfg.activation))
        # the expert blocks, last in the layout: one (K, 2, d_z, d_z) view,
        # [k, 0] expert k's S and [k, 1] its R
        k, d = cfg.n_experts, cfg.latent_dim
        self.expert_pairs = params.flat[-2 * k * d * d:].reshape(k, 2, d, d)
        self.norm_shift = norm_shift  # per-channel, set when trained on
        self.norm_scale = norm_scale  # normalized data

    @classmethod
    def init(cls, cfg: ModelConfig, rng: RngStream) -> "PrismFlowModel":
        model = cls(cfg, Params(param_layout(cfg)[1]))
        for name, stream in _MLP_STREAMS.items():
            getattr(model, name).draw(rng.child(stream))
        gen = rng.child(_STREAM_EXPERTS).generator()
        scale = cfg.expert_init_scale / np.sqrt(cfg.latent_dim)
        for block in model.expert_pairs.swapaxes(0, 1):  # each S, then R
            block[...] = gen.normal(0.0, scale, block.shape)
        if cfg.expert_init == "spread":
            rot = np.zeros((cfg.latent_dim, cfg.latent_dim))
            for i in range(0, cfg.latent_dim - 1, 2):
                rot[i, i + 1] = 1.0
                rot[i + 1, i] = -1.0
            for k, s in enumerate(model.expert_pairs[:, 0]):
                s += cfg.expert_spread_base * (2.0 ** k) * rot
        return model

    # -- expert bank view ------------------------------------------------

    @property
    def n_experts(self) -> int:
        return self.cfg.n_experts

    def operators(self) -> np.ndarray:
        """The (K, d_z, d_z) bank of every expert's generator, in expert
        order, that one training step or one sampling call assembles once.
        An overflow is a NumericError naming the first expert it hits."""
        with np.errstate(over="ignore", invalid="ignore"):
            bank = assemble_operator(self.expert_pairs[:, 0],
                                     self.expert_pairs[:, 1], self.cfg.delta)
        if not np.isfinite(bank).all():
            bad = ~np.isfinite(bank).all(axis=(1, 2))
            raise NumericError(f"expert {np.argmax(bad)} has a non-finite "
                               f"operator")
        return bank

    # -- flat parameter store --------------------------------------------

    def params(self) -> Params:
        """Every parameter block by name, in layout order, over `.flat`."""
        return self._params

    def bump_versions(self) -> None:
        for name in _MLP_STREAMS:
            getattr(self, name).bump_version()

    # -- checkpointing ---------------------------------------------------

    def save(self, path: str, extra_header: dict | None = None) -> None:
        header = {"model_config": asdict(self.cfg)}
        header["model_config"]["time_freqs"] = list(self.cfg.time_freqs)
        header["mlp_dims"] = param_layout(self.cfg)[0]
        header["normalization"] = None
        if self.norm_shift is not None:
            header["normalization"] = {"shift": list(np.asarray(self.norm_shift)),
                                       "scale": list(np.asarray(self.norm_scale))}
        if extra_header:
            header.update(extra_header)
        ckpt.save_checkpoint(path, header, self._params)

    @classmethod
    def load(cls, path: str) -> "PrismFlowModel":
        """Read a checkpoint whose header config validates and whose layout
        matches its `mlp_dims` and block table (checked before anything is
        allocated), with finite parameters and normalization stats."""
        header, blocks = ckpt.load_checkpoint(path)
        try:
            mc = dict(header["model_config"])
            mc["time_freqs"] = tuple(mc["time_freqs"])
            cfg = ModelConfig(**mc)
            norm = header["normalization"]
            shift = scale = None
            if norm:
                shift = np.asarray(norm["shift"], dtype=np.float64)
                scale = np.asarray(norm["scale"], dtype=np.float64)
        except (KeyError, TypeError, ValueError, OverflowError,
                ConfigError) as exc:
            raise ParseError(f"{path}: malformed checkpoint header: "
                             f"{exc!r}") from None
        # each encoder layer and each expert has blocks of its own
        if cfg.enc_layers + cfg.n_experts > len(blocks):
            raise ParseError(f"{path}: the model config needs more blocks "
                             f"than the {len(blocks)} stored")
        dims, shapes = param_layout(cfg)
        if header.get("mlp_dims") != dims:
            raise ParseError(f"{path}: mlp_dims {header.get('mlp_dims')} do "
                             f"not match the model config ({dims})")
        # block names and shapes as stored: rows == 1 blocks come back 1-D
        table = {name: np.atleast_2d(a).shape for name, a in blocks.items()}
        want = {name: (1,) * (2 - len(s)) + s for name, s in shapes.items()}
        if table != want:
            missing = sorted(want.items() - table.items())
            extra = sorted(table.items() - want.items())
            raise ParseError(f"{path}: block table does not match the model "
                             f"config: missing {missing}, unexpected {extra}")
        if shift is not None and not (
                shift.shape == scale.shape == (cfg.channels,)
                and np.isfinite(shift).all() and np.isfinite(scale).all()
                and np.all(scale != 0.0)):
            raise ParseError(f"{path}: normalization needs {cfg.channels} "
                             f"finite shifts and nonzero finite scales")
        params = Params(shapes, np.concatenate([blocks[name].ravel()
                                                for name in shapes]))
        bad = params.first_nonfinite()
        if bad is not None:
            raise ParseError(f"{path}: block {bad!r} holds a non-finite value")
        model = cls(cfg, params, shift, scale)
        model.extra_header = {k: v for k, v in header.items()
                              if k not in ("model_config", "mlp_dims",
                                           "normalization")}
        return model

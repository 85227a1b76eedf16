import hashlib
import json
import warnings

import numpy as np
import pytest
from conftest import (FrozenObjective, ReferenceAdam, balance_alone,
                      cfm_alone, finite_difference_check,
                      frozen_total_loss_fn, reference_total_loss,
                      traced_peak, wta_alone)

import prismflow.flowpath as flowpath_module
import prismflow.model as model_module
import prismflow.router as router_module
import prismflow.trainer as trainer_module
from prismflow.checkpoint import atomic_write_lines
from prismflow.errors import (ConfigError, ContractViolation, NumericError,
                              ShapeError)
from prismflow.flowpath import encode, trunk_forward
from prismflow.model import ModelConfig, PrismFlowModel
from prismflow.numcore import (AdamState, Params, RngStream, Workspace,
                               adam_update)
from prismflow.trainer import (LAMBDA_KINDS, TrainConfig, fit,
                               lambda_schedule, load_config_file, total_loss,
                               train_step)


def tiny(n_experts):
    """The `tiny_model` shapes with K = n_experts."""
    return PrismFlowModel.init(ModelConfig(
        seq_len=8, channels=2, n_experts=n_experts, latent_dim=4,
        hidden_dim=8, dec_hidden=8, router_hidden=8), RngStream(0))


class TestLambdaSchedule:
    def test_constant_is_one(self):
        np.testing.assert_array_equal(
            lambda_schedule("constant", np.array([0.0, 0.3, 1.0])), 1.0)

    def test_linear_ramp_is_identity(self):
        t = np.array([0.0, 0.25, 1.0])
        np.testing.assert_array_equal(lambda_schedule("linear-ramp", t), t)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            lambda_schedule("cosine", np.zeros(2))


class TestTotalLoss:
    def test_is_weighted_sum_of_parts(self, tiny_model, tiny_batch):
        x0, x1, t = tiny_batch
        cfg = TrainConfig(alpha_w=0.7, alpha_b=0.3)
        value, _, parts, _ = total_loss(tiny_model, x0, x1, t, cfg)
        assert value == pytest.approx(
            parts["cfm"] + 0.7 * parts["wta"] + 0.3 * parts["bal"],
            rel=1e-12)

    def test_zero_weights_reduce_to_flow_matching(self, tiny_model,
                                                  tiny_batch):
        x0, x1, t = tiny_batch
        cfg = TrainConfig(alpha_w=0.0, alpha_b=0.0)
        value, grads, parts, _ = total_loss(tiny_model, x0, x1, t, cfg)
        assert value == pytest.approx(parts["cfm"], rel=1e-12)
        for k in range(tiny_model.n_experts):
            assert np.all(grads[f"expert{k}.S"] == 0.0)

    def test_global_head_gets_flow_gradient_only(self, tiny_model,
                                                 tiny_batch):
        x0, x1, t = tiny_batch
        big = TrainConfig(alpha_w=5.0, alpha_b=5.0)
        none = TrainConfig(alpha_w=0.0, alpha_b=0.0)
        _, g1, _, _ = total_loss(tiny_model, x0, x1, t, big)
        _, g0, _, _ = total_loss(tiny_model, x0, x1, t, none)
        for name in g1:
            if name.startswith("head"):
                np.testing.assert_array_equal(g1[name], g0[name])

    def test_negative_weight_rejected(self, tiny_model, tiny_batch):
        x0, x1, t = tiny_batch
        with pytest.raises(ConfigError):
            total_loss(tiny_model, x0, x1, t,
                       TrainConfig(alpha_w=-1.0))

    def test_losing_experts_get_exactly_zero_gradient(self,
                                                      four_expert_model,
                                                      tiny_batch):
        model = four_expert_model
        x0, x1, t = tiny_batch
        _, grads, _, info = total_loss(model, x0, x1, t, TrainConfig())
        losers = [k for k in range(model.n_experts) if k not in info.winners]
        assert losers
        for k in losers:
            assert np.all(grads[f"expert{k}.S"] == 0.0)
            assert np.all(grads[f"expert{k}.R"] == 0.0)

    def test_gradients_match_finite_differences(self, tiny_model, tiny_batch):
        x0, x1, t = tiny_batch
        cfg = TrainConfig(alpha_w=1.0, alpha_b=1.0, beta=0.5)
        fn = frozen_total_loss_fn(tiny_model, x0, x1, t, cfg)
        err = finite_difference_check(fn, tiny_model.params(), 1e-5)
        assert err < 1e-4

    # the two-point stencil (step 1e-5) reads 2.25e-4 and 1.48e-3 here
    @pytest.mark.parametrize("variant", [dict(activation="softplus"),
                                         dict(channels=1),
                                         dict(n_experts=1)],
                             ids=["softplus", "D1", "K1"])
    def test_five_point_gradients_match(self, variant):
        kw = dict(seq_len=8, channels=2, n_experts=2, latent_dim=4,
                  hidden_dim=8, dec_hidden=8, router_hidden=8)
        model = PrismFlowModel.init(ModelConfig(**{**kw, **variant}),
                                    RngStream(0))
        gen = RngStream(1).generator()
        shape = (4, 8, model.cfg.channels)
        x1, x0 = gen.standard_normal(shape), gen.standard_normal(shape)
        t = gen.uniform(size=4)
        cfg = TrainConfig(alpha_w=1.0, alpha_b=1.0, beta=0.5)
        _, grads, _, info = total_loss(model, x0, x1, t, cfg)
        for k in set(range(model.n_experts)) - set(info.winners):
            assert not grads[f"expert{k}.S"].any()
            assert not grads[f"expert{k}.R"].any()
        fn = frozen_total_loss_fn(model, x0, x1, t, cfg)
        err = finite_difference_check(fn, model.params(), 1e-3, points=5)
        assert err < 1e-4


class TestFrozenObjective:
    """The finite-difference oracle differences the objective it checks:
    at the current parameters its frozen values are the objective's."""

    @pytest.mark.parametrize("kind", LAMBDA_KINDS)
    @pytest.mark.parametrize("n_experts", [1, 4])
    def test_frozen_values_equal_the_objective(self, tiny_batch, kind,
                                               n_experts):
        cfg = ModelConfig(seq_len=8, channels=2, n_experts=n_experts,
                          latent_dim=4, hidden_dim=8, dec_hidden=8,
                          router_hidden=8)
        model = PrismFlowModel.init(cfg, RngStream(0))
        x0, x1, t = tiny_batch
        tcfg = TrainConfig(alpha_w=0.7, alpha_b=0.3, beta=0.5,
                           lambda_kind=kind)
        frozen = FrozenObjective(model, x0, x1, t, tcfg)
        value, _, _, _ = total_loss(model, x0, x1, t, tcfg)
        wta, _, _ = wta_alone(model, x0, x1, t, tcfg,
                              lam=lambda_schedule(kind, t))
        assert frozen.total() == pytest.approx(value, rel=1e-12)
        assert frozen.wta() == pytest.approx(wta, rel=1e-12)


class TestFusedTotalLoss:
    """The one-pass objective against the sum of the three terms, each run
    on its own trunk pass."""

    # "live": the winners, the global velocity and the balance features
    # all come from the current parameters; the reference runs the router
    # at K = 1 too, where `total_loss` does not
    @pytest.mark.parametrize("kind,n_experts", [
        *((kind, 4) for kind in LAMBDA_KINDS), ("constant", 1)],
        ids=[*(f"live-{kind}" for kind in LAMBDA_KINDS), "one-expert"])
    def test_matches_sum_of_public_objectives(self, tiny_batch, kind,
                                              n_experts):
        model = tiny(n_experts)
        x0, x1, t = tiny_batch
        cfg = TrainConfig(alpha_w=0.7, alpha_b=0.3, beta=0.5,
                          lambda_kind=kind)
        value, grads, parts, info = total_loss(model, x0, x1, t, cfg)
        ref_value, ref_grads, ref_parts, ref_info = reference_total_loss(
            model, x0, x1, t, cfg)
        assert value == pytest.approx(ref_value, rel=1e-12)
        for key, ref in ref_parts.items():
            assert parts[key] == pytest.approx(ref, rel=1e-12)
        np.testing.assert_array_equal(info.winners, ref_info.winners)
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(grads[name], ref, rtol=0, atol=1e-10,
                                       err_msg=name)
            if n_experts == 1 and name.startswith("router."):
                # +0.0 bit for bit, so Adam leaves the router where it is
                assert not grads[name].any(), name
                assert not np.signbit(grads[name]).any(), name

    @pytest.mark.parametrize("n_experts,runs", [(1, 0), (4, 1)])
    def test_router_runs_only_for_two_or_more_experts(self, tiny_batch,
                                                      monkeypatch,
                                                      n_experts, runs):
        """One expert's gate is the constant 1: `total_loss` runs the
        router forward once at K = 4 and not at all at K = 1."""
        calls = {"route": 0, "router_logits": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # count the calls made through every module that holds each one
        for name in calls:
            fn = getattr(router_module, name)
            for module in (router_module, trainer_module):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted(name, fn))
        x0, x1, t = tiny_batch
        total_loss(tiny(n_experts), x0, x1, t, TrainConfig())
        assert calls == {"route": runs, "router_logits": runs}

    def test_one_trunk_forward(self, tiny_model, tiny_batch, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return encode(*args)

        # count the calls made through every module that holds `encode`
        for module in (flowpath_module, router_module, trainer_module):
            if getattr(module, "encode", None) is encode:
                monkeypatch.setattr(module, "encode", counted)
        x0, x1, t = tiny_batch
        total_loss(tiny_model, x0, x1, t, TrainConfig())
        assert len(calls) == 1

    def test_decoder_backward_on_winner_rows_only(self, four_expert_model,
                                                  tiny_batch, monkeypatch):
        model = four_expert_model
        rows = []
        original = router_module.mlp_gradients

        def recorded(net, tape, upstream, *rest):
            if net is model.decoder:
                rows.append(upstream.shape[0])
            return original(net, tape, upstream, *rest)

        monkeypatch.setattr(router_module, "mlp_gradients", recorded)
        x0, x1, t = tiny_batch
        total_loss(model, x0, x1, t, TrainConfig())
        assert rows == [x0.shape[0]]

    def test_one_config_check_and_one_bank_per_call(self, four_expert_model,
                                                    tiny_batch, monkeypatch):
        """The training config is checked once, when it is made: counts
        the self-checks (`__post_init__`) of every class the trainer and
        the router hold that has one, and the operator assemblies, inside
        the call."""
        with pytest.raises(ConfigError, match="^wta_eps must be > 0$"):
            TrainConfig(wta_eps=0.0)
        cfg = TrainConfig()
        calls = {"config_checks": 0, "assemble_operator": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        classes = {cls for module in (router_module, trainer_module)
                   for cls in vars(module).values()
                   if isinstance(cls, type) and "__post_init__" in vars(cls)}
        assert TrainConfig in classes
        for cls in classes:
            monkeypatch.setattr(cls, "__post_init__",
                                counted("config_checks", cls.__post_init__))
        monkeypatch.setattr(model_module, "assemble_operator", counted(
            "assemble_operator", model_module.assemble_operator))
        x0, x1, t = tiny_batch
        total_loss(four_expert_model, x0, x1, t, cfg)
        assert calls == {"config_checks": 0, "assemble_operator": 1}


class TestTrainConfig:
    @pytest.mark.parametrize("key", ["lr", "alpha_w", "alpha_b", "beta",
                                     "wta_eps", "prob_floor",
                                     "divergence_guard"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**{key: value})

    def test_negative_lr_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=-1e-3)

    def test_negative_beta_rejected(self):
        TrainConfig(beta=0.0)
        with pytest.raises(ConfigError, match="^beta must be >= 0$"):
            TrainConfig(beta=-1e-3)

    def test_zero_wta_eps_rejected(self):
        with pytest.raises(ConfigError, match="^wta_eps must be > 0$"):
            TrainConfig(wta_eps=0.0)

    @pytest.mark.parametrize("guard", [0.0, -5.0])
    def test_non_positive_divergence_guard_rejected(self, guard):
        TrainConfig(divergence_guard=1e-12)
        with pytest.raises(ConfigError,
                           match="^divergence_guard must be > 0$"):
            TrainConfig(divergence_guard=guard)

    def test_negative_epochs_rejected(self):
        TrainConfig(epochs=0)
        with pytest.raises(ConfigError, match="epochs"):
            TrainConfig(epochs=-1)

    @pytest.mark.parametrize("key,value", [("epochs", 2.5),
                                           ("batch_size", 2.5),
                                           ("batch_size", 4.0),
                                           ("epochs", "3")])
    def test_non_integer_counts_rejected(self, key, value):
        TrainConfig(**{key: np.int64(3)})
        with pytest.raises(ConfigError, match=f"^{key} must be an integer"):
            TrainConfig(**{key: value})


class TestFlatAdam:
    def test_bitwise_equal_to_per_block_update(self, tiny_model, tiny_batch):
        """Five real training steps on every parameter block of a model,
        applied by the flat update and by the per-block reference."""
        x0, x1, t = tiny_batch
        cfg = TrainConfig(beta=0.5)
        params = tiny_model.params()
        mirror = {name: p.copy() for name, p in params.items()}
        opt = AdamState.create(params, lr=0.01)
        ref = ReferenceAdam(mirror, lr=0.01)
        shapes = {name: p.shape for name, p in params.items()}
        opt_m, opt_v = Params(shapes, opt.m), Params(shapes, opt.v)
        for step in range(5):
            _, grads, _, _ = total_loss(tiny_model, x0 * (1 + step), x1, t,
                                        cfg)
            adam_update(opt, params, grads)
            ref.update(mirror, grads)
            for name, p in params.items():
                np.testing.assert_array_equal(p, mirror[name], err_msg=name)
                np.testing.assert_array_equal(opt_m[name], ref.m[name])
                np.testing.assert_array_equal(opt_v[name], ref.v[name])
        assert opt.step == ref.step == 5


class TestTrainStep:
    def test_updates_parameters(self, tiny_model, tiny_batch):
        _, x1, _ = tiny_batch
        cfg = TrainConfig()
        opt = AdamState.create(tiny_model.params(), lr=cfg.lr)
        before = {n: p.copy() for n, p in tiny_model.params().items()}
        m = train_step(tiny_model, opt, x1, RngStream(3), cfg)
        after = tiny_model.params()
        assert any(not np.array_equal(before[n], after[n]) for n in before)
        assert np.isfinite(m["total"])
        assert m["usage"].sum() == x1.shape[0]

    def test_lr_zero_leaves_model_unchanged(self, tiny_model, tiny_batch):
        _, x1, _ = tiny_batch
        cfg = TrainConfig(lr=0.0)
        opt = AdamState.create(tiny_model.params(), lr=0.0)
        before = {n: p.copy() for n, p in tiny_model.params().items()}
        train_step(tiny_model, opt, x1, RngStream(3), cfg)
        for n, p in tiny_model.params().items():
            np.testing.assert_array_equal(before[n], p)

    def test_divergence_guard(self, tiny_model, tiny_batch):
        _, x1, _ = tiny_batch
        cfg = TrainConfig(divergence_guard=1e-12)
        opt = AdamState.create(tiny_model.params(), lr=cfg.lr)
        with pytest.raises(NumericError):
            train_step(tiny_model, opt, x1 * 10.0, RngStream(3), cfg)


class TestFit:
    def windows(self, n=32):
        gen = RngStream(9).generator()
        return gen.standard_normal((n, 8, 2)) * 0.5

    def test_deterministic_given_seed(self):
        mc = ModelConfig(seq_len=8, channels=2, n_experts=2, latent_dim=4,
                         hidden_dim=8, dec_hidden=8, router_hidden=8)
        tc = TrainConfig(epochs=2, batch_size=16, seed=5)
        w = self.windows()
        m1, r1 = fit(w, mc, tc)
        m2, r2 = fit(w, mc, tc)
        for n, p in m1.params().items():
            np.testing.assert_array_equal(p, m2.params()[n])
        assert r1[0]["cfm"] == r2[0]["cfm"]

    def test_loss_decreases(self):
        mc = ModelConfig(seq_len=8, channels=2, n_experts=2, latent_dim=4,
                         hidden_dim=16, dec_hidden=8, router_hidden=8)
        tc = TrainConfig(epochs=15, batch_size=16, seed=0)
        _, rows = fit(self.windows(64), mc, tc)
        first = rows[0]["cfm"]
        last = rows[-1]["cfm"]
        assert last < first

    def test_report_serializes_to_jsonl(self, tmp_path):
        mc = ModelConfig(seq_len=8, channels=2, n_experts=2, latent_dim=4,
                         hidden_dim=8, dec_hidden=8, router_hidden=8)
        tc = TrainConfig(epochs=2, batch_size=16)
        _, rows = fit(self.windows(), mc, tc)
        path = tmp_path / "report.jsonl"
        atomic_write_lines(str(path), map(json.dumps, rows))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 2
        assert {"epoch", "cfm", "wta", "bal", "usage"} <= rows[0].keys()

    def test_leaves_caller_config_unchanged(self):
        mc = ModelConfig(n_experts=2, latent_dim=4, hidden_dim=8,
                         dec_hidden=8, router_hidden=8)
        before = ModelConfig(**vars(mc))
        model, _ = fit(self.windows(), mc, TrainConfig(epochs=1))
        assert mc == before
        assert (model.cfg.seq_len, model.cfg.channels,
                model.n_experts) == (8, 2, 2)

    def test_rejects_bad_windows(self):
        mc = ModelConfig(seq_len=8, channels=2)
        with pytest.raises(ContractViolation):
            fit(np.zeros((4, 8)), mc, TrainConfig(epochs=1))

    @pytest.mark.filterwarnings("error")
    def test_one_expert_takes_no_confidence_backward(self):
        """At K = 1 the confidence term's router gradient is exactly zero
        and is not formed. Formed, its weight beta * alpha_w / B is past
        float range here, and -inf * (1 - 1) is NaN, which reached the
        encoder's gradient and stopped `fit`."""
        windows = RngStream(9).generator().standard_normal((40, 16, 1))
        model, _ = fit(windows, ModelConfig(n_experts=1),
                       TrainConfig(epochs=2, batch_size=8, beta=1e308,
                                   alpha_w=1e3))
        assert np.isfinite(model.params().flat).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta,alpha_w,wta_eps", [
        (1e308, 1e3, 1e-8), (1e300, 1.0, 1e-9), (1.0, 1.0, 5e-324)],
        ids=["beta", "wta_eps", "subnormal-eps"])
    def test_overflowing_confidence_weight_is_refused_before_a_step(
            self, monkeypatch, beta, alpha_w, wta_eps):
        """At K >= 2 the confidence term's gradient scales by beta * w /
        (p_win + wta_eps), w <= alpha_w. Past float range it overflowed
        mid-run, with numpy warnings; `fit` refuses it before any step."""
        monkeypatch.setattr(trainer_module, "train_step",
                            lambda *args: pytest.fail("a step ran"))
        windows = RngStream(9).generator().standard_normal((40, 16, 1))
        with pytest.raises(ConfigError, match=r"beta \* alpha_w / wta_eps "
                           r"must be a finite float with n_experts >= 2"):
            fit(windows, ModelConfig(n_experts=2),
                TrainConfig(epochs=2, batch_size=8, beta=beta,
                            alpha_w=alpha_w, wta_eps=wta_eps))

    def test_overflowing_confidence_scores_are_refused_before_a_step(
            self, monkeypatch):
        """At K >= 2 each score's confidence part, -beta * log(p +
        wta_eps), and a batch's sum of them must stay in float range even
        when alpha_w is small enough to pass the rule above; past it the
        first step overflowed in `wta_scores` with a numpy warning."""
        monkeypatch.setattr(trainer_module, "train_step",
                            lambda *args: pytest.fail("a step ran"))
        windows = RngStream(9).generator().standard_normal((40, 16, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"^batch_size \* beta \* "
                               r"max\(-log\(wta_eps\), log1p\(wta_eps\)\) "
                               r"must be a finite float with n_experts >= 2, "
                               r"got 8, 1.7e\+308 and 1e-08$"):
                fit(windows, ModelConfig(n_experts=2),
                    TrainConfig(epochs=2, batch_size=8, beta=1.7e308,
                                alpha_w=1e-9))

    def test_a_confidence_weight_in_float_range_is_not_refused(self):
        """Just inside float range the weight is not refused: such a run
        stops on the divergence guard, as before."""
        windows = RngStream(9).generator().standard_normal((40, 16, 1))
        with pytest.raises(NumericError, match="training diverged"):
            fit(windows, ModelConfig(n_experts=2),
                TrainConfig(epochs=1, batch_size=8, beta=1e299))


class TestWindowWidth:
    """The trunk pass refuses windows whose S*D differs from the model's
    with a ShapeError, before any net runs: in `total_loss`, and in each
    term run on its own, all of which take it through `trunk_forward`."""

    @pytest.mark.parametrize("shape", [(4, 9, 2), (4, 8, 3)],
                             ids=["longer", "wider"])
    @pytest.mark.parametrize("objective", [
        total_loss, wta_alone, balance_alone,
        lambda model, x0, x1, t, cfg: cfm_alone(model, x0, x1, t),
        lambda model, x0, x1, t, cfg: trunk_forward(model, x0, x1, t,
                                                    Workspace(model))],
        ids=["total_loss", "wta_loss", "balance_loss_and_grads",
             "cfm_loss", "trunk_forward"])
    def test_other_window_widths_are_refused(self, tiny_model, objective,
                                             shape):
        gen = RngStream(3).generator()
        x0, x1 = gen.standard_normal((2,) + shape)
        with pytest.raises(ShapeError):
            objective(tiny_model, x0, x1, gen.uniform(size=4), TrainConfig())


# model variants of the seeded-fit pin, each the four-expert model with one
# setting changed, and the SHA-256 of the parameter vector after `fit`
FIT_PINS = {
    "tanh": ({}, "51d36ac1b642432df42e95ce8d765270"
                 "a5cb1398054af888ea8952aed7ca1e33"),
    "softplus": (dict(activation="softplus"),
                 "6718d9bee5acda84cb4d47365fae3c6e"
                 "8315d3b75fa014598f1231f784d57866"),
    "k1": (dict(n_experts=1), "5f7f6be2ed2603279cd0d8ede76fcbe8"
                              "be62cbeb4da78dad70bcc5c64b08ec8c"),
    "head_hidden_none": (dict(head_hidden=None),
                         "214146b184601ff925a02cd2cd4e458f"
                         "42870e6cb39bba463eb5f6e4894c6932"),
    "spread": (dict(expert_init="spread"),
               "e9d11065ca380eb7f6ba9b907301e787"
               "c27d7c8a9ec08184582c0c1d64d254f8"),
}


@pytest.mark.parametrize("variant", list(FIT_PINS))
def test_seeded_fit_is_pinned_bit_for_bit(variant):
    """Nine steps of `fit`, the last batch a short one, give the same
    parameter bytes as the code the literals were captured from."""
    settings, want = FIT_PINS[variant]
    mc = ModelConfig(**{**dict(seq_len=8, channels=2, n_experts=4,
                               latent_dim=4, hidden_dim=8, dec_hidden=8,
                               router_hidden=8), **settings})
    windows = RngStream(9).generator().standard_normal((20, 8, 2)) * 0.5
    model, _ = fit(windows, mc, TrainConfig(epochs=3, batch_size=8, seed=7))
    assert hashlib.sha256(model.params().flat.tobytes()).hexdigest() == want


# the acceptance shape (S=64, D=1, hidden 48, B=128), one epoch, the last
# batch 44 rows or 1 (a one-row product takes BLAS's matrix-vector path),
# and the SHA-256 of the parameter vector after `fit`
ACCEPTANCE_PINS = {
    (4, 300): "c10c597e6aa36cb3ca3a4d91cd1c34db"
              "0e40108edc40b6d995c458f931b236f8",
    (4, 257): "f2602d1e77995506c1a1b5bdde526d12"
              "43f8dd1255edf92ab2864467267e6991",
    (1, 300): "d11633845ee94e9171d789d6716cac18"
              "6e7ff3ac2bc198157a04ad0cdea76896",
    (1, 257): "ed646d5c4f2b421a0f72a7c51cf9b427"
              "f1d432678689d54052bb8ef1f2013594",
}


@pytest.mark.parametrize("n_experts,n", list(ACCEPTANCE_PINS),
                         ids=lambda v: str(v))
def test_acceptance_shape_fit_is_pinned_bit_for_bit(n_experts, n):
    windows = RngStream(9).generator().standard_normal((n, 64, 1)) * 0.5
    model, _ = fit(windows, ModelConfig(seq_len=64, channels=1, hidden_dim=48,
                                        n_experts=n_experts),
                   TrainConfig(epochs=1, batch_size=128, seed=7))
    assert hashlib.sha256(model.params().flat.tobytes()).hexdigest() == \
        ACCEPTANCE_PINS[n_experts, n]


# the gradient store of one `total_loss` at the acceptance shape on a fresh
# model, and its SHA-256: any change to the bytes the backward adds, the
# sign of a zero included, shows here, while the fit pins see it only
# through Adam
GRADIENT_PINS = {
    "k4": (4, {}, "5fa6649ca6115c1cf55e8f30286edf6c"
                  "330d4cc301f5c96adbae6f84e927e01d"),
    "k1": (1, {}, "7eab31564a2455546c232a56eeb6e2b1"
                  "9f8d252d6441bcbe4ebc9fd78cc58de9"),
    "late_gate": (4, dict(beta=0.5, lambda_kind="late-gate"),
                  "12b3200268f1aaed0b2a71ae705be82a"
                  "818c43c0449254d217cfbf8f20d9f4e4"),
}


@pytest.mark.parametrize("variant", list(GRADIENT_PINS))
def test_acceptance_shape_gradients_are_pinned_bit_for_bit(variant):
    n_experts, settings, want = GRADIENT_PINS[variant]
    model = PrismFlowModel.init(ModelConfig(seq_len=64, channels=1,
                                            hidden_dim=48,
                                            n_experts=n_experts),
                                RngStream(7))
    gen = RngStream(9).generator()
    x1 = gen.standard_normal((128, 64, 1)) * 0.5
    x0 = gen.standard_normal(x1.shape)
    t = gen.uniform(size=128)
    _, grads, _, _ = total_loss(model, x0, x1, t, TrainConfig(**settings))
    assert hashlib.sha256(grads.flat.tobytes()).hexdigest() == want


# expert relabellings of the acceptance shape: expert j of the relabelled
# model is expert perm[j] of the original, and so is router output j (K=2
# has only these two)
RELABELLINGS = [(2, (1, 0)), (2, (0, 1)), (4, (1, 0, 2, 3)),
                (4, (1, 2, 3, 0)), (4, (3, 2, 1, 0))]
# the router terms sum over the experts, and a relabelling reorders those
# sums: a probe of these cases saw the router and encoder gradients move
# by at most 3.5e-18
RELABEL_ATOL = 1e-16


def relabelled(cfg, flat, perm):
    """A model over a copy of a parameter or gradient vector, with its
    expert blocks and its router's last-layer columns in `perm` order."""
    model = PrismFlowModel(cfg, Params(model_module.param_layout(cfg)[1],
                                       flat.copy()))
    perm = list(perm)
    model.expert_pairs[...] = model.expert_pairs[perm]
    for a in (model.router.weights[-1], model.router.biases[-1]):
        a[...] = a[:, perm]
    return model


@pytest.mark.parametrize("n_experts,perm", RELABELLINGS,
                         ids=[f"k{k}-" + "".join(map(str, p))
                              for k, p in RELABELLINGS])
def test_relabelling_the_experts_relabels_the_objective(n_experts, perm):
    """The experts are exchangeable: relabelling them leaves the loss
    bitwise equal and relabels the winners and every gradient block."""
    cfg = ModelConfig(seq_len=64, channels=1, hidden_dim=48,
                      n_experts=n_experts)
    model = PrismFlowModel.init(cfg, RngStream(7))
    other = relabelled(cfg, model.params().flat, perm)
    gen = RngStream(9).generator()
    x1 = gen.standard_normal((128, 64, 1)) * 0.5
    x0 = gen.standard_normal(x1.shape)
    t = gen.uniform(size=128)
    # without the router terms every block is relabelled bitwise; with
    # them, the router and encoder blocks within RELABEL_ATOL
    for settings, loose in ((dict(beta=0.0, alpha_b=0.0), ()),
                            ({}, ("router.", "encoder."))):
        tc = TrainConfig(**settings)
        value, grads, _, info = total_loss(model, x0, x1, t, tc)
        value2, grads2, _, info2 = total_loss(other, x0, x1, t, tc)
        assert value2 == value
        np.testing.assert_array_equal(np.array(perm)[info2.winners],
                                      info.winners)
        want = relabelled(cfg, grads.flat, perm).params()
        for name, block in grads2.items():
            if name.startswith(loose):
                np.testing.assert_allclose(block, want[name], rtol=0,
                                           atol=RELABEL_ATOL, err_msg=name)
            else:
                np.testing.assert_array_equal(block, want[name], name)


def test_fit_checks_its_config_once(monkeypatch):
    """The training config is checked once, when it is made, and not in
    the nine steps of the FIT_PINS set-up, which assemble the operator
    bank once a step."""
    with pytest.raises(ConfigError, match="^batch_size must be >= 1$"):
        TrainConfig(epochs=3, batch_size=0, seed=7)
    cfg = TrainConfig(epochs=3, batch_size=8, seed=7)
    calls = {"config_checks": 0, "assemble_operator": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(TrainConfig, "__post_init__",
                        counted("config_checks", TrainConfig.__post_init__))
    monkeypatch.setattr(model_module, "assemble_operator", counted(
        "assemble_operator", model_module.assemble_operator))
    mc = ModelConfig(seq_len=8, channels=2, n_experts=4, latent_dim=4,
                     hidden_dim=8, dec_hidden=8, router_hidden=8)
    windows = RngStream(9).generator().standard_normal((20, 8, 2)) * 0.5
    fit(windows, mc, cfg)
    assert calls == {"config_checks": 0, "assemble_operator": 9}


def test_steady_state_step_allocates_little(monkeypatch):
    """Inside `fit` at the acceptance shape, every step after the first of
    its batch size reuses the fit's arrays: its traced peak stays under
    half of the 2.75 MiB of a step that allocates them afresh."""
    step, seen, peaks = trainer_module.train_step, set(), []

    def traced(model, opt, batch, *rest):
        if batch.shape[0] not in seen:
            seen.add(batch.shape[0])
            return step(model, opt, batch, *rest)
        out, peak = traced_peak(step, model, opt, batch, *rest)
        peaks.append(peak)
        return out

    monkeypatch.setattr(trainer_module, "train_step", traced)
    windows = RngStream(9).generator().standard_normal((300, 64, 1)) * 0.5
    fit(windows, ModelConfig(seq_len=64, channels=1, hidden_dim=48),
        TrainConfig(epochs=2, batch_size=128, seed=7))
    assert len(peaks) == 4
    assert max(peaks) < 2.75 * 2**20 / 2


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[train]\nepochs = 3\nlr = 0.01\n"
                        "[model]\nlatent_dim = 8\n")
        cfg = load_config_file(str(path))
        assert cfg["train"]["epochs"] == "3"
        assert cfg["model"]["latent_dim"] == "8"

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config_file("/nonexistent/run.ini")

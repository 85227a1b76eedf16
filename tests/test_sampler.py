import warnings

import numpy as np
import pytest

import oracles
import prismflow.experts as experts_module
import prismflow.sampler as sampler_module
from conftest import (child_peak_rss_mb, global_velocity, reference_velocity,
                      vanilla_euler_generate)
from prismflow.datasets import (gen_bimodal_frequency, load_csv_windows,
                                normalize)
from prismflow.errors import (ConfigError, ContractViolation, NumericError,
                              ShapeError)
from prismflow.experts import expert_bank
from prismflow.flowpath import encode, time_features
from prismflow.model import ModelConfig, PrismFlowModel
from prismflow.numcore import Params, RngStream, Tape
from prismflow.router import endpoint, route, router_logits
from prismflow.sampler import (ConditionMask, SamplerConfig, _global_vjp,
                               _velocity, export_samples, generate,
                               generate_conditional, residual_velocity_step,
                               step_time_features)
from prismflow.trainer import TrainConfig, fit


def constant_field(model, c):
    """Make the model's velocity field identically c (experts silent)."""
    for net in (model.encoder, model.head, model.decoder):
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
    model.head.biases[-1][:] = c
    model.bump_versions()


class TestSamplerConfig:
    def test_bad_steps(self):
        with pytest.raises(ConfigError):
            SamplerConfig(steps=0)

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            SamplerConfig(mode="extrapolation")

    def test_negative_guidance(self):
        with pytest.raises(ConfigError):
            SamplerConfig(eta_g=-0.5)

    @pytest.mark.parametrize("steps", [2.5, 4.0, "4"])
    def test_non_integer_steps(self, steps):
        with pytest.raises(ConfigError, match="^steps must be an integer"):
            SamplerConfig(steps=steps)

    @pytest.mark.parametrize("key", ["gamma", "eta_g"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            SamplerConfig(**{key: value})


class TestGenerate:
    def test_shape_and_determinism(self, tiny_model):
        cfg = SamplerConfig(steps=5)
        a = generate(tiny_model, 3, cfg, RngStream(7))
        b = generate(tiny_model, 3, cfg, RngStream(7))
        assert a.shape == (3, 8, 2)
        np.testing.assert_array_equal(a, b)

    def test_zero_residual_weight_matches_plain_euler_bitwise(self,
                                                              tiny_model):
        cfg = SamplerConfig(steps=9, gamma=0.0)
        ours = generate(tiny_model, 4, cfg, RngStream(3))
        ref = vanilla_euler_generate(tiny_model, 4, 9, RngStream(3))
        assert np.array_equal(ours, ref)

    def test_constant_field_integration_exact(self, tiny_model):
        constant_field(tiny_model, 1.75)
        x_ref = RngStream(11).generator().standard_normal((2, 8, 2))
        for steps in (1, 3, 17, 100):
            out = generate(tiny_model, 2, SamplerConfig(steps=steps),
                           RngStream(11))
            np.testing.assert_allclose(out, x_ref + 1.75, atol=1e-12)

    def test_residual_correction_changes_path(self, tiny_model):
        on = generate(tiny_model, 2, SamplerConfig(steps=5, gamma=1.0),
                      RngStream(5))
        off = generate(tiny_model, 2, SamplerConfig(steps=5, gamma=0.0),
                       RngStream(5))
        assert np.abs(on - off).max() > 0.0

    def test_empty_batch(self, tiny_model):
        out = generate(tiny_model, 0, SamplerConfig(steps=3), RngStream(0))
        assert out.shape == (0, 8, 2)

    @pytest.mark.parametrize("gamma", [1.0, 0.0])
    def test_matches_steps_that_assemble_their_own_operators(self, tiny_model,
                                                             gamma):
        cfg = SamplerConfig(steps=7, gamma=gamma)
        x = RngStream(12).generator().standard_normal((5, 8, 2))
        for i in range(cfg.steps):
            bank = expert_bank(tiny_model.operators()) if gamma else None
            tf = time_features(np.full(5, i / cfg.steps),
                               tiny_model.cfg.time_freqs)
            x = residual_velocity_step(tiny_model, x, tf, cfg, bank)
        assert np.array_equal(generate(tiny_model, 5, cfg, RngStream(12)), x)


class TestResidualVelocityStep:
    def test_single_step_euler_identity(self, tiny_model):
        constant_field(tiny_model, -0.5)
        x = np.ones((1, 8, 2))
        tf = time_features(np.zeros(1), tiny_model.cfg.time_freqs)
        out = residual_velocity_step(tiny_model, x, tf,
                                     SamplerConfig(steps=4),
                                     expert_bank(tiny_model.operators()))
        np.testing.assert_allclose(out, x - 0.5 / 4.0, atol=1e-15)


class TestConditionMask:
    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            ConditionMask(np.ones((2, 2), bool), np.zeros((3, 2))).validate()

    def test_empty_mask(self):
        with pytest.raises(ContractViolation):
            ConditionMask(np.zeros((2, 2), bool), np.zeros((2, 2))).validate()

    def test_nan_observed(self):
        vals = np.full((2, 2), np.nan)
        with pytest.raises(ContractViolation):
            ConditionMask(np.ones((2, 2), bool), vals).validate()

    def test_window_count_mismatch(self):
        with pytest.raises(ContractViolation, match=r"\(3, 2, 2\)"):
            ConditionMask(np.ones((3, 2, 2), bool),
                          np.zeros((2, 2, 2))).validate()

    def test_empty_window_mask(self):
        mask = np.ones((3, 2, 2), bool)
        mask[2] = False
        with pytest.raises(ContractViolation, match="window 2"):
            ConditionMask(mask, np.zeros((3, 2, 2))).validate()

    def test_no_windows(self):
        with pytest.raises(ContractViolation):
            ConditionMask(np.ones((0, 2, 2), bool),
                          np.zeros((0, 2, 2))).validate()

    def test_mask_rank(self):
        with pytest.raises(ContractViolation):
            ConditionMask(np.ones(4, bool), np.zeros(4)).validate()


class TestGenerateConditional:
    def cond(self, model, fill=0.3):
        mask = np.zeros((8, 2), dtype=bool)
        mask[::2, 0] = True
        values = np.where(mask, fill, 0.0)
        return ConditionMask(mask, values)

    def test_requires_conditional_mode(self, tiny_model):
        with pytest.raises(ContractViolation):
            generate_conditional(tiny_model, self.cond(tiny_model),
                                 SamplerConfig(mode="unconditional"),
                                 RngStream(0))

    def test_observed_entries_match_exactly(self, tiny_model):
        cond = self.cond(tiny_model)
        out = generate_conditional(tiny_model, cond,
                                   SamplerConfig(steps=6, mode="imputation"),
                                   RngStream(2))
        assert out.shape == (1, 8, 2)
        np.testing.assert_array_equal(out[0][cond.mask],
                                      cond.values[cond.mask])

    def test_guidance_pulls_free_entries_with_still_field(self, tiny_model):
        # zero velocity field: guidance alone must move masked coords
        # toward the observed values before the final clamp, and leave
        # unobserved coordinates on the unguided path
        constant_field(tiny_model, 0.0)
        for w in tiny_model.projector.weights:
            w[:] = 0.0
        tiny_model.bump_versions()
        cond = self.cond(tiny_model, fill=2.0)
        cfg = SamplerConfig(steps=50, mode="imputation", eta_g=1.0)
        x0 = RngStream(4).generator().standard_normal((1, 8, 2))
        out = generate_conditional(tiny_model, cond, cfg, RngStream(4))
        np.testing.assert_array_equal(out[0][~cond.mask], x0[0][~cond.mask])

    @pytest.mark.parametrize("exact", [False, True])
    def test_batch_matches_one_window_calls(self, tiny_model, exact):
        gen = RngStream(8).generator()
        mask = gen.uniform(size=(3, 8, 2)) < 0.5
        values = np.where(mask, gen.standard_normal((3, 8, 2)), 0.0)
        cfg = SamplerConfig(steps=6, mode="imputation",
                            exact_guidance=exact)
        out = generate_conditional(tiny_model, ConditionMask(mask, values),
                                   cfg, RngStream(2, 10))
        assert out.shape == (3, 8, 2)
        for i in range(3):
            one = generate_conditional(tiny_model,
                                       ConditionMask(mask[i], values[i]),
                                       cfg, RngStream(2, 10 + i))
            np.testing.assert_allclose(out[i], one[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stream", [0, 7, 2**63 - 4])
    def test_starting_noise_is_each_windows_fresh_stream(self, tiny_model,
                                                         stream,
                                                         monkeypatch):
        """The windows' starting noise is bit for bit what a new generator
        of each window's stream draws: with no steps to take, the call
        returns it where nothing is observed."""
        monkeypatch.setattr(sampler_module, "step_time_features",
                            lambda model, steps, n: np.empty((0, n, 8)))
        mask = np.zeros((4, 8, 2), dtype=bool)
        mask[:, 0, 0] = True
        out = generate_conditional(
            tiny_model, ConditionMask(mask, np.where(mask, 0.5, 0.0)),
            SamplerConfig(steps=3, mode="imputation"), RngStream(11, stream))
        for i in range(4):
            want = RngStream(11, stream + i).generator().standard_normal(16)
            free = ~mask[i]
            assert out[i][free].tobytes() == \
                want.reshape(8, 2)[free].tobytes()

    def test_window_shape_must_match_model(self, tiny_model):
        cond = ConditionMask(np.ones((2, 4, 2), bool), np.zeros((2, 4, 2)))
        with pytest.raises(ShapeError):
            generate_conditional(tiny_model, cond,
                                 SamplerConfig(mode="imputation"),
                                 RngStream(0))

    def test_exact_guidance_runs(self, tiny_model):
        cond = self.cond(tiny_model)
        cfg = SamplerConfig(steps=4, mode="forecasting", exact_guidance=True)
        out = generate_conditional(tiny_model, cond, cfg, RngStream(1))
        assert np.all(np.isfinite(out))

    def test_exact_guidance_vjp_matches_central_differences(self, tiny_model):
        """The endpoint-Jacobian term of exact guidance is u^T dv/dx of
        the global field v (encoder and head) at the step's time."""
        check_global_vjp(tiny_model)


def check_global_vjp(model):
    """The sampler's VJP against central differences of the global field,
    and bit for bit against the VJP on the reference velocity's tapes."""
    s, d = model.cfg.seq_len, model.cfg.channels
    gen = RngStream(13).generator()
    x = gen.standard_normal((3, s, d))
    u = gen.standard_normal((3, s * d))
    t, step = 0.3, 1e-6
    tf = np.tile(time_features(t, model.cfg.time_freqs), (3, 1))
    _, enc_tape, head_tape = _velocity(model, x, tf, SamplerConfig(gamma=0.0),
                                       None, taped=True)
    got = _global_vjp(model, enc_tape, head_tape, u)
    # bit for bit the VJP on the tapes of the reference velocity
    _, tapes = reference_velocity(model, x, t, SamplerConfig(gamma=0.0), None)
    assert got.tobytes() == _global_vjp(model, *tapes, u).tobytes()

    def f(xs):
        v = global_velocity(model, xs, np.full(len(xs), t))
        return np.sum(u.reshape(x.shape) * v, axis=(1, 2))

    want = np.empty_like(x)
    for idx in np.ndindex(*x.shape[1:]):
        e = np.zeros_like(x)
        e[(slice(None),) + idx] = step
        want[(slice(None),) + idx] = (f(x + e) - f(x - e)) / (2 * step)
    np.testing.assert_allclose(got.reshape(x.shape), want, rtol=1e-6,
                               atol=1e-9)


def route_everything_to(model, k):
    """Constant router logits that expert k wins on every row."""
    model.router.weights[-1][:] = 0.0
    model.router.biases[-1][:] = 0.0
    model.router.biases[-1][..., k] = 5.0
    model.bump_versions()


def reference_generate(model, n, cfg, rng):
    """Euler loop of generate over the reference velocity."""
    x = rng.generator().standard_normal((n, model.cfg.seq_len,
                                         model.cfg.channels))
    dt = 1.0 / cfg.steps
    ops = model.operators()
    for i in range(cfg.steps):
        v, _ = reference_velocity(model, x, i / cfg.steps, cfg, ops)
        x = x + v * dt
    return x


def reference_generate_conditional(model, mask, values, cfg, rng):
    """Guided Euler loop of generate_conditional over the reference
    velocity, for a per-window (n, S, D) condition."""
    n, s, d = mask.shape
    m = mask.astype(np.float64)
    y = np.where(mask, values, 0.0)
    x = np.empty((n, s, d))
    for i in range(n):
        x[i] = rng.child(rng.stream + i).generator().standard_normal((s, d))
    dt = 1.0 / cfg.steps
    ops = model.operators()
    for i in range(cfg.steps):
        t = i / cfg.steps
        v, tapes = reference_velocity(model, x, t, cfg, ops)
        xhat = endpoint(x, t, v)
        g = 2.0 * m * (xhat - y)
        if cfg.exact_guidance:
            upstream = (1.0 - t) * g.reshape(n, -1)
            g = g + _global_vjp(model, *tapes, upstream).reshape(n, s, d)
        x = x + (v - cfg.eta_g * g) * dt
    return np.where(mask, y, x)


def record_decodes(monkeypatch):
    """Row counts of every decode the sampler runs, in call order."""
    rows = []
    original = sampler_module.decode_experts

    def counted(model, bank, z, experts):
        rows.append(z.shape[0])
        return original(model, bank, z, experts)

    monkeypatch.setattr(sampler_module, "decode_experts", counted)
    return rows


def record_lone_rows(monkeypatch):
    """Rows that `reference_velocity` decodes as their expert's only row
    at some step, a 1-row product that takes BLAS's matrix-vector path."""
    lone = set()
    original = oracles.route

    def recorded(model, tf, h):
        probs, tape = original(model, tf, h)
        winners = np.argmax(probs, axis=1)
        lone.update(np.flatnonzero(np.bincount(winners)[winners] == 1))
        return probs, tape

    monkeypatch.setattr(oracles, "route", recorded)
    return lone


# (windows, expert that the router is fixed to, or None for its own choice)
STEP_CASES = {"batch1": (1, None), "one_expert": (6, 2), "mixed": (8, None)}


class TestLeanStep:
    """The sampler against Euler loops over `reference_velocity`, bit for
    bit but for rows the reference decodes alone: one table of time
    features per call, and one decode of the whole batch per step."""

    def model_for(self, model, case):
        if STEP_CASES[case][1] is not None:
            route_everything_to(model, STEP_CASES[case][1])
        return model

    def check_path(self, case, rows, steps):
        """One decode of all n rows per step."""
        assert rows == [STEP_CASES[case][0]] * steps

    @pytest.mark.parametrize("case", list(STEP_CASES))
    def test_generate_matches_reference_bitwise(self, four_expert_model,
                                                case, monkeypatch):
        model = self.model_for(four_expert_model, case)
        rows = record_decodes(monkeypatch)
        cfg = SamplerConfig(steps=7, gamma=1.0)
        n = STEP_CASES[case][0]
        got = generate(model, n, cfg, RngStream(21))
        want = reference_generate(model, n, cfg, RngStream(21))
        assert got.tobytes() == want.tobytes()
        self.check_path(case, rows, cfg.steps)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("case", list(STEP_CASES))
    def test_conditional_matches_reference_bitwise(self, four_expert_model,
                                                   case, exact, monkeypatch):
        model = self.model_for(four_expert_model, case)
        rows = record_decodes(monkeypatch)
        n = STEP_CASES[case][0]
        gen = RngStream(22).generator()
        mask = gen.uniform(size=(n, 8, 2)) < 0.5
        mask[:, 0, 0] = True
        values = np.where(mask, gen.standard_normal((n, 8, 2)), 0.0)
        cfg = SamplerConfig(steps=7, mode="imputation", eta_g=2.0,
                            exact_guidance=exact)
        # a batch of one goes in as the (S, D) condition every window shares
        cond = (ConditionMask(mask[0], values[0]) if n == 1
                else ConditionMask(mask, values))
        got = generate_conditional(model, cond, cfg, RngStream(23, 4))
        lone = record_lone_rows(monkeypatch)
        want = reference_generate_conditional(model, mask, values, cfg,
                                              RngStream(23, 4))
        self.check_path(case, rows, cfg.steps)
        if case != "mixed":
            assert got.tobytes() == want.tobytes()
            return
        # the sampler decodes every row in a multi-row product; only the
        # rows the reference decoded alone may differ, in their last bits
        alone = np.isin(np.arange(n), list(lone))
        assert alone.any()
        assert got[~alone].tobytes() == want[~alone].tobytes()
        np.testing.assert_allclose(got[alone], want[alone], rtol=1e-12,
                                   atol=0)

    def test_sub_batch_rows_match_full_batch_bitwise(self, four_expert_model):
        """A row's step does not depend on which other rows share its
        batch, even where its expert wins only that row."""
        model, n = four_expert_model, STEP_CASES["mixed"][0]
        x = RngStream(26).generator().standard_normal((n, 8, 2))
        cfg = SamplerConfig(steps=7)
        tf = step_time_features(model, cfg.steps, n)[0]
        winners = np.argmax(route(model, tf, encode(model, x, tf)[0])[0],
                            axis=1)
        counts = np.bincount(winners)[winners]
        rows = [np.flatnonzero(counts == 1)[0], np.flatnonzero(counts > 1)[0]]
        bank = expert_bank(model.operators())
        full = residual_velocity_step(model, x, tf, cfg, bank)
        sub = residual_velocity_step(model, x[rows], tf[rows], cfg, bank)
        assert sub.tobytes() == full[rows].tobytes()

    @pytest.mark.parametrize("steps", [1, 3, 7, 100])
    def test_time_feature_table_rows_are_scalar_features(self, tiny_model,
                                                         steps):
        freqs = tiny_model.cfg.time_freqs
        table = step_time_features(tiny_model, steps, 3)
        assert table.shape == (steps, 3, 2 * len(freqs))
        for i in range(steps):
            want = time_features(i / steps, freqs).tobytes()
            assert all(row.tobytes() == want for row in table[i])

    @pytest.mark.parametrize("case", ["one_expert", "mixed"])
    def test_nan_router_logit_raises(self, four_expert_model, case):
        model = self.model_for(four_expert_model, case)
        model.router.biases[-1][..., 1] = np.nan
        model.bump_versions()
        with pytest.raises(NumericError, match="router"):
            generate(model, STEP_CASES[case][0], SamplerConfig(steps=3),
                     RngStream(24))

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("case", ["one_expert", "mixed"])
    def test_nan_router_logit_raises_in_conditional(self, four_expert_model,
                                                    case, exact):
        model = self.model_for(four_expert_model, case)
        model.router.biases[-1][..., 1] = np.nan
        model.bump_versions()
        mask = np.zeros((STEP_CASES[case][0], 8, 2), dtype=bool)
        mask[:, ::2] = True
        cfg = SamplerConfig(steps=3, mode="imputation", exact_guidance=exact)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="router"):
                generate_conditional(
                    model, ConditionMask(mask, np.where(mask, 0.5, 0.0)),
                    cfg, RngStream(24))

    @pytest.mark.parametrize("case", ["one_expert", "mixed"])
    def test_non_finite_residual_names_its_expert(self, four_expert_model,
                                                  case, monkeypatch):
        model = self.model_for(four_expert_model, case)
        n = STEP_CASES[case][0]
        x0 = RngStream(25).generator().standard_normal((n, 8, 2))
        tf = step_time_features(model, 3, n)[0]
        probs, _ = route(model, tf, encode(model, x0, tf)[0])
        winners = np.argmax(probs, axis=1)
        k = int(winners.max())  # a winner decoded after any other
        assert (np.unique(winners).size > 1) == (case == "mixed")
        # a bank whose expert k maps every code to nan; assembling an
        # operator from parameters would reject it before any step
        bank = model.operators()
        bank[k] = np.full_like(bank[k], np.nan)
        monkeypatch.setattr(model, "operators", lambda: bank)
        rows = record_decodes(monkeypatch)
        with pytest.raises(NumericError, match=f"expert {k} produced"):
            generate(model, n, SamplerConfig(steps=3), RngStream(25))
        self.check_path(case, rows, 1)


class TestExportSamples:
    def test_round_trip(self, tmp_path):
        batch = RngStream(6).generator().standard_normal((3, 4, 2))
        path = tmp_path / "gen.csv"
        export_samples(batch, str(path))
        back = load_csv_windows(str(path), seq_len=4, mode="blocks")
        np.testing.assert_array_equal(back.windows, batch)

    def test_denormalizes_with_stats(self, tmp_path):
        batch = np.ones((1, 2, 1))
        path = tmp_path / "gen.csv"
        export_samples(batch, str(path), norm_shift=np.array([1.0]),
                       norm_scale=np.array([3.0]))
        back = load_csv_windows(str(path), seq_len=2, mode="blocks")
        np.testing.assert_array_equal(back.windows, 4.0 * batch)


def record_tapes(monkeypatch):
    """Every tape recorded, in order."""
    tapes = []
    init = Tape.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tapes.append(self)

    monkeypatch.setattr(Tape, "__init__", recorded)
    return tapes


def layer_widths(tapes):
    """Each tape's layer output widths, which tell the networks apart."""
    return [[pre.shape[1] for pre in tape.preacts] for tape in tapes]


class TestStepPlan:
    """What one sampling call does once and what each of its steps does,
    counted rather than timed."""

    def count_calls(self, monkeypatch, model):
        """Counts, from here on, the config checks (`SamplerConfig`'s
        `__post_init__`) and the operator bank assemblies."""
        counts = {"config_checks": 0, "operators": 0}
        check, operators = SamplerConfig.__post_init__, model.operators

        def counted_check(cfg):
            counts["config_checks"] += 1
            check(cfg)

        def counted_operators():
            counts["operators"] += 1
            return operators()

        monkeypatch.setattr(SamplerConfig, "__post_init__", counted_check)
        monkeypatch.setattr(model, "operators", counted_operators)
        return counts

    @pytest.mark.parametrize("gamma", [1.0, 0.0])
    def test_generate_checks_and_assembles_once(self, four_expert_model,
                                                gamma, monkeypatch):
        """The config is checked once, when it is made, and not again
        inside the call."""
        with pytest.raises(ConfigError, match="steps must be >= 1"):
            SamplerConfig(steps=0, gamma=gamma)
        cfg = SamplerConfig(steps=7, gamma=gamma)
        counts = self.count_calls(monkeypatch, four_expert_model)
        rows = record_decodes(monkeypatch)
        tapes = record_tapes(monkeypatch)
        generate(four_expert_model, 5, cfg, RngStream(31))
        assert counts == {"config_checks": 0,
                          "operators": int(gamma != 0.0)}
        assert rows == ([5] * 7 if gamma else [])
        assert tapes == []  # no pass of `generate` is back-propagated

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("gamma", [1.0, 0.0])
    def test_conditional_checks_and_assembles_once(self, four_expert_model,
                                                   gamma, exact,
                                                   monkeypatch):
        model = four_expert_model
        with pytest.raises(ConfigError, match="eta_g must be >= 0"):
            SamplerConfig(steps=7, gamma=gamma, eta_g=-1.0,
                          mode="imputation", exact_guidance=exact)
        cfg = SamplerConfig(steps=7, gamma=gamma, mode="imputation",
                            exact_guidance=exact)
        counts = self.count_calls(monkeypatch, model)
        rows = record_decodes(monkeypatch)
        tapes = record_tapes(monkeypatch)
        mask = np.zeros((3, 8, 2), dtype=bool)
        mask[:, ::2] = True
        generate_conditional(model, ConditionMask(mask, np.where(mask, 0.5,
                                                                 0.0)),
                             cfg, RngStream(32))
        assert counts == {"config_checks": 0,
                          "operators": int(gamma != 0.0)}
        assert rows == ([3] * 7 if gamma else [])
        # only the encoder and head passes are back-propagated, and only
        # by exact guidance: hidden 8 twice, then head hidden 32 and S*D
        assert layer_widths(tapes) == ([[8, 8], [32, 16]] * 7 if exact
                                       else [])

    def test_single_step_checks_once(self, four_expert_model, monkeypatch):
        model = four_expert_model
        ops = model.operators()
        with pytest.raises(ConfigError, match="gamma must be finite"):
            SamplerConfig(steps=7, gamma=float("nan"))
        cfg = SamplerConfig(steps=7)
        counts = self.count_calls(monkeypatch, model)
        x = RngStream(33).generator().standard_normal((4, 8, 2))
        tf = step_time_features(model, 7, 4)[2]
        residual_velocity_step(model, x, tf, cfg, expert_bank(ops))
        assert counts == {"config_checks": 0, "operators": 0}

    def test_state_check_names_the_guidance_step(self, tiny_model):
        cond = ConditionMask(np.ones((8, 2), bool), np.zeros((8, 2)))
        tiny_model.head.biases[-1][..., 3] = 1e308
        tiny_model.bump_versions()
        cfg = SamplerConfig(steps=5, mode="imputation", gamma=0.0)
        with pytest.raises(NumericError, match="guidance step 0"):
            generate_conditional(tiny_model, cond, cfg, RngStream(34))


@pytest.mark.parametrize("gamma", [1.0, 0.0])
def test_expert_bank_is_made_once_per_call(four_expert_model, gamma,
                                           monkeypatch):
    """The bank view of the operators is made once per sampling call, not
    once per row block, and never by a step's decode."""
    made = []
    original = experts_module.expert_bank

    def counted(ops):
        made.append(len(ops))
        return original(ops)

    for module in (sampler_module, experts_module):
        monkeypatch.setattr(module, "expert_bank", counted)
    monkeypatch.setattr(sampler_module, "BLOCK_ROWS", 2)
    rows = record_decodes(monkeypatch)
    model = four_expert_model
    generate(model, 5, SamplerConfig(steps=7, gamma=gamma), RngStream(51))
    mask = np.zeros((5, 8, 2), dtype=bool)
    mask[:, ::2] = True
    for exact in (False, True):
        generate_conditional(
            model, ConditionMask(mask, np.where(mask, 0.5, 0.0)),
            SamplerConfig(steps=7, gamma=gamma, mode="imputation",
                          exact_guidance=exact), RngStream(52))
    assert made == ([4] * 3 if gamma else [])
    # each call decodes two blocks, of 2 and 3 rows, 7 steps each
    assert rows == (([2] * 7 + [3] * 7) * 3 if gamma else [])


# model variants of the sweep: the four-expert model with one setting
# changed
VARIANTS = {
    "softplus": dict(activation="softplus"),
    "enc_layers1": dict(enc_layers=1),
    "enc_layers3": dict(enc_layers=3),
    "head_hidden_none": dict(head_hidden=None),
    "k1": dict(n_experts=1),
    "d1": dict(channels=1),
    "d3": dict(channels=3),
    "spread": dict(expert_init="spread"),
    "delta0": dict(delta=0.0),
}


def variant_model(name):
    cfg = dict(seq_len=8, channels=2, n_experts=4, latent_dim=4,
               hidden_dim=8, dec_hidden=8, router_hidden=8)
    cfg.update(VARIANTS[name])
    return PrismFlowModel.init(ModelConfig(**cfg), RngStream(0))


def assert_matches_reference(got, want, lone):
    """Bytes equal on every row the reference decoded in a multi-row
    product; a row it decoded alone (BLAS's matrix-vector path) may move
    in its last bits."""
    alone = np.isin(np.arange(len(got)), list(lone))
    if len(got) == 1:
        alone[:] = False  # both sides decode the one row alone
    assert got[~alone].tobytes() == want[~alone].tobytes()
    np.testing.assert_allclose(got[alone], want[alone], rtol=1e-12, atol=0)


@pytest.mark.parametrize("variant", list(VARIANTS))
class TestStepVariants:
    """The sampler over the model's configuration space, against the
    reference loops: `generate` at gamma 1 and 0, and guided imputation
    with and without exact guidance at batch 1 and 6."""

    @pytest.mark.parametrize("n", [1, 6])
    def test_generate_matches_references(self, variant, n, monkeypatch):
        model = variant_model(variant)
        cfg = SamplerConfig(steps=5)
        got = generate(model, n, cfg, RngStream(41))
        lone = record_lone_rows(monkeypatch)
        want = reference_generate(model, n, cfg, RngStream(41))
        assert_matches_reference(got, want, lone)
        plain = generate(model, n, SamplerConfig(steps=5, gamma=0.0),
                         RngStream(41))
        assert plain.tobytes() == vanilla_euler_generate(
            model, n, 5, RngStream(41)).tobytes()

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("n", [1, 6])
    def test_conditional_matches_reference(self, variant, n, exact,
                                           monkeypatch):
        model = variant_model(variant)
        s, d = model.cfg.seq_len, model.cfg.channels
        gen = RngStream(42).generator()
        mask = gen.uniform(size=(n, s, d)) < 0.5
        mask[:, 0, 0] = True
        values = np.where(mask, gen.standard_normal((n, s, d)), 0.0)
        cfg = SamplerConfig(steps=5, mode="imputation", eta_g=2.0,
                            exact_guidance=exact)
        cond = (ConditionMask(mask[0], values[0]) if n == 1
                else ConditionMask(mask, values))
        got = generate_conditional(model, cond, cfg, RngStream(43))
        lone = record_lone_rows(monkeypatch)
        want = reference_generate_conditional(model, mask, values, cfg,
                                              RngStream(43))
        assert_matches_reference(got, want, lone)

    def test_exact_guidance_vjp_matches_central_differences(self, variant):
        check_global_vjp(variant_model(variant))


def sampling_calls(model, n):
    """Every kind of sampling call on n windows, by name: `generate` at
    gamma 1 and 0, and guided imputation and forecasting with and without
    exact guidance."""
    s, d = model.cfg.seq_len, model.cfg.channels
    gen = RngStream(60).generator()
    masks = {"imputation": gen.uniform(size=(n, s, d)) < 0.5,
             "forecasting": np.zeros((n, s, d), dtype=bool)}
    masks["imputation"][:, 0, 0] = True
    masks["forecasting"][:, : s - 2] = True
    values = gen.standard_normal((n, s, d))
    calls = {f"gamma{g}": (lambda g=g: generate(
        model, n, SamplerConfig(steps=5, gamma=g), RngStream(61)))
        for g in (1.0, 0.0)}
    for mode, mask in masks.items():
        for exact in (False, True):
            cfg = SamplerConfig(steps=5, mode=mode, eta_g=2.0,
                                exact_guidance=exact)
            cond = ConditionMask(mask, np.where(mask, values, 0.0))
            calls[f"{mode}_exact{exact}"] = (
                lambda cfg=cfg, cond=cond: generate_conditional(
                    model, cond, cfg, RngStream(62)))
    return calls


class TestRowBlocks:
    """Sampling calls run their rows in blocks, each on a view of the model
    whose biases are repeated to the block's rows."""

    @pytest.mark.parametrize("n,blocks", [(9, [4, 5]), (10, [4, 4, 2])])
    def test_blocks_of_four_match_one_block_bitwise(self, four_expert_model,
                                                    n, blocks, monkeypatch):
        """At 4 rows a block, 9 rows would leave a one-row tail, which joins
        the block before it."""
        calls = sampling_calls(four_expert_model, n)
        want = {name: call().tobytes() for name, call in calls.items()}
        monkeypatch.setattr(sampler_module, "BLOCK_ROWS", 4)
        rows = record_decodes(monkeypatch)
        got = {name: call().tobytes() for name, call in calls.items()}
        assert got == want
        # gamma 1 and the four guided calls decode, each block per step
        assert rows == [b for b in blocks for _ in range(5)] * 5

    def test_bench_shape_blocks_match_one_block_bitwise(self, monkeypatch):
        """At the bench's shape (S=64, D=1, K=4, default widths) every
        layer's output width is a multiple of 4: `generate` of 512 windows
        and guided imputation of 300 run in blocks of 256 rows and give
        the bytes of one block."""
        model = PrismFlowModel.init(ModelConfig(seq_len=64, channels=1),
                                    RngStream(0))
        mask = RngStream(5).generator().uniform(size=(300, 64, 1)) < 0.5
        cond = ConditionMask(mask, np.where(mask, 0.5, 0.0))
        calls = [lambda gamma=gamma: generate(
            model, 512, SamplerConfig(steps=5, gamma=gamma), RngStream(1))
            for gamma in (1.0, 0.0)]
        calls += [lambda exact=exact: generate_conditional(
            model, cond, SamplerConfig(steps=5, mode="imputation",
                                       exact_guidance=exact), RngStream(2))
            for exact in (False, True)]
        rows = record_decodes(monkeypatch)
        blocks = [call().tobytes() for call in calls]
        # gamma 1 and both guided calls decode each block at each step
        assert rows == [256] * 10 + ([256] * 5 + [44] * 5) * 2
        monkeypatch.setattr(sampler_module, "BLOCK_ROWS", 4096)
        assert [call().tobytes() for call in calls] == blocks

    def test_per_step_experts_do_not_depend_on_the_block_size(
            self, four_expert_model, monkeypatch):
        """`oracles.per_step_experts` rebuilds each step's experts over a
        call's rows from one decode record per block and step, so what
        the acceptance suite's `sampled` measures does not change with
        BLOCK_ROWS."""
        records, original = [], sampler_module.decode_experts

        def recorded(model, bank, z, chosen):
            records.append(chosen)
            return original(model, bank, z, chosen)

        monkeypatch.setattr(sampler_module, "decode_experts", recorded)
        experts = {}
        for size, blocks in ((4, 2), (4096, 1)):
            monkeypatch.setattr(sampler_module, "BLOCK_ROWS", size)
            records.clear()
            generate(four_expert_model, 9, SamplerConfig(steps=5),
                     RngStream(61))
            assert len(records) == 5 * blocks
            experts[size] = oracles.per_step_experts(records, 5)
        assert experts[4].shape == (5, 9)
        assert len(np.unique(experts[4])) > 1
        assert experts[4].tobytes() == experts[4096].tobytes()

    def test_blocks_at_odd_widths_match_one_block_within_rounding(
            self, monkeypatch):
        """At output widths that are not multiples of 4, OpenBLAS 0.3.31
        rounded rows of a 1,030-row product differently from the same rows
        of a smaller one (here up to 1.6e-15 for the blocks and 4.4e-16
        for the first 7 rows), so blocks of a call, and a call on its
        first rows alone, agree with one block only to rounding."""
        cfg = ModelConfig(seq_len=16, channels=1, latent_dim=17,
                          hidden_dim=33, dec_hidden=17, router_hidden=17,
                          n_experts=3)
        model = PrismFlowModel.init(cfg, RngStream(0))

        def sample(n):
            return generate(model, n, SamplerConfig(steps=5), RngStream(1))

        blocks = sample(1030)  # four blocks of 256 rows and one of 6
        monkeypatch.setattr(sampler_module, "BLOCK_ROWS", 4096)
        whole = sample(1030)
        np.testing.assert_allclose(blocks, whole, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sample(7), whole[:7], rtol=0, atol=1e-12)

    def test_block_view_shares_weights_and_repeats_biases(self,
                                                          four_expert_model):
        model = four_expert_model
        view = model.batch_view(3)
        for name in ("encoder", "head", "projector", "decoder", "router"):
            net, block = getattr(model, name), getattr(view, name)
            assert all(a is b for a, b in zip(net.weights, block.weights))
            for b, rows in zip(net.biases, block.biases):
                assert rows.shape == (3, b.shape[1])
                assert (rows == b).all()
        assert view.expert_pairs.base is model.params().flat

    def test_peak_memory_does_not_grow_with_the_windows(self):
        """Only the windows themselves (10 MB at n = 20,000) grow with n;
        one batch of every row held about 67 MB more."""
        snippet = ("from prismflow.model import ModelConfig, PrismFlowModel\n"
                   "from prismflow.numcore import RngStream\n"
                   "from prismflow.sampler import SamplerConfig, generate\n"
                   "model = PrismFlowModel.init(ModelConfig(seq_len=64, "
                   "channels=1), RngStream(0))\n"
                   "generate(model, {n}, SamplerConfig(steps=3), "
                   "RngStream(1))")
        small = child_peak_rss_mb(snippet.format(n=1024))
        large = child_peak_rss_mb(snippet.format(n=20000))
        assert large - small < 25.0


@pytest.fixture(scope="module")
def bimodal_k4():
    """A seeded K=4 model trained a few epochs on the bimodal set."""
    ds = normalize(gen_bimodal_frequency(256, 16, 1, 2, 5, RngStream(3, 50)))
    model, _ = fit(ds.windows, ModelConfig(n_experts=4, latent_dim=4,
                                           hidden_dim=16, dec_hidden=16,
                                           router_hidden=16),
                   TrainConfig(seed=3, epochs=4, batch_size=32))
    return model


def relabelled(model, perm):
    """The model whose expert j is the given model's expert perm[j]: the
    expert pairs, the router's last-layer weight columns and its last
    bias entries permuted together."""
    out = PrismFlowModel(model.cfg, Params(
        {name: p.shape for name, p in model.params().items()},
        model.params().flat.copy()))
    out.expert_pairs[:] = model.expert_pairs[perm]
    out.router.weights[-1][:] = model.router.weights[-1][:, perm]
    out.router.biases[-1][:] = model.router.biases[-1][:, perm]
    return out


@pytest.mark.parametrize("perm", [[1, 0, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]])
def test_relabelling_the_experts_leaves_sampling_bitwise(bimodal_k4, perm):
    model, n = bimodal_k4, 12
    x = RngStream(70).generator().standard_normal((n, 16, 1))
    tf = step_time_features(model, 10, n)[5]
    winners = router_logits(model, tf, encode(model, x, tf)[0])[0].argmax(1)
    assert np.unique(winners).size > 1  # the labels decide something
    other = relabelled(model, perm)
    cfg = SamplerConfig(steps=10)
    assert generate(other, n, cfg, RngStream(71)).tobytes() == \
        generate(model, n, cfg, RngStream(71)).tobytes()
    mask = RngStream(72).generator().uniform(size=(n, 16, 1)) < 0.5
    mask[:, 0, 0] = True
    cond = ConditionMask(mask, np.where(mask, 0.5, 0.0))
    cfg = SamplerConfig(steps=10, mode="imputation", exact_guidance=True)
    assert generate_conditional(other, cond, cfg, RngStream(73)).tobytes() \
        == generate_conditional(model, cond, cfg, RngStream(73)).tobytes()

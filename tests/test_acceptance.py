"""End-to-end behavioral checks: exact algebraic identities, gradient
oracles, sampler equivalences, spectral recovery, and the desk-scale
generation experiments (regime routing, K-sweep, imputation)."""

import time
import warnings

import numpy as np
import pytest

import prismflow.sampler as sampler_module
from conftest import (balance_alone, cfm_alone, finite_difference_check,
                      frozen_total_loss_fn, frozen_wta_loss_fn, pooled,
                      power_spectrum, vanilla_euler_generate, wta_alone)
from prismflow.datasets import (gen_bimodal_frequency, gen_sines,
                                gen_velocity_mixture_diagnostic, normalize,
                                DiagnosticSpec, velocity_energy_gap)
from prismflow.experts import assemble_operator, operator_eigenvalues
from prismflow.flowpath import encode, interpolate_state, time_features
from prismflow.metrics import correlational_score, discriminative_score
from prismflow.model import ModelConfig, PrismFlowModel, param_layout
from prismflow.numcore import Params, RngStream
from prismflow.router import balance_loss
from prismflow.sampler import (ConditionMask, SamplerConfig, generate,
                               generate_conditional)
from prismflow.spectra import exact_dmd, spectral_overlap
from prismflow.trainer import TrainConfig, fit, total_loss

# shared experiment configuration for the bimodal-frequency runs
BIMODAL_SEEDS = (0, 1, 2, 3, 4)
BIMODAL_TRAIN = dict(epochs=300, batch_size=128)
BIMODAL_MODEL = dict(seq_len=64, channels=1)
DMD_RANK, DMD_DELAY = 10, 8


def small_model(seed=0):
    cfg = ModelConfig(seq_len=8, channels=2, n_experts=2, latent_dim=4,
                      hidden_dim=8, dec_hidden=8, router_hidden=8)
    return PrismFlowModel.init(cfg, RngStream(seed))


def small_batch(seed=1, b=4):
    gen = RngStream(seed).generator()
    x1 = gen.standard_normal((b, 8, 2))
    x0 = gen.standard_normal((b, 8, 2))
    t = gen.uniform(size=b)
    return x0, x1, t


# -- trained-model fixtures (shared across the expensive checks) ---------
# Their fits and generations run in `pooled` workers; a model goes to and
# from a worker as its config and flat parameters, since pickling a model
# would copy each of its views of the flat vector apart.

def fitted(windows, model_cfg, cfg, norm_shift=None, norm_scale=None):
    """A worker's `fit`: the model's (config, flat parameters, shift,
    scale), which `rebuilt` makes back into the model."""
    model, _ = fit(windows, model_cfg, cfg, norm_shift, norm_scale)
    return model.cfg, model.params().flat, model.norm_shift, model.norm_scale


def rebuilt(cfg, flat, norm_shift=None, norm_scale=None):
    return PrismFlowModel(cfg, Params(param_layout(cfg)[1], flat),
                          norm_shift, norm_scale)


def sampled(state, cfg, rng):
    """A worker's `generate` of 512 windows from the `fitted` state, and
    each step's argmax expert per window, (steps, 512), recorded the way
    `test_sampler.record_decodes` records decodes (empty at gamma 0)."""
    experts, original = [], sampler_module.decode_experts

    def recorded(model, bank, z, chosen):
        experts.append(chosen)
        return original(model, bank, z, chosen)

    sampler_module.decode_experts = recorded
    try:
        return generate(rebuilt(*state), 512, cfg, rng), np.array(experts)
    finally:
        sampler_module.decode_experts = original


@pytest.fixture(scope="session")
def acceptance_fits():
    """Every acceptance fit in one pool: the sines fit, the longest, goes
    first, and the ten bimodal fits (K=4, then K=1, per seed) run on the
    other workers beside it. Returns the sines dataset and `fitted`
    state, the bimodal datasets by seed and their states in that order."""
    sines = gen_sines(1000, 24, 1, rng=RngStream(7, 50))
    sets = {seed: normalize(gen_bimodal_frequency(2000, 64, 1, 2, 8,
                                                  RngStream(seed, 50)))
            for seed in BIMODAL_SEEDS}
    states = pooled([
        (fitted, sines.windows, ModelConfig(seq_len=24, channels=1,
                                            hidden_dim=128, head_hidden=128),
         TrainConfig(seed=7, epochs=800, batch_size=128), np.zeros(1),
         np.ones(1)),
        *((fitted, sets[seed].windows,
           ModelConfig(n_experts=k, **BIMODAL_MODEL),
           TrainConfig(seed=seed, **BIMODAL_TRAIN))
          for seed in BIMODAL_SEEDS for k in (4, 1))])
    return sines, states[0], sets, states[1:]


@pytest.fixture(scope="session")
def bimodal_runs(acceptance_fits):
    """Per seed: the normalized dataset, a trained default model (K=4),
    and a single-expert control trained identically."""
    _, _, sets, states = acceptance_fits
    return {seed: (sets[seed], rebuilt(*states[2 * i]),
                   rebuilt(*states[2 * i + 1]))
            for i, seed in enumerate(BIMODAL_SEEDS)}


@pytest.fixture(scope="session")
def bimodal_samples(bimodal_runs):
    """Per seed: generated batches for the full model, the residual-off
    ablation, and the single-expert control, from identical noise, and
    the full model's argmax experts per step."""
    runs = [(seed, net, gamma) for seed, (_, model, control)
            in bimodal_runs.items()
            for net, gamma in ((model, 1.0), (model, 0.0), (control, 1.0))]
    out = pooled([(sampled, (net.cfg, net.params().flat),
                   SamplerConfig(steps=100, gamma=gamma),
                   RngStream(seed, 901)) for seed, net, gamma in runs])
    return {seed: (out[3 * i][0], out[3 * i + 1][0], out[3 * i + 2][0],
                   out[3 * i][1])
            for i, seed in enumerate(bimodal_runs)}


@pytest.fixture(scope="session")
def sines_model(acceptance_fits):
    ds, state, _, _ = acceptance_fits
    return ds, rebuilt(*state)


# -- 1: operator stability ----------------------------------------------

@pytest.mark.parametrize("delta", [0.0, 0.05, 0.5])
def test_every_assembled_operator_is_dissipative(delta):
    start = time.perf_counter()
    gen = np.random.default_rng(12345 + int(delta * 100))
    for _ in range(1000):
        d = int(gen.integers(2, 9))
        a = assemble_operator(gen.standard_normal((d, d)),
                              gen.standard_normal((d, d)), delta)
        assert operator_eigenvalues(a).real.max() <= -delta + 1e-9
        assert np.linalg.eigvalsh(0.5 * (a + a.T)).max() <= -delta + 1e-9
    assert time.perf_counter() - start < 10.0


# -- 2: gradient oracle --------------------------------------------------

def test_analytic_gradients_match_central_differences():
    start = time.perf_counter()
    x0, x1, t = small_batch()

    # flow-matching term
    model = small_model()
    err = finite_difference_check(
        lambda p: cfm_alone(model, x0, x1, t), model.params(), 1e-5,
        blocks=[n for n in model.params()
                if n.startswith(("encoder", "head"))])
    assert err < 1e-4

    # winner-take-all term (winners and the detached field frozen)
    model = small_model()
    err = finite_difference_check(
        frozen_wta_loss_fn(model, x0, x1, t, TrainConfig(beta=0.5)),
        model.params(), 1e-5,
        blocks=[n for n in model.params() if not n.startswith("head")])
    assert err < 1e-4

    # balance term (routing skewed off uniform so the KL gradient is
    # well scaled relative to difference roundoff); the router blocks
    # perturbed here cannot move the trunk features
    model = small_model()
    model.router.biases[-1][:] = [0.9, -0.9]
    model.router.bump_version()
    err = finite_difference_check(
        lambda p: balance_alone(model, x0, x1, t, TrainConfig())[:2],
        model.params(), 1e-5,
        blocks=[n for n in model.params() if n.startswith("router")])
    assert err < 1e-4

    # combined objective with routed gradients
    for seed in (0, 1, 2):
        model = small_model(seed)
        cfg = TrainConfig(alpha_w=1.0, alpha_b=1.0, beta=0.5)
        fn = frozen_total_loss_fn(model, x0, x1, t, cfg)
        err = finite_difference_check(fn, model.params(), 1e-5)
        assert err < 1e-4
    assert time.perf_counter() - start < 60.0


# -- 3: competition masking ---------------------------------------------

def test_non_winning_experts_are_exactly_inert():
    checked = 0
    for seed in range(400):
        if checked >= 100:
            break
        model = small_model(seed)
        x0, x1, t = small_batch(seed + 100)
        cfg = TrainConfig()
        loss, grads, info = wta_alone(model, x0, x1, t, cfg)
        losers = [k for k in range(model.n_experts)
                  if k not in info.winners]
        for k in losers:
            assert np.all(grads[f"expert{k}.S"] == 0.0)
            assert np.all(grads[f"expert{k}.R"] == 0.0)
            model.expert_pairs[k] += 1e-3  # its S and its R
            loss2, _, info2 = wta_alone(model, x0, x1, t, cfg)
            np.testing.assert_array_equal(info2.winners, info.winners)
            assert abs(loss2 - loss) <= 1e-12
            model.expert_pairs[k] -= 1e-3
        checked += len(losers) * x0.shape[0]
    assert checked >= 100


# -- 4: balance closed forms --------------------------------------------

def test_balance_loss_closed_forms():
    assert abs(balance_loss(np.full((6, 4), 0.25))) <= 1e-12
    skewed = np.tile([0.75, 0.25], (8, 1))
    # closed form: 0.5*(log(0.5/0.75) + log(0.5/0.25)) = 0.1438410...
    expected = 0.5 * (np.log(0.5 / 0.75) + np.log(0.5 / 0.25))
    assert balance_loss(skewed) == pytest.approx(expected, abs=1e-6)
    assert round(balance_loss(skewed), 5) == 0.14384


# -- 5: sampler identities ----------------------------------------------

def test_disabled_residual_matches_reference_sampler_bitwise():
    model = small_model(3)
    ours = generate(model, 4, SamplerConfig(steps=25, gamma=0.0),
                    RngStream(9))
    ref = vanilla_euler_generate(model, 4, 25, RngStream(9))
    assert np.array_equal(ours, ref)


def test_constant_field_integrates_exactly_for_any_step_count():
    model = small_model(4)
    for net in (model.encoder, model.head, model.decoder):
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
    model.head.biases[-1][:] = -0.815
    model.bump_versions()
    x_ref = RngStream(21).generator().standard_normal((3, 8, 2))
    for steps in (1, 7, 64, 100):
        out = generate(model, 3, SamplerConfig(steps=steps), RngStream(21))
        np.testing.assert_allclose(out, x_ref - 0.815, atol=1e-12)


# -- 6: mode decomposition exactness ------------------------------------

@pytest.mark.parametrize("phi", [0.1, 0.5, 1.0])
def test_dmd_recovers_rotation_modes(phi):
    rot = np.array([[np.cos(phi), -np.sin(phi)],
                    [np.sin(phi), np.cos(phi)]])
    gen = RngStream(31).generator()
    batch = np.empty((3, 40, 2))
    for i in range(3):
        x = gen.standard_normal(2)
        for s in range(40):
            batch[i, s] = x
            x = rot @ x
    eig = np.sort_complex(exact_dmd(batch, rank=2).eigenvalues)
    want = np.sort_complex(np.array([np.exp(1j * phi), np.exp(-1j * phi)]))
    np.testing.assert_allclose(eig, want, atol=1e-6)


def test_dmd_recovers_decay_rate():
    batch = (2.0 * 0.5 ** np.arange(12.0)).reshape(1, 12, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = exact_dmd(batch, rank=1)
    assert spec.eigenvalues[0] == pytest.approx(0.5, abs=1e-8)


# -- 7: velocity-averaging energy gap -----------------------------------

def test_two_mode_targets_show_full_energy_gap():
    spec = DiagnosticSpec(separation=2.0, weights=(0.5, 0.5), n=5000)
    x0, x1, _ = gen_velocity_mixture_diagnostic(spec, RngStream(40))
    mean_sq, sq_mean = velocity_energy_gap(x0, x1)
    assert sq_mean <= mean_sq
    assert mean_sq - sq_mean == pytest.approx(4.0, abs=0.2)


# -- 8: spectral recovery on the two-tone set ---------------------------

def test_generated_spectrum_has_both_tone_peaks(bimodal_samples):
    start = time.perf_counter()
    wins = 0
    for seed in BIMODAL_SEEDS:
        full, _, _, _ = bimodal_samples[seed]
        ps = power_spectrum(full)
        wins += (ps.band_fraction(2) >= 0.25
                 and ps.band_fraction(8) >= 0.25)
    assert wins >= 4
    assert time.perf_counter() - start < 900.0


def test_residual_correction_improves_spectral_overlap(bimodal_runs,
                                                       bimodal_samples):
    wins = 0
    for seed in BIMODAL_SEEDS:
        ds, _, _ = bimodal_runs[seed]
        full, ablation, _, _ = bimodal_samples[seed]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            real = exact_dmd(ds.windows[:512], rank=DMD_RANK, delay=DMD_DELAY)
            ov_full = spectral_overlap(
                real, exact_dmd(full, rank=DMD_RANK, delay=DMD_DELAY))
            ov_abl = spectral_overlap(
                real, exact_dmd(ablation, rank=DMD_RANK, delay=DMD_DELAY))
        wins += ov_full >= ov_abl
    assert wins >= 4


# -- 9: regime-aligned routing ------------------------------------------

def test_each_regime_routes_to_its_own_majority_expert(bimodal_runs):
    passing = 0
    for seed in BIMODAL_SEEDS:
        ds, model, _ = bimodal_runs[seed]
        win, labels = ds.windows[:600], ds.labels[:600]
        gen = RngStream(777).generator()
        hists = np.zeros((2, model.n_experts), dtype=int)
        for _ in range(5):
            t = gen.uniform(0.5, 1.0, size=win.shape[0])
            x0 = gen.standard_normal(win.shape)
            xt = interpolate_state(x0, win, t)
            tf = time_features(t, model.cfg.time_freqs)
            h, _ = encode(model, xt, tf)
            from prismflow.router import route
            probs, _ = route(model, tf, h)
            k = probs.argmax(axis=1)
            for g in (0, 1):
                hists[g] += np.bincount(k[labels == g],
                                        minlength=model.n_experts)
        purity = hists.max(axis=1) / hists.sum(axis=1)
        passing += bool(np.all(purity >= 0.8))
    assert passing >= 4


def test_router_names_the_winner_on_the_late_half_of_the_path(bimodal_runs):
    """Sampling decodes each row with the router's argmax expert, and
    training updates the WTA winner: on the late half of the path the two
    agree. The early half's rate is reported, not bounded."""
    rates = {}
    for seed in BIMODAL_SEEDS:
        ds, model, _ = bimodal_runs[seed]
        win = ds.windows[:600]
        cfg = TrainConfig(seed=seed, **BIMODAL_TRAIN)
        gen = RngStream(777).generator()
        agree, late = [], []
        for _ in range(5):
            x0 = gen.standard_normal(win.shape)
            t = gen.uniform(size=win.shape[0])
            info = total_loss(model, x0, win, t, cfg)[3]
            agree.append(info.probs.argmax(axis=1) == info.winners)
            late.append(t >= 0.5)
        agree, late = np.concatenate(agree), np.concatenate(late)
        rates[seed] = (round(agree[late].mean(), 3),
                       round(agree[~late].mean(), 3))
    passing = sum(rate >= 0.85 for rate, _ in rates.values())
    assert passing >= 4, f"agreement at t >= 0.5 and t < 0.5 by seed: {rates}"


def test_sampled_rows_change_expert_less_on_the_late_half_of_the_path(
        bimodal_samples):
    """The router's argmax names the WTA winner on the late half of the
    path and often not on the early half (the test above), so a sampled
    row's expert changes from one step to the next less often after
    t = 0.5 than before it."""
    rates = {}
    for seed in BIMODAL_SEEDS:
        experts = bimodal_samples[seed][3]  # (steps, rows)
        changed = experts[1:] != experts[:-1]  # into step i, at t = i/steps
        t = np.arange(1, len(experts)) / len(experts)
        rates[seed] = (round(changed[t < 0.5].mean(), 3),
                       round(changed[t >= 0.5].mean(), 3))
    passing = sum(late < early for early, late in rates.values())
    assert passing >= 4, f"changes per row and step, t < 0.5 and t >= 0.5 " \
        f"by seed: {rates}"


# -- 10: metric self-consistency ----------------------------------------

def test_real_versus_real_is_indistinguishable():
    ds = gen_sines(512, 16, 2, rng=RngStream(55))
    scores = []
    for seed in range(5):
        half = ds.windows[:256], ds.windows[256:]
        scores.append(discriminative_score(half[0], half[1],
                                           RngStream(seed, 60)))
    assert np.mean(scores) <= 0.06


def test_self_correlation_score_is_zero():
    w = gen_sines(64, 16, 3, rng=RngStream(56)).windows
    assert correlational_score(w, w) == 0.0


# -- 11: conditional imputation -----------------------------------------

def test_masked_entries_are_recovered_on_clean_sines(sines_model):
    ds, model = sines_model
    gen = RngStream(71).generator()
    cfg = SamplerConfig(steps=100, mode="imputation", eta_g=10.0,
                        exact_guidance=True)
    errs = []
    for i in range(100):
        target = ds.windows[500 + i]
        mask = gen.uniform(size=target.shape) < 0.5
        if not mask.any():
            mask[0, 0] = True
        cond = ConditionMask(mask=mask, values=np.where(mask, target, 0.0))
        out = generate_conditional(model, cond, cfg, RngStream(71, i))[0]
        errs.append(np.abs(out[~mask] - target[~mask]).mean())
    assert np.mean(errs) <= 0.15


# -- 12: expert-count trend ---------------------------------------------

def test_default_expert_count_beats_single_expert(bimodal_runs,
                                                  bimodal_samples):
    wins = 0
    for seed in BIMODAL_SEEDS:
        ds, _, _ = bimodal_runs[seed]
        full, _, single, _ = bimodal_samples[seed]
        d_full = discriminative_score(ds.windows[:512], full,
                                      RngStream(seed, 33))
        d_single = discriminative_score(ds.windows[:512], single,
                                        RngStream(seed, 33))
        wins += d_full <= d_single
    assert wins >= 4


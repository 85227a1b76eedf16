"""The integer and finite-real rules, over every setting that takes them:
each config field, the seed and stream of `RngStream`, the generators'
sizes and frequencies, `generate`'s count and the sliding load's length
and stride. A bad value raises a `ConfigError` that names its key, with
no other exception and no warning."""

from fractions import Fraction

import numpy as np
import pytest

from prismflow.datasets import (DiagnosticSpec, gen_bimodal_frequency,
                                gen_sines, load_csv_windows, save_csv_windows)
from prismflow.errors import ConfigError
from prismflow.model import ModelConfig, PrismFlowModel
from prismflow.numcore import RngStream
from prismflow.sampler import SamplerConfig, generate
from prismflow.trainer import TrainConfig

pytestmark = pytest.mark.filterwarnings("error")

# (site, key, least): every integer setting, and the least value it takes
INTEGERS = [
    ("TrainConfig", "epochs", 0), ("TrainConfig", "batch_size", 1),
    *[("ModelConfig", key, 1) for key in (
        "seq_len", "channels", "n_experts", "latent_dim", "hidden_dim",
        "head_hidden", "enc_layers", "dec_hidden", "router_hidden")],
    ("SamplerConfig", "steps", 1),
    *[("DiagnosticSpec", key, 1) for key in ("n", "seq_len", "channels")],
    ("RngStream", "seed", -2**63), ("RngStream", "stream", -2**63),
    *[(site, key, 1) for site in ("gen_sines", "gen_bimodal_frequency")
      for key in ("n", "seq_len", "channels")],
    ("generate", "n", 0),
    ("load_csv_windows", "seq_len", 1), ("load_csv_windows", "stride", 1),
]

# (site, key, least, above): every real setting and its bounds
REALS = [
    *[("TrainConfig", key, 0, None)
      for key in ("alpha_w", "alpha_b", "lr", "beta")],
    ("TrainConfig", "prob_floor", None, None),
    ("TrainConfig", "wta_eps", None, 0),
    ("TrainConfig", "divergence_guard", None, 0),
    ("ModelConfig", "delta", 0, None),
    ("ModelConfig", "expert_init_scale", None, None),
    ("ModelConfig", "expert_spread_base", None, None),
    ("SamplerConfig", "gamma", None, None),
    ("SamplerConfig", "eta_g", 0, None),
    ("DiagnosticSpec", "separation", None, None),
    ("gen_bimodal_frequency", "f_low", None, None),
    ("gen_bimodal_frequency", "f_high", None, None),
]


def ids(table):
    return [f"{row[0]}.{row[1]}" for row in table]


@pytest.fixture(scope="module")
def sites(tmp_path_factory):
    """Each site as a call that takes one setting by keyword, every other
    argument valid."""
    path = str(tmp_path_factory.mktemp("rules") / "long.csv")
    save_csv_windows(np.arange(10.0).reshape(1, 10, 1), path)
    model = PrismFlowModel.init(
        ModelConfig(seq_len=4, channels=1, n_experts=2, latent_dim=2,
                    hidden_dim=4, head_hidden=4, dec_hidden=4,
                    router_hidden=4), RngStream(0))
    return {
        "TrainConfig": TrainConfig,
        "ModelConfig": ModelConfig,
        "SamplerConfig": SamplerConfig,
        "DiagnosticSpec": DiagnosticSpec,
        "RngStream": lambda **kw: RngStream(**{"seed": 0, **kw}),
        "gen_sines": lambda **kw: gen_sines(
            **{"n": 2, "seq_len": 8, "channels": 1, **kw}),
        "gen_bimodal_frequency": lambda **kw: gen_bimodal_frequency(
            **{"n": 2, "seq_len": 16, "channels": 1, "f_low": 0.2,
               "f_high": 0.4, **kw}),
        "generate": lambda **kw: generate(
            **{"model": model, "n": 2, "cfg": SamplerConfig(steps=1),
               "rng": RngStream(0), **kw}),
        "load_csv_windows": lambda **kw: load_csv_windows(
            **{"path": path, "seq_len": 2, **kw}),
    }


def refused(call, key, value):
    with pytest.raises(ConfigError) as exc:
        call(**{key: value})
    assert key in str(exc.value)
    return str(exc.value)


@pytest.mark.parametrize("value", [2.5, 4.0, "3"])
@pytest.mark.parametrize("site,key,least", INTEGERS, ids=ids(INTEGERS))
def test_non_integers_are_refused(sites, site, key, least, value):
    refused(sites[site], key, value)


@pytest.mark.parametrize("site,key,least", INTEGERS, ids=ids(INTEGERS))
def test_integers_below_the_least_are_refused(sites, site, key, least):
    sites[site](**{key: np.int64(least)})
    refused(sites[site], key, least - 1)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400,
                                   "0.1", None],
                         ids=["nan", "inf", "10**400", "str", "None"])
@pytest.mark.parametrize("site,key,least,above", REALS, ids=ids(REALS))
def test_non_finite_reals_are_refused(sites, site, key, least, above, value):
    refused(sites[site], key, value)


BOUNDED = [row for row in REALS if row[2:] != (None, None)]


@pytest.mark.parametrize("site,key,least,above", BOUNDED, ids=ids(BOUNDED))
def test_reals_out_of_bounds_are_refused(sites, site, key, least, above):
    if least is not None:
        sites[site](**{key: least})
        refused(sites[site], key, least - 0.5)
    else:
        refused(sites[site], key, above)
        refused(sites[site], key, above - 0.5)


@pytest.mark.parametrize("site,key,least", INTEGERS, ids=ids(INTEGERS))
def test_a_huge_non_integer_gets_a_short_message(sites, site, key, least):
    """Python prints no integer of over 4,300 digits, nor a value that
    holds one: the message names the value's type instead."""
    message = refused(sites[site], key, Fraction(10**5000, 3))
    assert message.endswith("got a Fraction too long to print")


@pytest.mark.parametrize("value,digits", [(10**5000, 5001),
                                          (-10**5000 + 1, 5000),
                                          (10**400 - 1, 400)],
                         ids=["10**5000", "-10**5000+1", "10**400-1"])
@pytest.mark.parametrize("site,key,least,above", REALS, ids=ids(REALS))
def test_a_huge_integer_real_is_shown_by_its_digits(sites, site, key, least,
                                                    above, value, digits):
    message = refused(sites[site], key, value)
    assert message.endswith(f"got an integer of {digits} digits")


@pytest.mark.parametrize("key", ["seed", "stream"])
@pytest.mark.parametrize("value", [10**5000, -10**5000],
                         ids=["10**5000", "-10**5000"])
def test_a_huge_seed_is_shown_by_its_digits(sites, key, value):
    message = refused(sites["RngStream"], key, value)
    assert message == (f"{key} must be in [-2**63, 2**63), got an integer "
                       f"of 5001 digits")


@pytest.mark.parametrize("kwargs,message", [
    (dict(n=10**400), "n * seq_len * channels must be < 2**60, got an "
                      "integer of 402 digits"),
    (dict(n=10**400, separation=0.0), "n * seq_len * channels must be < "
                                      "2**60, got an integer of 402 digits"),
    (dict(n=2**56), "n * seq_len * channels must be < 2**60, got "
                    f"{2**60}"),
    (dict(separation=np.float64(1e200)), "separation 1e+200 overflows the "
                                         "squared velocities of 80000 "
                                         "elements"),
    (dict(separation=-1e154), "separation -1e+154 overflows the squared "
                              "velocities of 80000 elements"),
], ids=["n=10**400", "n=10**400,c=0", "n=2**56", "c=np.float64(1e200)",
        "c=-1e154"])
def test_diagnostic_bounds_are_computed_without_overflow(kwargs, message):
    """The diagnostic's size and overflow bounds hold for any count and
    any finite separation, with no OverflowError and no numpy warning."""
    with pytest.raises(ConfigError) as exc:
        DiagnosticSpec(**kwargs)
    assert str(exc.value) == message


def test_diagnostic_bounds_admit_the_largest_counts():
    DiagnosticSpec(n=2**56 - 1, separation=1e140)
    DiagnosticSpec(separation=np.float64(1e150))

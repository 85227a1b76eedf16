"""Hypothesis strategies shared by the property tests: `TrainConfig`'s
float settings over the whole float range, its edges included."""

import sys

from hypothesis import strategies as st

from prismflow.trainer import LAMBDA_KINDS, TrainConfig

# 0, the least subnormal, the largest finite float's neighbourhood and a
# few magnitudes between them
EXTREMES = (0.0, 5e-324, 1e-300, 1.0, 1e150, 1e300, 1.7e308)


def setting(default, least=0.0, most=sys.float_info.max):
    """A float for one setting: its default, one of EXTREMES of at least
    `least`, or any float in [least, most]."""
    return st.one_of(st.just(default),
                     st.sampled_from([v for v in EXTREMES if v >= least]),
                     st.floats(least, most))


def train_settings(windows: int):
    """`TrainConfig` keyword arguments: every float setting, those that
    must be above 0 drawn above it, `prob_floor` at or past its bound 1/K
    (K <= 3) only as an extreme; a lambda schedule; and a batch size of 1,
    8 or more than `windows`."""
    defaults = TrainConfig()
    floats = {key: setting(getattr(defaults, key))
              for key in ("alpha_w", "alpha_b", "lr", "beta")}
    return st.fixed_dictionaries({
        **floats,
        "wta_eps": setting(defaults.wta_eps, least=5e-324),
        "divergence_guard": setting(defaults.divergence_guard, least=5e-324),
        "prob_floor": setting(defaults.prob_floor, most=0.3),
        "lambda_kind": st.sampled_from(LAMBDA_KINDS),
        "batch_size": st.sampled_from((1, 8, windows + 1, 4 * windows))})

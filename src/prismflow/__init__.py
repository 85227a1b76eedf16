"""PrismFlow: flow-matching time-series generation with hard-routed,
spectrally-constrained Koopman experts providing residual dynamical
corrections, plus DMD-based diagnostics."""

__version__ = "0.1.0"

from .errors import (ConfigError, ContractViolation, NumericError,
                     ParseError, PrismFlowError, ShapeError)
from .model import ModelConfig, PrismFlowModel
from .numcore import RngStream

__all__ = [
    "ConfigError", "ContractViolation", "ModelConfig", "NumericError",
    "ParseError", "PrismFlowError", "PrismFlowModel", "RngStream",
    "ShapeError", "__version__",
]

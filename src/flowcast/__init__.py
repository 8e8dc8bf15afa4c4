"""flowcast: per-flow traffic burst prediction with a sub-space kernel
Kalman filter operating on short-time Fourier frames."""

__version__ = "0.1.0"

from .fkkf import (FkkfHyperparams, FkkfModel, StateWindowConfig,
                   forecast_variance, learn, learn_core, load_model, project,
                   run_filter, save_model)
from .spectral import ChunkConfig
from .trace_io import FlowKey, FlowTrace, Protocol

__all__ = [
    "ChunkConfig",
    "FkkfHyperparams",
    "FkkfModel",
    "FlowKey",
    "FlowTrace",
    "Protocol",
    "StateWindowConfig",
    "forecast_variance",
    "learn",
    "learn_core",
    "load_model",
    "project",
    "run_filter",
    "save_model",
    "__version__",
]

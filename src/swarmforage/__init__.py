"""Deterministic swarm-foraging simulator and experiment harness."""

__version__ = "0.1.0"

from .core import Arena, CpfaParams, DEFAULT_PARAMS, RngStreams, poisson_cdf
from .engine import TrialConfig, TrialResult, World, run_trial
from .kinematics import MotionLimits
from .layouts import Distribution, LayoutSpec, ResourceField, generate

__all__ = [
    "Arena",
    "CpfaParams",
    "DEFAULT_PARAMS",
    "Distribution",
    "LayoutSpec",
    "MotionLimits",
    "ResourceField",
    "RngStreams",
    "TrialConfig",
    "TrialResult",
    "World",
    "generate",
    "poisson_cdf",
    "run_trial",
    "__version__",
]

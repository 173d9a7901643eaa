"""Broken-line GLM change-point estimation via a kernel-smoothed
likelihood objective."""

__version__ = "0.1.0"

from .errors import KinkfitError
from .families import Family, parse_family
from .kernels import (
    BandwidthRule,
    Kernel,
    bandwidth,
    exp_cdf_kernel,
    normal_cdf_kernel,
    parse_bandwidth,
    parse_kernel,
)
from .model import Dataset, ModelForm, ModelSpec, ParamVector
from .estimator import FitResult, fit, linearized_fit, profile_init
from .inference import bootstrap_ci, delta_se_tau, run_inference, sandwich_cov
from .simulate import SimScenario, SimReport, generate, load_scenario, qq_export, run

__all__ = [
    "Family",
    "Kernel",
    "BandwidthRule",
    "ModelForm",
    "ModelSpec",
    "ParamVector",
    "Dataset",
    "FitResult",
    "fit",
    "profile_init",
    "linearized_fit",
    "sandwich_cov",
    "delta_se_tau",
    "bootstrap_ci",
    "run_inference",
    "SimScenario",
    "SimReport",
    "generate",
    "run",
    "qq_export",
    "load_scenario",
    "bandwidth",
    "normal_cdf_kernel",
    "exp_cdf_kernel",
    "parse_family",
    "parse_kernel",
    "parse_bandwidth",
    "KinkfitError",
]

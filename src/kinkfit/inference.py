"""Variance estimation and confidence intervals.

Two routes: the large-sample covariance from the information identity
(the score-covariance matrix doubles as the expected negative Hessian
under the natural link, so the covariance estimate is its inverse), and a
stratified percentile bootstrap that resamples separately on each side of
the estimated change point.  The bootstrap refits its resamples in blocks
through estimator.fit_stack, as the Monte Carlo studies fit their
replicates: a block's resamples share the rows any of them drew, and
each weighs those rows by how often it drew them, which fits as its
drawn rows themselves do.

The delta-method standard errors (Muggeo 2003) come from the GLM
linearized at a working change point tau0, in the regressors seg and
-d seg/d tau.  At tau0 = tau_hat that GLM's optimum is the fit itself,
its information is T Sigma T with T = diag(1, 1, 1, -1/beta2, 1, ...),
and the delta gradient of tau0 - c/beta2 undoes T, so they are the
inverse-information standard errors: InferenceResult.se_delta holds
se_sandwich.  Refitting the linearized GLM reproduced them to the fit's
convergence tolerance (within 5.4e-5 relative on the logit study).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import BootstrapError, DomainError, InferenceError
from .estimator import FitResult, fit_stack, rows_per_block
from .model import Dataset, ModelSpec

__all__ = [
    "InferenceResult",
    "sandwich_cov",
    "bootstrap_ci",
    "run_inference",
]


# sandwich_cov refuses an information matrix whose reciprocal condition
# number (1-norm, after scaling to unit diagonal) is below this: at
# machine epsilon its inverse is noise.
_RCOND_MIN = float(np.finfo(float).eps)


@dataclass(frozen=True)
class InferenceResult:
    cov_sandwich: np.ndarray
    se_sandwich: np.ndarray
    se_delta: np.ndarray  # equal to se_sandwich; see the module docstring
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
    cov = L^-T L^-1, so every variance is a sum of squares.  An information
    matrix that is not positive definite, or whose reciprocal condition
    number is below machine epsilon, raises InferenceError: its inverse
    would be round-off, not a covariance.  The condition number is that of
    the correlation form D Sigma D, D = diag(Sigma)^-1/2, whose inverse is
    D^-1 cov D^-1: rescaling x or a covariate rescales the rows and columns
    of Sigma, which moves the plain condition number by powers of the
    scale but leaves this one, and the accuracy of the Cholesky inverse,
    unchanged (van der Sluis).
    """
    if not fit_result.converged:
        raise InferenceError("fit did not converge; covariance unavailable")
    Sig = fit_result.score_cov_at_opt
    # Factor P Sig P, P the powers of two that bring Sig's diagonal into
    # [0.5, 2): the scaling is exact, so the factor is P L bit for bit.
    # inv's LU route pivots on magnitudes; on that factor it is as accurate
    # as LAPACK's triangular inverse, but on L of a badly scaled Sig it
    # lost 40 times more (see the tests).
    p = np.ldexp(1.0, -(np.frexp(np.diag(Sig))[1] // 2))
    try:
        L = np.linalg.cholesky(p[:, None] * Sig * p)
    except np.linalg.LinAlgError:
        raise InferenceError("information matrix not positive definite") from None
    L_inv = np.linalg.inv(L)  # L has a positive diagonal, so it is invertible
    cov = p[:, None] * (L_inv.T @ L_inv) * p
    s = np.sqrt(np.diag(Sig))
    d = 1.0 / s
    rcond = 1.0 / ((d * (d @ np.abs(Sig))).max() * (s * (s @ np.abs(cov))).max())
    if not rcond >= _RCOND_MIN:
        raise InferenceError(
            f"information matrix numerically singular (reciprocal condition number {rcond:.1e})"
        )
    return cov


def _check_level(level: float) -> None:
    """DomainError unless the confidence level lies in (0, 1)."""
    if not 0.0 < level < 1.0:  # NaN fails too
        raise DomainError(f"confidence level must lie in (0, 1), got {level}")


def _percentile_interval(draws: np.ndarray, level: float) -> np.ndarray:
    """Order-statistic percentile interval at indices ceil(B*a/2) and
    ceil(B*(1-a/2)), 1-based."""
    b = draws.shape[0]
    alpha = 1.0 - level
    srt = np.sort(draws, axis=0)
    lo = min(max(math.ceil(b * alpha / 2.0), 1), b) - 1
    hi = min(max(math.ceil(b * (1.0 - alpha / 2.0)), 1), b) - 1
    return np.column_stack([srt[lo], srt[hi]])


@np.errstate(all="ignore")
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
    (*seed, b).  The resamples are refit in blocks of rows_per_block(n),
    each block by one fit_stack call with the original estimate as every
    problem's warm start.  A block refits on the union of the rows its
    resamples drew, in their original order, shared by all its problems;
    each resample is one row of counts over them, how often it drew each
    row, zeros allowed (the weights view of the bootstrap, Efron and
    Tibshirani 1993).  So a resample fits as its n drawn rows would, to
    round-off, and a block of one (n > 8192) fits on the about 63% of
    rows that its resample drew.  The responses' support is checked once.
    Resamples whose refit fails (a KinkfitError) or does not converge are
    dropped and counted; more than 10% failures aborts.  A level outside
    (0, 1) raises DomainError.  Runs with numpy's floating-point warnings
    off, as fit does.

    Returns (intervals (4+k) x 2, reps_used).
    """
    _check_level(level)
    if B < 200:
        raise BootstrapError("bootstrap needs B >= 200")
    if not fit_result.converged:
        raise BootstrapError("cannot bootstrap a non-converged fit")
    data.check_family(spec.family)
    tau_hat = fit_result.params.tau
    left = np.flatnonzero(data.x <= tau_hat)
    right = np.flatnonzero(data.x > tau_hat)
    if left.size < 3 or right.size < 3:
        raise BootstrapError(
            f"stratum too small to resample ({left.size} left, {right.size} right)"
        )
    base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    block = rows_per_block(data.n)
    draws = []
    failed = 0
    for first in range(0, B, block):
        reps = range(first, min(first + block, B))
        counts = np.empty((len(reps), data.n))
        for g, b in enumerate(reps):
            rng = np.random.default_rng([*base, b])
            idx = np.concatenate([
                rng.choice(left, size=left.size, replace=True),
                rng.choice(right, size=right.size, replace=True),
            ])
            counts[g] = np.bincount(idx, minlength=data.n)
        # The drawn rows, gathered with take (a fraction of the cost of
        # fancy indexing at n = 10 000) and shared by the block's problems.
        u = np.flatnonzero(counts.any(axis=0))
        shape = (len(reps), u.size)
        x = np.broadcast_to(data.x.take(u), shape)
        y = np.broadcast_to(data.y.take(u), shape)
        z = None if data.z is None else np.broadcast_to(data.z.take(u, axis=0), shape + (data.k,))
        refits = fit_stack(spec, x, y, z, [fit_result.params] * len(reps), counts.take(u, axis=1))
        for refit in refits:
            if isinstance(refit, FitResult) and refit.converged:
                draws.append(refit.params.to_array())
            else:
                failed += 1
    if failed > 0.10 * B:
        raise BootstrapError(f"{failed}/{B} bootstrap refits failed")
    draws = np.asarray(draws)
    return _percentile_interval(draws, level), draws.shape[0]


@np.errstate(all="ignore")
def run_inference(
    spec: ModelSpec,
    data: Dataset,
    fit_result: FitResult,
    level: float = 0.95,
    bootstrap_B: int = 0,
    seed=0,
) -> InferenceResult:
    """Assemble all inference outputs for a converged fit.  A level
    outside (0, 1) raises DomainError.  Runs with numpy's floating-point
    warnings off, as fit does."""
    _check_level(level)
    cov = sandwich_cov(fit_result)
    se = np.sqrt(np.diag(cov))
    est = fit_result.params.to_array()
    zcrit = 1.96 if level == 0.95 else _z(level)
    ci = np.column_stack([est - zcrit * se, est + zcrit * se])
    ci_boot = None
    used = 0
    if bootstrap_B:
        ci_boot, used = bootstrap_ci(
            spec, data, fit_result, bootstrap_B, level=level, seed=seed
        )
    return InferenceResult(
        cov_sandwich=cov,
        se_sandwich=se,
        se_delta=se,
        ci_normal=ci,
        ci_bootstrap=ci_boot,
        bootstrap_reps_used=used,
        level=level,
    )


def _z(level: float) -> float:
    """The normal quantile at 0.5 + level / 2."""
    return NormalDist().inv_cdf(0.5 + level / 2.0)

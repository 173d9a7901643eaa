"""End-to-end fitting.

The pipeline is: profile initialization over a grid of candidate change
points (an ordinary GLM with the hard-indicator regressor at each fixed
candidate), then damped Newton ascent on the smoothed objective with all
parameters free.  When the observed negative Hessian is indefinite -- which
happens routinely while the change point sits inside a smoothing window --
the step falls back to the always-PSD weighted Gram matrix (Fisher
scoring) with ridge escalation.

A one-step linearized refit is also provided: at a frozen working change
point it turns the model into an ordinary GLM in constructed regressors,
whose standard covariance feeds the delta-method standard error of the
change point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import families
from .errors import (
    BoundaryError,
    ConvergenceError,
    DataError,
    DegenerateDesignError,
    DomainError,
    IdentifiabilityError,
    InitializationError,
    NumericError,
)
from .families import Family
from .kernels import bandwidth, eval_kernel
from .model import (
    Dataset,
    ModelSpec,
    ParamVector,
    design,
    evaluate,
    indicator_segment,
    objective,
    segment_term,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "LinearizedFit",
    "profile_init",
    "fit",
    "fit_beta_given_tau",
    "linearized_fit",
    "glm_irls",
]

_BETA2_EPS = 1e-10
# Convergence tolerance: max|score| < _TOL * n and accepted step norm < _TOL.
_TOL = 1e-5
_STEP_HALVING_MAX = 30


@dataclass(frozen=True)
class FitConfig:
    """Optimizer knobs.

    tau_grid: explicit candidate change points, or None for the automatic
    grid (21 equally spaced quantiles of x between the 10th and 90th
    percentile).  max_iter: Newton iterations before fit gives up.
    """

    tau_grid: tuple[float, ...] | None = None
    max_iter: int = 100

    def __post_init__(self):
        if self.max_iter < 1:
            raise DomainError("max_iter must be positive")


@dataclass(frozen=True)
class FitResult:
    params: ParamVector
    objective_value: float
    iterations: int
    converged: bool
    grad_norm: float
    h_used: float
    neg_hessian_at_opt: np.ndarray
    score_cov_at_opt: np.ndarray


@dataclass(frozen=True)
class LinearizedFit:
    """One-step GLM approximation at a frozen working change point tau0.

    coef holds (beta0, beta1, beta2, c, gamma...) where c is the auxiliary
    slope on the constructed regressor v; the implied change point update
    is tau_hat = tau0 - c / beta2.  cov is the standard GLM covariance of
    coef.
    """

    tau0: float
    coef: np.ndarray
    cov: np.ndarray
    h_used: float

    @property
    def beta2(self) -> float:
        return float(self.coef[2])

    @property
    def c_aux(self) -> float:
        return float(self.coef[3])

    @property
    def tau_hat(self) -> float:
        return self.tau0 - self.c_aux / self.beta2


def glm_irls(
    family: Family,
    X: np.ndarray,
    y: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 60,
):
    """Newton (IRLS) fit of a natural-link GLM.

    Returns (beta, XtWX) at the optimum.  Raises ConvergenceError when the
    iteration diverges, the normal equations are singular, or max_iter
    steps pass without convergence.
    """
    n, p = X.shape
    beta = np.zeros(p)
    # Normal/identity is exact least squares in one step.
    if family is Family.NORMAL_IDENTITY:
        G = X.T @ X
        try:
            beta = np.linalg.solve(G, X.T @ y)
        except np.linalg.LinAlgError:
            raise ConvergenceError("singular GLM design") from None
        return beta, G
    for _ in range(max_iter):
        eta = X @ beta
        mu = families.mean(family, eta)
        w = families.variance(family, eta)
        G = (X * w[:, None]).T @ X
        try:
            step = np.linalg.solve(G + 1e-12 * np.eye(p), X.T @ (y - mu))
        except np.linalg.LinAlgError:
            raise ConvergenceError("singular IRLS system") from None
        beta_new = beta + step
        if not np.all(np.isfinite(beta_new)) or np.max(np.abs(beta_new)) > 1e8:
            raise ConvergenceError("IRLS diverged")
        if np.max(np.abs(step)) < tol:
            return beta_new, G
        beta = beta_new
    raise ConvergenceError(f"IRLS did not converge in {max_iter} iterations")


def _auto_grid(x: np.ndarray) -> np.ndarray:
    return np.quantile(x, np.linspace(0.1, 0.9, 21))


def profile_init(spec: ModelSpec, data: Dataset, config: FitConfig | None = None) -> ParamVector:
    """Best fixed-change-point GLM over the candidate grid.

    Each candidate is fit by ordinary IRLS with the hard-indicator
    regressor; the winner is the candidate maximizing the smoothed
    objective, ties going to the smallest candidate.
    """
    config = config or FitConfig()
    data.check_family(spec.family)
    h = bandwidth(spec.bw, data.n)
    if config.tau_grid is not None:
        grid = np.asarray(config.tau_grid, dtype=float)
        xmin, xmax = data.x.min(), data.x.max()
        if np.any(grid <= xmin) or np.any(grid >= xmax):
            raise DataError("tau grid candidates must lie strictly inside the x range")
    else:
        grid = _auto_grid(data.x)
    best_q, best_p = -np.inf, None
    for tau in np.sort(grid):
        X = design(data, indicator_segment(spec.form, data.x, float(tau)))
        try:
            beta, _ = glm_irls(spec.family, X, data.y)
        except ConvergenceError:
            continue
        params = ParamVector(
            beta[0], beta[1], beta[2] if beta[2] != 0.0 else _BETA2_EPS,
            float(tau), tuple(beta[3:]),
        )
        q = objective(spec, params, data, h)
        if q > best_q:
            best_q, best_p = q, (beta, float(tau))
    if best_p is None:
        raise InitializationError("every fixed-change-point GLM fit diverged")
    beta, tau = best_p
    if abs(beta[2]) < _BETA2_EPS:
        raise IdentifiabilityError(
            "profile initialization found beta2 ~ 0; change point not identified"
        )
    return ParamVector(beta[0], beta[1], beta[2], tau, tuple(beta[3:]))


def _chol_ok(M: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(M)
        return True
    except np.linalg.LinAlgError:
        return False


def fit(
    spec: ModelSpec,
    data: Dataset,
    config: FitConfig | None = None,
    init: ParamVector | None = None,
) -> FitResult:
    """Maximize the smoothed objective by damped Newton ascent.

    Starts from profile_init unless an explicit warm start is given.  The
    change point is projected into [x(2), x(n-1)] after every step.  A
    step is accepted only if the objective strictly increases (halving up
    to 30 times); convergence requires a small gradient, a
    small accepted step, and a positive definite negative Hessian.
    """
    config = config or FitConfig()
    h = bandwidth(spec.bw, data.n)
    if init is None:
        init = profile_init(spec, data, config)
    data.check_family(spec.family)
    xs = np.sort(data.x)
    lo, hi = xs[1], xs[-2]
    p = init.to_array()
    p[3] = np.clip(p[3], lo, hi)
    n_par = spec.n_params
    q, S, J, Sig = evaluate(spec, ParamVector.from_array(p), data, h)
    converged = False
    it = 0
    for it in range(1, config.max_iter + 1):
        if _chol_ok(J):
            M = J
        else:
            # Fisher-scoring fallback with ridge escalation; J with a
            # small ridge stays indefinite when the change point sits in
            # a smoothing window, but the Gram matrix is PSD.
            scale = max(np.trace(Sig) / n_par, 1.0)
            M = None
            for lam in 10.0 ** np.arange(-10, -1):
                cand = Sig + lam * scale * np.eye(n_par)
                if _chol_ok(cand):
                    M = cand
                    break
            if M is None:
                raise ConvergenceError("curvature matrix not repairable by ridge")
        step = np.linalg.solve(M, S)
        frac = 1.0
        accepted = False
        for _ in range(_STEP_HALVING_MAX):
            trial = p + frac * step
            trial[3] = np.clip(trial[3], lo, hi)
            if abs(trial[2]) < _BETA2_EPS:
                trial[2] = np.sign(trial[2] or 1.0) * _BETA2_EPS
            try:
                q_trial = objective(spec, ParamVector.from_array(trial), data, h)
            except NumericError:
                # A trial that overflows is rejected like one that descends.
                q_trial = -np.inf
            if q_trial > q:
                accepted = True
                break
            frac /= 2.0
        grad_ok = np.max(np.abs(S)) < _TOL * data.n
        taken = 0.0
        if accepted:
            taken = np.linalg.norm(trial - p)
            p = trial
            q, S, J, Sig = evaluate(spec, ParamVector.from_array(p), data, h)
        if grad_ok and taken < _TOL:
            # Stationary; a maximum only if the curvature is negative definite.
            converged = _chol_ok(J)
            if converged and (p[3] <= lo or p[3] >= hi):
                raise BoundaryError(
                    f"change point estimate pinned at the covariate boundary ({p[3]:.6g})"
                )
            break
        if not accepted:
            # No ascent possible and gradient still large: report partial.
            break
    return FitResult(
        params=ParamVector.from_array(p),
        objective_value=q,
        iterations=it,
        converged=converged,
        grad_norm=float(np.max(np.abs(S))),
        h_used=h,
        neg_hessian_at_opt=J,
        score_cov_at_opt=Sig,
    )


def fit_beta_given_tau(spec: ModelSpec, data: Dataset, tau: float, h: float) -> np.ndarray:
    """Coefficients maximizing the smoothed objective with tau frozen.

    theta is linear in the coefficients, so this is an ordinary GLM on the
    smoothed segment regressor.
    """
    seg, _, _ = segment_term(spec.form, data.x, tau, h, spec.kernel)
    beta, _ = glm_irls(spec.family, design(data, seg), data.y)
    return beta


def linearized_fit(spec: ModelSpec, data: Dataset, tau0: float) -> LinearizedFit:
    """Ordinary GLM in the constructed regressors of the one-step
    approximation around tau0.

    The regressors are u = seg(x, tau0) and v = -d seg/d tau at tau0, so
    that the coefficient c on v satisfies tau_hat = tau0 - c/beta2 exactly
    under the first-order expansion.  The GLM covariance of (c, beta2)
    feeds the delta-method standard error.
    """
    h = bandwidth(spec.bw, data.n)
    seg, d_tau, _ = segment_term(spec.form, data.x, tau0, h, spec.kernel)
    X = design(data, seg, -d_tau)
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise DegenerateDesignError(
            "linearized design is rank deficient (no observation near tau0 "
            "at this bandwidth); consider a larger bandwidth for this step"
        )
    try:
        coef, G = glm_irls(spec.family, X, data.y)
    except ConvergenceError as exc:
        raise DegenerateDesignError(f"linearized GLM failed: {exc}") from exc
    try:
        cov = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        raise DegenerateDesignError("singular information in linearized GLM") from None
    return LinearizedFit(tau0=float(tau0), coef=coef, cov=cov, h_used=h)

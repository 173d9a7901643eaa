"""End-to-end fitting.

The pipeline is: profile initialization over a grid of candidate change
points (an ordinary GLM with the hard-indicator regressor at each fixed
candidate, all candidates of a block fit by one stacked IRLS and scored by
one vectorized objective pass), then damped Newton ascent on the smoothed
objective with all parameters free.  When the observed negative Hessian is
indefinite -- which happens routinely while the change point sits inside a
smoothing window -- the step falls back to the always-PSD weighted Gram
matrix (Fisher scoring) with ridge escalation.

A one-step linearized refit is also provided: at a frozen working change
point it turns the model into an ordinary GLM in constructed regressors,
whose standard covariance feeds the delta-method standard error of the
change point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import families
from .errors import (
    BoundaryError,
    ConvergenceError,
    DataError,
    DegenerateDesignError,
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
    profile_objective,
    segment_term,
)

__all__ = [
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
# Newton iterations before fit gives up.
_NEWTON_MAX_ITER = 100
# profile_init stacks at most this many candidate x observation values per
# array (but at least one candidate), so a larger grid costs more blocks,
# not more memory: 128 KiB per stacked array.
_STACK_ELEMS = 2**14


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


# IRLS stopping rule: converged when max|step| < _IRLS_TOL, failed after
# _IRLS_MAX_ITER steps.
_IRLS_TOL = 1e-10
_IRLS_MAX_ITER = 60
# Outcome of each stacked IRLS fit.
_CONVERGED, _SINGULAR, _DIVERGED, _MAX_ITER = range(4)


def _solve(M: np.ndarray, rhs: np.ndarray):
    """Solve the stacked systems M[g] x = rhs[g].

    Returns (x, singular).  A singular M[g] gives a NaN row and a True
    singular[g] instead of failing the whole stack.
    """
    singular = np.zeros(len(M), dtype=bool)
    try:
        return np.linalg.solve(M, rhs[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        # Rare: find the singular systems one by one.
        x = np.full_like(rhs, np.nan)
        for g in range(len(M)):
            try:
                x[g] = np.linalg.solve(M[g], rhs[g])
            except np.linalg.LinAlgError:
                singular[g] = True
        return x, singular


def _irls(family: Family, C: np.ndarray, T: np.ndarray, y: np.ndarray):
    """Newton (IRLS) fits of G natural-link GLMs in one stacked loop.

    Fit g has the design [C, T[g]]: C is the n x q block of columns that
    every fit shares and T the G x n x m stack of the columns that differ.
    Returns (beta, gram, status): the G x (q + m) coefficients, the Gram
    matrices X^t W X at the start of each fit's last step, and per fit one
    of _CONVERGED, _SINGULAR, _DIVERGED and _MAX_ITER.  A fit stops at its
    own convergence or failure; the others go on.  Besides C, its n x q^2
    column products and T, every array is G x n x m at most.

    Normal/identity is exact least squares in one solve without ridge; the
    other families add a 1e-12 ridge to each Newton system, diverge when a
    coefficient is non-finite or above 1e8, and converge when the largest
    step is below _IRLS_TOL.
    """
    n, q = C.shape
    p = q + T.shape[2]
    normal = family is Family.NORMAL_IDENTITY
    ridge = 0.0 if normal else 1e-12 * np.eye(p)
    CC = (C[:, :, None] * C[:, None, :]).reshape(n, q * q)
    beta = np.zeros((len(T), p))
    gram = np.zeros((len(T), p, p))
    status = np.full(len(T), _MAX_ITER)
    # b and t hold the coefficients and columns of the fits still running.
    active, b, t = np.arange(len(T)), beta.copy(), T
    for _ in range(1 if normal else _IRLS_MAX_ITER):
        tt = t.transpose(0, 2, 1)
        eta = b[:, :q] @ C.T + np.matmul(t, b[:, q:, None])[:, :, 0]
        w = families.variance(family, eta)
        r = y - families.mean(family, eta)
        wtt = tt if normal else (w[:, :, None] * t).transpose(0, 2, 1)  # normal: w = 1
        M = np.empty((active.size, p, p))
        M[:, :q, :q] = (w @ CC).reshape(active.size, q, q)
        M[:, q:, :q] = np.matmul(wtt, C)
        M[:, :q, q:] = M[:, q:, :q].transpose(0, 2, 1)
        M[:, q:, q:] = np.matmul(wtt, t)
        rhs = np.concatenate([r @ C, np.matmul(tt, r[:, :, None])[:, :, 0]], axis=1)
        step, singular = _solve(M + ridge, rhs)
        b = b + step
        # A NaN or infinite coefficient fails the bound too.
        ok = ~singular if normal else np.abs(b).max(axis=1) <= 1e8
        done = ok & (normal | (np.abs(step).max(axis=1) < _IRLS_TOL))
        stop = done | ~ok
        if stop.any():
            beta[active[done]], gram[active[done]] = b[done], M[done]
            status[active[done]] = _CONVERGED
            status[active[~ok]] = _DIVERGED
            status[active[singular]] = _SINGULAR
            active, b, t = active[~stop], b[~stop], t[~stop]
            if active.size == 0:
                break
    return beta, gram, status


def glm_irls(family: Family, X: np.ndarray, y: np.ndarray):
    """Newton (IRLS) fit of a natural-link GLM.

    Runs the stacked IRLS of profile_init on the single design X.  Returns
    (beta, XtWX) at the optimum.  Raises ConvergenceError when the
    iteration diverges, the normal equations are singular, or 60 steps
    pass without convergence.
    """
    beta, gram, status = _irls(family, X[:, :0], X[None], y)
    if status[0] == _SINGULAR:
        raise ConvergenceError("singular IRLS system")
    if status[0] == _DIVERGED:
        raise ConvergenceError("IRLS diverged")
    if status[0] == _MAX_ITER:
        raise ConvergenceError(f"IRLS did not converge in {_IRLS_MAX_ITER} iterations")
    return beta[0], gram[0]


def _auto_grid(x: np.ndarray) -> np.ndarray:
    return np.quantile(x, np.linspace(0.1, 0.9, 21))


def profile_init(
    spec: ModelSpec, data: Dataset, tau_grid: tuple[float, ...] | None = None
) -> ParamVector:
    """Best fixed-change-point GLM over the candidate grid.

    tau_grid holds explicit candidate change points, each strictly inside
    the x range; None gives the automatic grid, 21 equally spaced
    quantiles of x between the 10th and 90th percentile.  Each candidate
    is an ordinary GLM with the hard-indicator regressor.  The sorted
    candidates are taken in blocks of at most 2^14 / n (at least one), so
    that no stacked candidate x observation array exceeds 2^14 values; at
    n = 500 the 21-point automatic grid is one block.  A block is fit by
    one stacked IRLS, and its converged candidates are scored by one
    vectorized smoothed-objective pass.  A candidate whose IRLS fails
    (singular, diverged or not converged) is dropped alone.  The winner is
    the candidate maximizing the smoothed objective, ties going to the
    smallest candidate.
    """
    data.check_family(spec.family)
    h = bandwidth(spec.bw, data.n)
    if tau_grid is not None:
        grid = np.asarray(tau_grid, dtype=float)
        xmin, xmax = data.x.min(), data.x.max()
        if np.any(grid <= xmin) or np.any(grid >= xmax):
            raise DataError("tau grid candidates must lie strictly inside the x range")
    else:
        grid = _auto_grid(data.x)
    grid = np.sort(grid)
    shared = design(data)  # [1, x, z]; the segment column differs per candidate
    q = shared.shape[1]
    block = max(1, _STACK_ELEMS // data.n)
    best_q, best_p = -np.inf, None
    for start in range(0, grid.size, block):
        taus = grid[start:start + block]
        seg = indicator_segment(spec.form, data.x, taus[:, None])
        beta, _, status = _irls(spec.family, shared, seg[:, :, None], data.y)
        ok = status == _CONVERGED
        if not ok.any():
            continue
        # (beta0, beta1, beta2, gamma...) from the IRLS order [1, x, z, seg].
        coef = beta[ok][:, [0, 1, q, *range(2, q)]]
        scored = coef.copy()
        scored[scored[:, 2] == 0.0, 2] = _BETA2_EPS
        values = profile_objective(spec, scored, taus[ok], data, h)
        g = int(np.argmax(values))
        if values[g] > best_q:
            best_q, best_p = values[g], (coef[g], float(taus[ok][g]))
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
    *,
    init: ParamVector | None = None,
    tau_grid: tuple[float, ...] | None = None,
) -> FitResult:
    """Maximize the smoothed objective by damped Newton ascent.

    Starts from profile_init over tau_grid unless an explicit warm start
    is given, which leaves tau_grid unused.  The change point is projected
    into [x(2), x(n-1)] after every step.  A step is accepted only if the
    objective strictly increases (halving up to 30 times); convergence
    requires a small gradient, a small accepted step, and a positive
    definite negative Hessian.  The fit gives up after 100 iterations.
    """
    h = bandwidth(spec.bw, data.n)
    if init is None:
        init = profile_init(spec, data, tau_grid)
    data.check_family(spec.family)
    xs = np.sort(data.x)
    lo, hi = xs[1], xs[-2]
    p = init.to_array()
    p[3] = np.clip(p[3], lo, hi)
    n_par = spec.n_params
    q, S, J, Sig = evaluate(spec, ParamVector.from_array(p), data, h)
    converged = False
    it = 0
    for it in range(1, _NEWTON_MAX_ITER + 1):
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
        try:
            step = np.linalg.solve(M, S)
        except np.linalg.LinAlgError:
            # M passed Cholesky, yet LU can still meet an exact zero pivot
            # when the design is rank deficient (two distinct x values).
            raise ConvergenceError("singular Newton system") from None
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

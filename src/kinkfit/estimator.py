"""End-to-end fitting.

The pipeline is: profile initialization over a grid of candidate change
points (an ordinary GLM with the hard-indicator regressor at each fixed
candidate, all candidates of a block fit by one stacked IRLS and scored by
one vectorized objective pass), then damped Newton ascent on the smoothed
objective with all parameters free.  When the observed negative Hessian is
indefinite -- which happens routinely while the change point sits inside a
smoothing window -- the step falls back to the always-PSD weighted Gram
matrix (Fisher scoring) with ridge escalation.

The Newton ascent is one stacked loop over G problems of the same size
(_newton): each problem takes its own steps, halvings and stop, and
leaves the loop when it stops.  fit is its one-problem case; fit_stack
runs a block of problems, such as the replicates of a Monte Carlo study,
at once.  A problem's result does not depend on the block it runs in.

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
    KinkfitError,
    NumericError,
)
from .families import Family
from .kernels import bandwidth, eval_kernel
from .model import (
    Dataset,
    ModelSpec,
    ParamVector,
    design,
    evaluate_rows,
    indicator_segment,
    objective_rows,
    profile_objective,
    segment_term,
)

__all__ = [
    "FitResult",
    "LinearizedFit",
    "profile_init",
    "fit",
    "fit_stack",
    "rows_per_block",
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
# A stacked pass (profile_init's candidates, fit_stack's problems) holds at
# most this many problem x observation values per array (but at least one
# problem), so more problems cost more blocks, not more memory: 128 KiB
# per stacked array.  rows_per_block turns it into a block size.
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
# Outcome of each stacked fit.  IRLS ends in one of the first four.  A
# Newton fit ends _CONVERGED or _STOPPED with a result, or with one of
# the failures that fit raises: _NUMERIC as NumericError, _NO_RIDGE and
# _SINGULAR as ConvergenceError, _BOUNDARY as BoundaryError.
(_CONVERGED, _SINGULAR, _DIVERGED, _MAX_ITER,
 _STOPPED, _NUMERIC, _NO_RIDGE, _BOUNDARY) = range(8)


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
        mu, w = families.mean_variance(family, eta)
        r = y - mu
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

    tau_grid holds explicit candidate change points, each finite and
    strictly inside the x range; None gives the automatic grid, 21
    equally spaced quantiles of x between the 10th and 90th percentile.
    Each candidate is an ordinary GLM with the hard-indicator regressor.
    The sorted candidates are taken in blocks of rows_per_block(n), at
    most 2^14 / n and at least one, so that no stacked candidate x
    observation array exceeds 2^14 values; at n = 500 the 21-point
    automatic grid is one block.  A block is fit by
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
        if not np.all(np.isfinite(grid)):
            raise DataError(f"tau grid candidates must be finite, got {tau_grid}")
        xmin, xmax = data.x.min(), data.x.max()
        if np.any(grid <= xmin) or np.any(grid >= xmax):
            raise DataError("tau grid candidates must lie strictly inside the x range")
    else:
        grid = _auto_grid(data.x)
    grid = np.sort(grid)
    shared = design(data)  # [1, x, z]; the segment column differs per candidate
    q = shared.shape[1]
    block = rows_per_block(data.n)
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


def _positive_definite(M: np.ndarray) -> np.ndarray:
    """Per-matrix flags: whether each stacked M[g] has a Cholesky factor."""
    try:
        np.linalg.cholesky(M)
        return np.ones(len(M), dtype=bool)
    except np.linalg.LinAlgError:
        # A stacked Cholesky fails as a whole if one matrix fails (an
        # indefinite J is routine); test them one by one.
        ok = np.ones(len(M), dtype=bool)
        for g in range(len(M)):
            try:
                np.linalg.cholesky(M[g])
            except np.linalg.LinAlgError:
                ok[g] = False
        return ok


def _newton(spec: ModelSpec, x, y, z, start: np.ndarray, h: float):
    """Damped Newton ascent of G smoothed objectives in one stacked loop.

    Problem g has the observations x[g], y[g] and z[g] (G x n, G x n and
    G x n x k, z None without covariates) and starts from row g of the
    G x (4 + k) start.  Returns (p, q, S, J, Sig, iterations, status)
    stacked over the problems, status being one of _CONVERGED, _STOPPED
    (no ascent, indefinite curvature at a stationary point, or the
    iteration limit), _NUMERIC, _NO_RIDGE, _SINGULAR and _BOUNDARY.  A
    problem leaves the loop at its own stop; the rows still running are
    compacted only then.  Every model evaluation is one stacked pass whose
    rows match a stack of one bit for bit, so a problem's result does not
    depend on its block.
    """
    G, n = x.shape
    n_par = start.shape[1]
    eye = np.eye(n_par)
    part = np.partition(x, (1, n - 2), axis=1)
    lo, hi = part[:, 1], part[:, n - 2]
    p = start.copy()
    p[:, 3] = np.clip(p[:, 3], lo, hi)
    q, S, J, Sig, ok = evaluate_rows(spec, p, x, y, z, h)
    iterations = np.zeros(G, dtype=int)
    status = np.where(ok, _STOPPED, _NUMERIC)
    # Row i of the running arrays (suffix r) is problem rows[i]; they are
    # views while every problem runs.
    rows = np.flatnonzero(ok)
    sel = slice(None) if rows.size == G else rows
    xr, yr, lor, hir, pr, qr, Sr, Jr, Sigr = (
        v[sel] for v in (x, y, lo, hi, p, q, S, J, Sig))
    zr = None if z is None else z[sel]
    for it in range(1, _NEWTON_MAX_ITER + 1):
        if rows.size == 0:
            break
        m = rows.size
        out = np.full(m, -1)  # the status of each row leaving after this iteration
        # Newton matrix: the negative Hessian if positive definite, else
        # the always-PSD Gram matrix with escalating ridge (Fisher
        # scoring); J with a small ridge stays indefinite when the change
        # point sits in a smoothing window.
        M = Jr
        pd = _positive_definite(Jr)
        if not pd.all():
            M, left = Jr.copy(), np.flatnonzero(~pd)
            scale = np.maximum(np.trace(Sigr[left], axis1=1, axis2=2) / n_par, 1.0)
            for lam in 10.0 ** np.arange(-10, -1):
                cand = Sigr[left] + (lam * scale)[:, None, None] * eye
                good = _positive_definite(cand)
                M[left[good]] = cand[good]
                left, scale = left[~good], scale[~good]
                if left.size == 0:
                    break
            M[left] = eye  # placeholder; these rows leave unsolved
            out[left] = _NO_RIDGE
        step, singular = _solve(M, Sr)
        # A Cholesky-passing M can still meet an exact zero LU pivot when
        # the design is rank deficient (two distinct x values); a step that
        # overflows counts as singular too.
        singular |= ~np.isfinite(step).all(axis=1)
        if singular.any():
            out[singular & (out < 0)] = _SINGULAR
        grad_ok = np.abs(Sr).max(axis=1) < _TOL * n
        # A stationary row stops halving once frac * limit < _TOL; the
        # others have no such limit.  Norms are summed as np.linalg.norm
        # sums them, so the tests against _TOL see the same bits.
        limit = np.where(grad_ok, np.sqrt((step * step).sum(axis=1)), np.inf)
        # Step halving: a trial is accepted only if the objective strictly
        # increases.  The full step is always tried; a stationary row stops
        # halving once the trial step is below _TOL, since any step
        # accepted from there ends the fit.
        trial = np.empty_like(pr)
        accepted = np.zeros(m, dtype=bool)
        search = out < 0
        frac = 1.0
        for _ in range(_STEP_HALVING_MAX):
            s = np.flatnonzero(search)
            if s.size == 0:
                break
            sel = slice(None) if s.size == m else s  # a view when every row searches
            t = pr[sel] + frac * step[sel]
            t[:, 3] = np.minimum(np.maximum(t[:, 3], lor[sel]), hir[sel])
            small = np.abs(t[:, 2]) < _BETA2_EPS
            if small.any():
                t[small, 2] = np.where(t[small, 2] < 0, -_BETA2_EPS, _BETA2_EPS)
            # A trial that overflows reads -inf: rejected like one that descends.
            up = objective_rows(spec, t, xr[sel], yr[sel],
                                None if zr is None else zr[sel], h) > qr[sel]
            if up.any():
                su = s[up]
                trial[su], accepted[su], search[su] = t[up], True, False
            frac /= 2.0
            search &= frac * limit >= _TOL
        taken = np.zeros(m)
        acc = np.flatnonzero(accepted)
        if acc.size:
            sel = slice(None) if acc.size == m else acc
            d = trial[sel] - pr[sel]
            taken[sel] = np.sqrt((d * d).sum(axis=1))
            pr[sel] = trial[sel]
            qr[sel], Sr[sel], Jr[sel], Sigr[sel], ok = evaluate_rows(
                spec, pr[sel], xr[sel], yr[sel], None if zr is None else zr[sel], h)
            if not ok.all():
                out[acc[~ok]] = _NUMERIC
        # Stationary: a maximum only if the curvature is negative definite.
        stat = np.flatnonzero(grad_ok & (taken < _TOL) & (out < 0))
        if stat.size:
            conv = _positive_definite(Jr[stat])
            edge = (pr[stat, 3] <= lor[stat]) | (pr[stat, 3] >= hir[stat])
            out[stat] = np.where(conv, np.where(edge, _BOUNDARY, _CONVERGED), _STOPPED)
        # No ascent possible and gradient still large: report partial.
        out[~accepted & (out < 0)] = _STOPPED
        leave = out >= 0
        if leave.any():
            g, keep = rows[leave], ~leave
            status[g], iterations[g] = out[leave], it
            p[g], q[g], S[g], J[g], Sig[g] = (
                v[leave] for v in (pr, qr, Sr, Jr, Sigr))
            rows = rows[keep]
            xr, yr, lor, hir, pr, qr, Sr, Jr, Sigr = (
                v[keep] for v in (xr, yr, lor, hir, pr, qr, Sr, Jr, Sigr))
            zr = None if zr is None else zr[keep]
    if rows.size:
        iterations[rows] = _NEWTON_MAX_ITER
        p[rows], q[rows], S[rows], J[rows], Sig[rows] = pr, qr, Sr, Jr, Sigr
    return p, q, S, J, Sig, iterations, status


def rows_per_block(n: int) -> int:
    """Problems of n observations that one stacked pass takes at a time.

    At most 2^14 / n and at least one, so that no stacked problem x
    observation array exceeds 2^14 values (128 KiB): 32 problems at
    n = 500, one from n = 8193 on.
    """
    return max(1, _STACK_ELEMS // n)


def fit_stack(spec: ModelSpec, x, y, z, starts) -> list:
    """fit() of G problems of the same size, from given starts, in one
    stacked Newton loop.

    Problem g has the observations x[g], y[g] and z[g] (G x n, G x n and
    G x n x k arrays; z is None without covariates) and starts from
    starts[g], a ParamVector.  The caller checks the responses' support
    and bounds G, normally by rows_per_block(n).  Returns one entry per
    problem, in order: its FitResult, or the KinkfitError that fit would
    raise for it.  Each entry is bit for bit what fit returns for that
    problem alone.
    """
    h = bandwidth(spec.bw, x.shape[1])
    start = np.array([s.to_array() for s in starts])
    p, q, S, J, Sig, iterations, status = _newton(spec, x, y, z, start, h)
    results = []
    for g, st in enumerate(status):
        if st == _NUMERIC:
            results.append(NumericError("non-finite objective, score or negative Hessian"))
        elif st == _NO_RIDGE:
            results.append(ConvergenceError("curvature matrix not repairable by ridge"))
        elif st == _SINGULAR:
            results.append(ConvergenceError("singular Newton system"))
        elif st == _BOUNDARY:
            results.append(BoundaryError(
                f"change point estimate pinned at the covariate boundary ({p[g, 3]:.6g})"))
        else:
            results.append(FitResult(
                params=ParamVector.from_array(p[g]),
                objective_value=float(q[g]),
                iterations=int(iterations[g]),
                converged=bool(st == _CONVERGED),
                grad_norm=float(np.max(np.abs(S[g]))),
                h_used=h,
                neg_hessian_at_opt=J[g],
                score_cov_at_opt=Sig[g],
            ))
    return results


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
    objective strictly increases (halving up to 30 times, and no further
    once the gradient is small and the halved step below the tolerance);
    convergence requires a small gradient, a small accepted step, and a
    positive definite negative Hessian.  The fit gives up after 100
    iterations.  This is fit_stack on one problem.
    """
    if init is None:
        init = profile_init(spec, data, tau_grid)
    data.check_family(spec.family)
    z = None if data.z is None else data.z[None]
    result = fit_stack(spec, data.x[None], data.y[None], z, [init])[0]
    if isinstance(result, KinkfitError):
        raise result
    return result


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

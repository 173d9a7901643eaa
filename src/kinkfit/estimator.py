"""End-to-end fitting.

The pipeline is: profile initialization over a grid of candidate change
points (an ordinary GLM with the hard-indicator regressor at each fixed
candidate, all candidates of a block fit by one stacked IRLS and scored by
one vectorized objective pass, each with the bits it gets alone), then
damped Newton ascent on the smoothed objective with all parameters free.
When the observed negative Hessian is indefinite -- which happens
routinely while the change point sits inside a smoothing window -- the
step falls back to the always-PSD weighted Gram matrix (Fisher scoring)
with ridge escalation.

The Newton ascent is one stacked loop over G problems of the same size
(_newton): each problem takes its own steps, halvings and stop, and
leaves the loop when it stops.  fit is its one-problem case; fit_stack
runs a block of problems, such as the replicates of a Monte Carlo study
or the resamples of a bootstrap, at once.  A problem's result does not
depend on the block it runs in.
Each step-halving trial is one value pass of the model (model.value_rows);
an accepted trial's arrays go on to the derivative pass
(model.derivative_rows), so a trial costs one segment-term evaluation,
accepted or not, and the Jacobian's parameter-free columns are filled
once per call.

fit, fit_stack, profile_init and glm_irls run with numpy's
floating-point warnings off: every value that is not finite meets a typed
check (a -inf trial, a _NUMERIC status, a NumericError) instead of
a RuntimeWarning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import families
from .errors import (
    BoundaryError,
    ConvergenceError,
    DataError,
    IdentifiabilityError,
    InitializationError,
    KinkfitError,
    NumericError,
)
from .families import Family
from .kernels import bandwidth, eval_kernel
from .model import (
    Dataset,
    ModelForm,
    ModelSpec,
    ParamVector,
    derivative_rows,
    design,
    indicator_segment,
    jacobian_buffer,
    segment_term,
    value_rows,
)

__all__ = [
    "FitResult",
    "profile_init",
    "fit",
    "fit_stack",
    "rows_per_block",
    "fit_beta_given_tau",
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
# per stacked array, p times that for profile_init's G x p x n designs.
# rows_per_block turns it into a block size.
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


def _irls_start(family: Family, y: np.ndarray):
    """(w0, w0 * eta0 + y - mu0) at _irls's start mu0, with eta0 the link
    of mu0 and w0 the variance there; the normal family starts from
    beta = 0, so that its one solve is least squares on y."""
    if family is Family.NORMAL_IDENTITY:
        return np.ones_like(y), y
    if family is Family.POISSON_LOG:
        mu = y + 0.1
        return mu, mu * np.log(mu) + (y - mu)
    mu = (y + 0.5) / 2.0
    w = mu * (1.0 - mu)
    return w, w * np.log(mu / (1.0 - mu)) + (y - mu)


def _irls(family: Family, X: np.ndarray, y: np.ndarray):
    """Newton (IRLS) fits of G natural-link GLMs in one stacked loop.

    X is the G x p x n stack of the fits' transposed designs, C-contiguous:
    fit g has the n x p design X[g].T.  Returns (beta, gram, status): the
    G x p coefficients, the Gram matrices X^t W X at the start of each
    fit's last step, and per fit one of _CONVERGED, _SINGULAR, _DIVERGED
    and _MAX_ITER.  A fit stops at its own convergence or failure; the
    others go on.  Each step makes one np.matmul per fit for X^t W X and
    for X^t r and, after the first, one for eta and one
    families.mean_variance pass (one exp for the logit and Poisson
    families), so a fit's bits do not depend on the other fits in its
    stack: each is glm_irls of its own design.

    Normal/identity is exact least squares in one solve without ridge.  The
    other families start with one weighted least-squares fit of the
    working response from mu0 = y + 0.1 (Poisson) or (y + 0.5) / 2
    (logit), not from beta = 0, whose first step overshoots on large
    counts (McCullagh and Nelder 1989, section 2.5); they add a 1e-12
    ridge to each system, the start's included, diverge when a
    coefficient is non-finite or above 1e8, and converge when the largest
    step after the start's is below _IRLS_TOL.  A fit with no MLE ends
    _DIVERGED if its coefficients pass the bound, else _MAX_ITER;
    profile_init leaves the candidates that _no_mle flags out of its
    stacks.  (A bound on |eta| would not find them safely: fits with an
    MLE pass it too, such as a logit fit with a far-out x or of nearly
    separated data, or a Poisson fit whose mean falls below exp(-709) at
    some points.)
    """
    G, p, _ = X.shape
    normal = family is Family.NORMAL_IDENTITY
    ridge = 0.0 if normal else 1e-12 * np.eye(p)
    beta = np.zeros((G, p))
    gram = np.zeros((G, p, p))
    status = np.full(G, _MAX_ITER)
    # b and x hold the coefficients and designs of the fits still running.
    active, b, x = np.arange(G), beta.copy(), X
    # The first system's weights w and right-hand side X^t r, shared by the
    # stack: r = w * eta0 + y - mu0 makes its solution the start's fit.
    w, r = _irls_start(family, y)
    for it in range(1 if normal else _IRLS_MAX_ITER):
        if it:
            eta = np.matmul(b[:, None, :], x)[:, 0]
            mu, w = families.mean_variance(family, eta)
            r = y - mu
        M = np.matmul(x * w[..., None, :], x.transpose(0, 2, 1))
        rhs = np.matmul(x, r[..., None])[:, :, 0]
        step, singular = _solve(M + ridge, rhs)
        b = b + step
        # A NaN or infinite coefficient fails the bound too.
        ok = ~singular if normal else np.abs(b).max(axis=1) <= 1e8
        # The start's solve is no Newton step: its size says nothing of
        # convergence, and its Gram matrix is not at the fit's estimate.
        done = ok & (normal | ((it > 0) & (np.abs(step).max(axis=1) < _IRLS_TOL)))
        stop = done | ~ok
        if stop.any():
            beta[active[done]], gram[active[done]] = b[done], M[done]
            status[active[done]] = _CONVERGED
            status[active[~ok]] = _DIVERGED
            status[active[singular]] = _SINGULAR
            active, b, x = active[~stop], b[~stop], x[~stop]
            if active.size == 0:
                break
    return beta, gram, status


@np.errstate(all="ignore")
def glm_irls(family: Family, X: np.ndarray, y: np.ndarray):
    """Newton (IRLS) fit of a natural-link GLM.

    Runs the stacked IRLS of profile_init on the single n x p design X, so
    that each profile candidate is this fit of its own design, bit for
    bit.  Returns (beta, XtWX) at the optimum.  Raises ConvergenceError
    when the iteration diverges, the normal equations are singular, or 60
    steps pass without convergence.
    """
    beta, gram, status = _irls(family, np.ascontiguousarray(X.T)[None], y)
    if status[0] == _SINGULAR:
        raise ConvergenceError("singular IRLS system")
    if status[0] == _DIVERGED:
        raise ConvergenceError("IRLS diverged")
    if status[0] == _MAX_ITER:
        raise ConvergenceError(f"IRLS did not converge in {_IRLS_MAX_ITER} iterations")
    return beta[0], gram[0]


def _auto_grid(x: np.ndarray) -> np.ndarray:
    """The 21 quantiles of x from the 10th to the 90th percentile, less
    those on x's minimum or maximum (tied x puts some there): like a user
    grid, the candidates lie strictly inside the x range."""
    grid = np.quantile(x, np.linspace(0.1, 0.9, 21))
    grid = grid[(grid > x.min()) & (grid < x.max())]
    if grid.size == 0:
        raise DataError("no automatic tau grid candidate lies strictly inside the x range")
    return grid


def _no_mle(spec: ModelSpec, x: np.ndarray, y: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Per candidate change point: whether its hard-indicator GLM has no
    MLE because of its own segment.

    The design spans a column that is 0 on one side of tau and of one
    sign on the other side, on x > tau unless the form is
    quadratic-linear and on x < tau unless it is linear-quadratic: the
    segment term, and min(x - tau, 0) for linear-linear.  If the
    responses on that side are all 0 (or, for the logit, all 1), moving
    the coefficients along that column raises the log-likelihood of every
    observation there and leaves the others' unchanged, so the likelihood
    has no maximum (quasi-complete separation, Albert and Anderson 1984).
    """
    lost = np.zeros(len(taus), dtype=bool)
    if spec.family is Family.NORMAL_IDENTITY:
        return lost
    sides = []
    if spec.form is not ModelForm.QUADRATIC_LINEAR:
        sides.append(x > taus[:, None])
    if spec.form is not ModelForm.LINEAR_QUADRATIC:
        sides.append(x < taus[:, None])
    for side in sides:
        k, s = side.sum(axis=1), side @ y
        lost |= (k > 0) & ((s == 0) | ((spec.family is Family.BERNOULLI_LOGIT) & (s == k)))
    return lost


@np.errstate(all="ignore")
def profile_init(
    spec: ModelSpec, data: Dataset, tau_grid: tuple[float, ...] | None = None
) -> ParamVector:
    """Best fixed-change-point GLM over the candidate grid.

    tau_grid holds explicit candidate change points, each finite and
    strictly inside the x range; None gives the automatic grid, 21
    equally spaced quantiles of x between the 10th and 90th percentile,
    less those on x's minimum or maximum (a DataError when none is left).
    Each distinct candidate is an ordinary GLM with the hard-indicator
    regressor, fit once.  A candidate whose responses are all 0 (or, for
    the logit, all 1) on a side of it that its segment separates is
    dropped unfit (_no_mle): its GLM has no MLE.  The others are taken in
    sorted order, in blocks of rows_per_block(n), at most 2^14 / n and at
    least one, so that the stacked designs of a block hold at most
    p * 2^14 values; at n = 500 the 21-point automatic grid is one block.
    A block is fit by one stacked IRLS, and its converged candidates, as
    parameter vectors in ParamVector order, are scored by one value_rows
    pass; a zero beta2 is scored as 1e-10.  Each
    candidate's fit and score are those of glm_irls and objective on it
    alone, bit for bit, so the blocks bound memory and change no result.
    A candidate whose IRLS fails (singular, diverged or not converged) is
    dropped alone.  A converged candidate whose smoothed objective is not
    finite raises NumericError.  The winner is the candidate maximizing
    the smoothed objective, ties going to the smallest candidate.
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
    grid = np.unique(grid)
    grid = grid[~_no_mle(spec, data.x, data.y, grid)]
    # The transposed design [1, x, seg, z] of every candidate; row 2 is its
    # segment column.
    shared = design(data, np.zeros(data.n)).T
    block = rows_per_block(data.n)
    best_q, best = -np.inf, None
    for start in range(0, grid.size, block):
        taus = grid[start:start + block]
        X = np.repeat(shared[None], taus.size, axis=0)
        X[:, 2] = indicator_segment(spec.form, data.x, taus[:, None])
        beta, _, status = _irls(spec.family, X, data.y)
        ok = status == _CONVERGED
        if not ok.any():
            continue
        rows = np.insert(beta[ok], 3, taus[ok], axis=1)  # ParamVector order
        scored = rows.copy()
        scored[scored[:, 2] == 0.0, 2] = _BETA2_EPS
        values = value_rows(spec, scored, data.x, data.y, data.z, None, h)[0]
        if not np.isfinite(values).all():  # value_rows reads them as -inf
            raise NumericError("non-finite smoothed objective of a profile candidate")
        g = int(np.argmax(values))
        if values[g] > best_q:
            best_q, best = values[g], rows[g]
    if best is None:
        raise InitializationError("every fixed-change-point GLM fit diverged")
    if abs(best[2]) < _BETA2_EPS:
        raise IdentifiabilityError(
            "profile initialization found beta2 ~ 0; change point not identified"
        )
    return ParamVector.from_array(best)


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


def _pick(arrays, sel):
    """Rows sel of each of the stacked arrays; None stays None."""
    return tuple(None if v is None else v[sel] for v in arrays)


def _second_extremes(x: np.ndarray, c):
    """Second smallest and second largest of the observations that the
    rows of x stand for, counts c (None: once each), per problem of the
    G x n stack.  A row counting 0 stands for no observation.

    The smallest observation is its own neighbour when two or more
    observations take its value; otherwise the neighbour is the next
    larger observed row.  Likewise for the largest.
    """
    if c is None:
        c = np.ones(x.shape)
    s = np.sort(np.where(c > 0, x, np.nan), axis=1)  # unobserved rows sort last
    rows = np.arange(len(x))
    last = np.count_nonzero(c, axis=1) - 1  # the largest observed row
    lo, hi = s[:, 0], s[rows, last]
    lo = np.where((c * (x == lo[:, None])).sum(axis=1) >= 2, lo, s[rows, np.minimum(1, last)])
    hi = np.where((c * (x == hi[:, None])).sum(axis=1) >= 2, hi, s[rows, np.maximum(last - 1, 0)])
    return lo, hi


def _newton(spec: ModelSpec, x, y, z, c, start: np.ndarray, h: float):
    """Damped Newton ascent of G smoothed objectives in one stacked loop.

    Problem g has the observations x[g], y[g] and z[g] (G x n, G x n and
    G x n x k, z None without covariates), observation i counting c[g, i]
    times (c None: once each; zeros allowed; every row of c sums to the
    same N), and starts from row g of the G x (4 + k) start.  The gradient tolerance
    and the change point's bounds x(2) and x(N-1) are those of the N
    observations, not of the n stored rows.  Returns (p, q, S, J, Sig,
    iterations, status) stacked over the problems, status being one of
    _CONVERGED, _STOPPED (no ascent, indefinite curvature at a stationary
    point, or the iteration limit), _NUMERIC, _NO_RIDGE, _SINGULAR and
    _BOUNDARY.  A problem leaves the loop at its own stop; the rows still
    running are compacted only then.  Every model evaluation is one stacked pass whose
    rows match a stack of one bit for bit, so a problem's result does not
    depend on its block.

    Each trial of the step halving is one value_rows pass over the rows
    still searching.  The accepted rows keep their trial's arrays (as they
    are when the whole block accepts on one trial, the usual case for a
    single problem; else copied into arrays of the running rows), and the
    derivative_rows pass goes on from them, so each accepted step computes
    the segment term once.  The Jacobian buffer of the running rows is
    built once, with its [1, x, z] columns, and compacted with them.
    """
    G, n = x.shape
    n_par = start.shape[1]
    eye = np.eye(n_par)
    lo, hi = _second_extremes(x, c)
    if c is not None:
        n = int(c[0].sum())  # observations, for the gradient test
    p = start.copy()
    p[:, 3] = np.clip(p[:, 3], lo, hi)
    Dr = jacobian_buffer(x, z, G, n_par)
    q, S, J, Sig, ok = derivative_rows(spec, p, y, c, value_rows(spec, p, x, y, z, c, h), Dr)
    iterations = np.zeros(G, dtype=int)
    status = np.where(ok, _STOPPED, _NUMERIC)
    # Row i of the running arrays (suffix r) is problem rows[i]; they are
    # views while every problem runs.
    rows = np.flatnonzero(ok)
    sel = slice(None) if rows.size == G else rows
    obs = _pick((x, y, z, c), sel)  # the running rows' (x, y, z, c)
    Dr = Dr[sel]  # and their Jacobian buffer
    lor, hir, pr, qr, Sr, Jr, Sigr = _pick((lo, hi, p, q, S, J, Sig), sel)
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
        kept = None  # the accepted trials' value pass, row i for row i
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
            values = value_rows(spec, t, *_pick(obs, sel), h)
            up = values[0] > qr[sel]
            if up.any():
                su = s[up]
                trial[su], accepted[su], search[su] = t[up], True, False
                if su.size == m:  # the whole block accepts on this trial
                    kept = values
                else:
                    if kept is None:
                        kept = tuple(np.empty((m,) + v.shape[1:]) for v in values)
                    for k, v in zip(kept, values):
                        k[su] = v[up]
            del values  # so that no two trials' arrays are alive at once
            frac /= 2.0
            search &= frac * limit >= _TOL
        # A row that did not accept leaves after this iteration, so its
        # observations and Jacobian rows go now.
        if not accepted.all():
            obs, Dr = _pick(obs, accepted), Dr[accepted]
        taken = np.zeros(m)
        acc = np.flatnonzero(accepted)
        if acc.size:
            sel = slice(None) if acc.size == m else acc
            d = trial[sel] - pr[sel]
            taken[sel] = np.sqrt((d * d).sum(axis=1))
            pr[sel] = trial[sel]
            # The derivative pass goes on from the accepted trials' value
            # pass and writes into Dr.
            kept = _pick(kept, sel)
            qr[sel], Sr[sel], Jr[sel], Sigr[sel], ok = derivative_rows(
                spec, pr[sel], obs[1], obs[3], kept, Dr)
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
            stay = keep[accepted]  # obs and Dr hold the accepted rows only
            obs, Dr = _pick(obs, stay), Dr[stay]
            lor, hir, pr, qr, Sr, Jr, Sigr = _pick((lor, hir, pr, qr, Sr, Jr, Sigr), keep)
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


@np.errstate(all="ignore")
def fit_stack(spec: ModelSpec, x, y, z, starts, counts=None) -> list:
    """fit() of G problems of the same size, from given starts, in one
    stacked Newton loop.

    Problem g has the observations x[g], y[g] and z[g] (G x n, G x n and
    G x n x k arrays, which may be broadcast views of shared rows; z is
    None without covariates) and starts from starts[g], a ParamVector.
    counts is None (each observation once) or G x n: observation i of
    problem g then stands for counts[g, i] identical observations, and for
    none at a count of zero, as in a bootstrap block's resamples.  Every
    row of counts must sum to the same number of observations N, which
    takes the place of n in the bandwidth and the gradient test; the
    change point's bounds are those of the N observations.  The caller
    checks the responses' support and bounds G, normally by
    rows_per_block(n).  Returns one entry per problem, in order: its
    FitResult, or the KinkfitError that fit would raise for it.  Each
    entry is bit for bit what fit_stack returns for that problem alone,
    which for a problem without counts is what fit returns.
    """
    h = bandwidth(spec.bw, x.shape[1] if counts is None else int(counts[0].sum()))
    start = np.array([s.to_array() for s in starts])
    p, q, S, J, Sig, iterations, status = _newton(spec, x, y, z, counts, start, h)
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


@np.errstate(all="ignore")
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
    iterations.  This is fit_stack on one problem; the Monte Carlo
    studies and the bootstrap call fit_stack on blocks of problems, each
    of which gets this fit's result for it.
    """
    if init is None:
        init = profile_init(spec, data, tau_grid)
    data.check_family(spec.family)
    x, y, z = _pick((data.x, data.y, data.z), None)  # stacks of one
    result = fit_stack(spec, x, y, z, [init])[0]
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

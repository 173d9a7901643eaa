"""Smoothed change-point model: objective and its exact first and second
derivatives.

The linear predictor is

    theta_i = beta0 + beta1 * x_i + beta2 * s(x_i, tau) + gamma . z_i

where the segment term s carries the change point.  The hard indicator in
s is replaced by a kernel K((x - tau)/h), which makes the objective
(sum of y*theta - b(theta)) twice differentiable in tau.  The derivative
formulas implemented here are exact, not numerical; tests check them
against central finite differences.

An evaluation of G stacked problems is two passes: value_rows computes
theta, the segment term and the objective; derivative_rows goes on from
those arrays to the score and the curvature matrices, writing into a
Jacobian buffer whose parameter-free columns are filled once.  A caller
that accepts a trial point keeps the trial's value pass and runs only
the derivative pass.

objective and evaluate run with numpy's floating-point warnings off: a
value that is not finite raises NumericError, with no RuntimeWarning
first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import families
from .errors import DataError, DomainError, NumericError
from .families import Family
from .kernels import BandwidthRule, Kernel, eval_kernel

__all__ = [
    "ModelForm",
    "ModelSpec",
    "ParamVector",
    "Dataset",
    "segment_term",
    "indicator_segment",
    "design",
    "objective",
    "objective_rows",
    "evaluate",
    "evaluate_rows",
    "value_rows",
    "jacobian_buffer",
    "derivative_rows",
]


class ModelForm(enum.Enum):
    LINEAR_LINEAR = "linear-linear"
    LINEAR_QUADRATIC = "linear-quadratic"
    QUADRATIC_LINEAR = "quadratic-linear"


def parse_form(token: str) -> ModelForm:
    try:
        return ModelForm(token)
    except ValueError:
        raise DomainError(
            f"unknown model form {token!r}; expected one of "
            f"{[f.value for f in ModelForm]}"
        ) from None


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to evaluate the model on a dataset."""

    family: Family
    kernel: Kernel
    bw: BandwidthRule
    form: ModelForm = ModelForm.LINEAR_LINEAR
    n_covariates: int = 0

    @property
    def n_params(self) -> int:
        return 4 + self.n_covariates


@dataclass(frozen=True)
class ParamVector:
    """Parameters in the fixed order (beta0, beta1, beta2, tau, gamma...).

    beta2 is the slope (or curvature) change at the change point tau and
    must be nonzero for tau to be identified.
    """

    beta0: float
    beta1: float
    beta2: float
    tau: float
    gamma: tuple[float, ...] = ()

    def __post_init__(self):
        vals = (self.beta0, self.beta1, self.beta2, self.tau, *self.gamma)
        if not np.all(np.isfinite(vals)):
            raise DomainError("parameter vector must be finite")
        if self.beta2 == 0.0:
            raise DomainError("beta2 must be nonzero (change point unidentified)")

    def to_array(self) -> np.ndarray:
        return np.array([self.beta0, self.beta1, self.beta2, self.tau, *self.gamma])

    @classmethod
    def from_array(cls, a: np.ndarray) -> "ParamVector":
        a = np.asarray(a, dtype=float)
        return cls(a[0], a[1], a[2], a[3], tuple(a[4:]))


@dataclass(frozen=True)
class Dataset:
    """Observations (x, y) with optional extra covariates z (n x k).

    counts, when given, holds the multiplicity of each of the n stored
    rows, positive integers: row i stands for counts[i] identical
    observations, so the data hold sum(counts) observations and fit as
    their expansion does, to round-off.  A bootstrap resample is its
    distinct rows with their counts.  None means once each.  n is the
    number of stored rows either way.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray | None = None
    counts: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 1 or y.shape != x.shape:
            raise DataError("x and y must be 1-d arrays of equal length")
        if not np.all(np.isfinite(x)):
            raise DataError("x must be finite")
        if not np.all(np.isfinite(y)):
            raise DataError("y must be finite")
        k = 0
        if self.z is not None:
            z = np.asarray(self.z, dtype=float)
            if z.ndim != 2 or z.shape[0] != x.size:
                raise DataError("z must be an n x k matrix")
            if not np.all(np.isfinite(z)):
                raise DataError("z must be finite")
            object.__setattr__(self, "z", z)
            k = z.shape[1]
        size = x.size
        if self.counts is not None:
            raw = np.asarray(self.counts)
            if raw.shape != x.shape:
                raise DataError("counts must hold one entry per row of x")
            bad = DataError("counts must be positive integers")
            if raw.dtype.kind not in "iuf":
                raise bad
            # Stored as floats: they weight float sums, and a float times a
            # float needs no cast.  An infinite count makes the sum infinite.
            c = raw.astype(float)
            total = c.sum()
            if not (np.all((c >= 1) & (c == np.floor(c))) and np.isfinite(total)):
                raise bad
            object.__setattr__(self, "counts", c)
            size = int(total)
        if size < 5 + k:
            raise DataError(f"need at least {5 + k} observations, got {size}")

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def k(self) -> int:
        return 0 if self.z is None else self.z.shape[1]

    def check_family(self, family: Family) -> None:
        if not families.in_support(family, self.y).all():
            raise DataError(f"y values outside the support of family {family.value}")

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            self.x[idx],
            self.y[idx],
            None if self.z is None else self.z[idx],
            None if self.counts is None else self.counts[idx],
        )

    def require_uncounted(self, consumer: str) -> None:
        """DataError for a consumer that treats every row as one observation."""
        if self.counts is not None:
            raise DataError(f"{consumer} does not take counted data (Dataset.counts)")


def segment_term(form: ModelForm, x, tau, h: float, kernel: Kernel):
    """Smoothed segment term and its first two tau-derivatives.

    Returns (value, d_tau, d_tau2), each with the shape of x - tau: that of
    x for a scalar tau, G x n for a column of G candidate change points.
    The 1/h powers only ever multiply kernel values that are exactly zero
    outside the clamp window, so no inf*0 products arise.  Only tau and h
    are checked here; an overflow of x - tau reaches the log-likelihood
    check.
    """
    if not (h > 0 and np.all(np.isfinite(tau))):
        raise DomainError("bandwidth must be positive and tau finite")
    x = np.asarray(x, dtype=float)
    d = x - tau
    u = d / h
    kv, kp, kpp = eval_kernel(kernel, u)
    if form is ModelForm.LINEAR_LINEAR:
        value = d * kv
        d_tau = -(kv + u * kp)
        d_tau2 = (2.0 * kp + u * kpp) / h
    elif form is ModelForm.LINEAR_QUADRATIC:
        value = d * d * kv
        d_tau = -d * (2.0 * kv + u * kp)
        d_tau2 = 2.0 * kv + 4.0 * u * kp + u * u * kpp
    else:  # QUADRATIC_LINEAR
        omk = 1.0 - kv
        value = d * d * omk
        d_tau = -d * (2.0 * omk - u * kp)
        d_tau2 = 2.0 * omk - 4.0 * u * kp - u * u * kpp
    return value, d_tau, d_tau2


def indicator_segment(form: ModelForm, x, tau: float):
    """Hard-indicator segment term (the h -> 0 limit of segment_term)."""
    x = np.asarray(x, dtype=float)
    d = x - tau
    if form is ModelForm.LINEAR_LINEAR:
        return np.where(d > 0, d, 0.0)
    if form is ModelForm.LINEAR_QUADRATIC:
        return np.where(d >= 0, d * d, 0.0)
    return np.where(d < 0, d * d, 0.0)


def design(data: Dataset, *segment_cols) -> np.ndarray:
    """Design matrix [1, x, segment_cols..., z] in the coefficient order of
    ParamVector; a second segment column takes the slot of tau."""
    cols = [np.ones(data.n), data.x, *segment_cols]
    if data.z is not None:
        cols.extend(data.z.T)
    return np.column_stack(cols)


def _theta(spec: ModelSpec, params: np.ndarray, x, z, h: float):
    """theta for G rows, with the segment term and its two tau-derivatives
    it was built from.

    Row g of the G x (4 + k) params holds one parameter vector in the
    order of ParamVector, (beta0, beta1, beta2, tau, gamma...).  x and z
    are either shared by every row (n and n x k) or given per row (G x n
    and G x n x k); z is None without covariates.  Every returned array is
    G x n.
    """
    k = 0 if z is None else z.shape[-1]
    if params.shape[-1] != 4 + spec.n_covariates or k != spec.n_covariates:
        raise DomainError(
            f"covariate count mismatch: spec expects {spec.n_covariates}, "
            f"params carry {params.shape[-1] - 4}, data carries {k}"
        )
    seg, d_tau, d_tau2 = segment_term(spec.form, x, params[:, 3:4], h, spec.kernel)
    theta = params[:, 0:1] + params[:, 1:2] * x + params[:, 2:3] * seg
    if k:
        theta = theta + np.matmul(z, params[:, 4:, None])[:, :, 0]
    return theta, seg, d_tau, d_tau2


def _rows(data: Dataset):
    """The dataset as a stack of one row: (x, y, z, counts) with a leading
    axis; z and counts stay None when absent."""
    return tuple(None if v is None else v[None] for v in (data.x, data.y, data.z, data.counts))


def _terms(family: Family, theta: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y * theta - families.cumulant(family, theta)


def _sum_obs(terms: np.ndarray, c) -> np.ndarray:
    """Sum over the observations (last axis), each row weighted by its count."""
    return terms.sum(axis=-1) if c is None else (c * terms).sum(axis=-1)


@np.errstate(all="ignore")
def objective(spec: ModelSpec, params: ParamVector, data: Dataset, h: float) -> float:
    """Smoothed log-likelihood sum(y * theta - b(theta)), dropping the
    parameter-free log c(y) term.  Each row counts data.counts times.
    The one evaluation that names a non-finite contribution: it raises
    NumericError with the index of the first observation whose y * theta
    or b(theta) is not finite.
    """
    x, y, z, c = _rows(data)
    terms = _terms(spec.family, _theta(spec, params.to_array()[None], x, z, h)[0], y)
    bad = ~np.isfinite(terms)
    if bad.any():
        idx = int(np.nonzero(bad)[-1][0])
        raise NumericError(
            f"non-finite objective contribution at observation {idx}", index=idx
        )
    return float(_sum_obs(terms, c)[0])


def value_rows(spec: ModelSpec, params: np.ndarray, x, y, z, counts, h: float):
    """The value pass of G problems of the same size: the objective, and
    the arrays that the derivative pass at the same point needs.

    Row g of the G x (4 + k) params is evaluated on the observations x[g],
    y[g] and z[g] (G x n, G x n and G x n x k; or x, y and z shared by
    every row, n, n and n x k; z is None without covariates),
    observation i counting counts[g, i] times (G x n, the stacked
    Dataset.counts; None means once each).  Returns (Q, theta, seg, d_tau,
    d_tau2): Q[g] is row g's objective(), -inf where its log-likelihood is
    not finite, and the others are theta, the segment term and its two
    tau-derivatives, each G x n.  The tuple is derivative_rows' values.
    Works on G x n arrays; the caller bounds G.
    """
    theta, seg, d_tau, d_tau2 = _theta(spec, params, x, z, h)
    q = _sum_obs(_terms(spec.family, theta, y), counts)
    return np.where(np.isfinite(q), q, -np.inf), theta, seg, d_tau, d_tau2


def jacobian_buffer(x, z, G: int, n_par: int) -> np.ndarray:
    """A G x n x n_par buffer for derivative_rows: the Jacobian d theta /
    d delta of G rows with its parameter-free columns [1, x, z] filled
    (columns 0, 1 and 4 on; x and z as in value_rows).  Columns 2 and 3
    depend on the parameters; derivative_rows writes them.
    """
    D = np.empty((G, x.shape[-1], n_par))
    D[:, :, 0] = 1.0
    D[:, :, 1] = x
    if z is not None:
        D[:, :, 4:] = z
    return D


def derivative_rows(spec: ModelSpec, params: np.ndarray, y, counts, values, D: np.ndarray):
    """The derivative pass of G problems of the same size: evaluate_rows
    from the value pass at the same params.

    values is what value_rows returned for params, y and counts; D is a
    jacobian_buffer of the same rows, whose columns 2 and 3 this pass
    overwrites with seg and beta2 * d_tau.  Returns (Q, S, J, Sigma, ok)
    as evaluate_rows does, Q being values' own.
    """
    q, theta, seg, d_tau, d_tau2 = values
    b2 = params[:, 2:3]
    D[:, :, 2] = seg
    D[:, :, 3] = b2 * d_tau
    mu, w = families.mean_variance(spec.family, theta)
    r = y - mu
    if counts is not None:
        r, w = counts * r, counts * w
    resid = r[:, None, :]
    Dt = D.transpose(0, 2, 1)
    S = np.matmul(Dt, resid.transpose(0, 2, 1))[:, :, 0]
    Sig = np.matmul((D * w[:, :, None]).transpose(0, 2, 1), D)
    J = Sig.copy()
    J[:, 2, 3] -= np.matmul(resid, d_tau[:, :, None])[:, 0, 0]
    J[:, 3, 2] = J[:, 2, 3]
    J[:, 3, 3] -= np.matmul(resid, (b2 * d_tau2)[:, :, None])[:, 0, 0]
    ok = np.isfinite(q) & np.isfinite(S).all(axis=1) & np.isfinite(J).all(axis=(1, 2))
    return q, S, J, Sig, ok


def objective_rows(spec: ModelSpec, params: np.ndarray, x, y, z, counts, h: float) -> np.ndarray:
    """objective() of G problems of the same size in one pass: the Q of
    value_rows, with its rows, observations and counts.  A row whose
    log-likelihood is not finite reads -inf instead of raising.
    """
    return value_rows(spec, params, x, y, z, counts, h)[0]


def evaluate_rows(spec: ModelSpec, params: np.ndarray, x, y, z, counts, h: float):
    """evaluate() of G problems of the same size in one pass.

    Rows, observations and counts as in value_rows; the counts weight
    every sum over observations.  Returns (Q, S, J, Sigma, ok), each
    stacked over the G rows; ok[g] is False where row g's objective, score
    or negative Hessian is not finite, and that row's values mean nothing.
    Every sum over observations is a matrix product, so each row's numbers
    are those of a stack of one.  Works on G x n x (4 + k) arrays; the
    caller bounds G.  The value pass, then the derivative pass into a new
    jacobian_buffer; a caller that evaluates the same rows again keeps
    the buffer and calls the two passes itself.
    """
    values = value_rows(spec, params, x, y, z, counts, h)
    D = jacobian_buffer(x, z, len(params), params.shape[1])
    return derivative_rows(spec, params, y, counts, values, D)


@np.errstate(all="ignore")
def evaluate(spec: ModelSpec, params: ParamVector, data: Dataset, h: float):
    """Objective, score, negated Hessian and score covariance in one pass.

    Returns (Q, S, J, Sigma), ordered (beta0, beta1, beta2, tau, gamma...).
    Q is the value of objective().  With D the n x (4+k) Jacobian
    d theta/d delta, S = D^t (y - b'(theta)) and Sigma is the weighted Gram
    matrix sum_i b''(theta_i) D_i D_i^t, the model covariance of the score
    (positive semidefinite by construction).  J equals Sigma plus the
    residual terms of the (beta2, tau) and (tau, tau) entries, the two
    places where theta is nonlinear in the parameters.  Every sum over
    observations weights row i by data.counts[i].
    """
    q, S, J, Sig, ok = evaluate_rows(spec, params.to_array()[None], *_rows(data), h)
    if not ok[0]:
        objective(spec, params, data, h)  # names a non-finite contribution
        raise NumericError("non-finite score or negative Hessian")
    return float(q[0]), S[0], J[0], Sig[0]

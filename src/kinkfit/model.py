"""Smoothed change-point model: objective and its exact first and second
derivatives.

The linear predictor is

    theta_i = beta0 + beta1 * x_i + beta2 * s(x_i, tau) + gamma . z_i

where the segment term s carries the change point.  The hard indicator in
s is replaced by a kernel K((x - tau)/h), which makes the objective
(sum of y*theta - b(theta)) twice differentiable in tau.  The derivative
formulas implemented here are exact, not numerical; tests check them
against central finite differences.
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
    "profile_objective",
    "objective_rows",
    "evaluate",
    "evaluate_rows",
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
    """Observations (x, y) with optional extra covariates z (n x k)."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray | None = None

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
        if x.size < 5 + k:
            raise DataError(f"need at least {5 + k} observations, got {x.size}")

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
            self.x[idx], self.y[idx], None if self.z is None else self.z[idx]
        )


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


def _theta(spec: ModelSpec, coef: np.ndarray, tau, x, z, h: float):
    """theta for G rows, with the segment term and its two tau-derivatives
    it was built from.

    Row g of the G x (3 + k) coef holds (beta0, beta1, beta2, gamma...) and
    tau is a G x 1 column.  x and z are either shared by every row (n and
    n x k) or given per row (G x n and G x n x k); z is None without
    covariates.  Every returned array is G x n.
    """
    k = 0 if z is None else z.shape[-1]
    if coef.shape[-1] != 3 + spec.n_covariates or k != spec.n_covariates:
        raise DomainError(
            f"covariate count mismatch: spec expects {spec.n_covariates}, "
            f"params carry {coef.shape[-1] - 3}, data carries {k}"
        )
    seg, d_tau, d_tau2 = segment_term(spec.form, x, tau, h, spec.kernel)
    theta = coef[:, 0:1] + coef[:, 1:2] * x + coef[:, 2:3] * seg
    if k and z.ndim == 3:
        theta = theta + np.matmul(z, coef[:, 3:, None])[:, :, 0]
    elif k:
        theta = theta + (z @ coef[:, 3:].T).T
    return theta, seg, d_tau, d_tau2


def _split(params: np.ndarray):
    """(coef, tau column) of a G x (4 + k) stack of parameter vectors."""
    return np.concatenate((params[:, :3], params[:, 4:]), axis=1), params[:, 3:4]


def _rows(data: Dataset):
    """The dataset as a stack of one row: (x, y, z) with a leading axis."""
    return data.x[None], data.y[None], None if data.z is None else data.z[None]


def _terms(family: Family, theta: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y * theta - families.cumulant(family, theta)


def _loglik(family: Family, theta: np.ndarray, y: np.ndarray):
    """Log-likelihood sums over the last axis of theta; the one check that
    theta and b(theta) are finite."""
    terms = _terms(family, theta, y)
    bad = ~np.isfinite(terms)
    if bad.any():
        idx = int(np.nonzero(bad)[-1][0])
        raise NumericError(
            f"non-finite objective contribution at observation {idx}", index=idx
        )
    return terms.sum(axis=-1)


def objective(spec: ModelSpec, params: ParamVector, data: Dataset, h: float) -> float:
    """Smoothed log-likelihood sum(y * theta - b(theta)), dropping the
    parameter-free log c(y) term."""
    x, y, z = _rows(data)
    theta = _theta(spec, *_split(params.to_array()[None]), x, z, h)[0]
    return float(_loglik(spec.family, theta, y)[0])


def profile_objective(
    spec: ModelSpec, coef: np.ndarray, taus: np.ndarray, data: Dataset, h: float
) -> np.ndarray:
    """objective() of G candidates in one pass.

    Row g of the G x (3 + k) coef holds (beta0, beta1, beta2, gamma...) of
    the candidate whose change point is taus[g].  Works on G x n arrays;
    the caller bounds G.  Raises NumericError if any candidate's
    log-likelihood is not finite.
    """
    tau = np.asarray(taus, dtype=float)[:, None]
    theta = _theta(spec, coef, tau, data.x, data.z, h)[0]
    return _loglik(spec.family, theta, data.y)


def objective_rows(spec: ModelSpec, params: np.ndarray, x, y, z, h: float) -> np.ndarray:
    """objective() of G problems of the same size in one pass.

    Row g of the G x (4 + k) params is evaluated on the observations x[g],
    y[g] and z[g] (G x n, G x n and G x n x k; z is None without
    covariates).  A row whose log-likelihood is not finite reads -inf
    instead of raising.  Works on G x n arrays; the caller bounds G.
    """
    coef, tau = _split(params)
    q = _terms(spec.family, _theta(spec, coef, tau, x, z, h)[0], y).sum(axis=-1)
    return np.where(np.isfinite(q), q, -np.inf)


def evaluate_rows(spec: ModelSpec, params: np.ndarray, x, y, z, h: float):
    """evaluate() of G problems of the same size in one pass.

    Rows and observations as in objective_rows.  Returns (Q, S, J, Sigma,
    ok), each stacked over the G rows; ok[g] is False where row g's
    objective, score or negative Hessian is not finite, and that row's
    values mean nothing.  Every sum over observations is a matrix product,
    so each row's numbers are those of a stack of one.  Works on
    G x n x (4 + k) arrays; the caller bounds G.
    """
    coef, tau = _split(params)
    theta, seg, d_tau, d_tau2 = _theta(spec, coef, tau, x, z, h)
    q = _terms(spec.family, theta, y).sum(axis=-1)
    b2 = coef[:, 2:3]
    D = np.empty(theta.shape + (params.shape[1],))
    D[:, :, 0] = 1.0
    D[:, :, 1] = x
    D[:, :, 2] = seg
    D[:, :, 3] = b2 * d_tau
    if z is not None:
        D[:, :, 4:] = z
    mu, w = families.mean_variance(spec.family, theta)
    resid = (y - mu)[:, None, :]
    Dt = D.transpose(0, 2, 1)
    S = np.matmul(Dt, resid.transpose(0, 2, 1))[:, :, 0]
    Sig = np.matmul((D * w[:, :, None]).transpose(0, 2, 1), D)
    J = Sig.copy()
    J[:, 2, 3] -= np.matmul(resid, d_tau[:, :, None])[:, 0, 0]
    J[:, 3, 2] = J[:, 2, 3]
    J[:, 3, 3] -= np.matmul(resid, (b2 * d_tau2)[:, :, None])[:, 0, 0]
    ok = np.isfinite(q) & np.isfinite(S).all(axis=1) & np.isfinite(J).all(axis=(1, 2))
    return q, S, J, Sig, ok


def evaluate(spec: ModelSpec, params: ParamVector, data: Dataset, h: float):
    """Objective, score, negated Hessian and score covariance in one pass.

    Returns (Q, S, J, Sigma), ordered (beta0, beta1, beta2, tau, gamma...).
    Q is the value of objective().  With D the n x (4+k) Jacobian
    d theta/d delta, S = D^t (y - b'(theta)) and Sigma is the weighted Gram
    matrix sum_i b''(theta_i) D_i D_i^t, the model covariance of the score
    (positive semidefinite by construction).  J equals Sigma plus the
    residual terms of the (beta2, tau) and (tau, tau) entries, the two
    places where theta is nonlinear in the parameters.
    """
    q, S, J, Sig, ok = evaluate_rows(spec, params.to_array()[None], *_rows(data), h)
    if not ok[0]:
        objective(spec, params, data, h)  # names a non-finite contribution
        raise NumericError("non-finite score or negative Hessian")
    return float(q[0]), S[0], J[0], Sig[0]

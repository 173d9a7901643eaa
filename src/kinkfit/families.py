"""Exponential-family distributions under their natural link.

Each family supplies the log-normalizer ``b`` together with its first two
derivatives: ``b'`` is the mean function (the inverse link, since the link
is natural) and ``b''`` the variance function.  The normal family is fixed
at unit dispersion.

``cumulant``, ``mean`` and ``mean_variance`` take theta unchecked; the model's
log-likelihood reports a non-finite theta or b(theta) as NumericError.
``sample`` checks theta, which it gets from scenario values.

The logit mean is the logistic 1 / (1 + exp(-theta)), one numpy ``exp``
pass plus arithmetic, in ``mean``, ``mean_variance`` and ``sample`` alike.
That is the formula of scipy's ``expit``; the two differ by a few ulp at
most (numpy's and the C library's ``exp`` round apart), so a draw
``uniform < p`` could change only for a uniform within those ulp, and the
generated replicates are those that ``expit`` gave.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DomainError

__all__ = ["Family", "cumulant", "mean", "mean_variance", "sample", "in_support", "parse_family"]


class Family(enum.Enum):
    """Distribution of the response, paired with its natural link."""

    NORMAL_IDENTITY = "normal"
    BERNOULLI_LOGIT = "logit"
    POISSON_LOG = "poisson"


_TOKENS = {f.value: f for f in Family}


def parse_family(token: str) -> Family:
    """Map a config/CLI token ("normal", "logit", "poisson") to a Family."""
    try:
        return _TOKENS[token]
    except KeyError:
        raise DomainError(
            f"unknown family {token!r}; expected one of {sorted(_TOKENS)}"
        ) from None


def cumulant(family: Family, theta):
    """Log-normalizer b(theta).

    The logit branch uses max(theta, 0) + log1p(exp(-|theta|)) so that
    large |theta| neither overflows nor loses the tail.
    """
    if family is Family.NORMAL_IDENTITY:
        return theta**2 / 2.0
    if family is Family.BERNOULLI_LOGIT:
        return np.maximum(theta, 0.0) + np.log1p(np.exp(-np.abs(theta)))
    return np.exp(theta)


def _logistic(theta):
    """(p, e) with e = exp(-max(theta, -709)) and p = 1 / (1 + e): the logit
    mean, clipped so that e stays finite (see mean_variance)."""
    e = np.exp(-np.maximum(theta, -709.0))
    return 1.0 / (1.0 + e), e


def mean(family: Family, theta):
    """Mean function b'(theta), i.e. the inverse of the natural link."""
    if family is Family.NORMAL_IDENTITY:
        return theta + 0.0
    if family is Family.BERNOULLI_LOGIT:
        return _logistic(theta)[0]
    return np.exp(theta)


def mean_variance(family: Family, theta):
    """Mean b'(theta) and variance function b''(theta) >= 0 in one pass.

    For the logit family, with e = exp(-max(theta, -709)), the mean is
    p = 1 / (1 + e) and the variance p * (e * p), i.e. expit(theta) *
    expit(-theta), in one exp pass.  The clip keeps e finite, so neither
    value is ever NaN for a non-NaN theta: below theta = -709 both read
    about 1.2e-308 instead of their true, smaller values.  The variance
    stays positive far into the upper tail, where it equals e, until e
    underflows to 0 near theta = 745; p * (1 - p) would flush to 0 above
    about 37.  For |theta| <= 700 both are within a few ulp of expit's.
    """
    if family is Family.NORMAL_IDENTITY:
        return theta + 0.0, np.ones_like(theta)
    if family is Family.BERNOULLI_LOGIT:
        p, e = _logistic(theta)
        return p, p * (e * p)
    m = np.exp(theta)
    return m, m


def sample(family: Family, theta, rng: np.random.Generator):
    """Draw from the family at natural parameter theta.

    The caller owns the random stream; use one generator per thread.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise DomainError("natural parameter must be finite")
    if family is Family.NORMAL_IDENTITY:
        return rng.normal(loc=theta, scale=1.0)
    if family is Family.BERNOULLI_LOGIT:
        return (rng.random(size=np.shape(theta)) < _logistic(theta)[0]).astype(float)
    lam = np.exp(theta)
    if not np.all(np.isfinite(lam)):
        raise DomainError("Poisson rate exp(theta) overflows")
    return rng.poisson(lam=lam).astype(float)


def in_support(family: Family, y: np.ndarray) -> np.ndarray:
    """Per-observation mask: whether each response lies in the family's
    support."""
    if family is Family.BERNOULLI_LOGIT:
        return (y == 0.0) | (y == 1.0)
    if family is Family.POISSON_LOG:
        return (y >= 0.0) & (y == np.floor(y))
    return np.isfinite(y)

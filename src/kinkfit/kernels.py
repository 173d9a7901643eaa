"""Smoothing kernels and bandwidth schedules.

A kernel here is a CDF-like function K rising from 0 to 1, used to replace
the hard indicator I(x > tau) in the likelihood.  Each kernel carries its
first two derivatives.  Evaluation calls the kernel only where |u| <= 1e3
and returns the exact limiting values beyond that: with bandwidths like
n^-3 the argument is astronomically large and naive evaluation produces
NaN from 0 * inf products downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "Kernel",
    "BandwidthRule",
    "normal_cdf_kernel",
    "exp_cdf_kernel",
    "custom_kernel",
    "eval_kernel",
    "bandwidth",
    "kernel_order",
    "validate",
    "KernelReport",
    "parse_kernel",
    "parse_bandwidth",
]

# Beyond this the kernel is replaced by its exact limit.
CLAMP = 1.0e3

# Smallest bandwidth ever used; guards pathological n in power-law rules.
BANDWIDTH_FLOOR = float(np.finfo(float).eps) ** 0.75
# kernel_order looks for a nonzero K' moment above _MOMENT_TOL up to this order.
_MAX_ORDER = 8
_MOMENT_TOL = 1e-6
# _kp_moments' composite Gauss-Legendre rule: this many nodes on each of
# this many equal panels of the clipped support.
_GL_NODES = 20
_GL_PANELS = 100
# validate's bound on |u| K'(u) and u^2 K''(u) at |u| = 1e3.
_TAIL_TOL = 1e-6


@dataclass(frozen=True)
class Kernel:
    """A smoothing function with derivatives.

    ``k``, ``kp``, ``kpp`` are vectorized callables for K, K' and K''.
    They are the *raw* functions; use :func:`eval_kernel` for the clamped
    evaluation used in model code.
    """

    name: str
    k: Callable[[np.ndarray], np.ndarray]
    kp: Callable[[np.ndarray], np.ndarray]
    kpp: Callable[[np.ndarray], np.ndarray]
    # Integration support of K' for the moment computation.
    support: tuple[float, float] = (-np.inf, np.inf)


def _phi(u):
    return np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf(u):
    """Phi(u) = erfc(-u / sqrt 2) / 2, by the standard library's erfc point
    by point; a NaN gives NaN and a scalar a 0-d result.  The argument is
    scaled as scipy's ndtr scales it, and the two agree to 3e-15 relative
    for |u| <= 8 and to 1e-13 for |u| <= 37."""
    return 0.5 * np.asarray(_erfc(np.multiply(u, -math.sqrt(0.5))), dtype=float)


def normal_cdf_kernel() -> Kernel:
    """Standard normal CDF: K = Phi, K' = phi, K'' = -u phi."""
    return Kernel(
        name="normal-cdf",
        k=_normal_cdf,
        kp=_phi,
        kpp=lambda u: -np.asarray(u) * _phi(u),
    )


def exp_cdf_kernel() -> Kernel:
    """Unit-rate exponential CDF: K(u) = 1 - exp(-u) for u >= 0, else 0.

    K'' does not exist at the kink u = 0; the right limits K'(0) = 1 and
    K''(0) = -1 are used (a measure-zero choice).
    """

    def k(u):
        u = np.asarray(u, dtype=float)
        return np.where(u >= 0.0, -np.expm1(-np.maximum(u, 0.0)), 0.0)

    def kp(u):
        u = np.asarray(u, dtype=float)
        return np.where(u >= 0.0, np.exp(-np.maximum(u, 0.0)), 0.0)

    def kpp(u):
        u = np.asarray(u, dtype=float)
        return np.where(u >= 0.0, -np.exp(-np.maximum(u, 0.0)), 0.0)

    return Kernel(name="exp-cdf", k=k, kp=kp, kpp=kpp, support=(0.0, np.inf))


def custom_kernel(k, kp, kpp, name="custom", support=(-np.inf, np.inf)) -> Kernel:
    """Wrap user-supplied K, K', K'' callables; run :func:`validate` on the
    result before trusting it."""
    return Kernel(name=name, k=k, kp=kp, kpp=kpp, support=support)


def eval_kernel(kernel: Kernel, u):
    """Evaluate (K, K', K'') at u with tail clamping.

    For |u| > 1e3 the exact limits are returned: K is 0 or 1 and both
    derivatives are 0; only the points inside that window reach the
    kernel's callables.  u is not checked: a NaN counts as inside, so it
    propagates into K and the model's log-likelihood check reports it.
    The outputs are arrays of u's shape, 0-d for a scalar u.
    """
    u = np.asarray(u, dtype=float, order="C")
    flat = u.reshape(-1)
    kv = (flat > 0.0).astype(float)
    kpv, kppv = np.zeros(flat.size), np.zeros(flat.size)
    # Write only the inside points, by index: at small bandwidths they are
    # a tiny share of u, and full-array masks cost more than the kernel.
    idx = np.flatnonzero(~(np.abs(flat) > CLAMP))
    if idx.size:
        ui = flat[idx]
        kv[idx], kpv[idx], kppv[idx] = kernel.k(ui), kernel.kp(ui), kernel.kpp(ui)
    return kv.reshape(u.shape), kpv.reshape(u.shape), kppv.reshape(u.shape)


@dataclass(frozen=True)
class BandwidthRule:
    """Bandwidth schedule h(n).

    form "power": h = max(BANDWIDTH_FLOOR, n**exponent); the exponent must
    be negative so that h -> 0 as n grows.  form "fixed": a constant h.
    """

    form: str  # "power" | "fixed"
    exponent: float = 0.0
    h: float = 0.0

    def __post_init__(self):
        if self.form not in ("power", "fixed"):
            raise DomainError(f"unknown bandwidth form {self.form!r}")
        if self.form == "power" and self.exponent >= 0:
            raise DomainError("power-law bandwidth exponent must be negative")
        if self.form == "fixed" and self.h <= 0:
            raise DomainError("fixed bandwidth must be positive")


def bandwidth(rule: BandwidthRule, n: int) -> float:
    """Bandwidth for sample size n."""
    if n < 1:
        raise DomainError("sample size must be at least 1")
    if rule.form == "fixed":
        return rule.h
    return max(BANDWIDTH_FLOOR, float(n) ** rule.exponent)


def _kp_moments(kernel: Kernel) -> np.ndarray:
    """The moments of K', int v**i K'(v) dv for i = 1, ..., _MAX_ORDER.

    The integral runs over the kernel's support clipped to [-50, 50], by
    a fixed composite Gauss-Legendre rule: _GL_NODES nodes on each of
    _GL_PANELS equal panels, with one call of K' on all the nodes.  The
    rule is exact for polynomials of degree 2 * _GL_NODES - 1 on each
    panel.  numpy.polynomial is imported here, so that importing the
    package does not load it.
    """
    from numpy.polynomial.legendre import leggauss

    lo, hi = kernel.support
    lo, hi = max(lo, -50.0), min(hi, 50.0)
    t, w = leggauss(_GL_NODES)
    edges = np.linspace(lo, hi, _GL_PANELS + 1)
    mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    v = (mid[:, None] + half[:, None] * t).ravel()
    wk = (half[:, None] * w).ravel() * kernel.kp(v)
    return v ** np.arange(1, _MAX_ORDER + 1)[:, None] @ wk


def kernel_order(kernel: Kernel) -> int:
    """Smallest i >= 1 with a nonzero i-th moment of K': the first of
    _kp_moments above _MOMENT_TOL in absolute value.  Raises
    ValidationError when none up to _MAX_ORDER is."""
    nonzero = np.flatnonzero(np.abs(_kp_moments(kernel)) > _MOMENT_TOL)
    if nonzero.size == 0:
        raise ValidationError(
            f"kernel {kernel.name!r} has no nonzero K' moment up to order {_MAX_ORDER}"
        )
    return int(nonzero[0]) + 1


# The regularity conditions: (name, KernelReport field), in report order.
_CONDITIONS = (
    ("limits", "limits_ok"),
    ("monotone", "monotone_ok"),
    ("first_derivative_bounded", "kp_bounded"),
    ("second_derivative_bounded", "kpp_bounded"),
    ("tail_first_derivative", "tail_first"),
    ("tail_second_derivative", "tail_second"),
)


@dataclass(frozen=True)
class KernelReport:
    """Pass/fail record for the kernel regularity conditions."""

    limits_ok: bool  # K(-1e3) ~ 0 and K(1e3) ~ 1
    monotone_ok: bool  # K nondecreasing on a coarse grid
    kp_bounded: bool
    kpp_bounded: bool
    tail_first: bool  # |u| K'(u) -> 0
    tail_second: bool  # u^2 K''(u) -> 0
    checks: dict = field(default_factory=dict)

    @property
    def conditions(self) -> dict[str, bool]:
        """Each condition's outcome by name, in report order."""
        return {name: getattr(self, attr) for name, attr in _CONDITIONS}

    @property
    def passed(self) -> bool:
        return all(self.conditions.values())


def validate(kernel: Kernel) -> KernelReport:
    """Check the limit, boundedness and tail-decay conditions.

    Failures are reported, never raised: a rejected kernel is a result,
    not an exception.  The raw (unclamped) callables are probed so that
    clamping cannot mask a bad tail.
    """
    big = 1.0e3
    grid = np.linspace(-50.0, 50.0, 2001)
    kv = np.asarray(kernel.k(grid), dtype=float)
    kpv = np.asarray(kernel.kp(grid), dtype=float)
    kppv = np.asarray(kernel.kpp(grid), dtype=float)

    limits_ok = abs(float(kernel.k(-big))) < 1e-3 and abs(float(kernel.k(big)) - 1.0) < 1e-3
    monotone_ok = bool(np.all(np.diff(kv) >= -1e-12))
    kp_bounded = bool(np.all(np.isfinite(kpv)) and np.max(np.abs(kpv)) < 1e6)
    kpp_bounded = bool(np.all(np.isfinite(kppv)) and np.max(np.abs(kppv)) < 1e6)
    t1 = max(abs(big * float(kernel.kp(big))), abs(-big * float(kernel.kp(-big))))
    t2 = max(abs(big**2 * float(kernel.kpp(big))), abs(big**2 * float(kernel.kpp(-big))))
    return KernelReport(
        limits_ok=limits_ok,
        monotone_ok=monotone_ok,
        kp_bounded=kp_bounded,
        kpp_bounded=kpp_bounded,
        tail_first=t1 < _TAIL_TOL,
        tail_second=t2 < _TAIL_TOL,
        checks={"tail_first_value": t1, "tail_second_value": t2},
    )


def parse_kernel(token: str) -> Kernel:
    """Map "normal-cdf" | "exp-cdf" to a built-in kernel."""
    if token == "normal-cdf":
        return normal_cdf_kernel()
    if token == "exp-cdf":
        return exp_cdf_kernel()
    raise DomainError(f"unknown kernel {token!r}; expected 'normal-cdf' or 'exp-cdf'")


def parse_bandwidth(token: str) -> BandwidthRule:
    """Parse "n^-2", "n^-3", ... or "fixed:<value>"."""
    if token.startswith("fixed:"):
        try:
            h = float(token.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"bad fixed bandwidth {token!r}") from None
        return BandwidthRule(form="fixed", h=h)
    if token.startswith("n^"):
        try:
            expo = float(token[2:])
        except ValueError:
            raise DomainError(f"bad bandwidth token {token!r}") from None
        return BandwidthRule(form="power", exponent=expo)
    raise DomainError(f"unknown bandwidth rule {token!r}; expected 'n^<exp>' or 'fixed:<h>'")

"""Smoothing kernels: exact values, clamping, bandwidth rules, order and
regularity validation against quadrature oracles."""
import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from kinkfit.errors import DomainError, ValidationError
from kinkfit.kernels import (
    BANDWIDTH_FLOOR,
    CLAMP,
    BandwidthRule,
    Kernel,
    _kp_moments,
    bandwidth,
    eval_kernel,
    exp_cdf_kernel,
    kernel_order,
    normal_cdf_kernel,
    parse_bandwidth,
    parse_kernel,
    validate,
)


def quad_moment(kernel, i):
    """Independent moment: the i-th moment of K' by adaptive quadrature
    over the support clipped to [-50, 50]."""
    lo = max(kernel.support[0], -50.0)
    hi = min(kernel.support[1], 50.0)
    return integrate.quad(lambda v: v**i * kernel.kp(v), lo, hi, limit=300)[0]


def quad_order(kernel, max_order=8, tol=1e-6):
    """Independent order computation: first nonzero moment of K'."""
    for i in range(1, max_order + 1):
        if abs(quad_moment(kernel, i)) > tol:
            return i
    raise AssertionError("no nonzero moment found")


def cauchy_tailed_kernel():
    # CDF of the standard Cauchy: tails decay like 1/u, so u K'(u) -> 1/pi
    return Kernel(
        name="cauchy-cdf",
        k=lambda u: 0.5 + np.arctan(u) / np.pi,
        kp=lambda u: 1.0 / (np.pi * (1.0 + u**2)),
        kpp=lambda u: -2.0 * u / (np.pi * (1.0 + u**2) ** 2),
    )


def scaled_normal_kernel():
    # CDF of N(0, 2): symmetric, so still order 2
    s = np.sqrt(2.0)
    return Kernel(
        name="normal-cdf-sd2",
        k=lambda u: ndtr(u / s),
        kp=lambda u: np.exp(-u**2 / 4.0) / (s * np.sqrt(2 * np.pi)),
        kpp=lambda u: -(u / 2.0) * np.exp(-u**2 / 4.0) / (s * np.sqrt(2 * np.pi)),
    )


def test_normal_cdf_values():
    k = normal_cdf_kernel()
    kv, kpv, kppv = eval_kernel(k, 0.0)
    assert kv == pytest.approx(0.5)
    assert kpv == pytest.approx(1.0 / np.sqrt(2 * np.pi))
    assert kppv == pytest.approx(0.0, abs=1e-15)
    kv1, _, _ = eval_kernel(k, 1.0)
    assert kv1 == pytest.approx(ndtr(1.0))


def masked_eval_kernel(kernel, u):
    """eval_kernel by full-array masks: the reference form."""
    u = np.asarray(u, dtype=float)
    inside = ~(np.abs(u) > CLAMP)
    ui = u[inside]
    kv, kpv, kppv = np.where(u > 0.0, 1.0, 0.0), np.zeros_like(u), np.zeros_like(u)
    kv[inside], kpv[inside], kppv[inside] = kernel.k(ui), kernel.kp(ui), kernel.kpp(ui)
    return kv, kpv, kppv


@pytest.mark.parametrize("kernel", [normal_cdf_kernel(), exp_cdf_kernel()], ids=["normal", "exp"])
@pytest.mark.parametrize("u", [
    0.0,
    2.5e4,
    np.array(-CLAMP),
    np.array([-5e3, 2e3, 1e9, -np.inf, np.inf]),
    np.array([[-3.0, 0.0, 1e4], [CLAMP, -CLAMP, 0.7]]),
    np.array([np.nan, 0.2, -2e3, np.nan]),
    np.linspace(-2e3, 2e3, 41)[::2],
], ids=["0-d inside", "0-d outside", "0-d at -CLAMP", "all outside", "mixed 2-d", "nan",
        "strided"])
def test_eval_kernel_matches_masked_form(kernel, u):
    got, want = eval_kernel(kernel, u), masked_eval_kernel(kernel, u)
    for g, w in zip(got, want):
        assert isinstance(g, np.ndarray) and g.shape == np.shape(u)
        np.testing.assert_array_equal(g, w)


def test_exp_cdf_values():
    k = exp_cdf_kernel()
    kv, kpv, kppv = eval_kernel(k, np.array([-1.0, 0.0, 1.0]))
    np.testing.assert_allclose(kv, [0.0, 0.0, 1.0 - np.exp(-1.0)])
    np.testing.assert_allclose(kpv, [0.0, 1.0, np.exp(-1.0)])
    np.testing.assert_allclose(kppv, [0.0, -1.0, -np.exp(-1.0)])


def test_tail_clamping_is_exact_and_finite():
    for k in (normal_cdf_kernel(), exp_cdf_kernel()):
        kv, kpv, kppv = eval_kernel(k, np.array([-1e7, -40.0, 40.0, 1e7]))
        assert np.all(np.isfinite(kv))
        assert kv[0] == 0.0 and kv[-1] == 1.0
        assert kpv[0] == 0.0 and kpv[-1] == 0.0
        assert kppv[0] == 0.0 and kppv[-1] == 0.0


def clip_and_select(kernel, u):
    """Reference clamping: evaluate the kernel on the clipped argument
    everywhere, then select the exact limits outside the window."""
    uc = np.clip(u, -CLAMP, CLAMP)
    inside = np.abs(u) <= CLAMP
    kv = np.where(u > CLAMP, 1.0, np.where(u < -CLAMP, 0.0, kernel.k(uc)))
    return kv, np.where(inside, kernel.kp(uc), 0.0), np.where(inside, kernel.kpp(uc), 0.0)


def test_kernel_is_called_only_inside_the_window():
    seen = []

    def counted(f):
        def wrapped(u):
            seen.append(np.array(u, copy=True))
            return f(u)
        return wrapped

    base = normal_cdf_kernel()
    kern = Kernel(name="counted", k=counted(base.k), kp=counted(base.kp), kpp=counted(base.kpp))
    u = np.array([-1e7, -CLAMP - 1, -CLAMP, -3.0, 0.0, 0.5, CLAMP, CLAMP + 1, 1e7])
    eval_kernel(kern, u)
    assert len(seen) == 3
    for arg in seen:
        np.testing.assert_array_equal(arg, [-CLAMP, -3.0, 0.0, 0.5, CLAMP])
    for k in (base, exp_cdf_kernel(), kern):
        for got, ref in zip(eval_kernel(k, u), clip_and_select(k, u)):
            np.testing.assert_array_equal(got, ref)


def test_nan_argument_gives_nan_kernel():
    kv, kpv, kppv = eval_kernel(normal_cdf_kernel(), np.array([1.0, np.nan]))
    assert np.isnan(kv[1]) and np.isnan(kpv[1]) and np.isnan(kppv[1])
    assert kv[0] == pytest.approx(ndtr(1.0), rel=3e-15, abs=0)


@pytest.mark.parametrize("bound, rtol", [(8.0, 3e-15), (37.0, 1e-13)])
def test_normal_cdf_matches_scipy_ndtr(bound, rtol):
    # K is the standard library's erfc, point by point; scipy's ndtr is the
    # reference.  Below u = -37 both are under 1e-300.
    u = np.linspace(-bound, bound, 400_001)
    np.testing.assert_allclose(normal_cdf_kernel().k(u), ndtr(u), rtol=rtol, atol=0)
    assert np.shape(normal_cdf_kernel().k(-bound)) == ()


def test_bandwidth_power_rule():
    rule = parse_bandwidth("n^-2")
    assert bandwidth(rule, 500) == pytest.approx(500.0**-2)
    rule3 = parse_bandwidth("n^-3")
    assert bandwidth(rule3, 500) == pytest.approx(500.0**-3)


def test_bandwidth_floor_engages():
    rule = BandwidthRule(form="power", exponent=-8.0)
    assert float(10**6) ** -8.0 < BANDWIDTH_FLOOR
    assert bandwidth(rule, 10**6) == BANDWIDTH_FLOOR


def test_bandwidth_fixed_and_errors():
    assert bandwidth(parse_bandwidth("fixed:0.01"), 12345) == 0.01
    with pytest.raises(DomainError):
        bandwidth(parse_bandwidth("n^-2"), 0)
    with pytest.raises(DomainError):
        BandwidthRule(form="power", exponent=1.0)
    with pytest.raises(DomainError):
        BandwidthRule(form="fixed", h=-0.1)
    with pytest.raises(DomainError):
        parse_bandwidth("h=0.1")


def test_kernel_order_builtins():
    assert kernel_order(normal_cdf_kernel()) == 2
    assert kernel_order(exp_cdf_kernel()) == 1


def test_kernel_order_custom_matches_quadrature_oracle():
    k = scaled_normal_kernel()
    assert kernel_order(k) == 2
    assert quad_order(k) == 2
    assert quad_order(exp_cdf_kernel()) == 1


@pytest.mark.parametrize("kernel", [normal_cdf_kernel(), exp_cdf_kernel(),
                                    scaled_normal_kernel()], ids=["normal", "exp", "normal-sd2"])
def test_kp_moments_match_quadrature(kernel):
    # The odd moments of the symmetric kernels vanish: both rules give
    # round-off there, hence the absolute floor, far below the 1e-6 at
    # which kernel_order counts a moment as nonzero.
    want = [quad_moment(kernel, i) for i in range(1, 9)]
    np.testing.assert_allclose(_kp_moments(kernel), want, rtol=1e-12, atol=1e-12)


def test_kernel_order_stops_at_cauchy_second_moment():
    # K' has no moments on the real line; on the support clipped to
    # [-50, 50] the first vanishes and the second, about 30.8, is the order.
    k = cauchy_tailed_kernel()
    np.testing.assert_allclose(_kp_moments(k)[:3], [quad_moment(k, i) for i in (1, 2, 3)],
                               rtol=1e-12, atol=1e-12)
    assert kernel_order(k) == quad_order(k) == 2


def test_kernel_order_raises_without_a_nonzero_moment():
    flat = Kernel(name="flat", k=np.zeros_like, kp=np.zeros_like, kpp=np.zeros_like)
    with pytest.raises(ValidationError, match="no nonzero K' moment up to order 8"):
        kernel_order(flat)


def test_validate_builtins_pass():
    for k in (normal_cdf_kernel(), exp_cdf_kernel()):
        rep = validate(k)
        assert rep.passed, rep
        assert rep.limits_ok and rep.monotone_ok
        assert rep.tail_first and rep.tail_second


def test_validate_rejects_cauchy_tails():
    rep = validate(cauchy_tailed_kernel())
    assert not rep.passed
    # |u| K'(u) -> 1/pi, so at the probe point u = 1e3 the product is still
    # ~3e-4, far above the decay tolerance: condition (a) must fail
    assert not rep.tail_first
    probe = 1e3
    assert rep.checks["tail_first_value"] == pytest.approx(
        probe / (np.pi * (1.0 + probe**2)), rel=1e-6)
    assert rep.limits_ok and rep.monotone_ok


def test_kernel_monotone_on_grid():
    for k in (normal_cdf_kernel(), exp_cdf_kernel()):
        kv, _, _ = eval_kernel(k, np.linspace(-30, 30, 4001))
        assert np.all(np.diff(kv) >= -1e-12)


@pytest.mark.parametrize("kern,lo", [(normal_cdf_kernel(), -8.0), (exp_cdf_kernel(), 0.1)])
def test_derivatives_match_finite_differences(kern, lo):
    # exp-cdf has a kink at 0, so probe strictly inside each smooth region
    u = np.linspace(lo, 8.0, 41)
    eps = 1e-6
    kp_fd = (kern.k(u + eps) - kern.k(u - eps)) / (2 * eps)
    kpp_fd = (kern.kp(u + eps) - kern.kp(u - eps)) / (2 * eps)
    np.testing.assert_allclose(kern.kp(u), kp_fd, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(kern.kpp(u), kpp_fd, rtol=1e-5, atol=1e-8)


def test_smoothed_step_converges_to_indicator():
    # K((x - tau)/h) -> 1{x > tau} pointwise as h -> 0
    k = normal_cdf_kernel()
    x = np.array([-0.5, 0.3, 0.7, 1.4])
    tau = 0.5
    target = (x > tau).astype(float)
    prev_err = np.inf
    for h in (1e-1, 1e-2, 1e-4, 1e-8):
        kv, _, _ = eval_kernel(k, (x - tau) / h)
        err = np.max(np.abs(kv - target))
        assert err <= prev_err + 1e-15
        prev_err = err
    assert prev_err < 1e-12


def test_parse_kernel_tokens():
    assert parse_kernel("normal-cdf").name == "normal-cdf"
    assert parse_kernel("exp-cdf").name == "exp-cdf"
    with pytest.raises(DomainError):
        parse_kernel("epanechnikov")

"""Smoothed broken-line model: objective, derivatives, information matrices.

Analytic derivatives are checked against central finite differences of the
level below (objective -> score -> hessian), which is the independent oracle
for everything downstream.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinkfit.errors import DataError, DomainError, NumericError
from kinkfit.families import Family
from kinkfit.kernels import bandwidth, exp_cdf_kernel, normal_cdf_kernel
from kinkfit.model import (
    Dataset,
    ParamVector,
    evaluate,
    indicator_segment,
    objective,
    parse_form,
    segment_term,
    value_rows,
)

from conftest import COUNT_CASES, TRUE, make_counted, make_data, make_spec

PHI0 = 1.0 / np.sqrt(2.0 * np.pi)

FORMS = ["linear-linear", "linear-quadratic", "quadratic-linear"]
FAMILIES = [Family.NORMAL_IDENTITY, Family.BERNOULLI_LOGIT, Family.POISSON_LOG]


def rand_instance(seed, form="linear-linear", family=Family.NORMAL_IDENTITY,
                  n=40, k=0, h=0.05):
    rng = np.random.default_rng(seed)
    spec = make_spec(family=family, form=form, bandwidth=f"fixed:{h}", n_covariates=k)
    mild = ParamVector(0.3, 0.5, -0.8, 0.5, tuple(0.2 for _ in range(k)))
    data = make_data(spec, params=mild, n=n, seed=seed + 1)
    probe = ParamVector(
        mild.beta0 + 0.05, mild.beta1 - 0.04, mild.beta2 + 0.06, mild.tau + 0.03,
        tuple(g + 0.01 for g in mild.gamma),
    )
    return spec, probe, data, h


def fd_score(spec, params, data, h, eps=1e-6):
    p0 = params.to_array()
    out = np.empty_like(p0)
    for j in range(p0.size):
        up, dn = p0.copy(), p0.copy()
        up[j] += eps
        dn[j] -= eps
        out[j] = (objective(spec, ParamVector.from_array(up), data, h)
                  - objective(spec, ParamVector.from_array(dn), data, h)) / (2 * eps)
    return out


def fd_neg_hessian(spec, params, data, h, eps=1e-6):
    p0 = params.to_array()
    m = np.empty((p0.size, p0.size))
    for j in range(p0.size):
        up, dn = p0.copy(), p0.copy()
        up[j] += eps
        dn[j] -= eps
        m[:, j] = -(evaluate(spec, ParamVector.from_array(up), data, h)[1]
                    - evaluate(spec, ParamVector.from_array(dn), data, h)[1]) / (2 * eps)
    return 0.5 * (m + m.T)


def test_segment_values_at_the_bend():
    kern = normal_cdf_kernel()
    h = 0.1
    val, dt, dt2 = segment_term(parse_form("linear-linear"), np.array([0.5]), 0.5, h, kern)
    assert val[0] == pytest.approx(0.0)
    assert dt[0] == pytest.approx(-0.5)
    assert dt2[0] == pytest.approx(2.0 * PHI0 / h)
    # both quadratic forms have zero value and first derivative at x = tau
    for form in ("linear-quadratic", "quadratic-linear"):
        val, dt, _ = segment_term(parse_form(form), np.array([0.5]), 0.5, h, kern)
        assert val[0] == pytest.approx(0.0)
        assert dt[0] == pytest.approx(0.0)


def test_segment_tends_to_indicator_form():
    kern = normal_cdf_kernel()
    x = np.linspace(-2, 2, 101)
    for form in FORMS:
        f = parse_form(form)
        val, _, _ = segment_term(f, x, 0.5, 1e-10, kern)
        np.testing.assert_allclose(val, indicator_segment(f, x, 0.5), atol=1e-12)


def test_indicator_segment_shapes():
    x = np.array([-1.0, 0.5, 2.0])
    ll = indicator_segment(parse_form("linear-linear"), x, 0.5)
    np.testing.assert_allclose(ll, [0.0, 0.0, 1.5])
    lq = indicator_segment(parse_form("linear-quadratic"), x, 0.5)
    np.testing.assert_allclose(lq, [0.0, 0.0, 2.25])
    ql = indicator_segment(parse_form("quadratic-linear"), x, 0.5)
    np.testing.assert_allclose(ql, [2.25, 0.0, 0.0])


def test_segment_derivatives_match_finite_differences():
    kern = normal_cdf_kernel()
    x = np.linspace(-2, 2, 61)
    eps = 1e-6
    for form in FORMS:
        f = parse_form(form)
        for h in (0.5, 0.05):
            val_p, dt_p, _ = segment_term(f, x, 0.5 + eps, h, kern)
            val_m, dt_m, _ = segment_term(f, x, 0.5 - eps, h, kern)
            _, dt, dt2 = segment_term(f, x, 0.5, h, kern)
            np.testing.assert_allclose(dt, (val_p - val_m) / (2 * eps), rtol=1e-5, atol=1e-7)
            np.testing.assert_allclose(dt2, (dt_p - dt_m) / (2 * eps), rtol=1e-4, atol=1e-4)


def test_objective_known_values():
    spec = make_spec(bandwidth="fixed:0.1")
    x = np.linspace(-1, 1, 9)
    theta = TRUE.beta0 + TRUE.beta1 * x + TRUE.beta2 * segment_term(
        spec.form, x, TRUE.tau, 0.1, spec.kernel)[0]
    data = Dataset(x=x, y=theta.copy())
    # normal family with y = theta exactly: Q = sum(theta^2) / 2
    assert objective(spec, TRUE, data, 0.1) == pytest.approx(np.sum(theta**2) / 2)

    lspec = make_spec(family=Family.BERNOULLI_LOGIT, bandwidth="fixed:0.1")
    ldata = Dataset(x=np.zeros(9) + x, y=np.ones(9))
    zero = ParamVector(1e-12, 0.0, 1e-9, 0.0)
    # theta ~ 0 and y = 1: contribution per point is -log 2
    assert objective(lspec, zero, ldata, 0.1) == pytest.approx(-9 * np.log(2.0), rel=1e-6)


def test_objective_matches_indicator_loglik_at_tiny_h():
    spec = make_spec(bandwidth="fixed:1e-10")
    data = make_data(spec, n=60, seed=3)
    q = objective(spec, TRUE, data, 1e-10)
    theta = TRUE.beta0 + TRUE.beta1 * data.x + TRUE.beta2 * indicator_segment(
        spec.form, data.x, TRUE.tau)
    ln = np.sum(data.y * theta - theta**2 / 2)
    assert abs(q - ln) / data.n < 1e-10


def test_poisson_overflow_reports_observation():
    spec = make_spec(family=Family.POISSON_LOG, bandwidth="fixed:0.1")
    x = np.linspace(-1, 1, 10)
    data = Dataset(x=x, y=np.ones(10))
    huge = ParamVector(500.0, 500.0, 1.0, 0.0)
    with pytest.raises(NumericError) as exc:
        objective(spec, huge, data, 0.1)
    assert exc.value.index is not None


def test_overflowing_theta_is_numeric_error():
    # Finite parameters whose theta overflows: the log-likelihood check
    # reports it with the index of the first overflowing observation.
    spec = make_spec()
    data = make_data(spec, n=50, seed=3)
    huge = ParamVector(0.0, 1e308, -5.0, 0.5)
    for call in (objective, evaluate):
        with pytest.raises(NumericError) as exc:
            call(spec, huge, data, 0.01)
        assert isinstance(exc.value.index, int)
        assert abs(data.x[exc.value.index]) > 1.79


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("family", FAMILIES)
def test_score_matches_fd(form, family):
    spec, params, data, h = rand_instance(7, form=form, family=family, k=1)
    s = evaluate(spec, params, data, h)[1]
    fd = fd_score(spec, params, data, h)
    assert np.max(np.abs(s - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-6


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("family", FAMILIES)
def test_neg_hessian_matches_fd(form, family):
    spec, params, data, h = rand_instance(11, form=form, family=family, k=1)
    J = evaluate(spec, params, data, h)[2]
    fd = fd_neg_hessian(spec, params, data, h)
    assert np.max(np.abs(J - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-5


def test_exp_kernel_derivatives_also_match_fd():
    spec = make_spec(kernel=exp_cdf_kernel(), bandwidth="fixed:0.05")
    data = make_data(spec, n=40, seed=5)
    probe = ParamVector(2.02, 2.97, -4.9, 0.53)
    fd = fd_score(spec, probe, data, 0.05)
    s = evaluate(spec, probe, data, 0.05)[1]
    assert np.max(np.abs(s - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-5


def test_neg_hessian_symmetric_and_score_cov_psd():
    spec, params, data, h = rand_instance(13, family=Family.BERNOULLI_LOGIT, k=2)
    _, _, J, Sig = evaluate(spec, params, data, h)
    np.testing.assert_allclose(J, J.T, rtol=0, atol=1e-10)
    np.testing.assert_allclose(Sig, Sig.T, rtol=0, atol=1e-10)
    assert np.min(np.linalg.eigvalsh(Sig)) > -1e-10


def test_normal_family_hessian_equals_score_cov_plus_curvature_terms():
    # for the normal family b'' = 1, so Sigma_n is the plain Gram matrix and
    # J differs from it only in the change-point block
    spec, params, data, h = rand_instance(17)
    _, _, J, Sig = evaluate(spec, params, data, h)
    diff = J - Sig
    mask = np.ones_like(diff, dtype=bool)
    mask[2:4, 2:4] = False
    assert np.max(np.abs(diff[mask])) < 1e-10


def test_score_covariance_is_empirical_score_covariance():
    # Sigma_n = sum b'' D D^T equals Cov(S) when Y is drawn at the probe
    # parameters; check against a Monte Carlo estimate
    spec = make_spec(family=Family.BERNOULLI_LOGIT, bandwidth="fixed:0.2")
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(-2, 2, 50))
    params = ParamVector(0.2, 0.4, -0.9, 0.3)
    theta = params.beta0 + params.beta1 * x + params.beta2 * segment_term(
        spec.form, x, params.tau, 0.2, spec.kernel)[0]
    p = 1.0 / (1.0 + np.exp(-theta))
    reps = 4000
    scores = np.empty((reps, 4))
    for r in range(reps):
        y = (rng.random(50) < p).astype(float)
        scores[r] = evaluate(spec, params, Dataset(x=x, y=y), 0.2)[1]
    emp = np.cov(scores.T)
    Sig = evaluate(spec, params, Dataset(x=x, y=np.zeros(50)), 0.2)[3]
    scale = np.max(np.abs(Sig))
    assert np.max(np.abs(emp - Sig)) / scale < 0.1


def test_smoothing_gap_shrinks_with_h():
    spec = make_spec(bandwidth="fixed:1.0")
    data = make_data(spec, n=120, seed=9)
    theta_ind = TRUE.beta0 + TRUE.beta1 * data.x + TRUE.beta2 * indicator_segment(
        spec.form, data.x, TRUE.tau)
    ln = np.sum(data.y * theta_ind - theta_ind**2 / 2)
    gaps = [abs(objective(spec, TRUE, data, h) - ln) / data.n
            for h in (0.5, 0.1, 0.01, 0.001)]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-4


@settings(max_examples=25, deadline=None)
@given(shift=st.floats(-3.0, 3.0, allow_nan=False))
def test_objective_invariant_under_x_translation(shift):
    # shifting x and tau together leaves the linear-linear model unchanged
    # once the intercept absorbs the slope offset
    spec = make_spec(bandwidth="fixed:0.05")
    data = make_data(spec, n=50, seed=21)
    shifted = Dataset(x=data.x + shift, y=data.y)
    params = ParamVector(2.0, 3.0, -5.0, 0.5)
    moved = ParamVector(2.0 - 3.0 * shift, 3.0, -5.0, 0.5 + shift)
    q0 = objective(spec, params, data, 0.05)
    q1 = objective(spec, moved, shifted, 0.05)
    assert q1 == pytest.approx(q0, rel=1e-9, abs=1e-9)


def test_objective_independent_of_observation_order():
    spec, params, data, h = rand_instance(23, family=Family.POISSON_LOG)
    rng = np.random.default_rng(4)
    perm = rng.permutation(data.n)
    q0 = objective(spec, params, data, h)
    q1 = objective(spec, params, data.take(perm), h)
    assert q1 == pytest.approx(q0, rel=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_value_rows_of_shared_data_match_a_stack_of_one(family):
    # 21 parameter rows on shared x, y and z (n and n x 2), as profile_init
    # scores its candidates, give the bits of the same data stacked per row
    # (G x n and G x n x 2), and each row the bits of a stack of one.
    spec, probe, data, h = rand_instance(41, family=family, n=300, k=2)
    params = probe.to_array() + 0.05 * np.random.default_rng(5).standard_normal((21, 6))
    G = len(params)
    shared = value_rows(spec, params, data.x, data.y, data.z, None, h)
    stacked = value_rows(spec, params, np.tile(data.x, (G, 1)), np.tile(data.y, (G, 1)),
                         np.repeat(data.z[None], G, axis=0), None, h)
    for a, b in zip(shared, stacked):
        np.testing.assert_array_equal(a, b)
    for g in range(G):
        one = value_rows(spec, params[g:g + 1], data.x[None], data.y[None], data.z[None], None, h)
        for a, b in zip(shared, one):
            np.testing.assert_array_equal(a[g], b[0])


def test_segment_term_rejects_nonfinite_scalars():
    spec = make_spec()
    x = np.linspace(-1.0, 1.0, 7)
    for tau, h in ((np.nan, 0.1), (np.inf, 0.1), (0.5, np.nan), (0.5, 0.0)):
        with pytest.raises(DomainError):
            segment_term(spec.form, x, tau, h, spec.kernel)


def test_param_vector_validation():
    with pytest.raises(DomainError):
        ParamVector(0.0, 1.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        ParamVector(np.nan, 1.0, 1.0, 0.5)
    p = ParamVector(1.0, 2.0, 3.0, 0.5, (0.1, 0.2))
    np.testing.assert_allclose(p.to_array(), [1, 2, 3, 0.5, 0.1, 0.2])
    assert ParamVector.from_array(p.to_array()) == p


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(x=np.arange(3.0), y=np.arange(3.0))  # too small
    with pytest.raises(DataError):
        Dataset(x=np.array([0.0, 1, 2, 3, np.nan, 5]), y=np.zeros(6))
    with pytest.raises(DataError):
        Dataset(x=np.arange(6.0), y=np.zeros(5))
    d = Dataset(x=np.arange(9.0), y=np.zeros(9), z=np.ones((9, 2)))
    assert d.n == 9 and d.k == 2
    sub = d.take(np.arange(7))
    assert sub.n == 7 and sub.z.shape == (7, 2)


@pytest.mark.parametrize("end_counts, tie", COUNT_CASES)
@pytest.mark.parametrize("family", FAMILIES)
def test_counted_data_evaluate_as_their_expansion(family, end_counts, tie):
    spec, params, data, h = rand_instance(31, form="quadratic-linear", family=family, k=1)
    counted, expanded = make_counted(data, 5, end_counts, tie)
    assert objective(spec, params, counted, h) == pytest.approx(
        objective(spec, params, expanded, h), rel=1e-12)
    for a, b in zip(evaluate(spec, params, counted, h), evaluate(spec, params, expanded, h)):
        # Q, S, J and Sigma, each relative to its largest entry
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("counts", [
    [1, 2, 2.5, 1, 1, 1],  # not an integer
    [1, 0, 1, 1, 1, 1],
    [1, -2, 1, 1, 1, 1],
    [1, np.nan, 1, 1, 1, 1],
    [True] * 6,
    ["2"] * 6,
    [1] * 5,  # one entry short
    [[1] * 6],
])
def test_dataset_rejects_bad_counts(counts):
    with pytest.raises(DataError):
        Dataset(x=np.arange(6.0), y=np.zeros(6), counts=counts)


def test_counts_are_observations():
    # 3 rows standing for 7 observations meet the 5-observation minimum,
    # and so do 2 rows standing for 5
    d = Dataset(x=np.arange(3.0), y=np.zeros(3), counts=[2.0, 2.0, 3.0])
    assert d.n == 3 and d.counts.tolist() == [2, 2, 3]
    np.testing.assert_array_equal(d.take([2, 0]).counts, [3, 2])
    with pytest.raises(DataError):
        Dataset(x=np.arange(3.0), y=np.zeros(3), counts=[2, 1, 1])

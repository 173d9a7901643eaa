"""Shared builders for the test suite."""
import numpy as np
import pytest

from kinkfit.errors import KinkfitError
from kinkfit.estimator import fit_stack
from kinkfit.families import Family, sample
from kinkfit.kernels import normal_cdf_kernel, parse_bandwidth
from kinkfit.model import Dataset, ModelSpec, ParamVector, indicator_segment, parse_form

TRUE = ParamVector(2.0, 3.0, -5.0, 0.5)


def make_spec(family=Family.NORMAL_IDENTITY, form="linear-linear",
              bandwidth="n^-2", kernel=None, n_covariates=0):
    return ModelSpec(
        family=family,
        kernel=kernel if kernel is not None else normal_cdf_kernel(),
        bw=parse_bandwidth(bandwidth),
        form=parse_form(form),
        n_covariates=n_covariates,
    )


def make_data(spec, params=TRUE, n=200, seed=0, x_lo=-2.0, x_hi=2.0, noise=True):
    """Draw x ~ U(x_lo, x_hi) and y from the hard-indicator truth."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(x_lo, x_hi, n))
    theta = (params.beta0 + params.beta1 * x
             + params.beta2 * indicator_segment(spec.form, x, params.tau))
    z = None
    if spec.n_covariates:
        z = rng.standard_normal((n, spec.n_covariates))
        theta = theta + z @ np.asarray(params.gamma)
    if noise:
        y = sample(spec.family, theta, rng)
    else:
        if spec.family is not Family.NORMAL_IDENTITY:
            raise ValueError("noise-free data only makes sense for the normal family")
        y = theta.copy()
    return Dataset(x=x, y=y, z=z)


def take(data, idx):
    """The rows idx of data, in that order and repeats allowed, as a Dataset."""
    return Dataset(data.x[idx], data.y[idx], None if data.z is None else data.z[idx])


def make_counted(data, seed, end_counts=(1, 1), tie=False):
    """Rows of data with a count of 1-3 each, and their expansion.

    The rows at the smallest and the largest x count end_counts; a count of
    0 leaves that row out of the observations.  With tie, one more row
    takes the smallest x and two interior rows share an x value.  Returns
    (rows, counts, expansion): the rows as a Dataset, their counts, and the
    same observations as plain rows, each row repeated count times.
    """
    rng = np.random.default_rng(seed)
    x = data.x.copy()
    c = rng.integers(1, 4, data.n)
    lo, hi = np.argmin(x), np.argmax(x)
    c[lo], c[hi] = end_counts
    if tie:
        i, j, k = rng.choice(np.setdiff1d(np.arange(data.n), [lo, hi]), 3, replace=False)
        x[i], x[j] = x[lo], x[k]
    rows = Dataset(x, data.y, data.z)
    return rows, c, take(rows, np.repeat(np.arange(data.n), c))


# Counted-data cases: the counts of the rows at the smallest and the
# largest x (0, 1, or 2 and more at each), and whether x values are tied
# (at the minimum and inside).
COUNT_CASES = [((1, 1), False), ((2, 1), False), ((1, 3), False), ((1, 1), True), ((3, 2), True),
               ((0, 1), False), ((1, 0), False), ((0, 2), False), ((3, 0), False), ((0, 0), True)]


def fit_counted(spec, rows, counts, init):
    """What fit returns for the observations that rows stand for, row i
    counting counts[i] times: fit_stack on one problem with its counts.
    Raises the KinkfitError that fit_stack returns."""
    z = None if rows.z is None else rows.z[None]
    result = fit_stack(spec, rows.x[None], rows.y[None], z, [init],
                       np.asarray(counts, dtype=float)[None])[0]
    if isinstance(result, KinkfitError):
        raise result
    return result


def make_case_control_like(seed, n=771):
    """Binary outcome with a quadratic-then-linear dose effect.

    Dose x is gamma-distributed with most mass below the bend at 13.1;
    three covariates shift the linear predictor into an informative range.
    """
    rng = np.random.default_rng([99, seed])
    x = np.clip(rng.gamma(1.2, 12.0, n), 0.0, 120.0)
    z = np.column_stack([
        rng.normal(50.0, 4.0, n) / 10.0,
        (rng.random(n) < 0.6).astype(float),
        rng.normal(0.95, 0.04, n),
    ])
    gamma = np.array([1.2, 1.2, 4.0])
    form = parse_form("quadratic-linear")
    theta = -11.64 + 0.008 * x + 0.009 * indicator_segment(form, x, 13.1) + z @ gamma
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-theta))).astype(float)
    return Dataset(x=x, y=y, z=z)


@pytest.fixture
def normal_spec():
    return make_spec()


@pytest.fixture
def logit_spec():
    return make_spec(family=Family.BERNOULLI_LOGIT, bandwidth="n^-3")

"""The stacked profile scan against the per-candidate loop it replaced."""
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from kinkfit import estimator, simulate
from kinkfit.errors import ConvergenceError, DataError, InitializationError, NumericError
from kinkfit.estimator import glm_irls, profile_init
from kinkfit.families import Family, sample
from kinkfit.kernels import bandwidth, custom_kernel, normal_cdf_kernel
from kinkfit.model import Dataset, ParamVector, design, indicator_segment, objective

from conftest import make_data, make_spec
from hinge_mle import gap_midpoints
from test_hinge_mle import small_logit_data

FORMS = ["linear-linear", "linear-quadratic", "quadratic-linear"]
TRUTH = {
    Family.NORMAL_IDENTITY: ParamVector(2.0, 3.0, -5.0, 0.5, (0.7, -0.4)),
    Family.BERNOULLI_LOGIT: ParamVector(2.0, 3.0, -5.0, 0.5, (0.7, -0.4)),
    Family.POISSON_LOG: ParamVector(1.0, 0.5, -0.4, 0.3, (0.3, -0.2)),
}


def reference_profile(spec, data, grid):
    """One glm_irls fit and one objective call per candidate, in sorted
    order; a candidate whose IRLS fails is skipped.  Returns (tau, coef)
    of the winner, coef ordered (beta0, beta1, beta2, gamma...)."""
    h = bandwidth(spec.bw, data.n)
    best_q, best = -np.inf, None
    for tau in np.sort(grid):
        X = design(data, indicator_segment(spec.form, data.x, tau))
        try:
            beta, _ = glm_irls(spec.family, X, data.y)
        except ConvergenceError:
            continue
        b2 = beta[2] if beta[2] != 0.0 else 1e-10
        q = objective(spec, ParamVector(beta[0], beta[1], b2, float(tau), tuple(beta[3:])),
                      data, h)
        if q > best_q:
            best_q, best = q, (float(tau), beta)
    if best is None:
        raise InitializationError("every candidate failed")
    return best


def assert_same_winner(spec, data, grid, init=None):
    """init (default: profile_init over grid) is the reference loop's
    winner over grid, bit for bit."""
    tau, coef = reference_profile(spec, data, grid)
    if init is None:
        init = profile_init(spec, data, tau_grid=tuple(grid))
    assert init.tau == tau
    np.testing.assert_array_equal(np.delete(init.to_array(), 3), coef)


def edge_grid(x, inner=15):
    """Quantile candidates plus the outermost gap midpoints, where one
    point sits alone on its side of the bend."""
    mids = gap_midpoints(x)
    inner_taus = np.quantile(x, np.linspace(0.1, 0.9, inner))
    return np.concatenate([mids[[0, 1, -2, -1]], inner_taus])


def truth_data(family, form="linear-linear", k=0, n=300, seed=31):
    spec = make_spec(family=family, form=form, n_covariates=k,
                     bandwidth="n^-3" if family is Family.BERNOULLI_LOGIT else "n^-2")
    p = TRUTH[family]
    params = ParamVector(p.beta0, p.beta1, p.beta2, p.tau, p.gamma[:k])
    return spec, make_data(spec, params=params, n=n, seed=seed)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("family", list(Family))
def test_stacked_profile_matches_the_per_candidate_loop(family, form, k):
    spec, data = truth_data(family, form, k)
    assert_same_winner(spec, data, edge_grid(data.x))


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("family", list(Family))
def test_one_candidate_per_block_changes_nothing(family, k, monkeypatch):
    # A block of one candidate has the bits of a block of the whole grid.
    spec, data = truth_data(family, k=k)
    grid = tuple(edge_grid(data.x))
    whole = profile_init(spec, data, tau_grid=grid)
    monkeypatch.setattr(estimator, "_STACK_ELEMS", 1)
    assert estimator.rows_per_block(data.n) == 1
    assert profile_init(spec, data, tau_grid=grid) == whole


def designs(spec, data, taus):
    """The candidates' transposed designs as _irls takes them: one
    C-contiguous G x p x n stack."""
    return np.ascontiguousarray(
        [design(data, indicator_segment(spec.form, data.x, tau)).T for tau in taus])


def recording_irls(monkeypatch):
    """Patch estimator._irls to record each stack of designs it fits."""
    stacks = []
    irls = estimator._irls

    def recording(family, X, y):
        stacks.append(X)
        return irls(family, X, y)

    monkeypatch.setattr(estimator, "_irls", recording)
    return stacks


@pytest.mark.parametrize("family", list(Family))
def test_tied_candidates_are_fit_once(family, monkeypatch):
    # x on the integers 0-7: the automatic candidates hold the 6 interior
    # values, not the extremes 0 and 7, and each of them is fit once, to
    # the same winner.
    spec = make_spec(family=family, bandwidth="n^-3" if family is Family.BERNOULLI_LOGIT else "n^-2")
    rng = np.random.default_rng(0)
    x = rng.integers(0, 8, 400).astype(float)
    theta = TRUTH[family].beta0 + 0.5 * x - np.maximum(x - 3.5, 0.0)
    data = Dataset(x=x, y=sample(family, theta, rng))
    grid = estimator._auto_grid(x)
    assert list(np.unique(grid)) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    stacks = recording_irls(monkeypatch)
    init = profile_init(spec, data)
    assert sum(len(X) for X in stacks) == 6
    assert_same_winner(spec, data, grid, init)


def test_binary_x_leaves_no_automatic_candidate():
    # Every quantile of a 0/1 x is an extreme, so no candidate is left.
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, 200).astype(float)
    data = Dataset(x=x, y=x + rng.standard_normal(200))
    with pytest.raises(DataError, match="strictly inside the x range"):
        estimator._auto_grid(x)
    with pytest.raises(DataError, match="strictly inside the x range"):
        profile_init(make_spec(), data)


def test_separated_logit_candidates_are_dropped_alone():
    # The sample of test_hinge_mle, whose outermost gap midpoints leave one
    # point alone on its side of the bend: glm_irls raises there.
    x, y = small_logit_data()
    spec = make_spec(family=Family.BERNOULLI_LOGIT, bandwidth="n^-3")
    assert_same_winner(spec, Dataset(x=x, y=y), edge_grid(x, inner=5))


def test_separated_candidate_never_reaches_irls(monkeypatch):
    # Table 2's sample at seed 1, replicate 3: all 50 points at or left of
    # the first automatic candidate have y = 0, so that candidate's GLM has
    # no MLE.  _no_mle flags it, and no stack that _irls fits holds its
    # design; the winner is the reference loop's, where glm_irls fails it.
    scenario = simulate.load_scenario(
        Path(__file__).resolve().parent.parent / "scenarios" / "table2.scenario")
    data = simulate.generate(dataclasses.replace(scenario, seed=1), 3)
    spec = scenario.model_spec()
    grid = estimator._auto_grid(data.x)
    assert grid[0] == pytest.approx(-1.703, abs=1e-3)
    assert (data.x <= grid[0]).sum() == 50 and not data.y[data.x <= grid[0]].any()
    assert list(np.flatnonzero(estimator._no_mle(spec, data.x, data.y, grid))) == [0]
    with pytest.raises(ConvergenceError):
        glm_irls(spec.family, design(data, indicator_segment(spec.form, data.x, grid[0])), data.y)
    stacks = recording_irls(monkeypatch)
    init = profile_init(spec, data)
    segs = np.concatenate([X[:, 2] for X in stacks])
    assert len(segs) == grid.size - 1
    np.testing.assert_array_equal(segs, indicator_segment(spec.form, data.x, grid[1:, None]))
    assert_same_winner(spec, data, grid, init)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("family", list(Family))
def test_candidates_flagged_without_mle_have_none(family, form):
    # Small samples, every gap midpoint a candidate, so that many
    # candidates leave one side with equal responses.  Every candidate that
    # _no_mle flags fails glm_irls, and the normal family flags none.
    spec = make_spec(family=family, form=form, bandwidth="n^-3")
    truth = TRUTH[family]
    params = ParamVector(truth.beta0, truth.beta1, truth.beta2, truth.tau, ())
    flagged = 0
    for seed in range(20):
        data = make_data(spec, params=params, n=30, seed=seed)
        grid = gap_midpoints(data.x, edge=1)
        lost = estimator._no_mle(spec, data.x, data.y, grid)
        flagged += lost.sum()
        for tau in grid[lost]:
            with pytest.raises(ConvergenceError):
                glm_irls(family, design(data, indicator_segment(spec.form, data.x, tau)), data.y)
    assert (flagged == 0) == (family is Family.NORMAL_IDENTITY)


def test_poisson_candidates_past_eta_709_are_kept():
    # The mean is flat left of 5 and falls with slope -1.5 right of it,
    # over x up to 1000, so the candidates near the truth fit eta far below
    # -709 at the far points, where y = 0.  They have an MLE and must
    # converge; the winner is the candidate next to the truth.
    spec = make_spec(family=Family.POISSON_LOG, bandwidth="n^-3")
    rng = np.random.default_rng(43)
    x = np.concatenate([rng.uniform(0.0, 10.0, 150), rng.uniform(10.0, 1000.0, 50)])
    y = rng.poisson(np.exp(2.0 + 0.1 * x - 1.6 * np.maximum(x - 5.0, 0.0))).astype(float)
    data = Dataset(x=x, y=y)
    grid = estimator._auto_grid(x)
    X = designs(spec, data, grid)
    beta, _, status = estimator._irls(spec.family, X, y)
    near = np.flatnonzero(np.abs(grid - 5.0) < 1.0)
    assert (status[near] == estimator._CONVERGED).all()
    assert min((beta[g] @ X[g]).min() for g in near) < -709.0
    assert profile_init(spec, data).tau == pytest.approx(4.90, abs=0.01)


@pytest.mark.parametrize("family", [Family.BERNOULLI_LOGIT, Family.POISSON_LOG])
def test_non_finite_eta_diverges_alone(family):
    # The middle candidate's column holds a NaN, so its eta is NaN from
    # the first step: that fit ends _DIVERGED, and its neighbours in the
    # stack still end as glm_irls fits them one by one.
    spec = make_spec(family=family, bandwidth="n^-3")
    data = make_data(spec, params=TRUTH[family], n=300, seed=33)
    X = designs(spec, data, [-0.5, 0.0, 0.5])
    X[1, 2, 7] = np.nan
    beta, _, status = estimator._irls(family, X, data.y)
    assert list(status) == [estimator._CONVERGED, estimator._DIVERGED, estimator._CONVERGED]
    for g in (0, 2):
        ref, _ = glm_irls(family, X[g].T, data.y)
        np.testing.assert_array_equal(beta[g], ref)


def test_singular_normal_candidate_is_dropped_alone():
    # x takes four tied values and z equals the segment column at 2.5, so
    # that candidate's normal equations are exactly singular; the others
    # are not.
    x = np.repeat([0.0, 1.0, 2.0, 3.0], 4)
    z = indicator_segment(make_spec().form, x, 2.5)[:, None]
    y = np.random.default_rng(3).normal(1.0 + x - 2.0 * np.maximum(x - 1.5, 0.0), 0.3)
    data = Dataset(x=x, y=y, z=z)
    spec = make_spec(n_covariates=1)
    with pytest.raises(ConvergenceError):
        glm_irls(spec.family, design(data, indicator_segment(spec.form, x, 2.5)), y)
    assert_same_winner(spec, data, [0.5, 1.5, 2.5])


def test_every_failed_candidate_is_an_initialization_error():
    # Two tied x values: the segment column is a multiple of x at every
    # candidate, so every normal system is singular.
    x = np.repeat([0.0, 1.0], 4)
    data = Dataset(x=x, y=np.arange(8.0))
    spec = make_spec()
    with pytest.raises(InitializationError):
        reference_profile(spec, data, [0.5, 0.75])
    with pytest.raises(InitializationError):
        profile_init(spec, data, tau_grid=(0.5, 0.75))


def test_non_finite_smoothed_objective_of_a_candidate_is_a_numeric_error():
    # K is infinite beyond u = 0.9, so every candidate's IRLS converges
    # (it uses the hard indicator) but its smoothed objective is not
    # finite.  Such a candidate fails the scan; it is not dropped.
    normal = normal_cdf_kernel()
    kernel = custom_kernel(
        k=lambda u: np.where(u > 0.9, np.inf, normal.k(u)),
        kp=normal.kp,
        kpp=normal.kpp,
        name="infinite-tail",
    )
    spec = make_spec(kernel=kernel, bandwidth="fixed:0.01")
    data = make_data(spec, seed=33)
    with pytest.raises(NumericError):
        profile_init(spec, data, tau_grid=(-1.0, 0.5, 1.0))


@pytest.mark.parametrize("family", list(Family))
def test_grid_split_into_several_blocks(family, monkeypatch):
    # At n = 2000 a block holds 8 candidates.  The 25 candidates, less the
    # four separated logit edge candidates that _no_mle drops, take blocks
    # of 8 in sorted order, and no stack holds more than p * 2^14 values.
    spec = make_spec(family=family, bandwidth="n^-3" if family is Family.BERNOULLI_LOGIT else "n^-2")
    p = TRUTH[family]
    data = make_data(spec, params=ParamVector(p.beta0, p.beta1, p.beta2, p.tau), n=2000, seed=32)
    grid = np.sort(edge_grid(data.x, inner=21))
    kept = grid.size - estimator._no_mle(spec, data.x, data.y, grid).sum()
    assert kept == (21 if family is Family.BERNOULLI_LOGIT else 25)
    stacks = recording_irls(monkeypatch)
    profile_init(spec, data, tau_grid=tuple(grid))
    monkeypatch.undo()
    assert [len(X) for X in stacks] == [min(8, kept - i) for i in range(0, kept, 8)]
    assert all(X.size <= 3 * 2**14 for X in stacks)
    assert_same_winner(spec, data, grid)

"""The stacked Newton loop: every problem of a block gets what fit gives it
alone, bit for bit, whatever the other problems of the block do."""
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from kinkfit import estimator, model
from kinkfit.errors import KinkfitError, NumericError
from kinkfit.estimator import FitResult, fit, fit_stack, profile_init, rows_per_block
from kinkfit.families import Family, sample
from kinkfit.model import Dataset, ParamVector, evaluate, indicator_segment
from kinkfit.simulate import generate, load_scenario

from conftest import fit_counted, make_data, make_spec, take

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def stack(datasets):
    z = None if datasets[0].z is None else np.stack([d.z for d in datasets])
    return np.stack([d.x for d in datasets]), np.stack([d.y for d in datasets]), z


def assert_same_as_alone(entry, spec, data, start):
    """entry is what fit returns for data from start, or what it raises."""
    try:
        alone = fit(spec, data, init=start)
    except KinkfitError as exc:
        assert type(entry) is type(exc) and str(entry) == str(exc)
        return
    assert isinstance(entry, FitResult)
    assert entry.params == alone.params
    assert entry.objective_value == alone.objective_value
    assert entry.iterations == alone.iterations
    assert entry.converged == alone.converged
    assert entry.grad_norm == alone.grad_norm
    assert entry.h_used == alone.h_used
    np.testing.assert_array_equal(entry.neg_hessian_at_opt, alone.neg_hessian_at_opt)
    np.testing.assert_array_equal(entry.score_cov_at_opt, alone.score_cov_at_opt)


@pytest.mark.parametrize("name", ["table1", "table2"])
def test_replicate_block_matches_single_fits(name):
    sc = replace(load_scenario(SCENARIOS / f"{name}.scenario"), seed=1)
    spec = sc.model_spec()
    assert rows_per_block(sc.n) == 32
    datasets = [generate(sc, r) for r in range(32)]
    starts = [profile_init(spec, d) for d in datasets]
    entries = fit_stack(spec, *stack(datasets), starts)
    assert len(entries) == 32
    for entry, data, start in zip(entries, datasets, starts):
        assert_same_as_alone(entry, spec, data, start)


def test_bootstrap_block_matches_single_fits():
    sc = load_scenario(SCENARIOS / "table1.scenario")
    spec = sc.model_spec()
    data = generate(sc, 0)
    est = fit(spec, data).params
    rng = np.random.default_rng(3)
    idx = rng.integers(0, data.n, (32, data.n))
    entries = fit_stack(spec, data.x[idx], data.y[idx], None, [est] * 32)
    for entry, rows in zip(entries, idx):
        assert_same_as_alone(entry, spec, take(data, rows), est)


def test_failing_rows_leave_the_others_unchanged():
    # Poisson, quadratic-linear, n = 400.  Row 0 starts so far below the
    # data that its first full steps overflow exp(theta) and are halved;
    # it runs all 100 iterations.  Row 1 has x on two values, so the design
    # is rank deficient.  Row 2 overflows at its start (NumericError).  The
    # other rows are ordinary warm-started fits.
    spec = make_spec(family=Family.POISSON_LOG, form="quadratic-linear")
    truth = ParamVector(1.0, 0.5, -0.4, 0.3)
    datasets = [make_data(spec, params=truth, n=400, seed=s) for s in range(6)]
    rng = np.random.default_rng(1)
    x = 2.0 * rng.integers(0, 2, 400) - 1.0
    theta = 1.0 + 0.5 * x - 0.4 * indicator_segment(spec.form, x, 0.3)
    datasets[1] = Dataset(x=x, y=sample(Family.POISSON_LOG, theta, rng))
    starts = [ParamVector(-10.0, 0.5, -0.4, 0.3), truth, ParamVector(800.0, 0.5, -0.4, 0.3),
              truth, truth, truth]
    entries = fit_stack(spec, *stack(datasets), starts)
    for entry, data, start in zip(entries, datasets, starts):
        assert_same_as_alone(entry, spec, data, start)
    assert entries[0].iterations == 100 and not entries[0].converged
    assert isinstance(entries[1], FitResult) and not entries[1].converged
    assert isinstance(entries[2], KinkfitError)
    assert all(e.converged for e in entries[3:])


def test_singular_newton_system_in_a_block():
    # The rank-deficient start of
    # test_estimator.py::test_singular_newton_system_is_a_convergence_error,
    # stacked with ordinary problems of the same size and one covariate.
    spec = make_spec(form="linear-quadratic", bandwidth="n^-1", n_covariates=1)
    rng = np.random.default_rng(613)
    u = rng.integers(0, 2, 37).astype(float)
    z = rng.standard_normal((37, 1))
    theta = 0.5 + u - 1.5 * indicator_segment(spec.form, u, 0.25) + 0.5 * z[:, 0]
    singular = Dataset(x=20.0 * u - 10.0, y=theta + rng.standard_normal(37), z=z)
    start = ParamVector.from_array([float.fromhex(v) for v in (
        "0x1.62b9d53fe66b4p-2", "0x1.54c152bcc8df7p-8", "0x1.c994d09a573b9p-10",
        "-0x1.4ccccccccccf0p+2", "0x1.41d1cf5f5b583p-2")])
    params = ParamVector(2.0, 3.0, -5.0, 0.5, (1.0,))
    datasets = [make_data(spec, params=params, n=37, seed=s) for s in range(3)]
    datasets.insert(1, singular)
    starts = [params, start, params, params]
    entries = fit_stack(spec, *stack(datasets), starts)
    for entry, data, st in zip(entries, datasets, starts):
        assert_same_as_alone(entry, spec, data, st)
    assert str(entries[1]) == "singular Newton system"
    assert all(entries[g].converged for g in (0, 2, 3))


def test_non_finite_curvature_after_an_accepted_step():
    # Fixed h = 1e-308: (tau, tau) entries of J carry 1/h for every
    # observation in the kernel window.  Row 1 starts with no observation
    # in the window, so its start evaluates finite; its first accepted step
    # projects tau onto x(n-1), where the curvature overflows while the
    # objective stays finite.  fit alone raises NumericError there.
    spec = make_spec(bandwidth="fixed:1e-308")
    truth = ParamVector(0.0, 1.0, -3.0, 0.2)
    datasets = [make_data(spec, params=truth, n=20, seed=s, x_lo=-0.5, x_hi=0.5)
                for s in range(3)]
    bad = ParamVector(0.2, 1.8, -2.3, 0.4)
    starts = [truth, bad, truth]
    evaluate(spec, bad, datasets[1], 1e-308)  # finite at the start
    entries = fit_stack(spec, *stack(datasets), starts)
    for entry, data, start in zip(entries, datasets, starts):
        assert_same_as_alone(entry, spec, data, start)
    with pytest.raises(NumericError):
        fit(spec, datasets[1], init=bad)
    assert isinstance(entries[1], NumericError)
    assert all(isinstance(entries[g], FitResult) for g in (0, 2))


class PassLog:
    """Records the model passes of fits as (kind, rows, shared): "V" for a
    value pass, "D" for a derivative pass, the rows of each, and for a
    derivative pass whether its arrays are those of the last value pass,
    not copies.  Counts segment_term calls, and the parameter rows that a
    value pass evaluates again (revisits).

    The first value pass of a Newton loop evaluates the start; every later
    one is a trial of the step halving, and every derivative pass after
    the first ends an iteration with an accepted step.  A trial is a new
    point, so with no revisits the value passes count the trials.
    """

    def __init__(self, monkeypatch):
        self.events, self.segment_terms, self.last = [], 0, None
        self.seen, self.revisits = set(), 0
        value, derivative, segment = (
            estimator.value_rows, estimator.derivative_rows, model.segment_term)

        def value_pass(spec, params, *args):
            points = {row.tobytes() for row in params}
            self.revisits += len(points & self.seen)
            self.seen |= points
            self.last = value(spec, params, *args)
            self.events.append(("V", len(self.last[0]), None))
            return self.last

        def derivative_pass(spec, params, y, counts, values, D):
            shared = all(np.shares_memory(a, b) for a, b in zip(self.last[1:], values[1:]))
            self.events.append(("D", len(params), shared))
            return derivative(spec, params, y, counts, values, D)

        def segment_term(*args):
            self.segment_terms += 1
            return segment(*args)

        monkeypatch.setattr(estimator, "value_rows", value_pass)
        monkeypatch.setattr(estimator, "derivative_rows", derivative_pass)
        monkeypatch.setattr(model, "segment_term", segment_term)

    def kinds(self):
        return "".join(kind for kind, _, _ in self.events)

    def iterations(self):
        """Per iteration with an accepted step: the rows of its trials and
        of its derivative pass."""
        out, trials = [], []
        for kind, rows, _ in self.events[2:]:
            if kind == "V":
                trials.append(rows)
            else:
                out.append((trials, rows))
                trials = []
        return out

    def accepts_at_different_halvings(self):
        """Whether in some iteration rows left the search at the first
        trial while the derivative pass takes more rows than that: rows
        accepted at the first trial and at a later one."""
        return any(len(trials) >= 2 and 0 < trials[0] - trials[1] < accepted
                   for trials, accepted in self.iterations())


def test_one_fit_runs_one_model_pass_per_trial(monkeypatch):
    # Poisson quadratic-linear with two covariates, warm started: the
    # segment term is computed once for the start and once per trial; an
    # accepted trial's value pass goes on to the derivative pass as it is.
    spec = make_spec(family=Family.POISSON_LOG, form="quadratic-linear", n_covariates=2)
    truth = ParamVector(1.0, 0.5, -0.4, 0.3, (0.3, -0.2))
    data = make_data(spec, params=truth, n=2000, seed=5)
    start = ParamVector(0.8, 0.6, -0.3, 0.1, (0.2, -0.1))
    log = PassLog(monkeypatch)
    res = fit(spec, data, init=start)
    assert res.converged and res.iterations >= 3
    kinds = log.kinds()
    trials = kinds.count("V") - 1
    assert kinds.startswith("VD") and trials >= res.iterations and log.revisits == 0
    assert log.segment_terms == kinds.count("V") == 1 + trials
    assert kinds.count("D") >= res.iterations  # the start's, and one per accepted step
    assert all(shared for kind, _, shared in log.events if kind == "D")  # no copies


def test_a_block_runs_one_model_pass_per_trial(monkeypatch):
    # table2's first 32 replicates (logit, n = 500, seed 1), one block,
    # whose rows accept at different halvings.
    sc = replace(load_scenario(SCENARIOS / "table2.scenario"), seed=1)
    spec = sc.model_spec()
    datasets = [generate(sc, r) for r in range(32)]
    starts = [profile_init(spec, d) for d in datasets]
    log = PassLog(monkeypatch)
    entries = fit_stack(spec, *stack(datasets), starts)
    assert sum(isinstance(e, FitResult) and e.converged for e in entries) >= 30
    kinds = log.kinds()
    trials = kinds.count("V") - 1
    assert kinds.startswith("VD") and trials > 0 and log.revisits == 0
    assert log.segment_terms == kinds.count("V") == 1 + trials
    assert log.accepts_at_different_halvings()
    for entry, data in zip(entries, datasets):
        if isinstance(entry, FitResult):
            assert_kept_pass_is_fresh(spec, entry, data)


TRUTHS = {
    Family.NORMAL_IDENTITY: ParamVector(2.0, 3.0, -5.0, 0.5, (1.0,)),
    Family.BERNOULLI_LOGIT: ParamVector(0.5, 1.0, -2.0, 0.3, (0.5,)),
    Family.POISSON_LOG: ParamVector(1.0, 0.5, -0.4, 0.3, (0.3,)),
}


def assert_kept_pass_is_fresh(spec, res, data, counts=None):
    """res holds evaluate at its params afresh; with counts, the value and
    derivative passes of data's rows with those counts."""
    if counts is None:
        q, _, J, Sig = evaluate(spec, res.params, data, res.h_used)
    else:
        p, z = res.params.to_array()[None], data.z[None]
        values = model.value_rows(spec, p, data.x[None], data.y[None], z, counts[None], res.h_used)
        D = model.jacobian_buffer(data.x[None], z, 1, p.shape[1])
        q, _, J, Sig, _ = (v[0] for v in model.derivative_rows(
            spec, p, data.y[None], counts[None], values, D))
    assert res.objective_value == q
    np.testing.assert_array_equal(res.neg_hessian_at_opt, J)
    np.testing.assert_array_equal(res.score_cov_at_opt, Sig)


@pytest.mark.parametrize("counted", [False, True])
@pytest.mark.parametrize("form", ["linear-linear", "linear-quadratic", "quadratic-linear"])
@pytest.mark.parametrize("family", list(Family))
def test_kept_value_pass_matches_a_fresh_evaluation(family, form, counted):
    # What a fit returns was computed from its last accepted trial's value
    # pass; evaluate at the returned parameters computes it afresh.  The
    # two agree bit for bit, alone and in a 32-row block whose rows start
    # at different distances from their optimum (every one of these blocks
    # has rows that accept at different halvings).  Counted rows count 0
    # to 3 times, as a bootstrap block's resamples do.
    spec = make_spec(family=family, form=form, bandwidth="n^-1", n_covariates=1)
    truth = TRUTHS[family]
    rng = np.random.default_rng(17)
    n = 150
    base_counts = rng.integers(0, 4, n).astype(float)
    datasets, starts, counts = [], [], []
    for s in range(32):
        datasets.append(make_data(spec, params=truth, n=n, seed=s))
        counts.append(rng.permutation(base_counts) if counted else None)
        start = truth.to_array() * (1.0 + rng.uniform(-0.3, 0.3, 5))
        start[3] = truth.tau + rng.uniform(-0.4, 0.4)
        starts.append(ParamVector.from_array(start))
    if counted:
        alone = fit_counted(spec, datasets[0], counts[0], starts[0])
    else:
        alone = fit(spec, datasets[0], init=starts[0])
    assert_kept_pass_is_fresh(spec, alone, datasets[0], counts[0])
    entries = fit_stack(spec, *stack(datasets), starts, np.stack(counts) if counted else None)
    results = [(e, d, c) for e, d, c in zip(entries, datasets, counts) if isinstance(e, FitResult)]
    assert len(results) >= 24
    for entry, data, c in results:
        assert_kept_pass_is_fresh(spec, entry, data, c)

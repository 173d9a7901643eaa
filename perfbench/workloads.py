"""The benchmark's workloads.

Each workload turns a seed into inputs, makes one outer call into kinkfit
that the benchmark times, and says how many fits that call attempted and
how many of them failed.  The program only ever sees the generated inputs.

- ``sim_normal``: ``simulate.run`` on scenarios/table1.scenario (normal,
  linear-linear, n=500, h=n^-2) with 300 replications and no bootstrap.
  Small-n kernel and model evaluation plus the one-step least-squares
  solves of the profile grid.
- ``sim_logit``: ``simulate.run`` on scenarios/table2.scenario (logit,
  n=500, h=n^-3) with 150 replications.  Iterative IRLS inside
  ``profile_init`` dominates; kernel work is the smallest share.
- ``cli_boot_poisson``: in-process ``cli.main(["fit", ...])`` with a
  Poisson quadratic-linear model, two covariates, n=10 000 and a
  B=200 stratified bootstrap, on a CSV this module writes.  Warm-started
  bootstrap refits bypass ``profile_init``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent


class SimWorkload:
    """One Monte Carlo study per call; the seed is the scenario seed."""

    def __init__(self, name, scenario_file, replications):
        self.name = name
        self.scenario_path = ROOT / "scenarios" / scenario_file
        self.replications = replications
        self.scenario = None

    @property
    def fits_per_call(self):
        return self.replications

    def prepare(self, seed, workdir):
        from kinkfit import simulate

        base = simulate.load_scenario(self.scenario_path)
        self.scenario = dataclasses.replace(
            base, seed=seed, replications=self.replications
        )

    def warm_up(self):
        from kinkfit import simulate

        simulate.run(dataclasses.replace(self.scenario, replications=3))

    def call(self):
        """The timed call: a whole study.  Returns the ``SimReport``."""
        from kinkfit import simulate

        return simulate.run(self.scenario)

    @property
    def setup_args(self):
        """Arguments of ``setup_probe.py`` that time this workload's set-up."""
        return ["--scenario", str(self.scenario_path)]

    @staticmethod
    def succeeded(report):
        return True

    @staticmethod
    def failed_fits(report):
        return report.n_failed_fits

    def check(self, report, reference):
        return checks.check_sim(self, report, reference)

    @staticmethod
    def reference(report):
        return checks.sim_reference(report)

    @staticmethod
    def fingerprint(report):
        """Bytes that differ whenever any reported number differs."""
        parts = [report.n_failed_fits, report.n_converged, report.degraded]
        for arr in (report.mean, report.median, report.sd, report.avg_se_prop1,
                    report.avg_se_delta, report.coverage_normal_pct,
                    report.coverage_bootstrap_pct, report.estimates):
            parts.append(None if arr is None else np.asarray(arr).tobytes().hex())
        return json.dumps(parts)


@dataclasses.dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    stderr: str


class CliWorkload:
    """One ``kinkfit fit`` with a bootstrap per call, run in process."""

    name = "cli_boot_poisson"
    n = 10_000
    B = 200
    # Truth of the generated data: (beta0, beta1, beta2, tau, gamma1, gamma2).
    truth = (1.0, 0.5, -0.4, 0.3, 0.3, -0.2)
    family = "poisson"
    form = "quadratic-linear"
    bandwidth = "n^-2"
    setup_args = []  # set-up is importing the CLI

    def __init__(self):
        self.csv_path = None
        self.data = None

    @property
    def fits_per_call(self):
        return 1 + self.B

    def argv(self, bootstrap=None):
        return [
            "fit", "--input", str(self.csv_path), "--y-col", "y", "--x-col", "x",
            "--family", self.family, "--form", self.form, "--z-cols", "z1,z2",
            "--bandwidth", self.bandwidth,
            "--bootstrap", str(self.B if bootstrap is None else bootstrap),
            "--format", "json",
        ]

    def prepare(self, seed, workdir):
        self.data = generate_poisson_data(seed, self.n, self.truth)
        self.csv_path = Path(workdir) / f"{self.name}-seed{seed}.csv"
        write_csv(self.csv_path, self.data)

    def warm_up(self):
        self._main(self.argv(bootstrap=0))

    def call(self):
        """The timed call: ``cli.main`` end to end, CSV ingest included."""
        return self._main(self.argv())

    @staticmethod
    def _main(argv):
        from kinkfit import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return CliOutput(code, out.getvalue(), err.getvalue())

    @staticmethod
    def succeeded(output):
        return output.code == 0

    def failed_fits(self, output):
        if output.code != 0:
            return self.fits_per_call
        return self.B - json.loads(output.stdout)["inference"]["bootstrap_reps_used"]

    def check(self, output, reference):
        return checks.check_cli(self, output, reference)

    @staticmethod
    def reference(output):
        return checks.cli_reference(output)

    @staticmethod
    def fingerprint(output):
        return json.dumps([output.code, output.stdout])


def generate_poisson_data(seed, n, truth):
    """(y, x, z1, z2) columns, deterministic in the seed.

    x ~ U(-2, 2), z ~ N(0, I2), y ~ Poisson(exp(theta)) with the hard
    quadratic-linear segment (x - tau)^2 for x < tau.
    """
    b0, b1, b2, tau, g1, g2 = truth
    rng = np.random.default_rng([seed, 20_000_003])
    x = rng.uniform(-2.0, 2.0, n)
    z = rng.standard_normal((n, 2))
    seg = np.where(x < tau, (x - tau) ** 2, 0.0)
    theta = b0 + b1 * x + b2 * seg + z @ np.array([g1, g2])
    y = rng.poisson(np.exp(theta)).astype(float)
    return {"y": y, "x": x, "z1": z[:, 0], "z2": z[:, 1]}


def write_csv(path, columns):
    """Write a headered CSV whose cells read back as the exact floats.

    Cells are ``repr(float(v))``: numpy 2's ``repr(np.float64)`` reads
    ``np.float64(...)``, which ``cli.ingest_csv`` rejects as non-numeric.
    """
    names = list(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*(columns[c] for c in names)):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


WORKLOADS = {
    "sim_normal": lambda: SimWorkload("sim_normal", "table1.scenario", 300),
    "sim_logit": lambda: SimWorkload("sim_logit", "table2.scenario", 150),
    "cli_boot_poisson": CliWorkload,
}

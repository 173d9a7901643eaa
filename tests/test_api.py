"""The public surface: exported names and the README's library sketch."""
import importlib
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import kinkfit

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MODULES = ["kinkfit"] + [
    f"kinkfit.{m.name}" for m in pkgutil.iter_modules(kinkfit.__path__)
]


@pytest.mark.parametrize("modname", MODULES)
def test_every_name_in_all_exists(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def test_readme_library_sketch_runs(capsys):
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    rng = np.random.default_rng(5)
    x = rng.uniform(-2.0, 2.0, 200)
    y = 2.0 + 3.0 * x - 5.0 * np.maximum(x - 0.5, 0.0) + rng.standard_normal(200)
    scope = {"x": x, "y": y}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["res"].converged
    assert scope["res"].params.tau == pytest.approx(0.5, abs=0.2)
    assert capsys.readouterr().out.strip()


SCENARIO = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "table2.scenario"


@pytest.mark.parametrize("run", ["import", "fit", "simulate", "normal-cdf", "exp-cdf"])
def test_import_fit_and_simulate_leave_scipy_unloaded(run, tmp_path):
    # scipy is the tests' alone: in a fresh interpreter, importing the
    # package and the CLI, a Poisson fit with a bootstrap at a level other
    # than 0.95, a logit study with its Q-Q file and validate-kernel on
    # either built-in kernel load none of it.  Only validate-kernel loads
    # numpy.polynomial, for kernel_order's quadrature rule.
    argv = []
    if run == "fit":
        rng = np.random.default_rng(2)
        x = rng.uniform(-2.0, 2.0, 300)
        y = rng.poisson(np.exp(0.5 + 0.3 * x - 0.6 * np.maximum(x - 0.2, 0.0)))
        np.savetxt(tmp_path / "p.csv", np.column_stack([y, x]), delimiter=",",
                   header="y,x", comments="")
        argv = ["fit", "--input", str(tmp_path / "p.csv"), "--y-col", "y", "--x-col", "x",
                "--family", "poisson", "--bootstrap", "200", "--level", "0.9",
                "--format", "csv", "--out", str(tmp_path / "fit.csv")]
    elif run == "simulate":
        text = SCENARIO.read_text().replace("replications = 1000", "replications = 12")
        (tmp_path / "logit.scenario").write_text(text)
        argv = ["simulate", "--scenario", str(tmp_path / "logit.scenario"),
                "--out", str(tmp_path / "logit")]
    elif run != "import":
        argv = ["validate-kernel", "--kernel", run, "--format", "json"]
    src = str(pathlib.Path(kinkfit.__file__).resolve().parent.parent)
    code = ("import json, sys, kinkfit, kinkfit.cli\n"
            "argv = json.loads(sys.argv[1])\n"
            "code = kinkfit.cli.main(argv) if argv else 0\n"
            "loaded = lambda name: sorted(m for m in sys.modules if m.startswith(name))\n"
            "print(json.dumps([code, loaded('scipy'), bool(loaded('numpy.polynomial'))]))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    lines = out.stdout.splitlines()
    validating = argv[:1] == ["validate-kernel"]
    assert json.loads(lines[-1]) == [0, [], validating]
    if run == "fit":
        assert (tmp_path / "fit.csv").read_text().startswith("param,estimate,se,ci_lo,ci_hi,boot_lo")
    if run == "simulate":
        assert len((tmp_path / "logit_qq.csv").read_text().splitlines()) == 1 + 4 * 12
    if validating:
        report = json.loads("\n".join(lines[:-1]))
        assert report["passed"] and report["order"] == {"normal-cdf": 2, "exp-cdf": 1}[run]

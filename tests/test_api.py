"""The public surface: exported names and the README's library sketch."""
import importlib
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


def test_import_leaves_quadrature_unloaded():
    # scipy.integrate is kernel_order's alone; importing the package and the
    # CLI in a fresh interpreter does not load it.
    src = str(pathlib.Path(kinkfit.__file__).resolve().parent.parent)
    code = "import sys, kinkfit, kinkfit.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"

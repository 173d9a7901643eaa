"""Hash the benchmark workloads' outputs in one or more checkouts.

    python3 scripts/fingerprints.py PARENT CHANGE

Each CHECKOUT is a checkout of the repository (a clean one, made with
``git clone`` or ``git archive``).  For each workload and seed below, the
script makes one call of the checkout's own ``perfbench/workloads.py``
workload and prints the sha256 of its ``fingerprint``, the bytes that
differ whenever any reported number differs:

- ``sim_logit`` (150 replications) at seeds 1 and 7919;
- ``cli_boot_poisson`` (n = 10 000, B = 200) at seeds 0, 1, 7 and 7919.

No workload bootstraps at n <= 8192, where one refit block holds more
than one resample, so one more case does: ``boot_table1`` fits replicate
0 of ``scenarios/table1.scenario`` (normal, n = 500) with ``kinkfit.fit``
and runs ``kinkfit.run_inference`` with B = 200 and the case's seed as the
bootstrap stream, at seeds 1 and 7919.  It hashes the bootstrap and
normal intervals and the count of resamples used.

A refactor that claims the same numbers shows the same hashes in every
column.  Each checkout runs in its own subprocess, with ``kinkfit``
imported from its ``src/``.  Every checkout prepares its inputs in the
same work directory, so that the input path inside the CLI's JSON output
is the same for all of them; since that directory is new on each run,
the ``cli_boot_poisson`` hashes differ from run to run, so compare the
columns of one run.  Nothing is written into the checkouts.

Every case whose hashes differ is also sized: for each reported array it
prints the largest absolute and relative difference between the first
checkout and each other one.  The arrays are the study report's counts,
``mean``, ``median``, ``sd``, ``avg_se_prop1``, ``avg_se_delta``, the
coverages and ``estimates`` (``sim_logit``), the CLI's exit code and
the numbers of its JSON output, grouped by key path
(``cli_boot_poisson``), and the intervals and resamples used
(``boot_table1``).  The relative difference of two values is
|a - b| / max(|a|, |b|); a NaN in one column and not the other reads as
an infinite difference.

Uses the standard library only; the workloads use numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CASES = [("sim_logit", 1), ("sim_logit", 7919),
         ("cli_boot_poisson", 0), ("cli_boot_poisson", 1),
         ("cli_boot_poisson", 7), ("cli_boot_poisson", 7919),
         ("boot_table1", 1), ("boot_table1", 7919)]

# Run in the checkout's subprocess: argv is (checkout, workdir, cases as JSON);
# prints one JSON line per case: [name, seed, sha256, {array name: values}].
CHILD = """
import hashlib, json, sys
from pathlib import Path
import numpy as np
checkout, workdir, cases = Path(sys.argv[1]), sys.argv[2], json.loads(sys.argv[3])
sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
import kinkfit, workloads
if Path(kinkfit.__file__).resolve().parent != (checkout / "src" / "kinkfit").resolve():
    raise SystemExit(f"kinkfit imported from {kinkfit.__file__}, not from {checkout}")
REPORT = ("n_failed_fits", "n_converged", "degraded", "mean", "median", "sd",
          "avg_se_prop1", "avg_se_delta", "coverage_normal_pct",
          "coverage_bootstrap_pct", "estimates")

def numbers(node, path, out):
    if isinstance(node, dict):
        for key, value in node.items():
            numbers(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for value in node:
            numbers(value, path, out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out.setdefault(path, []).append(float(node))

def arrays(output):
    if hasattr(output, "estimates"):
        return {k: np.asarray(getattr(output, k), dtype=float).ravel().tolist()
                for k in REPORT if getattr(output, k) is not None}
    out = {"code": [float(output.code)]}
    if output.code == 0:
        numbers(json.loads(output.stdout), "", out)
    return out

def boot_table1(seed):
    sc = kinkfit.load_scenario(checkout / "scenarios" / "table1.scenario")
    spec, data = sc.model_spec(), kinkfit.generate(sc, 0)
    res = kinkfit.fit(spec, data)
    out = kinkfit.run_inference(spec, data, res, bootstrap_B=200, seed=[seed])
    values = {"ci_bootstrap": out.ci_bootstrap.ravel().tolist(),
              "ci_normal": out.ci_normal.ravel().tolist(),
              "bootstrap_reps_used": [float(out.bootstrap_reps_used)]}
    return hashlib.sha256(json.dumps([out.ci_bootstrap.tobytes().hex(),
                                      out.ci_normal.tobytes().hex(),
                                      out.bootstrap_reps_used]).encode()).hexdigest(), values

for name, seed in cases:
    if name == "boot_table1":
        print(json.dumps([name, seed, *boot_table1(seed)]), flush=True)
        continue
    wl = workloads.WORKLOADS[name]()
    wl.prepare(seed, workdir)
    output = wl.call()
    digest = hashlib.sha256(wl.fingerprint(output).encode()).hexdigest()
    print(json.dumps([name, seed, digest, arrays(output)]), flush=True)
"""


def run_cases(checkout: Path, workdir: str) -> dict:
    """{(workload, seed): (sha256, {array name: values})} of one checkout,
    run in a subprocess."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout), workdir, json.dumps(CASES)],
        capture_output=True, text=True, cwd=workdir, env=env,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: exit {proc.returncode}\n{proc.stderr}")
    out = {}
    for line in proc.stdout.splitlines():
        name, seed, digest, values = json.loads(line)
        out[name, seed] = digest, values
    return out


def largest_differences(a: list, b: list) -> tuple:
    """(largest |a - b|, largest |a - b| / max(|a|, |b|)) over two equally
    long lists; a NaN in only one of a pair counts as an infinite
    difference."""
    abs_d = rel_d = 0.0
    for u, v in zip(a, b):
        if math.isnan(u) or math.isnan(v):
            d = 0.0 if math.isnan(u) and math.isnan(v) else math.inf
            abs_d, rel_d = max(abs_d, d), max(rel_d, d)
            continue
        if u == v:
            continue
        d = abs(u - v)
        abs_d = max(abs_d, d)
        rel_d = max(rel_d, d / max(abs(u), abs(v)) if math.isfinite(d) else math.inf)
    return abs_d, rel_d


def print_differences(first: dict, other: dict, label: str) -> None:
    """One line per array of a case: its largest differences from first."""
    for name in sorted(set(first) | set(other)):
        a, b = first.get(name), other.get(name)
        if a is None or b is None or len(a) != len(b):
            sizes = ["absent" if v is None else str(len(v)) for v in (a, b)]
            print(f"    {label} {name:<34} sizes differ: {sizes[0]} against {sizes[1]}")
            continue
        abs_d, rel_d = largest_differences(a, b)
        print(f"    {label} {name:<34} max abs {abs_d:.3g}  max rel {rel_d:.3g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", type=Path, nargs="+", metavar="CHECKOUT")
    args = ap.parse_args(argv)
    checkouts = [c.resolve() for c in args.checkouts]
    with tempfile.TemporaryDirectory(prefix="kinkfit-fingerprints-") as workdir:
        columns = [run_cases(c, workdir) for c in checkouts]
    for i, c in enumerate(checkouts):
        print(f"[{i}] {c}")
    print(f"{'workload':<18}{'seed':>6}  same  "
          + "  ".join(f"{f'[{i}] sha256':<64}" for i in range(len(columns))))
    for case in CASES:
        digests = [col[case][0] for col in columns]
        same = len(set(digests)) == 1
        print(f"{case[0]:<18}{case[1]:>6}  {'yes' if same else 'NO':<4}  " + "  ".join(digests))
        if not same:
            for i, col in enumerate(columns[1:], start=1):
                print_differences(columns[0][case][1], col[case][1], f"[0]->[{i}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())

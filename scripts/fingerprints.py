"""Hash the benchmark workloads' outputs in one or more checkouts.

    python3 scripts/fingerprints.py PARENT CHANGE

Each CHECKOUT is a checkout of the repository (a clean one, made with
``git clone`` or ``git archive``).  For each workload and seed below, the
script makes one call of the checkout's own ``perfbench/workloads.py``
workload and prints the sha256 of its ``fingerprint``, the bytes that
differ whenever any reported number differs:

- ``sim_logit`` (150 replications) at seeds 1 and 7919;
- ``cli_boot_poisson`` (n = 10 000, B = 200) at seeds 0, 1, 7 and 7919.

A refactor that claims the same numbers shows the same hashes in every
column.  Each checkout runs in its own subprocess, with ``kinkfit``
imported from its ``src/``.  Every checkout prepares its inputs in the
same work directory, so that the input path inside the CLI's JSON output
is the same for all of them; since that directory is new on each run,
the ``cli_boot_poisson`` hashes differ from run to run, so compare the
columns of one run.  Nothing is written into the checkouts.

Uses the standard library only; the workloads use numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CASES = [("sim_logit", 1), ("sim_logit", 7919),
         ("cli_boot_poisson", 0), ("cli_boot_poisson", 1),
         ("cli_boot_poisson", 7), ("cli_boot_poisson", 7919)]

# Run in the checkout's subprocess: argv is (checkout, workdir, cases as JSON);
# prints one JSON line per case.
CHILD = """
import hashlib, json, sys
from pathlib import Path
checkout, workdir, cases = Path(sys.argv[1]), sys.argv[2], json.loads(sys.argv[3])
sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
import kinkfit, workloads
if Path(kinkfit.__file__).resolve().parent != (checkout / "src" / "kinkfit").resolve():
    raise SystemExit(f"kinkfit imported from {kinkfit.__file__}, not from {checkout}")
for name, seed in cases:
    wl = workloads.WORKLOADS[name]()
    wl.prepare(seed, workdir)
    digest = hashlib.sha256(wl.fingerprint(wl.call()).encode()).hexdigest()
    print(json.dumps([name, seed, digest]), flush=True)
"""


def hashes(checkout: Path, workdir: str) -> dict:
    """{(workload, seed): sha256} of one checkout, run in a subprocess."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout), workdir, json.dumps(CASES)],
        capture_output=True, text=True, cwd=workdir, env=env,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: exit {proc.returncode}\n{proc.stderr}")
    out = {}
    for line in proc.stdout.splitlines():
        name, seed, digest = json.loads(line)
        out[name, seed] = digest
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", type=Path, nargs="+", metavar="CHECKOUT")
    args = ap.parse_args(argv)
    checkouts = [c.resolve() for c in args.checkouts]
    with tempfile.TemporaryDirectory(prefix="kinkfit-fingerprints-") as workdir:
        columns = [hashes(c, workdir) for c in checkouts]
    for i, c in enumerate(checkouts):
        print(f"[{i}] {c}")
    print(f"{'workload':<18}{'seed':>6}  same  "
          + "  ".join(f"{f'[{i}] sha256':<64}" for i in range(len(columns))))
    for case in CASES:
        digests = [col[case] for col in columns]
        same = "yes" if len(set(digests)) == 1 else "NO"
        print(f"{case[0]:<18}{case[1]:>6}  {same:<4}  " + "  ".join(digests))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare the per-layer trace metrics of two checkouts on one workload.

    python3 scripts/trace_diff.py PARENT CHANGE --workload cli_boot_poisson \
        --seed 1 --seconds 20

PARENT and CHANGE are two checkouts of the repository (clean ones, made
with ``git clone`` or ``git archive``).  The script runs
``perfbench/run.py --trace 1`` once in each, parent first, and prints
every per-layer metric of the two runs side by side with the ratio
change / parent, then whether each run read ``correct``.  Counts (calls,
iterations, kernel points) do not depend on the host, so one run per side
shows a change in them; the times do, so read them only as a hint and
compare times with ``scripts/bench_pairs.py``.  Each run writes its spans
into its own checkout's ``perfbench/_work/``, as ``run.py`` does.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def traced_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """``correct`` and {metric: (value, unit)} of one traced run in checkout.

    A run that exits non-zero or prints no result reads as not correct,
    without metrics.
    """
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        sys.stderr.write(f"{checkout}: exit {proc.returncode}, no result\n{proc.stderr}\n")
        return {"correct": False, "metrics": {}}
    return {"correct": proc.returncode == 0 and result.get("correct") is True, "metrics": metrics}


def ratio(parent, change) -> str:
    if parent is None or change is None:
        return "-"
    if parent == 0:
        return "=" if change == 0 else "new"
    return f"{change / parent:.3f}"


def fmt(value) -> str:
    if value is None:
        return "-"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    runs = {side: traced_run(path.resolve(), args.workload, args.seed, args.seconds)
            for side, path in (("parent", args.parent), ("change", args.change))}
    p, c = runs["parent"]["metrics"], runs["change"]["metrics"]
    names = list(p) + [name for name in c if name not in p]
    print(f"{'metric':<40}{'unit':>10}{'parent':>16}{'change':>16}{'ratio':>9}")
    for name in names:
        pv, unit = p.get(name, (None, None))
        cv, cunit = c.get(name, (None, None))
        print(f"{name:<40}{unit or cunit:>10}{fmt(pv):>16}{fmt(cv):>16}{ratio(pv, cv):>9}")
    print(f"correct: parent {runs['parent']['correct']}, change {runs['change']['correct']}")
    return 0 if runs["parent"]["correct"] and runs["change"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

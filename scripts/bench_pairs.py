"""Compare two checkouts on one benchmark workload by alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload cli_boot_poisson \
        --seed 1 --seconds 55 --pairs 10 [--json BENCH.json]

PARENT and CHANGE are two checkouts of the repository (clean ones, made
with ``git clone`` or ``git archive``).  Each pair runs
``perfbench/run.py --trace 0`` once in each, in turn; the side that goes
first alternates from pair to pair, so a slow phase of the host does not
fall on one side only.  Per pair it prints the end-to-end metrics and
``correct`` of both runs.  Then, for each end-to-end metric of the
parent's ``BENCHMARK.json``, it prints how many pairs the change wins, the
two medians and the interquartile range of the parent's runs, and whether
README's claim rule holds: the change wins at least 9 pairs in 10 and its
median is better than the parent's by more than that range.

With ``--json PATH`` it also writes every run and the summary to PATH:
per pair, which side went first and, per side, the run record line of
``perfbench/run.py`` (machine, versions, git sha, per-call times),
``correct`` and the metric values; then one summary row per metric.  Run
in ``git clone`` checkouts, so that the records carry their git sha.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout: its run record (the line before the
    last; None if missing), and ``correct`` and the metric values of its
    last output line.

    A run that exits non-zero or prints no result reads as not correct,
    without metrics.
    """
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        sys.stderr.write(f"{checkout}: exit {proc.returncode}, no result\n{proc.stderr}\n")
        return {"record": None, "correct": False, "metrics": {}}
    try:
        record = json.loads(lines[-2])["record"]
    except (IndexError, ValueError, KeyError, TypeError):
        record = None
    return {"record": record,
            "correct": proc.returncode == 0 and result.get("correct") is True,
            "metrics": metrics}


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[dict]:
    """Print and return one row per metric: wins, medians, the parent's
    IQR and whether the claim rule holds (no counts for a metric without a
    complete pair)."""
    print(f"{'metric':<14}{'wins':>8}{'parent median':>16}{'change median':>16}"
          f"{'parent IQR':>13}  claim")
    rows = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        pairs = [(p["metrics"][name], c["metrics"][name])
                 for p, c in zip(parent, change) if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            print(f"{name:<14}  no complete pair")
            rows.append({"metric": name, "pairs": 0})
            continue
        wins = sum((c > p) if higher else (c < p) for p, c in pairs)
        pm = statistics.median(p for p, _ in pairs)
        cm = statistics.median(c for _, c in pairs)
        spread = iqr([p for p, _ in pairs])
        gain = (cm - pm) if higher else (pm - cm)
        claim = wins >= 0.9 * len(pairs) and gain > spread
        print(f"{name:<14}{f'{wins}/{len(pairs)}':>8}{pm:>16.4g}{cm:>16.4g}{spread:>13.4g}"
              f"  {'yes' if claim else 'no'}")
        rows.append({"metric": name, "pairs": len(pairs), "wins": wins, "parent_median": pm,
                     "change_median": cm, "parent_iqr": spread, "claim": claim})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--json", type=Path, help="also write every run and the summary here")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with open(sides["parent"] / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    runs = {"parent": [], "change": []}
    firsts = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        firsts.append(order[0])
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, args.seed, args.seconds))
        cells = []
        for side in ("parent", "change"):
            r = runs[side][-1]
            vals = " ".join(f"{m['name']}={r['metrics'].get(m['name'], float('nan')):.4g}"
                            for m in metrics)
            cells.append(f"{side} {vals} correct={r['correct']}")
        print(f"pair {i + 1} ({order[0]} first): " + " | ".join(cells), flush=True)
    rows = summarize(metrics, runs["parent"], runs["change"])
    if args.json is not None:
        pairs = [{"first": first, "parent": p, "change": c}
                 for first, p, c in zip(firsts, runs["parent"], runs["change"])]
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                       "pairs": pairs, "summary": rows}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

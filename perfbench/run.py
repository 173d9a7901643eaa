"""kinkfit benchmark: one workload, one caller, a closed loop in one process.

    python3 perfbench/run.py --workload sim_logit --seed 1 --seconds 55 --trace 0

Runs the workload's outer call (a Monte Carlo study or a ``kinkfit fit``
with a bootstrap) back to back until ``--seconds`` of timed calls are
spent, checks every distinct output, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  An
operation is one outer call.  The line before it is the run record
(machine, versions, git sha, seed, wall and CPU time of every call).

With ``--trace 0`` the metrics are the end-to-end ones: ``fits_per_s``
(fits attempted per call / wall time of the run's fastest call),
``setup_s`` (median over fresh interpreters, spread through the run, of
import plus scenario load) and ``peak_rss_mb`` (peak resident set of this
process plus that of its largest child).  With ``--trace 1`` untraced and
traced calls alternate and the metrics are the per-layer ones from the
traced calls (median over them), with the tracing overhead; the spans of
the first traced call are written to ``perfbench/_work/``.

Every call of a run does the same work on the same inputs, so the calls
differ only by how much the host lets the process run.  On a shared host
that changes in phases of seconds to minutes, by up to a factor of three,
so a run's median call depends on how much of the run fell in a slow
phase.  The fastest call is the one least slowed by
the rest of the host, so it is the figure a run reports.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = BENCH / "_work"
DEFAULT_SEED = 1
SETUP_PROBES = 7


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kinkfit
    except ImportError as exc:
        raise SystemExit(f"cannot import kinkfit from {src}: {exc}") from None
    if Path(kinkfit.__file__).resolve().parent.parent != src:
        raise SystemExit(f"kinkfit imported from {kinkfit.__file__}, not from {src}")


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Call(NamedTuple):
    """One outer call: its output (None if it raised), the traceback if it
    raised, and its wall and CPU seconds."""

    out: object
    err: str | None
    wall: float
    cpu: float


def timed_call(workload):
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        out, err = workload.call(), None
    except Exception:  # the run goes on; the call counts as failed
        out, err = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    return Call(out, err, wall, cpu_seconds() - c0)


def probe_setup(workload, probes):
    """Seconds of one set-up in a fresh interpreter.

    The probe is left unreaped in ``probes``: it is waited for only after
    peak RSS is read, so that its memory does not count as a child's.
    """
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), *workload.setup_args]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    probes.append(proc)
    with proc.stdout:
        out = proc.stdout.read()  # up to the probe's exit
    try:
        return float(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"set-up probe failed: {out.strip()}") from None


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def check_outputs(workload, outputs, reference):
    """Problems found in the distinct outputs; each is checked once."""
    problems, seen = [], set()
    for out in outputs:
        key = workload.fingerprint(out)
        if key in seen:
            continue
        seen.add(key)
        if len(seen) > 1:
            problems.append("repeated calls on the same inputs gave different outputs")
        problems += workload.check(out, reference)
    return problems


def run(workload, seed, seconds, trace):
    import checks
    import tracer as tracing

    WORKDIR.mkdir(exist_ok=True)
    workload.prepare(seed, WORKDIR)
    problems = []
    try:
        workload.warm_up()
    except Exception:  # the timed calls meet the same failure and count it
        problems.append(f"warm-up call raised:\n{traceback.format_exc()}")

    # Untimed and (with --trace 1) traced calls alternate until the timed
    # calls have spent the run's seconds, stopping before a call that
    # would likely overrun.  With --trace 0 the set-up probes run between
    # calls, spread over the run, so that their median spans the host's
    # phases as the calls do.
    plain, traced, layer, spans, setups, probes = [], [], [], None, [], []
    spent = 0.0
    try:
        while True:
            if not trace:
                while len(setups) < SETUP_PROBES * min(1.0, spent / seconds):
                    setups.append(probe_setup(workload, probes))
            if trace and len(plain) > len(traced):
                with tracing.Tracer(run=len(plain) + len(traced)) as tr:
                    call = timed_call(workload)
                traced.append(call)
                layer.append(tracing.layer_metrics(tr))
                if spans is None:
                    spans = tr.rows()
            else:
                call = timed_call(workload)
                plain.append(call)
            spent += call.wall
            if spent + call.wall > seconds and (traced or not trace):
                break
        while not trace and len(setups) < SETUP_PROBES:
            setups.append(probe_setup(workload, probes))
        rss = peak_rss_mb()
    finally:
        for proc in probes:
            proc.wait()

    every = plain + traced
    reference = checks.reference_for(checks.load_references(), workload.name, seed)
    problems += [f"call raised:\n{c.err}" for c in every if c.err]
    problems += check_outputs(workload, [c.out for c in every if c.err is None], reference)
    if traced and plain[0].err is None and traced[0].err is None:
        if workload.fingerprint(traced[0].out) != workload.fingerprint(plain[0].out):
            problems.append("traced output differs from the untraced output")

    attempted = len(every)
    failed = sum(c.err is not None or not workload.succeeded(c.out) for c in every)
    fits_attempted = attempted * workload.fits_per_call
    fits_failed = sum(
        workload.fits_per_call if c.err else workload.failed_fits(c.out) for c in every
    )
    if problems:
        failed, fits_failed = attempted, fits_attempted

    walls = [c.wall for c in plain]
    if trace:
        metrics = {
            name: {"value": statistics.median_low(m[name][0] for m in layer), "unit": unit}
            for name, (_, unit) in layer[0].items()
        }
        traced_wall = statistics.median(c.wall for c in traced)
        metrics["run.cpu_s"] = {"value": statistics.median(c.cpu for c in plain), "unit": "s"}
        metrics["run.failed_frac"] = {"value": fits_failed / fits_attempted, "unit": "ratio"}
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_frac"] = {
            "value": min(c.wall for c in traced) / min(walls) - 1.0, "unit": "ratio"}
    else:
        metrics = {
            "fits_per_s": {"value": workload.fits_per_call / min(walls), "unit": "fits/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }

    import numpy
    import scipy

    record = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "seconds": seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": git_sha(),
        "reference": "recorded" if reference is not None else "none",
        "calls_wall_s": walls, "calls_cpu_s": [c.cpu for c in plain],
        "traced_wall_s": [c.wall for c in traced], "setup_s": setups,
        "fits_attempted": fits_attempted, "fits_failed": fits_failed,
        "problems": problems,
    }
    if spans is not None:
        path = WORKDIR / f"trace-{workload.name}-seed{seed}.json"
        with open(path, "w") as fh:
            json.dump({"record": record, "fields": tracing.Tracer.FIELDS, "spans": spans}, fh)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    import_program()
    run(workloads.WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()

"""Time one workload's set-up in a fresh interpreter and print it in seconds.

Set-up is what a user pays before the first fit: ``import kinkfit`` (with
numpy and scipy) plus loading the scenario file, or, without a scenario,
importing the CLI.

    python3 perfbench/setup_probe.py [--scenario scenarios/table1.scenario]
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--scenario", default=None)
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import kinkfit

    if args.scenario:
        kinkfit.load_scenario(args.scenario)
    else:
        import kinkfit.cli  # noqa: F401
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()

"""Record the reference outputs that ``checks.py`` compares against.

Run at the commit whose outputs are the reference (it overwrites
``perfbench/references.json``):

    python3 perfbench/record_references.py

Seeds 0-20 are recorded, which include the default seed 1, and the
held-out seed 7919, which later changes should not be tuned on.  An
output that fails the reference-free checks is not recorded.
"""

import json
import sys

import checks
import run
import workloads

SEEDS = list(range(21))
HELD_OUT_SEED = 7919


def main():
    run.import_program()
    run.WORKDIR.mkdir(exist_ok=True)
    refs = {"default_seed": run.DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
            "git_sha": run.git_sha(), "workloads": {}}
    for name, make in workloads.WORKLOADS.items():
        table = refs["workloads"][name] = {}
        for seed in SEEDS + [HELD_OUT_SEED]:
            wl = make()
            wl.prepare(seed, run.WORKDIR)
            out = wl.call()
            problems = wl.check(out, None)
            table[str(seed)] = wl.reference(out)
            if problems:
                sys.exit(f"{name} seed {seed} fails its checks: {problems}")
            print(name, seed, "recorded", flush=True)
    with open(checks.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

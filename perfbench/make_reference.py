"""Record each workload's reference outputs for a range of seeds.

Usage (from the repository root, at the commit whose outputs are the
reference):

    python3 perfbench/make_reference.py FIRST LAST

For every seed in FIRST..LAST and every workload it makes one untraced call,
checks it, and stores the output digests (and the lm training loss) in
``perfbench/reference.json``, keeping the seeds already recorded there.  A
benchmark run compares its outputs with this table when its seed is in it.
"""

import json
import os
import sys

import run
from checks import guarded
from workloads import WORKLOADS, found_outputs


def main(first: int, last: int) -> int:
    path = os.path.join(run.HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    for seed in range(first, last + 1):
        for name, workload in WORKLOADS.items():
            r = run.Run(name, seed, False)
            out = os.path.join(r.dir, "reference")
            result, error = run.spawn({"argvs": [workload.argv(r.inputs, out)]},
                                      r.dir, r.env)
            if result is None or result["calls"][0]["rc"] != 0:
                print(f"{name} seed {seed}: call failed {error}", file=sys.stderr)
                return 1
            problems = guarded(workload.check, r.inputs, out)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = found_outputs(workload, out)
            print(f"{name} seed {seed}: recorded", flush=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))

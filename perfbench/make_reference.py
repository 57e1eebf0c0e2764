"""Rewrite ``reference.json`` entries from the current program's outputs.

Run from the repository root::

    python3 perfbench/make_reference.py --workload distcal_k5 --seeds 0-9

For each seed it writes the workload's inputs once, runs every world's
invocations once (untraced, checked as in a benchmark run), and stores the
fingerprints of every world under ``<workload>/<seed>``. Use it only when a
change to the workload or an intended change to the program's answers makes
the old entries wrong.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from run import HERE, Runner
from workloads import WORKLOADS, world_seed


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-9")
    args = parser.parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    path = HERE / "reference.json"
    reference = json.loads(path.read_text())
    for seed in args.seeds:
        runner = Runner(root, workload, seed, {})
        try:
            for i in range(workload.n_worlds):
                runner.world_dir(i).mkdir(parents=True)
                workload.make_inputs(runner.world_dir(i), world_seed(seed, i))
            entry = {}
            for i in range(workload.n_worlds):
                r = runner.run_world(i, traced=False)
                if r["failed"]:
                    print(f"{workload.name}/{seed}: {r['errors']}", file=sys.stderr)
                    return 1
                entry.update(r["fingerprints"])
        finally:
            shutil.rmtree(runner.work, ignore_errors=True)
            try:
                runner.work.parent.rmdir()
            except OSError:
                pass
        reference[f"{workload.name}/{seed}"] = entry
        print(f"{workload.name}/{seed}: {len(entry)} fingerprints", flush=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

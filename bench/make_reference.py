"""Write committed references: each workload's in-process result at given seeds.

    python3 bench/make_reference.py --seeds 0-9
    python3 bench/make_reference.py --seeds 0 --rows 2000

Run it only on a commit whose outputs are known good; the benchmark then
checks every later CLI call at these seeds against them.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import REFERENCE_DIR, SRC, THREAD_PINS, WORK_DIR


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--rows", type=int, default=None)
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    REFERENCE_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for workload in WORKLOADS.values():
            rows = args.rows or workload.rows
            for seed in seeds:
                inputs = workload.make_inputs(work, rows, seed)
                record = {
                    "workload": workload.name,
                    "rows": rows,
                    "seed": seed,
                    "expected": workload.run_in_process(inputs),
                }
                path = REFERENCE_DIR / f"{workload.name}-rows{rows}-seed{seed}.json"
                path.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
                print(path.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

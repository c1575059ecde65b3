"""Record the output digests that run.py checks a run against.

    python3 perfbench/record_digests.py --seeds 0-20,4242 [--n 4000] [--workloads ...]

For each workload and seed this builds the dataset once, runs one pass,
and stores the SHA-256 of the dataset tree, of each machine report and of
the fused JSONL in digests.json (merged with what is there). Record only
from a commit whose outputs are known to be right: every later run on a
stored seed must reproduce these bytes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import DIGESTS, N_INSTANCES, WORKLOADS, Run
from spread import parse_seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--n", type=int, default=N_INSTANCES)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            run = Run(workload, seed, 0, False, args.n)
            run.expected = None
            shutil.rmtree(run.dir, ignore_errors=True)
            run.dir.mkdir(parents=True)
            digests: dict[str, str] = {}
            _, data, _ = run.setup(0, False, digests)
            run.run_pass(data, False, 0, digests)
            if run.tally.failed:
                print(f"{run.digest_key}: {run.tally.problems}", file=sys.stderr)
                return 1
            shutil.rmtree(run.dir)
            stored[run.digest_key] = digests
            print(run.digest_key, flush=True)
            DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Generate and write one benchmark dataset (the set-up step of a run).

Run as a fresh process with the repository's ``src`` on PYTHONPATH:

    python perfbench/setup_dataset.py --seed 7 --n 4000 --profile moderate \
        --bank-size 200 --out DIR

``bank_size`` is not reachable from ``posekit synth``, so the benchmark
calls ``synth.generate_scene`` and ``dataio.save_dataset`` directly.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from posekit import dataio, synth


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--profile", required=True, choices=sorted(synth.NOISE_PRESETS))
    parser.add_argument("--bank-size", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    scene = synth.generate_scene(
        args.seed, args.n, synth.noise_preset(args.profile), bank_size=args.bank_size
    )
    dataio.save_dataset(scene, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

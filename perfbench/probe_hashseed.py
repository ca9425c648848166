"""Hash-seed determinism probe.

    python3 perfbench/probe_hashseed.py --seed 1 --seconds 1

Runs every untraced workload under two PYTHONHASHSEED values and compares
all digests: the generated inputs, the result rows, the ranking decisions,
the tune curve and the files build-models writes. The README promises
byte-identical output for the same inputs, so any difference in an output
digest is a program defect, reported as such; the hash seed is not pinned
anywhere in the benchmark to hide it. Exits 1 if any digest differs.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import WORKLOADS, BenchError, _child_env, run_workload  # noqa: E402

HASH_SEEDS = ("1", "2")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    differ = 0
    for workload in WORKLOADS:
        runs = {}
        for hash_seed in HASH_SEEDS:
            env = _child_env() | {"PYTHONHASHSEED": hash_seed}
            try:
                out = run_workload(workload, args.seed, args.seconds, False, args.scale, env=env)
            except BenchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            runs[hash_seed] = {"inputs": out["inputs"], **out["digests"]}
        a, b = (runs[h] for h in HASH_SEEDS)
        for name in sorted(set(a) | set(b)):
            same = a.get(name) == b.get(name)
            differ += not same
            who = "benchmark generator" if name == "inputs" else "program"
            verdict = "identical" if same else f"DIFFERS ({who} defect)"
            print(f"{workload:<15} {name:<8} PYTHONHASHSEED {'/'.join(HASH_SEEDS)}: {verdict}")
    print(f"{differ} digest(s) differ between hash seeds")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

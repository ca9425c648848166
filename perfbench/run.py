"""Seeded, download-free benchmark of the plainterm pipeline.

    python3 perfbench/run.py --workload simplify-dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

For each workload this generates synthetic inputs from the seed (and trains
the workload's own language model with the program), then measures in a
fresh single-threaded process, checks the outputs, and prints a readable
report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the per-layer ones, and the spans are written to
``perfbench/out/``. The exit code is 1 when the correctness gate fails (a
digest differs from the one recorded for the seed, or an independent check
fails) and 2 when the program is not there to run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

from clock import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("simplify-dense", "simplify-long", "tune-grid", "build-models")
DIGESTS = os.path.join(HERE, "digests.json")
TRAJECTORY = os.path.join(HERE, "trajectory")
# prepare plus measure must end within this; the loop itself takes --seconds
DEADLINE_MARGIN_S = 120.0
DEADLINE_PER_SECOND = 5.0

# the readable name of each workload's metrics in the report
THROUGHPUT_NAME = {
    "simplify-dense": "sentences_per_s",
    "simplify-long": "sentences_per_s",
    "tune-grid": "tune_evals_per_s",
    "build-models": "builds_per_s",
}
LATENCY_NAME = {
    "simplify-dense": "sentence_ms",
    "simplify-long": "sentence_ms",
    "tune-grid": "tune_simplify_ms",
    "build-models": "build_ms",
}


class BenchError(Exception):
    """A step of the benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    # one thread per process: numpy's BLAS pool stays idle but is not spawned wide
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(args: list[str], timeout: float, env: dict) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} {args[1]} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} {args[1]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _recorded() -> dict:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
                 plant_fault: bool = False, env: dict | None = None) -> dict:
    """Prepare and measure one workload in fresh processes; return the measure output."""
    env = env if env is not None else _child_env()
    deadline = DEADLINE_MARGIN_S + DEADLINE_PER_SECOND * seconds
    started = perf_counter()
    work = os.path.join(HERE, ".work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        inputs = _child(["prepare", workload, work, "--seed", str(seed), "--scale", scale], deadline, env)
        remaining = deadline - (perf_counter() - started)
        argv = ["measure", workload, work, "--seconds", str(seconds), "--trace", str(int(trace))]
        if plant_fault:
            argv.append("--plant-fault")
        out = _child(argv, max(remaining, 1.0), env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's work directory is still there
    out["inputs"] = inputs
    return out


def gate(workload: str, seed: int, scale: str, out: dict) -> tuple[bool, list[str]]:
    """Compare digests with the ones recorded for this seed; returns (correct, notes)."""
    key = f"{scale}/{seed}/{workload}"
    digests = {"inputs": out["inputs"], **out["digests"]}
    notes = list(out["problems"])
    expect = _recorded().get(key)
    if expect is None:
        notes.append(f"no digests recorded for {key}: gate rests on the independent checks")
        return out["failed"] == 0, notes
    same = True
    for name in sorted(set(expect) | set(digests)):
        if expect.get(name) != digests.get(name):
            same = False
            what = "generated inputs" if name == "inputs" else f"digest {name!r}"
            notes.append(f"{what} differs from the value recorded for {key}")
    return same and out["failed"] == 0, notes


def end_to_end(workload: str, out: dict) -> dict:
    lat = out["latency"]
    return {
        "setup_s": (out["setup_s"], "s"),
        "ops_per_s": (out["ops_per_s"], "1/s"),
        "op_ms_p50": (lat["p50_ms"], "ms"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }


def report(workload: str, seed: int, out: dict, correct: bool, notes: list[str], trace: bool) -> list[str]:
    """Readable lines: each metric under its readable name, with its unit."""
    lines = [f"== {workload} (seed {seed}): {'correct' if correct else 'INCORRECT'}"]

    def row(name, value, unit, extra=""):
        text = "unobserved" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<36} {text:>14} {unit:<8} {extra}".rstrip())

    if trace:
        tr = out["trace"]
        for name, (value, unit) in tr["layers"].items():
            row(name, value, unit)
        ranked = sorted(tr["self_seconds"].items(), key=lambda kv: -kv[1])
        lines.append("  largest self times: " + ", ".join(f"{n} {s:.3f}s" for n, s in ranked[:4]))
        if tr["unobserved"]:
            lines.append("  UNOBSERVED boundaries: " + ", ".join(tr["unobserved"]))
    else:
        lat = out["latency"]
        row("setup_s", out["setup_s"], "s",
            f"(median of {out['setup_repeats']} loads, scaled; wall clock {out['setup_wall_s']:.4g} s)")
        row(THROUGHPUT_NAME[workload], out["ops_per_s"], "1/s",
            f"({out['rounds']} rounds, scaled; wall clock {out['wall_ops_per_s']:.4g} 1/s)")
        row(LATENCY_NAME[workload] + "_p50", lat["p50_ms"], "ms", f"(n={lat['n']}, each its median scaled repetition)")
        tail = out.get("tail", {})
        if "tail_ms" in tail:
            row(f"{LATENCY_NAME[workload]}_p{tail['tail_pct']}", tail["tail_ms"], "ms",
                f"(all n={tail['n']} timed calls, wall clock, {tail['tail_beyond']} beyond)")
        if workload == "build-models":
            row("build_table_rows_per_s", out["build_table_rows_per_s"], "1/s")
            row("train_lm_tokens_per_s", out["train_lm_tokens_per_s"], "1/s")
        row("peak_rss_mb", out["peak_rss_mb"], "MB")
        row("kernel_ms", out["kernel_ms"], "ms", f"(calibration kernel, median; scaled = wall x {REFERENCE_S * 1e3:g} / it)")
    row("failed_ratio", out["failed"] / out["attempted"], "ratio",
        f"({out['failed']} of {out['attempted']} attempted; {out['checked']} independently checked)")
    lines.append("  digests: " + " ".join(f"{k}={v[:12]}" for k, v in sorted(out["digests"].items())))
    lines.extend(f"  note: {n}" for n in notes)
    return lines


def _newest_trajectory() -> dict | None:
    files = sorted(glob.glob(os.path.join(TRAJECTORY, "BENCH_*.json")))
    if not files:
        return None
    with open(files[-1], encoding="utf-8") as fh:
        return json.load(fh) | {"file": os.path.basename(files[-1])}


def _write_trace(workload: str, seed: int, out: dict) -> str:
    path = os.path.join(HERE, "out", f"trace-{workload}-{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fields = ("name", "start", "end", "parent", "sentence", "phase")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "layers": out["trace"]["layers"],
                "spans": [dict(zip(fields, s)) for s in out["trace"]["spans"]],
            },
            fh,
        )
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="length of each timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-test")
    parser.add_argument("--plant-fault", action="store_true",
                        help="corrupt one output before the gate (self-test of the gate)")
    args = parser.parse_args(argv)

    for needed in (os.path.join("src", "plainterm", "__init__.py"), os.path.join("tests", "oracles.py")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from a checkout of the repository",
                  file=sys.stderr)
            return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            out = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.scale, args.plant_fault)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        correct, notes = gate(workload, args.seed, args.scale, out)
        if args.trace:
            notes.append(f"spans written to {_write_trace(workload, args.seed, out)}")
            if out["trace"]["unobserved"]:
                correct = False
                notes.append("a boundary this workload must pass saw no call; update perfbench/tracing.py")
            metrics = out["trace"]["metrics"]
        else:
            metrics = end_to_end(workload, out)
        print("\n".join(report(workload, args.seed, out, correct, notes, bool(args.trace))), flush=True)
        results[workload] = {
            "correct": correct,
            "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }

    if args.workload == "all":
        base = _newest_trajectory()
        if base and not args.trace:
            # the baseline is a median over several seeds, so the change mixes
            # input differences with speed changes; compare medians for a verdict
            seeds = ",".join(str(n) for n in base["seeds"])
            print(f"== change of this seed-{args.seed} run against the median over seeds {seeds} "
                  f"in {base['file']}")
            for workload, res in results.items():
                for name, m in res["metrics"].items():
                    old = base.get("workloads", {}).get(workload, {}).get("metrics", {}).get(name)
                    if old:
                        delta = (m["value"] - old["value"]) / old["value"]
                        print(f"  {workload:<15} {name:<12} {old['value']:>12.6g} -> {m['value']:<12.6g} {delta:+.1%}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at tiny size; takes about a minute.

    python3 perfbench/selftest.py

Checks that the generator is deterministic for a seed (also across
PYTHONHASHSEED values), that every workload prints every metric named in
BENCHMARK.json with its unit (and under its readable name), and
that a planted wrong output is caught by the correctness gate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from gen import Generator, freq_rows, table_rows  # noqa: E402

SEED = 5  # its tiny-scale digests are recorded in digests.json
WORKLOADS = ("simplify-dense", "simplify-long", "tune-grid", "build-models")
READABLE = {
    "simplify-dense": ("setup_s", "sentences_per_s", "sentence_ms_p50", "sentence_ms_p", "peak_rss_mb", "failed_ratio"),
    "simplify-long": ("setup_s", "sentences_per_s", "sentence_ms_p50", "sentence_ms_p", "peak_rss_mb", "failed_ratio"),
    "tune-grid": ("setup_s", "tune_evals_per_s", "tune_simplify_ms_p50", "peak_rss_mb", "failed_ratio"),
    "build-models": ("setup_s", "build_table_rows_per_s", "train_lm_tokens_per_s", "peak_rss_mb", "failed_ratio"),
}


def _snapshot(seed: int) -> list:
    g = Generator(seed, "tiny")
    return [
        table_rows(g.dense_groups), table_rows(g.long_groups), g.corpus, freq_rows(g.freq),
        g.dense_sentences(), g.long_sentences(), g.dev_pairs(), g.ontology_rows(),
    ]


def _run(*args: str) -> tuple[int, list[str]]:
    """Exit code and standard-output lines of one run.py invocation."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _prepare_digests(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as work:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "prepare", workload, work,
             "--seed", str(SEED), "--scale", "tiny"],
            capture_output=True, text=True, timeout=120, env=env, check=True,
        )
    return json.loads(proc.stdout)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures: list[str] = []

    def expect(cond: bool, what: str) -> None:
        print(f"[{'PASS' if cond else 'FAIL'}] {what}", flush=True)
        if not cond:
            failures.append(what)

    expect(_snapshot(SEED) == _snapshot(SEED), "generator gives the same inputs for the same seed")
    expect(_snapshot(SEED) != _snapshot(SEED + 1), "generator gives other inputs for another seed")
    for workload in WORKLOADS:
        expect(
            _prepare_digests(workload, "1") == _prepare_digests(workload, "2"),
            f"{workload}: prepared files are identical under two PYTHONHASHSEED values",
        )

    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = _run("--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
                               "--trace", str(trace), "--scale", "tiny")
            expect(code == 0, f"{workload} --trace {trace}: exit 0")
            try:
                result = json.loads(lines[-1]) if code == 0 else {}
            except json.JSONDecodeError:
                result = {}
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"] and result["correct"],
                   f"{workload} --trace {trace}: last line is a correct result")
            metrics = result.get("metrics", {})
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m.get("unit") for name, m in metrics.items()}
            expect(got == wanted, f"{workload} --trace {trace}: every {section} metric, with its unit")
            expect(all(isinstance(m.get("value"), (int, float)) for m in metrics.values()),
                   f"{workload} --trace {trace}: every value is a number")
            if trace == 0:
                text = "\n".join(lines)
                missing = [n for n in READABLE[workload] if n not in text]
                expect(not missing, f"{workload}: readable report names {', '.join(READABLE[workload])}"
                       + (f" (missing {missing})" if missing else ""))
                expect("digests recorded" not in text and "no digests recorded" not in text,
                       f"{workload}: digests for tiny seed {SEED} are recorded and compared")

        code, lines = _run("--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
                           "--scale", "tiny", "--plant-fault")
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        expect(code == 1 and result.get("correct") is False,
               f"{workload}: a planted wrong output fails the correctness gate")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's gates, run at test scale.

perfbench/tracing.py times the pipeline by wrapping the names it calls
through, and perfbench/worker.py fails a traced run when an expected
boundary sees no call. A change to the hot path that stops calling one of
them would otherwise show only in a traced benchmark run, which takes
minutes; here the same tracer runs over the small test fixtures.

The benchmark also gates every run on output digests recorded in
perfbench/digests.json. The ranking digest holds the repr of every
lm_score, so the tiny-scale runs below pin each score bit for bit.
"""

import importlib
import json
import pathlib
import sys

import pytest

import plainterm.evaluation as evaluation
import plainterm.simplifier as simplifier
from plainterm.ngram_lm import load_scorer
from plainterm.ontology import read_table
from plainterm.wordfreq import load_table

PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench's tracing and worker modules, imported read-only."""
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing"), importlib.import_module("worker")
    finally:
        # worker.py puts src/, tests/ and perfbench/ on the path when imported
        sys.path[:] = saved


@pytest.mark.parametrize("workload", ["simplify-dense", "tune-grid"])
def test_traced_run_observes_every_expected_boundary(bench, tune, workload):
    tracing, worker = bench
    pairs, table, lm, freq = tune
    tracer = tracing.Tracer()
    tracer.install(table)
    try:
        tracer.phase = "loop"
        scorer = tracing.TracedScorer(lm, tracer)
        if workload == "tune-grid":
            evaluation.grid_search_alpha(pairs, table, scorer, freq)
        else:
            for source, _ in pairs:
                simplifier.simplify(source, table, scorer, freq, simplifier.SimplifierConfig())
    finally:
        tracer.uninstall()
    unobserved = [name for name in worker.EXPECTED[workload] if not tracer.total(name)[0]]
    assert unobserved == []


@pytest.mark.parametrize("workload", ["simplify-dense", "simplify-long", "tune-grid", "build-models"])
def test_tiny_run_matches_recorded_digests(bench, tmp_path, workload):
    _, worker = bench
    inputs = worker.prepare(workload, str(tmp_path), 5, "tiny")
    out = worker.measure(workload, str(tmp_path), 0.0, False, False)
    recorded = json.loads((PERFBENCH / "digests.json").read_text())[f"tiny/5/{workload}"]
    assert {"inputs": inputs, **out["digests"]} == recorded
    assert out["failed"] == 0


def test_tiny_dev_set_gives_the_same_results_through_a_shared_memo(bench, tmp_path, over_grid):
    """Every simplify result over the default grid walked both ways, and the grid
    search's curve, on the seed-5 tiny tune-grid inputs."""
    _, worker = bench
    worker.prepare("tune-grid", str(tmp_path), 5, "tiny")
    with open(tmp_path / "table.tsv", encoding="utf-8") as fh:
        table = read_table(fh)
    with open(tmp_path / "freq.tsv", encoding="utf-8") as fh:
        freq = load_table(fh)
    lm = load_scorer(str(tmp_path / "lm.arpa"))
    with open(tmp_path / "dev.tsv", encoding="utf-8") as fh:
        pairs = [tuple(line.rstrip("\n").split("\t")) for line in fh]
    # walked both ways, a shared memo first sees alpha 0.0 in one and 1.0 in the other
    for grid in (evaluation.default_alpha_grid(), evaluation.default_alpha_grid()[::-1]):
        shared = over_grid(pairs, table, simplifier.ScoreMemo(lm, table, freq), freq, grid)
        fresh = over_grid(pairs, table, lm, freq, grid)
        assert shared == fresh
        assert repr(shared) == repr(fresh)
    scores = (
        [69.0282329756014] * 14 + [65.9534163042935] * 4 + [64.14345428234317] * 2
        + [57.73362183084405] * 2 + [57.40837865837866] * 7
    )
    best, curve = evaluation.grid_search_alpha(pairs, table, lm, freq)
    assert best == 0.0
    assert repr(curve) == repr(list(zip(evaluation.default_alpha_grid(), scores)))

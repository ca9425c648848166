"""The benchmark's traced run must keep seeing every boundary it expects.

perfbench/tracing.py times the pipeline by wrapping the names it calls
through, and perfbench/worker.py fails a traced run when an expected
boundary sees no call. A change to the hot path that stops calling one of
them would otherwise show only in a traced benchmark run, which takes
minutes; here the same tracer runs over the small test fixtures.
"""

import importlib
import pathlib
import sys

import pytest

import plainterm.evaluation as evaluation
import plainterm.simplifier as simplifier

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

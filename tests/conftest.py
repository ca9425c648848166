import pathlib
import sys
from collections import Counter

import pytest
from hypothesis import settings

from plainterm.ngram_lm import LookupScorer
from plainterm.ontology import PhraseTable, read_table
from plainterm.simplifier import SimplifierConfig, simplify
from plainterm.wordfreq import FrequencyTable, load_table

DATA = pathlib.Path(__file__).parent / "data"

# every property test runs the same reproducible examples, with no example
# database; a test that needs more sets only its own max_examples
settings.register_profile("plainterm", max_examples=150, deadline=None, database=None, derandomize=True)
settings.load_profile("plainterm")


class CountingScorer:
    """LmScorer that counts how often each token tuple reaches it."""

    def __init__(self, lm):
        self.lm = lm
        self.calls = Counter()

    def score(self, tokens):
        self.calls[tuple(tokens)] += 1
        return self.lm.score(tokens)


class ConstantScorer:
    """LmScorer giving every sentence the same score."""

    def __init__(self, value):
        self.value = value

    def score(self, tokens):
        return self.value


def grid_results(pairs, table, lm, freq, grid):
    """simplify(...).to_dict() of every dev source at every point of grid, in
    grid_search_alpha's order; pass a ScoreMemo to share it across them all."""
    return [
        simplify(source, table, lm, freq, SimplifierConfig(alpha=alpha)).to_dict()
        for alpha in grid
        for source, _ in pairs
    ]


@pytest.fixture
def data_dir():
    return DATA


@pytest.fixture
def over_grid():
    return grid_results


@pytest.fixture
def counting():
    return CountingScorer


@pytest.fixture
def constant():
    return ConstantScorer


@pytest.fixture
def ranking_table():
    with open(DATA / "ranking_table.tsv") as fh:
        return read_table(fh)


@pytest.fixture
def ranking_lm():
    with open(DATA / "ranking_lm.tsv") as fh:
        return LookupScorer.load(fh)


@pytest.fixture
def ranking_freq():
    with open(DATA / "ranking_freq.tsv") as fh:
        return load_table(fh)


@pytest.fixture
def tune():
    """Dev pairs, table, lookup LM and frequencies of the tune_* step fixture."""
    with open(DATA / "tune_table.tsv") as fh:
        table = read_table(fh)
    with open(DATA / "tune_lm.tsv") as fh:
        lm = LookupScorer.load(fh)
    with open(DATA / "tune_freq.tsv") as fh:
        freq = load_table(fh)
    with open(DATA / "tune_dev.tsv") as fh:
        pairs = [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]
    return pairs, table, lm, freq


@pytest.fixture
def two_stage():
    """Fixture whose best rewrite only becomes reachable after a first pass.

    Group 0 has three alternatives for the same condition; group 1 swaps a
    single adjective. Scores are arranged so pass one picks an intermediate
    wording and pass two improves on it again, then everything is stable.
    """
    table = PhraseTable.from_groups(
        [
            ["hyperlipidemia", "elevated lipids in blood", "excessive fat in blood"],
            ["elevated", "high"],
        ]
    )
    lm = LookupScorer(
        {
            "hyperlipidemia with elevated triglycerides .": -8.0,
            "elevated lipids in blood with elevated triglycerides .": -5.0,
            "excessive fat in blood with elevated triglycerides .": -6.0,
            "hyperlipidemia with high triglycerides .": -7.0,
            "elevated lipids in blood with high triglycerides .": -4.0,
            "excessive fat in blood with high triglycerides .": -2.0,
        }
    )
    freq = FrequencyTable({})
    return table, lm, freq


@pytest.fixture
def oscillator():
    """Two spans whose best alternatives each undo the other's rewrite.

    Both spans are ranked against the same pass input, so "x a c ." becomes
    "x b d .", which ranks back to "x a c .": only the cycle guard stops it.
    """
    table = PhraseTable.from_groups([["a", "b"], ["c", "d"]])
    lm = LookupScorer({"x a c .": -5.0, "x b c .": -1.0, "x a d .": -1.0, "x b d .": -5.0})
    return table, lm, FrequencyTable({})


@pytest.fixture
def deep_arpa(tmp_path):
    """An ARPA file declaring orders 1 to 100 past the recursion limit, with only unigrams."""
    order = sys.getrecursionlimit() + 100
    lines = ["\\data\\", "ngram 1=3", *(f"ngram {k}=0" for k in range(2, order + 1)), ""]
    lines += ["\\1-grams:", "-99\t<s>", "-1.0\t<unk>", "-1.5\t</s>", ""]
    lines += [f"\\{k}-grams:" for k in range(2, order + 1)]
    lines += ["", "\\end\\", ""]
    path = tmp_path / "deep.arpa"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path

"""Rules every input loader shares: which lines are skipped, how lines are
numbered, and that bad input fails only with a line-numbered ValueError."""

import contextlib
import io
import pathlib
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plainterm.cli import main
from plainterm.evaluation import load_judgments, load_unchanged
from plainterm.ngram_lm import LookupScorer, load_arpa
from plainterm.ontology import parse_records, read_table
from plainterm.textproc import rows
from plainterm.wordfreq import load_table

DATA = pathlib.Path(__file__).parent / "data"


def tune_curve(text, tmp_path):
    """Run `tune` on text as its dev file; an error comes back as the ValueError it reported."""
    dev, curve = tmp_path / "dev.tsv", tmp_path / "curve.tsv"
    dev.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(
            [
                "tune",
                "--dev", str(dev),
                "--table", str(DATA / "tune_table.tsv"),
                "--lm", str(DATA / "tune_lm.tsv"),
                "--freq", str(DATA / "tune_freq.tsv"),
                "--grid", "0.2,0.8",
                "-o", str(curve),
            ]
        )
    if code:
        raise ValueError(err.getvalue().removeprefix("error: ").rstrip("\n"))
    return curve.read_text()


# (load(text, tmp_path), valid rows, column count, a well-formed row it refuses, the refusal)
TSV_READERS = [
    pytest.param(
        lambda text, _: parse_records(io.StringIO(text)),
        "C1\tOtalgia\tsrc\tP\n", 4, "C1\tOtalgia\tsrc\tQ", "flag must be P or A, got 'Q'",
        id="parse_records",
    ),
    pytest.param(
        lambda text, _: read_table(io.StringIO(text)),
        "0\totalgia\n0\tearache\n", 2, "x\tfoo", "bad group id 'x'",
        id="read_table",
    ),
    # int() reads each of these, so two texts such as "1_0" and "10" could name one group
    *(
        pytest.param(
            lambda text, _: read_table(io.StringIO(text)),
            "0\totalgia\n0\tearache\n", 2, f"{gid}\tfoo", f"bad group id {gid!r}",
            id=f"read_table-{gid}",
        )
        for gid in ["1_0", "\u0662", "+1", "01", "-0"]
    ),
    pytest.param(
        lambda text, _: load_table(io.StringIO(text)),
        "otalgia\t0.5\n", 2, "word\tabc", "bad probability 'abc'",
        id="load_table",
    ),
    pytest.param(
        lambda text, _: LookupScorer.load(io.StringIO(text)).scores,
        "a b .\t-1.5\n", 2, "Patient had a heart attack.\t-1.5",
        "unreachable sentence 'Patient had a heart attack.', simplify asks for 'patient had a heart attack .'",
        id="LookupScorer.load",
    ),
    pytest.param(tune_curve, "foo .\tbar .\n", 2, "foo .\t ", "empty reference", id="tune-dev"),
]


@pytest.mark.parametrize("load, body, ncols, refused, message", TSV_READERS)
def test_tsv_reader_skips_comments_and_numbers_lines(load, body, ncols, refused, message, tmp_path):
    skipped = "# comment\n\n \t \n"
    assert load(skipped + body + "# trailing\n", tmp_path) == load(body, tmp_path)
    bad_line = 3 + body.count("\n") + 1
    for width in (ncols - 1, ncols + 1):
        bad_row = "\t".join(["x"] * width)
        with pytest.raises(ValueError) as err:
            load(skipped + body + bad_row + "\n", tmp_path)
        assert str(err.value) == f"line {bad_line}: expected {ncols} columns, got {width}"
    with pytest.raises(ValueError) as err:
        load(skipped + body + refused + "\n", tmp_path)
    assert str(err.value) == f"line {bad_line}: {message}"


def test_rows_yields_line_numbers_of_the_input():
    lines = ["# header\n", "\n", "a\tb\r\n", "#c\td\n", "e\t\n"]
    assert list(rows(lines, 2)) == [(3, ["a", "b"]), (5, ["e", ""])]


# Fragments that reach past the first check of each format, mixed with noise.
FRAGMENTS = [
    "", "#", "# note", " \t ", "\\data\\", "ngram 1=2", "ngram 2=1", "ngram 3=1", "ngram 0=1",
    "ngram x=1", "\\1-grams:", "\\2-grams:", "\\end\\", "-0.5\tthe", "-1.0\tdog\t-0.3",
    "-0.2\tthe dog", "nan\tthe", "C1\tOtalgia\tsrc\tP", "C2\tEarache\tsrc\tA", "C1\t\tsrc\tP",
    "0\tearache", "0\totalgia", "1\totalgia", "x\ty", "word\t0.5", "word\t1.5", "a b .\tinf",
    "a b .\t-2", "A b .\t-2", "\t-2", "s1,a,S", "s1,b,Q", "s1,a", "sentence_id,system_id,category",
    "sentence_id,system_id", '"s1,a",S', '"open',
]
NOISE = st.text(alphabet="ab .,#\t\"'-01ePA\\=:\r\x00\x1c ", max_size=16)
DOCUMENTS = st.lists(st.one_of(st.sampled_from(FRAGMENTS), NOISE), max_size=10)

LOADERS = [
    parse_records, read_table, load_table, LookupScorer.load, load_arpa, load_judgments, load_unchanged,
]


@pytest.mark.parametrize("loader", LOADERS, ids=lambda f: f.__qualname__)
@given(lines=DOCUMENTS)
def test_loader_fails_only_with_a_line_numbered_value_error(loader, lines):
    try:
        loader([line + "\n" for line in lines])
    except ValueError as exc:
        assert re.match(r"line \d+: ", str(exc)), str(exc)

"""Tokenization, greedy phrase-table span matching, and reading text inputs."""

from __future__ import annotations

import contextlib
import unicodedata
from typing import IO, TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    from .ontology import PhraseTable

__all__ = [
    "Token",
    "Span",
    "tokenize",
    "detokenize",
    "extract_spans",
    "ngrams",
    "rows",
    "open_text",
]


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


class Token(NamedTuple):
    """A surface token plus its lowercased form used for matching."""

    text: str
    norm: str


class Span(NamedTuple):
    """A phrase-table hit over the token interval [start, end)."""

    start: int
    end: int
    group_id: int
    matched: tuple[str, ...]


def tokenize(sentence: str) -> list[Token]:
    """Split on whitespace and peel leading/trailing punctuation into separate tokens.

    Interior punctuation (hyphens, decimal points, apostrophes) is left attached,
    so "x-ray" and "3.5" survive as single tokens while "otalgia." becomes two.
    A chunk of letters and digits alone (str.isalnum) is kept whole without a
    look at each character: no letter or digit is Unicode punctuation.
    """
    texts: list[str] = []
    for chunk in sentence.split():
        if chunk.isalnum():
            texts.append(chunk)
            continue
        lead = 0
        while lead < len(chunk) and _is_punct(chunk[lead]):
            texts.append(chunk[lead])
            lead += 1
        trail = len(chunk)
        while trail > lead and _is_punct(chunk[trail - 1]):
            trail -= 1
        if trail > lead:
            texts.append(chunk[lead:trail])
        texts.extend(chunk[trail:])
    return [Token(text, text.lower()) for text in texts]


def detokenize(tokens: Iterable[Token]) -> str:
    """Join token texts with single spaces."""
    return " ".join(t.text for t in tokens)


def extract_spans(tokens: Sequence[Token], table: "PhraseTable") -> list[Span]:
    """Find non-overlapping phrase-table matches, left to right, longest first.

    At each position the longest matching phrase (up to the table's longest
    label) wins and the scan resumes after it, so returned spans are disjoint
    and sorted. Matching is on lowercased token forms.

    At each position it tries, longest first, the lengths of the labels that
    start with the next two words (table.prefix_lengths), then length 1, and
    checks each with table.lookup; no other length can match there.
    """
    max_len = table.max_label_len()
    # every position tries length 1 last, unless the table has no labels at all
    single = (1,) if max_len else ()
    norms = [t.norm for t in tokens]
    n = len(norms)
    spans: list[Span] = []
    pos = 0
    while pos < n:
        hit = None
        lengths: tuple[int, ...] = ()
        by_second = table.prefix_lengths.get(norms[pos])
        if by_second is not None and pos + 1 < n:
            lengths = by_second.get(norms[pos + 1], ())
        for length in lengths + single:
            if length > n - pos:
                continue
            phrase = tuple(norms[pos : pos + length])
            group_id = table.lookup(phrase)
            if group_id is not None:
                hit = Span(pos, pos + length, group_id, phrase)
                break
        if hit is None:
            pos += 1
        else:
            spans.append(hit)
            pos = hit.end
    return spans


def ngrams(tokens: Sequence[str], n: int) -> Iterator[tuple[str, ...]]:
    """The n-grams of tokens as tuples, in order of position."""
    return zip(*[tokens[i:] for i in range(n)])


def rows(stream: IO[str] | Iterable[str], ncols: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_no, columns) for each tab-separated row of a text input.

    Blank lines and lines starting with '#' are skipped but still counted, so
    line_no is the 1-based line in the input. A row with other than ncols
    columns raises ValueError naming its line.
    """
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != ncols:
            raise ValueError(f"line {line_no}: expected {ncols} columns, got {len(cols)}")
        yield line_no, cols


@contextlib.contextmanager
def open_text(path: str, newline: str | None = None) -> Iterator[IO[str]]:
    """Open a UTF-8 text input; a byte that does not decode raises ValueError naming its line.

    A leading byte-order mark is skipped, so it never joins the first row.

    The text layer decodes in chunks, so the line a reader had reached when
    the decode failed says nothing about where the bad byte is. Only on that
    failure is the file read again as bytes, split into lines as text mode
    splits them, to find the first line that does not decode.
    """
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        for line_no, line in enumerate(data.splitlines(), start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"line {line_no}: not valid UTF-8: {exc.reason}") from None
        raise

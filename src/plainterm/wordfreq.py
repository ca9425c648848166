"""Corpus word-frequency table and the frequency familiarity score."""

from __future__ import annotations

import math
from collections import Counter
from typing import IO, Iterable, Sequence

from .textproc import rows

__all__ = ["FrequencyTable", "load_table", "build_table", "wf"]

EPSILON = 1e-10


# relative word frequencies by lowercased word; a missing word has probability 0
FrequencyTable = dict[str, float]


def load_table(stream: IO[str] | Iterable[str]) -> FrequencyTable:
    """Load word<TAB>probability rows; a word is lowercased, holds no whitespace and may appear once."""
    probs: dict[str, float] = {}
    for line_no, cols in rows(stream, 2):
        word = cols[0].strip().lower()
        if not word:
            raise ValueError(f"line {line_no}: empty word")
        # wf looks up one word at a time, so a word with a space in it is never read
        if len(word.split()) > 1:
            raise ValueError(f"line {line_no}: word contains whitespace")
        try:
            prob = float(cols[1])
        except ValueError:
            raise ValueError(f"line {line_no}: bad probability {cols[1]!r}") from None
        if not 0.0 < prob <= 1.0:
            raise ValueError(f"line {line_no}: probability {prob} outside (0, 1]")
        if probs.setdefault(word, prob) is not prob:
            raise ValueError(f"line {line_no}: duplicate word {word!r}")
    return probs


def build_table(corpus: IO[str] | Iterable[str]) -> FrequencyTable:
    """Count whitespace-separated words and normalize counts into probabilities.

    A word that starts with '#' raises ValueError naming its line, since a
    frequency file reads its row as a comment.
    """
    counts: Counter[str] = Counter()
    for line_no, line in enumerate(corpus, start=1):
        words = [w.lower() for w in line.split()]
        for word in words:
            if word.startswith("#"):
                raise ValueError(
                    f"line {line_no}: word {word!r} starts with '#', which a frequency file reads as a comment"
                )
        counts.update(words)
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty corpus")
    return {w: c / total for w, c in counts.items()}


def wf(term: Sequence[str], table: FrequencyTable) -> float:
    """Familiarity of a phrase: the log frequency of its rarest word.

    Computed as min over words of ln(P(word) + EPSILON), so a phrase is only
    as familiar as its least common word and unknown words pin the score to
    ln(EPSILON).
    """
    if not term:
        raise ValueError("empty term")
    return min(math.log(table.get(w.lower(), 0.0) + EPSILON) for w in term)

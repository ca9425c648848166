"""Iterative lexical simplification over phrase-table matches.

Each pass finds the phrase spans covered by the table, scores every
alternative for each span in the context of the full sentence, and applies
all winning substitutions at once. Passes repeat until nothing changes, a
sentence repeats (cycle guard), or the iteration cap is hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .ngram_lm import LmScorer, ScoreMemo
from .ontology import AlternativeGroup, Label, PhraseTable
from .textproc import Span, Token, detokenize, extract_spans, tokenize, tokens_from_texts
from .wordfreq import FrequencyTable, wf

__all__ = [
    "Candidate",
    "SimplifierConfig",
    "Replacement",
    "SimplificationResult",
    "rank_span",
    "simplify_once",
    "simplify",
]


@dataclass(frozen=True)
class Candidate:
    """One alternative for a span, scored in the context of the whole sentence."""

    term: Label
    candidate_sentence: str
    lm_score: float
    wf_score: float
    combined: float


@dataclass
class SimplifierConfig:
    """Knobs for a simplification run.

    alpha weights fluency (language model) against word familiarity; 1.0 is
    pure fluency. include_original keeps the matched text itself in the
    running, so a span is only rewritten when an alternative beats it.
    """

    alpha: float = 0.7
    max_iterations: int = 5
    include_original: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class Replacement:
    """A span that was rewritten, with the full candidate ranking behind it."""

    span: Span
    chosen: Label
    candidates: tuple[Candidate, ...]


@dataclass
class SimplificationResult:
    original: str
    final: str
    iterations: int
    trace: list[tuple[Replacement, ...]]
    changed: bool

    def to_dict(self) -> dict:
        """JSON-friendly view of the run, used by the command-line trace output."""
        return {
            "original": self.original,
            "final": self.final,
            "iterations": self.iterations,
            "changed": self.changed,
            "trace": [
                [
                    {
                        "span": {
                            "start": rep.span.start,
                            "end": rep.span.end,
                            "group_id": rep.span.group_id,
                            "matched": " ".join(rep.span.matched),
                        },
                        "chosen": " ".join(rep.chosen),
                        "candidates": [
                            {
                                "term": " ".join(c.term),
                                "sentence": c.candidate_sentence,
                                "lm": c.lm_score,
                                "wf": c.wf_score,
                                "combined": c.combined,
                            }
                            for c in rep.candidates
                        ],
                    }
                    for rep in passes
                ]
                for passes in self.trace
            ],
        }


def rank_span(
    tokens: Sequence[Token],
    span: Span,
    group: AlternativeGroup,
    lm: LmScorer,
    freq: FrequencyTable,
    alpha: float,
    include_original: bool = True,
) -> tuple[Label, list[Candidate]]:
    """Score every alternative for one span and pick the best term.

    The language model sees the full sentence with the alternative spliced in;
    the frequency score sees the bare term. Combined score is
    alpha * lm + (1 - alpha) * wf. Ties go to the higher lm score, then to the
    lexicographically smallest term. The matched text is itself a group label,
    so keeping the original needs no extra candidate beyond its own label.
    """
    norms = [t.norm for t in tokens]
    current = tuple(norms[span.start : span.end])
    labels: Iterable[Label] = group.labels
    if not include_original:
        labels = [lab for lab in group.labels if lab != current]
    candidates: list[Candidate] = []
    for label in labels:
        sent = norms[: span.start] + list(label) + norms[span.end :]
        lm_score = lm.score(sent)
        wf_score = wf(label, freq)
        combined = alpha * lm_score + (1.0 - alpha) * wf_score
        candidates.append(Candidate(label, " ".join(sent), lm_score, wf_score, combined))
    if not candidates:
        raise ValueError(f"group {group.group_id} offers no candidates for this span")
    best = candidates[0]
    for cand in candidates[1:]:
        # labels are stored sorted, so strict comparison keeps the smallest term on ties
        if (cand.combined, cand.lm_score) > (best.combined, best.lm_score):
            best = cand
    return best.term, candidates


def simplify_once(
    tokens: Sequence[Token],
    table: PhraseTable,
    lm: LmScorer,
    freq: FrequencyTable,
    config: SimplifierConfig,
) -> tuple[list[Token], list[Replacement]]:
    """Run one pass: rank every span against this pass's input and splice winners.

    All spans are ranked against the same input sentence, then applied right to
    left so earlier span offsets stay valid.
    """
    spans = extract_spans(tokens, table)
    replacements: list[Replacement] = []
    for span in spans:
        group = table.group(span.group_id)
        chosen, candidates = rank_span(
            tokens, span, group, lm, freq, config.alpha, config.include_original
        )
        if chosen != span.matched:
            replacements.append(Replacement(span, chosen, tuple(candidates)))
    if not replacements:
        return list(tokens), []
    texts = [t.text for t in tokens]
    for rep in sorted(replacements, key=lambda r: r.span.start, reverse=True):
        words = list(rep.chosen)
        if rep.span.start == 0:
            words[0] = words[0][:1].upper() + words[0][1:]
        texts[rep.span.start : rep.span.end] = words
    return tokens_from_texts(texts), replacements


def simplify(
    sentence: str,
    table: PhraseTable,
    lm: LmScorer,
    freq: FrequencyTable,
    config: SimplifierConfig,
) -> SimplificationResult:
    """Simplify one sentence to a fixed point, within the iteration cap.

    The reported iteration count is the number of passes that changed the
    sentence; the trace has one entry per executed pass, so a run that
    converged before the cap ends with an empty trace entry. Each distinct
    candidate sentence is scored by the language model once per call.
    """
    if not isinstance(lm, ScoreMemo):
        lm = ScoreMemo(lm)
    tokens = tokenize(sentence)
    trace: list[tuple[Replacement, ...]] = []
    iterations = 0
    if tokens:
        seen = {tuple(t.norm for t in tokens)}
        for _ in range(config.max_iterations):
            tokens_next, replacements = simplify_once(tokens, table, lm, freq, config)
            trace.append(tuple(replacements))
            if not replacements:
                break
            iterations += 1
            tokens = tokens_next
            key = tuple(t.norm for t in tokens)
            if key in seen:
                break
            seen.add(key)
    final = detokenize(tokens) if iterations else sentence
    return SimplificationResult(sentence, final, iterations, trace, final != sentence)

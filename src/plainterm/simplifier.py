"""Iterative lexical simplification over phrase-table matches.

Each pass finds the phrase spans covered by the table, scores every
alternative for each span in the context of the full sentence, and applies
all winning substitutions at once. Passes repeat until nothing changes, a
sentence repeats (cycle guard), or the iteration cap is hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple, Sequence

from .ngram_lm import LmScorer, NgramModel
from .ontology import Label, PhraseTable
from .textproc import Span, Token, detokenize, extract_spans, tokenize
from .wordfreq import FrequencyTable, wf

_NORM = attrgetter("norm")
# a span row: the term, the sentence with it spliced in, and its lm and wf scores
_Row = tuple[Label, tuple[str, ...], float, float]
# a pass input or output: its tokens, their norms and its text
_Pass = tuple[tuple[Token, ...], tuple[str, ...], str]
# what a memo keeps of a pass input: its record, each of its spans with that
# span's rows, and its output for each pick of every span
_Entry = tuple[_Pass, list[tuple[Span, list[_Row]]], dict[tuple[Label, ...], _Pass]]

__all__ = [
    "Candidate",
    "SimplifierConfig",
    "Replacement",
    "SimplificationResult",
    "ScoreMemo",
    "rank_span",
    "simplify_once",
    "simplify",
]


class Candidate(NamedTuple):
    """One alternative for a span, scored in the context of the whole sentence."""

    term: Label
    candidate_sentence: tuple[str, ...]
    lm_score: float
    wf_score: float
    combined: float


@dataclass(frozen=True)
class SimplifierConfig:
    """Knobs for a simplification run.

    alpha weights fluency (language model) against word familiarity; 1.0 is
    pure fluency. A config is frozen, so its values stay the checked ones.
    """

    alpha: float = 0.7
    max_iterations: int = 5

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not isinstance(self.max_iterations, int):
            raise ValueError(f"max_iterations must be an int >= 1, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


class Replacement(NamedTuple):
    """A span that was rewritten, with the full candidate ranking behind it."""

    span: Span
    chosen: Label
    candidates: tuple[Candidate, ...]


@dataclass
class SimplificationResult:
    original: str
    final: str
    trace: list[tuple[Replacement, ...]]

    @property
    def iterations(self) -> int:
        """The number of passes that changed the sentence."""
        return sum(1 for passes in self.trace if passes)

    @property
    def changed(self) -> bool:
        return self.final != self.original

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
                                "sentence": " ".join(c.candidate_sentence),
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


class ScoreMemo:
    """Keeps what simplification computes that does not depend on alpha, and nothing else.

    A memo is bound to one scorer, one phrase table and one frequency table.
    rows is the one place a row's lm score is computed; it asks a scorer
    other than an NgramModel once per row. Around an NgramModel it also
    keeps one dict of per-position log-probabilities, keyed by
    NgramModel.logprobs's own arguments: words and a number of start pads.
    A pass input's base is its whole-sentence entry, with order - 1 pads; a
    window a splice rescored is its words with the order - 1 words of left
    context, and as many pads as that context lacks. Only a sentence's first
    pass input is scored whole; output splices each pass output's base from
    its pass input's in the walk that makes the output. It keeps the wf
    score of each label (wfs), and in passes, keyed by each distinct pass
    input's text, that input's (tokens, norms, text) record, its spans each
    paired with its rows (rows), and its output for each pick of every span
    (output); only simplify_once makes an entry. Only rank_span's combined
    score and argmax depend on alpha, so grid_search_alpha shares one memo
    across its whole grid, and a grid point that picks what an earlier one
    picked on the same pass input reuses that pass's output.

    It keeps everything it has seen, so make one per call that simplifies
    many overlapping sentences and let it go when that call returns.
    """

    def __init__(self, lm: LmScorer, table: PhraseTable, freq: FrequencyTable) -> None:
        self.lm = lm
        self.table = table
        self.freq = freq
        # the context length of a scorer scored by windows; None asks for whole sentences
        self.n = lm.order - 1 if isinstance(lm, NgramModel) else None
        # (words, start pads) -> NgramModel.logprobs(words, pads)
        self.logps: dict[tuple[tuple[str, ...], int], list[float]] = {}
        self.wfs: dict[Label, float] = {}
        # pass input text -> its entry; keyed by text, not norms, as case variants write different text
        self.passes: dict[str, _Entry] = {}

    def _logprobs(self, words: tuple[str, ...], pads: int) -> list[float]:
        key = (words, pads)
        logps = self.logps.get(key)
        if logps is None:
            logps = self.logps[key] = self.lm.logprobs(words, pads)
        return logps

    def _splice(self, base: list[float], sent: tuple[str, ...], start: int, end: int, length: int) -> list[float]:
        """Return the log-probs of sent, given base, those of the sentence it was spliced from.

        sent has length words at start where that sentence had its words
        start..end. Only positions start .. start + length + order - 2 of sent can differ
        from the base's: later words see none of the new words in their
        context. Those positions are scored with the order - 1 words before
        them, or with start pads where sent has fewer.
        """
        n = self.n
        stop = min(start + length + n, len(sent))
        window = self._logprobs(sent[max(start - n, 0) : stop], max(n - start, 0))
        return base[:start] + window + base[stop + end - start - length :]

    def rows(self, norms: tuple[str, ...], span: Span) -> list[_Row]:
        """The (term, sentence, lm, wf) row of each label of span's group, in label order.

        This is the one place a row's lm score is computed. For an NgramModel
        it is the fsum of norms' base, looked up once per call, with the
        label's window rescored (see _splice), over the sentence's length; the
        label that keeps the matched text gives norms itself, whose score is
        the fsum of the base. fsum of the same values in any order gives the
        same float, so the score equals NgramModel.score of the sentence. Any
        other scorer is asked for each row's whole sentence. The wf score sees
        the bare term and is computed once per label. Only simplify_once keeps
        rows (passes); each call makes them afresh.
        """
        start, end = span.start, span.end
        base = None if self.n is None else self._logprobs(norms, self.n)
        rows = []
        for label in self.table.group(span.group_id).labels:
            kept = label == span.matched
            sent = norms if kept else (*norms[:start], *label, *norms[end:])
            if base is None:
                lm_score = self.lm.score(sent)
            else:
                logps = base if kept else self._splice(base, sent, start, end, len(label))
                lm_score = math.fsum(logps) / len(sent)
            wf_score = self.wfs.get(label)
            if wf_score is None:
                wf_score = self.wfs[label] = wf(label, self.freq)
            rows.append((label, sent, lm_score, wf_score))
        return rows

    def output(self, current: _Pass, replacements: Sequence[Replacement]) -> _Pass:
        """The pass record of current with each replacement's chosen term spliced in.

        This is the one place a pass's replacements are applied; it looks
        nothing up in passes, and simplify_once keeps what it returns. It
        walks the replacements right to left, so each span's offsets in current
        still hold: a span at 0 is capitalized, each new token's norm is taken
        after capitalization, as tokenize would take it ("ß" is written "SS",
        whose norm is "ss"), and the tokens and their norms are spliced in.
        For an NgramModel the same walk splices the output's base from
        current's, rescoring each window with every word to its right already
        final (see _splice), so the next pass scores no base whole. An output
        that is an earlier pass input, where the cycle guard stops, keeps the
        base that input already has.
        """
        tokens, norms, _ = current
        base = None if self.n is None else self._logprobs(norms, self.n)
        out, sent = list(tokens), norms
        for rep in reversed(replacements):
            start, end = rep.span.start, rep.span.end
            words = list(rep.chosen)
            if start == 0:
                words[0] = words[0][:1].upper() + words[0][1:]
            new = [Token(w, w.lower()) for w in words]
            out[start:end] = new
            sent = (*sent[:start], *map(_NORM, new), *sent[end:])
            if base is not None:
                base = self._splice(base, sent, start, end, len(words))
        if base is not None:
            self.logps.setdefault((sent, self.n), base)
        return tuple(out), sent, detokenize(out)


def rank_span(rows: Sequence[_Row], span: Span, alpha: float) -> tuple[Label, tuple[Candidate, ...]]:
    """Rank span's rows (ScoreMemo.rows) at alpha; return the winning term and its Candidates.

    Combined score is alpha * lm + (1 - alpha) * wf, computed here and nowhere
    else. The highest wins; ties go to the higher lm score, then to the first
    row, the smallest term, as labels are stored sorted. The matched text is a
    row too, and a span whose winner it is returns (span.matched, ()).
    """
    beta = 1.0 - alpha
    combined = [alpha * lm + beta * w for _, _, lm, w in rows]
    best = max(combined)
    index = combined.index(best)
    if combined.count(best) > 1:
        # an exact tie; max keeps the first of equal keys
        index = max(range(len(rows)), key=lambda i: (combined[i], rows[i][2]))
    chosen = rows[index][0]
    if chosen == span.matched:
        return chosen, ()
    return chosen, tuple([Candidate(*row, c) for row, c in zip(rows, combined)])


def simplify_once(current: _Pass, memo: ScoreMemo, config: SimplifierConfig) -> tuple[_Pass, list[Replacement]]:
    """Run one pass on current, a (tokens, norms, text) record: rank every span and apply the winners.

    All spans are ranked against the same pass input. This is the one place
    an entry of memo.passes is made: current's text is looked up once, a
    miss stores current and its spans with their rows, and each span is
    ranked once by rank_span. Returns (output, replacements), output being
    the one the entry holds for this pass's picks, which ScoreMemo.output
    makes on a miss; a pass that rewrites nothing returns current itself and
    stores no output. The text is a sound key: current's tokens are tokenize
    of its text, for a sentence and for an output alike, as AlternativeGroup
    refuses a label word that does not tokenize as itself.
    """
    tokens, norms, text = current
    entry = memo.passes.get(text)
    if entry is None:
        spans = [(span, memo.rows(norms, span)) for span in extract_spans(tokens, memo.table)]
        entry = memo.passes[text] = current, spans, {}
    _, spans, outputs = entry
    alpha = config.alpha
    picks: list[Label] = []
    replacements: list[Replacement] = []
    for span, rows in spans:
        chosen, candidates = rank_span(rows, span, alpha)
        picks.append(chosen)
        # a kept span ranks to no candidates
        if candidates:
            replacements.append(Replacement(span, chosen, candidates))
    if not replacements:
        return current, replacements
    key = tuple(picks)
    output = outputs.get(key)
    if output is None:
        output = outputs[key] = memo.output(current, replacements)
    return output, replacements


def simplify(
    sentence: str,
    table: PhraseTable,
    lm: LmScorer | ScoreMemo,
    freq: FrequencyTable,
    config: SimplifierConfig,
) -> SimplificationResult:
    """Simplify one sentence to a fixed point, within the iteration cap.

    The reported iteration count is the number of passes that changed the
    sentence; the trace has one entry per executed pass, so a run that
    converged before the cap ends with an empty trace entry. A bare scorer
    gets a ScoreMemo for this call, which says how often a scorer is asked.
    A ScoreMemo passed in keeps all it computes for later calls, at any
    alpha; it must be bound to this table and this frequency table, or
    ValueError is raised. Each pass input is a (tokens, norms, text) record:
    the first is the sentence's, which the memo holds once a pass has run on
    it, and each later one the output the pass before returned. Iteration
    stops when a pass returns a record whose norms were an earlier pass
    input's: a pass that rewrites nothing returns its input (converged), and
    any other is a cycle. The final text is the last record's, so a sentence
    nothing rewrote comes back verbatim.
    """
    if isinstance(lm, ScoreMemo):
        memo = lm
        if memo.table is not table or memo.freq is not freq:
            raise ValueError("a ScoreMemo serves one phrase table and one frequency table")
    else:
        memo = ScoreMemo(lm, table, freq)
    entry = memo.passes.get(sentence)
    if entry is None:
        tokens = tuple(tokenize(sentence))
        current = tokens, tuple(map(_NORM, tokens)), sentence
    else:
        current = entry[0]
    trace: list[tuple[Replacement, ...]] = []
    if current[0]:
        seen = {current[1]}
        for _ in range(config.max_iterations):
            current, replacements = simplify_once(current, memo, config)
            trace.append(tuple(replacements))
            if current[1] in seen:
                break
            seen.add(current[1])
    return SimplificationResult(sentence, current[2], trace)

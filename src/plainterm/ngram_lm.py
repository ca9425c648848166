"""Backoff n-gram language model with interpolated absolute discounting.

Probabilities are estimated by subtracting a fixed discount from every
observed count and giving the freed mass to the next-lower order, ending in
a uniform distribution over the predicted vocabulary. The model is stored in
backoff form: explicit probabilities for observed n-grams, a backoff weight
per observed context, and the standard ARPA text format on disk.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import IO, Iterable, Iterator, Mapping, Protocol, Sequence

from .textproc import ngrams, open_text, rows, tokenize

__all__ = [
    "START",
    "STOP",
    "UNK",
    "LmScorer",
    "NgramModel",
    "LookupScorer",
    "MAX_ORDER",
    "MIN_DISCOUNT",
    "check_train_settings",
    "train",
    "save_arpa",
    "load_arpa",
    "load_scorer",
]

START = "<s>"
STOP = "</s>"
UNK = "<unk>"

# train pads every sentence with order - 1 start symbols
MAX_ORDER = 10
# train gives every order-k probability at least discount**k / N**(k + 1) for
# N corpus tokens; at this bound that stays a positive float for any corpus
# that fits in memory, where a subnormal discount can round it to 0
MIN_DISCOUNT = 1e-12

_LN10 = math.log(10.0)
# conventional ARPA placeholder for entries that exist only to carry a backoff weight
_PLACEHOLDER_LOG10 = -99.0


class LmScorer(Protocol):
    """Anything that maps a token sequence to a mean log-probability.

    A scorer must be pure: the same tokens always get the same score, so a
    caller may keep a score and never ask for it again. ScoreMemo asks a
    scorer other than an NgramModel once per (pass input, span, label) row.
    """

    def score(self, tokens: Sequence[str]) -> float:
        ...


@dataclass
class NgramModel:
    """Backoff model: natural-log probs per n-gram, natural-log backoff per context."""

    order: int
    probs: dict[tuple[str, ...], float]
    backoffs: dict[tuple[str, ...], float]
    vocab: frozenset[str]

    def logprob(self, context: Sequence[str], word: str) -> float:
        """Natural-log P(word | context), backing off through shorter contexts."""
        # the last order - 1 words of context, none for a unigram model
        return self._logprob(tuple(context)[max(len(context) - self.order + 1, 0) :], word)

    def _logprob(self, ctx: tuple[str, ...], word: str) -> float:
        # a loop, so a model of any order scores; the backoff weights are
        # added innermost first, b1 + (b2 + p), since float addition does not
        # associate and rankings depend on exact scores
        weights = []
        while (prob := self.probs.get(ctx + (word,))) is None:
            if not ctx:
                raise ValueError(f"word {word!r} not in model vocabulary")
            weights.append(self.backoffs.get(ctx, 0.0))
            ctx = ctx[1:]
        while weights:
            prob = weights.pop() + prob
        return prob

    def logprobs(self, tokens: Sequence[str], pads: int) -> list[float]:
        """Natural-log P(token | the tokens before it) for each token after the first order - 1 - pads.

        The tokens follow pads start symbols, and a word outside the
        vocabulary is read as the unknown symbol.
        """
        n = self.order - 1
        history = [START] * pads
        vocab = self.vocab
        for tok in tokens:
            if tok in vocab:
                history.append(tok)
            elif UNK in vocab:
                history.append(UNK)
            else:
                raise ValueError(f"word {tok!r} not in model vocabulary and model has no {UNK}")
        # words[j : j + n] is the context of words[j + n], taken in one slice
        words = tuple(history)
        return [self._logprob(words[j : j + n], words[j + n]) for j in range(len(words) - n)]

    def score(self, tokens: Sequence[str]) -> float:
        """Mean natural-log probability of the tokens, start-padded, no end term."""
        if not tokens:
            raise ValueError("cannot score empty sequence")
        return math.fsum(self.logprobs(tokens, self.order - 1)) / len(tokens)


class LookupScorer:
    """LmScorer serving fixed scores keyed by the space-joined token sequence."""

    def __init__(self, scores: Mapping[str, float]) -> None:
        self.scores = dict(scores)

    def score(self, tokens: Sequence[str]) -> float:
        toks = list(tokens)
        if not toks:
            raise ValueError("cannot score empty sequence")
        key = " ".join(toks)
        if key in self.scores:
            return self.scores[key]
        raise ValueError(f"no stored score for {key!r}")

    @classmethod
    def load(cls, stream: IO[str] | Iterable[str]) -> "LookupScorer":
        """Load sentence<TAB>score rows; scores must be finite and sentences unique.

        simplify asks only for the lowercased tokenize forms of a non-empty
        sentence joined by single spaces, so an empty sentence or one in any
        other form is refused: its row could never be looked up.
        """
        scores: dict[str, float] = {}
        for line_no, (sentence, text) in rows(stream, 2):
            try:
                score = float(text)
            except ValueError:
                raise ValueError(f"line {line_no}: bad score {text!r}") from None
            # NaN compares false both ways, so it would win a ranking by default
            if not math.isfinite(score):
                raise ValueError(f"line {line_no}: score must be finite, got {text!r}")
            key = " ".join(t.norm for t in tokenize(sentence))
            if not key:
                raise ValueError(f"line {line_no}: empty sentence")
            if sentence != key:
                raise ValueError(f"line {line_no}: unreachable sentence {sentence!r}, simplify asks for {key!r}")
            if scores.setdefault(sentence, score) is not score:
                raise ValueError(f"line {line_no}: duplicate sentence {sentence!r}")
        return cls(scores)


def check_train_settings(order: int, discount: float, min_count: int) -> None:
    """Raise ValueError for a setting train refuses, before anything is read."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    if not 0.0 < discount < 1.0:
        raise ValueError(f"discount must be in (0, 1), got {discount}")
    if discount < MIN_DISCOUNT:
        raise ValueError(f"discount must be at least {MIN_DISCOUNT}, got {discount}")
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")


def train(
    corpus: Iterable[str],
    order: int = 3,
    discount: float = 0.75,
    min_count: int = 2,
) -> NgramModel:
    """Train an interpolated absolute-discounting model from one sentence per line.

    Words seen fewer than min_count times are replaced by the unknown symbol
    before counting. Each sentence is padded with order-1 start symbols, which
    the corpus may not contain itself, and one end symbol. Each order counts the k-grams that end on a predicted
    position, so lower-order distributions come from the same events, and is
    turned into probabilities before the next order is counted.
    """
    check_train_settings(order, discount, min_count)
    # one str per distinct word, so every n-gram that holds a word shares it
    pooled = {STOP: STOP, UNK: UNK}.setdefault
    sentences = [list(map(pooled, words, words)) for words in map(str.split, corpus)]
    raw_counts: Counter[str] = Counter()
    for words in sentences:
        raw_counts.update(words)
    # a corpus <s> would count as a predicted word, which the model never predicts
    if START in raw_counts:
        line_no = next(n for n, words in enumerate(sentences, start=1) if START in words)
        raise ValueError(f"line {line_no}: corpus contains the start symbol {START!r}")
    sentences = [words for words in sentences if words]
    if not sentences:
        raise ValueError("no training data")

    keep = {w for w, c in raw_counts.items() if c >= min_count}
    vocab = keep | {START, STOP, UNK}
    for i, words in enumerate(sentences):
        sentences[i] = [START] * (order - 1) + [w if w in keep else UNK for w in words] + [STOP]

    predicted = sorted(vocab - {START})
    uniform = 1.0 / len(predicted)

    probs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}
    # one float per distinct backoff weight; lam < 1, so no weight is 0.0 or
    # -0.0, which compare equal but are not the same float
    weights: dict[float, float] = {}
    for k in range(1, order + 1):
        # the k-grams of padded[order - k:] are those ending on a predicted position
        counts: Counter[tuple[str, ...]] = Counter()
        for padded in sentences:
            counts.update(ngrams(padded[order - k :], k))
        # each context is keyed by the tuple that keys it in probs, when it has
        # one; the map goes before probs grows by this order
        contexts = {gram: gram for gram in probs if len(gram) == k - 1}
        totals: dict[tuple[str, ...], int] = defaultdict(int)
        types: dict[tuple[str, ...], int] = defaultdict(int)
        for gram, count in counts.items():
            ctx = gram[:-1]
            ctx = contexts.get(ctx, ctx)
            totals[ctx] += count
            types[ctx] += 1
        del contexts

        if k == 1:
            total = totals[()]
            lam = discount * types[()] / total
            for word in predicted:
                count = counts.get((word,), 0)
                prob = max(count - discount, 0.0) / total + lam * uniform
                probs[(word,)] = math.log(prob)
            probs[(START,)] = _PLACEHOLDER_LOG10 * _LN10
        else:
            for gram, count in counts.items():
                ctx = gram[:-1]
                total = totals[ctx]
                lam = discount * types[ctx] / total
                lower = math.exp(probs[gram[1:]])
                prob = max(count - discount, 0.0) / total + lam * lower
                probs[gram] = math.log(prob)
            for ctx, total in totals.items():
                lam = discount * types[ctx] / total
                backoff = math.log(lam)
                backoffs[ctx] = weights.setdefault(backoff, backoff)
                if ctx not in probs:
                    # pure start-padding contexts are never predicted themselves,
                    # but still need an entry to carry their backoff weight
                    probs[ctx] = _PLACEHOLDER_LOG10 * _LN10

    return NgramModel(order, probs, backoffs, frozenset(vocab))


def save_arpa(model: NgramModel, stream: IO[str]) -> None:
    """Write the model in ARPA text format (log10, tab-separated).

    Each section lists its n-grams in tuple order: stable sorts on each word
    from the last to the first give that order, comparing plain strings
    instead of tuples, in place.
    """
    by_order: dict[int, list[tuple[str, ...]]] = defaultdict(list)
    for gram in model.probs:
        by_order[len(gram)].append(gram)
    probs, backoffs = model.probs, model.backoffs

    def lines(grams: Iterable[tuple[str, ...]]) -> Iterator[str]:
        for gram in grams:
            backoff = backoffs.get(gram)
            if backoff is None:
                yield f"{probs[gram] / _LN10!r}\t{' '.join(gram)}\n"
            else:
                yield f"{probs[gram] / _LN10!r}\t{' '.join(gram)}\t{backoff / _LN10!r}\n"

    stream.write("\\data\\\n")
    for k in range(1, model.order + 1):
        stream.write(f"ngram {k}={len(by_order.get(k, []))}\n")
    for k in range(1, model.order + 1):
        stream.write(f"\n\\{k}-grams:\n")
        grams = by_order.get(k, [])
        for i in reversed(range(k)):
            grams.sort(key=itemgetter(i))
        stream.writelines(lines(grams))
    stream.write("\n\\end\\\n")


def _next_line(numbered: Iterator[tuple[int, str]], line_no: int) -> tuple[int, str, str]:
    """(line_no, line, stripped) of the next non-blank line, or (last + 1, "", "") at the end."""
    for line_no, raw in numbered:
        line = raw.rstrip("\r\n")
        stripped = line.strip()
        if stripped:
            return line_no, line, stripped
    return line_no + 1, "", ""


def load_arpa(stream: IO[str] | Iterable[str]) -> NgramModel:
    """Parse an ARPA file back into a model; errors name the offending line.

    Reads the stream once. Blank lines are ignored anywhere, every value must
    be finite, and an n-gram may not repeat within its section. All n-grams
    that hold a word hold the same str object for it, and all contexts whose
    backoff weight has the same text hold the same float.
    """
    numbered = enumerate(stream, start=1)
    line_no, _, stripped = _next_line(numbered, 0)
    if stripped != "\\data\\":
        raise ValueError(f"line {line_no}: missing \\data\\ header")
    declared: dict[int, int] = {}
    while True:
        line_no, line, stripped = _next_line(numbered, line_no)
        if not stripped.startswith("ngram "):
            break
        try:
            order_text, count_text = stripped[len("ngram ") :].split("=", 1)
            declared[int(order_text)] = int(count_text)
        except ValueError:
            raise ValueError(f"line {line_no}: bad ngram count declaration {line!r}") from None
        last_declaration = line_no
    if not declared:
        raise ValueError(f"line {line_no}: no ngram counts declared")
    max_order = max(declared)
    # distinct orders, all >= 1 and as many as the largest: exactly 1..N
    if min(declared) < 1 or len(declared) != max_order:
        raise ValueError(f"line {last_declaration}: ngram count declarations must cover orders 1..N")

    probs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}
    # one str per distinct word; after the 1-gram section its keys are the vocabulary
    words: dict[str, str] = {}
    pooled = words.setdefault
    # one float per distinct backoff text, stored once the text has passed its checks
    backoff_of: dict[str, float] = {}
    for k in range(1, max_order + 1):
        header = f"\\{k}-grams:"
        if stripped != header:
            raise ValueError(f"line {line_no}: expected {header} section")
        before = len(probs)
        for line_no, raw in numbered:
            line = raw.rstrip("\r\n")
            fields = line.split("\t")
            try:
                log10_prob = float(fields[0])
            except ValueError:
                # a number is never blank and never starts with a backslash,
                # so only a line that is not one can end the section
                stripped = line.strip()
                if not stripped:
                    continue
                if stripped.startswith("\\"):
                    break
                log10_prob = None
            if len(fields) not in (2, 3):
                raise ValueError(f"line {line_no}: malformed entry, expected 2 or 3 tab-separated fields")
            if log10_prob is None:
                raise ValueError(f"line {line_no}: bad log probability {fields[0]!r}")
            # NaN compares false both ways, so it would win or lose a ranking silently
            if not -math.inf < log10_prob < math.inf:
                raise ValueError(f"line {line_no}: log probability must be finite, got {fields[0]!r}")
            gram = fields[1].split(" ")
            if len(gram) != k or not all(gram):
                raise ValueError(f"line {line_no}: expected a {k}-gram, got {fields[1]!r}")
            gram = tuple(map(pooled, gram, gram))
            prob = log10_prob * _LN10
            if probs.setdefault(gram, prob) is not prob:
                raise ValueError(f"line {line_no}: duplicate {k}-gram {fields[1]!r}")
            if len(fields) == 3:
                backoff = backoff_of.get(fields[2])
                if backoff is None:
                    try:
                        log10_backoff = float(fields[2])
                    except ValueError:
                        raise ValueError(f"line {line_no}: bad backoff weight {fields[2]!r}") from None
                    if not -math.inf < log10_backoff < math.inf:
                        raise ValueError(f"line {line_no}: backoff weight must be finite, got {fields[2]!r}")
                    backoff = backoff_of[fields[2]] = log10_backoff * _LN10
                backoffs[gram] = backoff
        else:
            # the end of input ends the last section too
            line_no, stripped = line_no + 1, ""
        seen = len(probs) - before
        if seen != declared[k]:
            raise ValueError(
                f"line {line_no}: {k}-gram count mismatch, header declares {declared[k]} but section has {seen}"
            )
        if k == 1:
            vocab = frozenset(words)
    if stripped != "\\end\\":
        raise ValueError(f"line {line_no}: missing \\end\\ terminator")
    return NgramModel(max_order, probs, backoffs, vocab)


def load_scorer(path: str) -> LmScorer:
    """Load either an ARPA model or a sentence-score table, sniffing the format."""
    with open_text(path) as fh:
        first = next((line.strip() for line in fh if line.strip()), "")
        fh.seek(0)
        return load_arpa(fh) if first == "\\data\\" else LookupScorer.load(fh)

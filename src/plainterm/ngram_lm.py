"""Backoff n-gram language model with interpolated absolute discounting.

Probabilities are estimated by subtracting a fixed discount from every
observed count and giving the freed mass to the next-lower order, ending in
a uniform distribution over the predicted vocabulary. The model is stored in
backoff form: explicit probabilities for observed n-grams, a backoff weight
per observed context, and the standard ARPA text format on disk.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter, defaultdict
from typing import IO, Iterable, Iterator, Mapping, Protocol, Sequence

from .textproc import open_text, rows, tokenize

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


class NgramModel:
    """Backoff model: natural-log probs per n-gram, natural-log backoff per context.

    Every word has an id from 1 to V in sorted str order, and with B = V + 1
    the n-gram w1..wk is keyed by the one int ((w1 * B + w2) * B + ...) * B + wk.
    Its context is then key // B and its lower-order gram key % B ** (k - 1).
    No id is 0, so a k-gram's key lies in [B ** (k - 1), B ** k): keys of
    different lengths never collide, and keys of one length sort as their
    word tuples do. probs and backoffs are read-only views of the packed
    dicts, keyed by word tuple.
    """

    def __init__(
        self,
        order: int,
        probs: Mapping[tuple[str, ...], float],
        backoffs: Mapping[tuple[str, ...], float],
        vocab: frozenset[str],
    ) -> None:
        """A model over tuple-keyed dicts, kept in their order.

        A key may hold a word outside vocab; when scored, such a word is read
        as the unknown symbol like any other.
        """
        table = _IdTable(vocab.union(*probs, *backoffs))
        packed = {table.pack(gram): prob for gram, prob in probs.items()}
        # each context keyed by the int that keys it in probs, when it has one
        key_of = {key: key for key in packed}
        contexts = (table.pack(ctx) for ctx in backoffs)
        weights = {key_of.get(key, key): weight for key, weight in zip(contexts, backoffs.values())}
        self._set(order, table, packed, weights, vocab)

    @classmethod
    def _packed(
        cls, order: int, table: _IdTable, probs: dict[int, float], backoffs: dict[int, float], vocab: frozenset[str]
    ) -> NgramModel:
        """A model over dicts already keyed by the packed ints of table."""
        model = cls.__new__(cls)
        model._set(order, table, probs, backoffs, vocab)
        return model

    def _set(
        self, order: int, table: _IdTable, probs: dict[int, float], backoffs: dict[int, float], vocab: frozenset[str]
    ) -> None:
        self.order, self.vocab, self._table = order, vocab, table
        self._probs, self._backoffs = probs, backoffs
        self.probs: Mapping[tuple[str, ...], float] = _TupleView(probs, table)
        self.backoffs: Mapping[tuple[str, ...], float] = _TupleView(backoffs, table)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NgramModel):
            return NotImplemented
        # equal vocabularies and keys give equal id tables
        mine = (self.order, self.vocab, self._table.words, self._probs, self._backoffs)
        return mine == (other.order, other.vocab, other._table.words, other._probs, other._backoffs)

    def logprob(self, context: Sequence[str], word: str) -> float:
        """Natural-log P(word | context), backing off through shorter contexts."""
        if word not in self._table.ids:
            raise ValueError(f"word {word!r} not in model vocabulary")
        # the last order - 1 context words; a word with no id is in no key,
        # so the context that is looked up starts after it
        gram = (*tuple(context)[max(len(context) - self.order + 1, 0) :], word)
        while (key := self._table.pack(gram)) is None:
            gram = gram[1:]
        return self._logprob(key, len(gram))

    def _logprob(self, key: int, k: int) -> float:
        # a loop, so a model of any order scores; the backoff weights are
        # added innermost first, b1 + (b2 + p), since float addition does not
        # associate and rankings depend on exact scores
        probs, base = self._probs, self._table.base
        weights = []
        while (prob := probs.get(key)) is None:
            if k == 1:
                # the word has an id, so it is in the model, but no 1-gram to back off to
                raise ValueError(f"word {self._table.words[key]!r} has no 1-gram entry")
            weights.append(self._backoffs.get(key // base, 0.0))
            k -= 1
            key %= base**k
        while weights:
            prob = weights.pop() + prob
        return prob

    def logprobs(self, tokens: Sequence[str], pads: int) -> list[float]:
        """Natural-log P(token | the tokens before it) for each token after the first order - 1 - pads.

        The tokens follow pads start symbols, 0 to order - 1 of them, and a
        word outside the vocabulary is read as the unknown symbol.
        """
        n = self.order - 1
        if not 0 <= pads <= n:
            raise ValueError(f"pads must be in [0, {n}], got {pads}")
        ids, base, vocab = self._table.ids, self._table.base, self.vocab
        history = [ids[START]] * pads
        for tok in tokens:
            if tok in vocab:
                history.append(ids[tok])
            elif UNK in vocab:
                history.append(ids[UNK])
            else:
                raise ValueError(f"word {tok!r} not in model vocabulary and model has no {UNK}")
        key = 0
        for word_id in history[:n]:
            key = key * base + word_id
        # each key keeps the last n ids and appends the next, packing an (n + 1)-gram
        top = base**n
        logps = []
        for word_id in history[n:]:
            key = key % top * base + word_id
            logps.append(self._logprob(key, n + 1))
        return logps

    def score(self, tokens: Sequence[str]) -> float:
        """Mean natural-log probability of the tokens, start-padded, no end term."""
        if not tokens:
            raise ValueError("cannot score empty sequence")
        return math.fsum(self.logprobs(tokens, self.order - 1)) / len(tokens)


class _IdTable:
    """Ids 1 to V for a model's words and the start symbol, in sorted str order, and B = V + 1.

    Every model can then pad with the start symbol, which is in no key when
    the model has no entry for it. Each word is held as the str it was given.
    """

    __slots__ = ("ids", "words", "base")

    def __init__(self, words: Iterable[str]) -> None:
        ordered = sorted({*words, START})
        self.ids = {word: i for i, word in enumerate(ordered, start=1)}
        # words[i] is the word of id i; no word has id 0
        self.words: tuple[str | None, ...] = (None, *ordered)
        self.base = len(self.words)

    def pack(self, gram: tuple[str, ...]) -> int | None:
        """The key of gram, or None if a word of it has no id."""
        ids, base = self.ids, self.base
        key = 0
        for word in gram:
            if (word_id := ids.get(word)) is None:
                return None
            key = key * base + word_id
        return key

    def unpack(self, key: int) -> tuple[str, ...]:
        words, base = self.words, self.base
        gram = []
        while key:
            key, word_id = divmod(key, base)
            gram.append(words[word_id])
        gram.reverse()
        return tuple(gram)


class _TupleView(Mapping[tuple[str, ...], float]):
    """Read-only view of one of a model's packed dicts, keyed by word tuple.

    It holds the model's id table, not the model, so that no reference cycle
    keeps a model nothing else uses from being freed at once.
    """

    __slots__ = ("_packed", "_table")

    def __init__(self, packed: dict[int, float], table: _IdTable) -> None:
        self._packed, self._table = packed, table

    def __getitem__(self, gram: tuple[str, ...]) -> float:
        key = self._table.pack(gram) if isinstance(gram, tuple) else None
        if key is None or (value := self._packed.get(key)) is None:
            raise KeyError(gram)
        return value

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return map(self._table.unpack, self._packed)

    def __len__(self) -> int:
        return len(self._packed)


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
    # one str per distinct word while the corpus is held as words
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
    vocab = frozenset(keep | {START, STOP, UNK})
    table = _IdTable(vocab)
    ids, base = table.ids, table.base
    pad, stop, unk = ids[START], ids[STOP], ids[UNK]
    for i, words in enumerate(sentences):
        sentences[i] = [pad] * (order - 1) + [ids[w] if w in keep else unk for w in words] + [stop]

    # every id but the start symbol's is predicted, in sorted word order
    predicted = [word_id for word_id in ids.values() if word_id != pad]
    uniform = 1.0 / len(predicted)

    probs: dict[int, float] = {}
    backoffs: dict[int, float] = {}
    # one float per distinct backoff weight; lam < 1, so no weight is 0.0 or
    # -0.0, which compare equal but are not the same float
    weights: dict[float, float] = {}
    for k in range(1, order + 1):
        # the k-grams of padded[order - k:] are those ending on a predicted position
        counts: Counter[int] = Counter()
        for padded in sentences:
            counts.update(_packed_ngrams(padded[order - k :], k, base))
        # a k-gram's key is in [top, top * base), and key % top drops its first word
        top = base ** (k - 1)
        # each context is keyed by the int that keys it in probs, when it has
        # one: the (k - 1)-grams, the longest keys so far; the map goes before
        # probs grows by this order
        contexts = {key: key for key in probs if key >= top // base}
        totals: dict[int, int] = defaultdict(int)
        types: dict[int, int] = defaultdict(int)
        for gram, count in counts.items():
            ctx = gram // base
            ctx = contexts.get(ctx, ctx)
            totals[ctx] += count
            types[ctx] += 1
        del contexts

        if k == 1:
            total = totals[0]
            lam = discount * types[0] / total
            for word_id in predicted:
                count = counts.get(word_id, 0)
                prob = max(count - discount, 0.0) / total + lam * uniform
                probs[word_id] = math.log(prob)
            probs[pad] = _PLACEHOLDER_LOG10 * _LN10
        else:
            for gram, count in counts.items():
                ctx = gram // base
                total = totals[ctx]
                lam = discount * types[ctx] / total
                lower = math.exp(probs[gram % top])
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

    return NgramModel._packed(order, table, probs, backoffs, vocab)


def _packed_ngrams(ids: list[int], n: int, base: int) -> list[int]:
    """The packed keys of the n-grams of ids, in order of position."""
    grams = ids[: len(ids) - n + 1]
    for i in range(1, n):
        grams = [key * base + word_id for key, word_id in zip(grams, ids[i:])]
    return grams


def save_arpa(model: NgramModel, stream: IO[str]) -> None:
    """Write the model in ARPA text format (log10, tab-separated).

    Each section lists its n-grams in tuple order, which is the numeric order
    of their keys.
    """
    probs, backoffs, table = model._probs, model._backoffs, model._table
    keys = sorted(probs)
    # the k-gram keys are keys[bounds[k - 1] : bounds[k]], those in [base ** (k - 1), base ** k)
    bounds = [bisect_left(keys, table.base**k) for k in range(model.order + 1)]

    def lines(grams: Iterable[int]) -> Iterator[str]:
        # sorted keys come grouped by context, so each context's words are joined once
        base, words, unpack = table.base, table.words, table.unpack
        last, prefix = None, ""
        for key in grams:
            ctx, word_id = divmod(key, base)
            if ctx != last:
                last, prefix = ctx, " ".join((*unpack(ctx), ""))
            text = prefix + words[word_id]
            backoff = backoffs.get(key)
            if backoff is None:
                yield f"{probs[key] / _LN10!r}\t{text}\n"
            else:
                yield f"{probs[key] / _LN10!r}\t{text}\t{backoff / _LN10!r}\n"

    stream.write("\\data\\\n")
    for k in range(1, model.order + 1):
        stream.write(f"ngram {k}={bounds[k] - bounds[k - 1]}\n")
    for k in range(1, model.order + 1):
        stream.write(f"\n\\{k}-grams:\n")
        stream.writelines(lines(keys[bounds[k - 1] : bounds[k]]))
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

    Reads the stream once. Blank lines are ignored anywhere, each order's
    count is declared once, every value must be finite, an n-gram may not
    repeat within its section, and every word of
    a higher-order n-gram must have a 1-gram entry. All contexts whose backoff
    weight has the same text hold the same float.
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
            order, count = int(order_text), int(count_text)
        except ValueError:
            raise ValueError(f"line {line_no}: bad ngram count declaration {line!r}") from None
        if order in declared:
            raise ValueError(f"line {line_no}: ngram count for order {order} declared twice")
        declared[order] = count
        last_declaration = line_no
    if not declared:
        raise ValueError(f"line {line_no}: no ngram counts declared")
    max_order = max(declared)
    # distinct orders, all >= 1 and as many as the largest: exactly 1..N
    if min(declared) < 1 or len(declared) != max_order:
        raise ValueError(f"line {last_declaration}: ngram count declarations must cover orders 1..N")

    # keyed by word in the 1-gram section, by packed int after it
    probs: dict[str | int, float] = {}
    backoffs: dict[str | int, float] = {}
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
            if k == 1:
                key = gram[0]
            else:
                # table.pack's fold, inline: a call per line costs about 7 % of a load
                key = 0
                for word in gram:
                    if (word_id := ids.get(word)) is None:
                        raise ValueError(f"line {line_no}: word {word!r} of {k}-gram {fields[1]!r} has no 1-gram entry")
                    key = key * base + word_id
            prob = log10_prob * _LN10
            if probs.setdefault(key, prob) is not prob:
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
                backoffs[key] = backoff
        else:
            # the end of input ends the last section too
            line_no, stripped = line_no + 1, ""
        seen = len(probs) - before
        if seen != declared[k]:
            raise ValueError(
                f"line {line_no}: {k}-gram count mismatch, header declares {declared[k]} but section has {seen}"
            )
        if k == 1:
            # the 1-grams are the vocabulary; each is re-keyed by its id, in file order
            vocab = frozenset(probs)
            table = _IdTable(probs)
            ids, base = table.ids, table.base
            probs = {ids[word]: prob for word, prob in probs.items()}
            backoffs = {ids[word]: backoff for word, backoff in backoffs.items()}
    if stripped != "\\end\\":
        raise ValueError(f"line {line_no}: missing \\end\\ terminator")
    return NgramModel._packed(max_order, table, probs, backoffs, vocab)


def load_scorer(path: str) -> LmScorer:
    """Load either an ARPA model or a sentence-score table, sniffing the format."""
    with open_text(path) as fh:
        first = next((line.strip() for line in fh if line.strip()), "")
        fh.seek(0)
        return load_arpa(fh) if first == "\\data\\" else LookupScorer.load(fh)

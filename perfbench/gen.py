"""Seeded synthetic inputs for the benchmark: vocabulary, corpus, ontology,
phrase tables, frequency table, input sentences and dev pairs.

Everything here is derived from one ``random.Random(seed)`` stream per
artifact and iterates only over lists and sorted keys, so the same seed and
scale give byte-identical files under any ``PYTHONHASHSEED``. Nothing in this
module imports the program: it writes the plain files a user would hand to
``plainterm``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# syllables end in a vowel, so no vocabulary word ends in "s" or "y" and a
# naive head-word plural can never collide with another vocabulary word
_CONSONANTS = "bcdfghjklmnprtvwz"
_VOWELS = "aeiou"
_SOURCES = ("SRC_A", "SRC_B", "SRC_C")


@dataclass(frozen=True)
class Scale:
    vocab: int
    corpus: int
    corpus_len: tuple[int, int]
    corpus_label_share: float
    concepts: int
    dense_sentences: int
    long_sentences: int
    dev_pairs: int
    shared_label_share: float


SCALES = {
    # the ROADMAP re-anchor workload: 5k words, 20k corpus sentences, 20k
    # groups; the input sentences and dev pairs are one timed round
    "full": Scale(5000, 20000, (6, 22), 0.3, 20000, 100, 100, 8, 0.03),
    # a few seconds end to end; used by the self-test only
    "tiny": Scale(300, 600, (5, 14), 0.3, 300, 20, 20, 3, 0.03),
}


def _zipf_cum(n: int, exponent: float) -> list[float]:
    cum, total = [], 0.0
    for rank in range(1, n + 1):
        total += 1.0 / rank**exponent
        cum.append(total)
    return cum


class Generator:
    """All synthetic inputs for one (seed, scale) pair."""

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.scale = SCALES[scale]
        self.vocab = self._vocab()
        self._cum = _zipf_cum(len(self.vocab), 1.0)
        self._label_cum = _zipf_cum(len(self.vocab), 0.6)
        # 1-token labels come only from the rarer part of the vocabulary, so
        # plain filler text rarely matches a table label by accident
        self._rare = self.vocab[len(self.vocab) // 5 :]
        self.dense_groups = self._groups("dense", (1, 3), 0.1)
        self.long_groups = self._groups("long", (4, 12), 0.02)
        self.corpus = self._corpus()
        self.freq = self._freq()

    def _rng(self, name: str) -> random.Random:
        return random.Random(f"{self.seed}:{name}")

    def _vocab(self) -> list[str]:
        rng = self._rng("vocab")
        seen: set[str] = set()
        words: list[str] = []
        while len(words) < self.scale.vocab:
            word = "".join(
                rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 4))
            )
            if word not in seen:
                seen.add(word)
                words.append(word)
        return words

    def _filler(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.vocab, cum_weights=self._cum, k=k)

    def _groups(self, kind: str, length: tuple[int, int], one_token_share: float) -> list[list[tuple[str, ...]]]:
        """Concepts of 2-4 distinct labels; no label appears in two concepts."""
        rng = self._rng(f"groups:{kind}")
        used: set[tuple[str, ...]] = set()
        groups = []
        for _ in range(self.scale.concepts):
            labels: list[tuple[str, ...]] = []
            want = rng.randint(2, 4)
            while len(labels) < want:
                if rng.random() < one_token_share:
                    label: tuple[str, ...] = (rng.choice(self._rare),)
                else:
                    lo, hi = length
                    n = rng.randint(max(lo, 2), hi)
                    label = tuple(rng.choices(self.vocab, cum_weights=self._label_cum, k=n))
                if label not in used:
                    used.add(label)
                    labels.append(label)
            groups.append(sorted(labels))
        return groups

    def _corpus(self) -> list[str]:
        rng = self._rng("corpus")
        lo, hi = self.scale.corpus_len
        lines = []
        for _ in range(self.scale.corpus):
            words = self._filler(rng, rng.randint(lo, hi))
            if rng.random() < self.scale.corpus_label_share:
                label = rng.choice(rng.choice(self.dense_groups))
                pos = rng.randint(0, len(words))
                words[pos:pos] = label
            lines.append(" ".join(words))
        return lines

    def _freq(self) -> dict[str, float]:
        counts: dict[str, int] = {}
        for line in self.corpus:
            for w in line.split():
                counts[w] = counts.get(w, 0) + 1
        total = sum(counts.values())
        return {w: counts[w] / total for w in sorted(counts)}

    def wf(self, label: tuple[str, ...]) -> float:
        return min(math.log(self.freq.get(w, 0.0) + 1e-10) for w in label)

    def _planted(self, rng: random.Random, length: tuple[int, int], labels: list[tuple[str, ...]]) -> str:
        words = self._filler(rng, rng.randint(*length))
        for label in labels:
            pos = rng.randint(0, len(words))
            words[pos:pos] = label
        words[0] = words[0].capitalize()
        return " ".join(words) + " ."

    def dense_sentences(self) -> list[str]:
        """10-25 tokens with two planted labels from the dense table."""
        rng = self._rng("dense-input")
        out = []
        for _ in range(self.scale.dense_sentences):
            labels = [rng.choice(rng.choice(self.dense_groups)) for _ in range(2)]
            body = sum(len(lab) for lab in labels) + 1
            out.append(self._planted(rng, (max(1, 10 - body), max(2, 25 - body)), labels))
        return out

    def long_sentences(self) -> list[str]:
        """30-60 tokens; about half carry one or two long labels, half carry none."""
        rng = self._rng("long-input")
        out = []
        for _ in range(self.scale.long_sentences):
            k = 0 if rng.random() < 0.5 else rng.randint(1, 2)
            labels = [rng.choice(rng.choice(self.long_groups)) for _ in range(k)]
            body = sum(len(lab) for lab in labels) + 1
            out.append(self._planted(rng, (max(1, 30 - body), max(2, 60 - body)), labels))
        return out

    def dev_pairs(self) -> list[tuple[str, str]]:
        """Sources with two planted jargon labels (the least familiar label of
        their group); the reference swaps each for the most familiar one."""
        rng = self._rng("dev")
        pairs = []
        for _ in range(self.scale.dev_pairs):
            groups = [rng.choice(self.dense_groups) for _ in range(2)]
            jargon = [min(g, key=lambda lab: (self.wf(lab), lab)) for g in groups]
            plain = [max(g, key=lambda lab: (self.wf(lab), lab)) for g in groups]
            words = self._filler(rng, rng.randint(6, 16))
            slots = sorted(rng.randint(0, len(words)) for _ in groups)
            src, ref = list(words), list(words)
            for slot, jar, pla in sorted(zip(slots, jargon, plain), reverse=True):
                src[slot:slot] = jar
                ref[slot:slot] = pla
            pairs.append((" ".join(src) + " .", " ".join(ref) + " ."))
        return pairs

    def ontology_rows(self) -> list[str]:
        """concept_id, label, source, P|A rows for build-table.

        A few concepts share one label with another concept, as synonyms from
        different vocabularies do; labels keep mixed case for normalization.
        """
        rng = self._rng("ontology")
        rows = []
        n = len(self.dense_groups)
        for cid, labels in enumerate(self.dense_groups):
            texts = [" ".join(lab) for lab in labels]
            if rng.random() < self.scale.shared_label_share:
                texts.append(" ".join(rng.choice(self.dense_groups[rng.randrange(n)])))
            for i, text in enumerate(texts):
                if rng.random() < 0.2:
                    text = text.capitalize()
                rows.append(f"C{cid:07d}\t{text}\t{rng.choice(_SOURCES)}\t{'P' if i == 0 else 'A'}")
        rows.sort()
        return rows


def table_rows(groups: list[list[tuple[str, ...]]]) -> list[str]:
    """group_id<TAB>label rows in the layout write_table produces."""
    return [f"{gid}\t{' '.join(lab)}" for gid, labels in enumerate(groups) for lab in labels]


def freq_rows(freq: dict[str, float]) -> list[str]:
    return [f"{w}\t{p!r}" for w, p in freq.items()]

"""Ontology record parsing and phrase-table construction.

Concept labels drawn from several vocabularies are merged into groups of
interchangeable phrases: any two concepts that share a normalized label are
taken to mean the same thing, and the union of their labels becomes one
alternative group. Groups that end up with fewer than two distinct labels
offer no substitution and are dropped.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .textproc import Token, rows, tokenize

__all__ = [
    "Label",
    "ConceptRecord",
    "AlternativeGroup",
    "PhraseTable",
    "normalize_label",
    "pluralize",
    "parse_records",
    "align",
    "write_table",
    "read_table",
]

Label = tuple[str, ...]

_SIBILANT_ENDINGS = ("s", "x", "z", "ch", "sh")


@dataclass(frozen=True, slots=True)
class ConceptRecord:
    """One ontology row: a concept identifier with one of its labels."""

    concept_id: str
    label: str


@dataclass(frozen=True, slots=True)
class AlternativeGroup:
    """A set of interchangeable phrases, its labels stored sorted however they are given.

    rank_span breaks a tie in favour of the smallest label, so a table ranks
    the same whether it was built, read back or made by hand.

    simplify writes each word of a chosen label as one token, and ScoreMemo
    keys each pass input by its text, so each word must tokenize back to
    that one token; ValueError is raised for any other ("fever.", "'s",
    "two words", ""). No character's upper case is punctuation or
    whitespace, so a word capitalized at a sentence start still does.
    read_table, from_groups and align make only labels that do.
    """

    group_id: int
    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        for label in self.labels:
            for word in label:
                if not (word.isalnum() or tokenize(word) == [Token(word, word.lower())]):
                    raise ValueError(f"group {self.group_id}: label word {word!r} does not tokenize as itself")
        # frozen, so the field is set past the dataclass's own __setattr__
        object.__setattr__(self, "labels", tuple(sorted(self.labels)))


@dataclass
class PhraseTable:
    """Alternative groups, an exact-match index over their labels, and their lengths by first two words."""

    groups: list[AlternativeGroup]

    def __post_init__(self) -> None:
        self.index: dict[Label, int] = {}
        # first word -> second word -> the lengths (>= 2) of the labels that start
        # with those two words, held as a bit set while the labels are read
        self.prefix_lengths: dict[str, dict[str, tuple[int, ...]]] = {}
        for group in self.groups:
            for label in group.labels:
                if label in self.index:
                    raise ValueError(f"label {' '.join(label)!r} appears in more than one group")
                self.index[label] = group.group_id
                if len(label) > 1:
                    by_second = self.prefix_lengths.get(label[0])
                    if by_second is None:
                        by_second = self.prefix_lengths[label[0]] = {}
                    by_second[label[1]] = by_second.get(label[1], 0) | 1 << len(label)
        # each bit set becomes its lengths, longest first, in the same dict; equal sets share one tuple
        decoded: dict[int, tuple[int, ...]] = {}
        for by_second in self.prefix_lengths.values():
            for second, bits in by_second.items():
                if bits not in decoded:
                    decoded[bits] = tuple(k for k in range(bits.bit_length() - 1, 1, -1) if bits >> k & 1)
                by_second[second] = decoded[bits]
        self._by_id = {g.group_id: g for g in self.groups}
        self._max_label_len = max(map(len, self.index), default=0)

    @classmethod
    def from_groups(cls, label_groups: Iterable[Iterable[str]]) -> "PhraseTable":
        """Build a table from sets of label strings, checked as read_table checks its rows.

        Group ids follow the order of label_groups; each error starts with "group N".
        """
        groups = [list(labels) for labels in label_groups]
        # a read_table group has at least one row, so only here can a group be empty
        if [] in groups:
            raise ValueError(f"group {groups.index([])}: no labels")
        entries = ((gid, gid, text) for gid, labels in enumerate(groups) for text in labels)
        return cls(_checked_groups(entries, "group"))

    def group(self, group_id: int) -> AlternativeGroup:
        return self._by_id[group_id]

    def lookup(self, phrase: Sequence[str]) -> int | None:
        """Return the group id holding this normalized phrase, if any."""
        return self.index.get(tuple(phrase))

    def max_label_len(self) -> int:
        """Token count of the longest label, computed once when the table is built."""
        return self._max_label_len


def normalize_label(text: str) -> Label:
    """Lowercase, collapse whitespace, and split off punctuation."""
    # a lowercase label of alphanumeric words has no punctuation to split off,
    # so splitting on spaces gives the tokenizer's result
    if text.replace(" ", "").isalnum() and text == text.lower():
        return tuple(text.split())
    return tuple(tok.norm for tok in tokenize(text))


def pluralize(word: str) -> str:
    """Naive plural of a single word: y -> ies, sibilant endings -> es, else -> s."""
    if word.endswith("y"):
        return word[:-1] + "ies"
    if word.endswith(_SIBILANT_ENDINGS):
        return word + "es"
    return word + "s"


def parse_records(stream: IO[str] | Iterable[str]) -> list[ConceptRecord]:
    """Parse tab-separated ontology rows: concept_id, label, source, P|A flag.

    The source and flag columns are checked but not kept. Blank lines and
    lines starting with '#' are skipped. Any malformed line raises ValueError
    naming the 1-based line number.
    """
    records: list[ConceptRecord] = []
    for line_no, cols in rows(stream, 4):
        concept_id, label, _source, flag = (c.strip() for c in cols)
        if not concept_id:
            raise ValueError(f"line {line_no}: empty concept id")
        if not label:
            raise ValueError(f"line {line_no}: empty label")
        if flag not in ("P", "A"):
            raise ValueError(f"line {line_no}: flag must be P or A, got {flag!r}")
        records.append(ConceptRecord(concept_id, label))
    return records


def align(records: Iterable[ConceptRecord], expand_plurals: bool = True) -> PhraseTable:
    """Merge concepts that share a normalized label into alternative groups.

    With expand_plurals on (the default), each label also contributes a naive
    plural of its head word as an additional member, generated before merging
    so plural collisions unify the concepts involved. Group ids are assigned
    in ascending order of each group's smallest concept id, so the result is
    independent of record order.
    """
    # a union-find over labels: every label of a concept joins the concept's first label
    parent: dict[Label, Label] = {}
    first_label: dict[str, Label] = {}

    def find(label: Label) -> Label:
        # path halving: each label on the way points at its grandparent
        while parent[label] != label:
            parent[label] = label = parent[parent[label]]
        return label

    for rec in records:
        label = normalize_label(rec.label)
        if not label:
            continue
        anchor = first_label.setdefault(rec.concept_id, label)
        joined = [label]
        # pluralize the head (final) word only, and only when it is alphabetic
        if expand_plurals and label[-1].isalpha():
            joined.append(label[:-1] + (pluralize(label[-1]),))
        for member in joined:
            parent.setdefault(member, member)
            parent[find(member)] = find(anchor)

    members: dict[Label, list[Label]] = defaultdict(list)
    for label in parent:
        members[find(label)].append(label)
    smallest_id: dict[Label, str] = {}
    for concept_id, label in first_label.items():
        root = find(label)
        smallest_id[root] = min(smallest_id.get(root, concept_id), concept_id)
    # each group has its own smallest concept id, so no two lists of labels are compared
    ordered = sorted((smallest_id[root], labels) for root, labels in members.items() if len(labels) > 1)
    return PhraseTable([AlternativeGroup(gid, tuple(labels)) for gid, (_, labels) in enumerate(ordered)])


def write_table(table: PhraseTable, stream: IO[str]) -> None:
    """Write group_id<TAB>label rows, sorted by group id then label."""
    for group in sorted(table.groups, key=lambda g: g.group_id):
        for joined in sorted(" ".join(lab) for lab in group.labels):
            stream.write(f"{group.group_id}\t{joined}\n")


def _checked_groups(entries: Iterable[tuple[int, int | str, str]], place: str) -> list[AlternativeGroup]:
    """The groups of (where, group id or its text, label text) entries, checked as read_table says.

    Each error starts with f"{place} {where}" of the entry at fault.
    """
    # label -> where of its first entry, per group
    labels_by_group: dict[int, dict[Label, int]] = defaultdict(dict)
    group_of: dict[Label, int] = {}
    pooled = {}.setdefault
    for where, raw_id, text in entries:
        try:
            group_id = int(raw_id)
            # int() also reads "1_0", "+1", "01" and "٢", so two texts could name one group
            if str(group_id) != str(raw_id).strip():
                raise ValueError
        except ValueError:
            raise ValueError(f"{place} {where}: bad group id {raw_id!r}") from None
        words = normalize_label(text)
        if not words:
            raise ValueError(f"{place} {where}: empty label")
        label = tuple(map(pooled, words, words))
        if group_of.setdefault(label, group_id) != group_id:
            raise ValueError(f"{place} {where}: label {' '.join(label)!r} appears in more than one group")
        labels_by_group[group_id].setdefault(label, where)
    groups = []
    for group_id, first_wheres in sorted(labels_by_group.items()):
        if len(first_wheres) < 2:
            where = next(iter(first_wheres.values()))
            raise ValueError(f"{place} {where}: group {group_id} has fewer than 2 labels")
        groups.append(AlternativeGroup(group_id, tuple(first_wheres)))
    return groups


def read_table(stream: IO[str] | Iterable[str]) -> PhraseTable:
    """Read a phrase-table file produced by write_table or written by hand.

    Labels are normalized (lowercased, punctuation split off), so a
    hand-written label can match. A label may repeat within its group but not
    across groups, and every group needs two distinct labels; each error
    starts with "line N", the line of the row at fault or of a short group's
    first row. All labels that hold a word hold the same str object for it.
    """
    return PhraseTable(_checked_groups(((line_no, *cols) for line_no, cols in rows(stream, 2)), "line"))

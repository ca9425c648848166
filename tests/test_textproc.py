import random

from hypothesis import given, settings
from hypothesis import strategies as st

from plainterm.ontology import ConceptRecord, PhraseTable, align, normalize_label, read_table
from plainterm.textproc import Span, detokenize, extract_spans, tokenize

from oracles import frozen_tokenize, greedy_spans


def texts(tokens):
    return [t.text for t in tokens]


def norms(tokens):
    return [t.norm for t in tokens]


class TestTokenize:
    def test_plain_words(self):
        toks = tokenize("Patient has otalgia")
        assert texts(toks) == ["Patient", "has", "otalgia"]
        assert norms(toks) == ["patient", "has", "otalgia"]

    def test_trailing_punct_peeled(self):
        toks = tokenize("otalgia.")
        assert texts(toks) == ["otalgia", "."]

    def test_leading_punct_peeled(self):
        assert texts(tokenize('"quoted"')) == ['"', "quoted", '"']

    def test_multiple_punct_layers(self):
        assert texts(tokenize("(see);")) == ["(", "see", ")", ";"]

    def test_interior_punct_kept(self):
        assert texts(tokenize("x-ray reading 3.5 today")) == ["x-ray", "reading", "3.5", "today"]

    def test_punct_run_peeled_char_by_char(self):
        assert texts(tokenize("wait ...")) == ["wait", ".", ".", "."]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("   \t ") == []

    def test_norm_is_lowercase(self):
        toks = tokenize("MI DVT")
        assert norms(toks) == ["mi", "dvt"]


class TestDetokenize:
    def test_joins_with_single_space(self):
        assert detokenize(tokenize("a , b .")) == "a , b ."


class TestExtractSpans:
    def table(self, groups):
        return PhraseTable.from_groups(groups)

    def test_single_word_match(self):
        table = self.table([["otalgia", "earache"]])
        toks = tokenize("Patient has otalgia .")
        spans = extract_spans(toks, table)
        assert spans == [Span(start=2, end=3, group_id=0, matched=("otalgia",))]

    def test_longest_wins_at_same_start(self):
        table = self.table([["heart", "ticker"], ["heart attack", "cardiac arrest"]])
        toks = tokenize("heart attack today")
        spans = extract_spans(toks, table)
        assert [(s.start, s.end) for s in spans] == [(0, 2)]
        assert spans[0].matched == ("heart", "attack")

    def test_leftmost_wins_on_overlap(self):
        # "b c" overlaps "a b"; the left match is taken, then scanning resumes at c
        table = self.table([["a b", "z1 z2"], ["b c", "y1 y2"]])
        spans = extract_spans(tokenize("a b c"), table)
        assert [(s.start, s.end) for s in spans] == [(0, 2)]

    def test_matching_is_case_insensitive(self):
        table = self.table([["otalgia", "earache"]])
        spans = extract_spans(tokenize("Otalgia hurts"), table)
        assert spans[0].matched == ("otalgia",)
        assert spans[0].start == 0

    def test_adjacent_non_overlapping_both_found(self):
        table = self.table([["pyrexia", "fever"], ["dyspnoea", "breathlessness"]])
        spans = extract_spans(tokenize("pyrexia dyspnoea"), table)
        assert [(s.start, s.end, s.group_id) for s in spans] == [(0, 1, 0), (1, 2, 1)]

    def test_no_matches(self):
        table = self.table([["otalgia", "earache"]])
        assert extract_spans(tokenize("all clear today"), table) == []

    def test_agrees_with_sorted_match_oracle(self):
        rng = random.Random(20240817)
        vocab = [f"w{i}" for i in range(9)]
        for _ in range(300):
            group_labels = []
            seen = set()
            for _ in range(rng.randint(1, 6)):
                labels = set()
                while len(labels) < 2:
                    lab = tuple(rng.choices(vocab, k=rng.randint(1, 3)))
                    if lab not in seen:
                        labels.add(lab)
                        seen.add(lab)
                group_labels.append(sorted(" ".join(lab) for lab in labels))
            table = PhraseTable.from_groups(group_labels)
            toks = tokenize(" ".join(rng.choices(vocab, k=rng.randint(0, 12))))
            got = [(s.start, s.end) for s in extract_spans(toks, table)]
            want = greedy_spans([t.norm for t in toks], table.index, table.max_label_len())
            assert got == want

    def test_tries_only_the_indexed_lengths_then_one(self):
        table = self.table([["heart attack", "cardiac arrest"], ["heart attack risk", "cardiac risk"], ["a", "one"]])
        assert table.prefix_lengths["heart"] == {"attack": (3, 2)}
        assert table.max_label_len() == 3
        calls = {"lookup": 0, "max_label_len": 0}

        def counted(name, method):
            def wrapper(*args):
                calls[name] += 1
                return method(*args)

            return wrapper

        # wrapped on the instance, as perfbench's tracer wraps them
        table.lookup = counted("lookup", table.lookup)
        table.max_label_len = counted("max_label_len", table.max_label_len)
        spans = extract_spans(tokenize("Heart attack risk of a heart attack today heart"), table)
        assert [(s.start, s.end, s.matched) for s in spans] == [
            (0, 3, ("heart", "attack", "risk")),
            (4, 5, ("a",)),
            (5, 7, ("heart", "attack")),
        ]
        # lookups at each position: "heart attack" tries 3, a hit (1); "of" tries 1 (1);
        # "a" tries 1, a hit (1); "heart attack" tries 3, then 2, a hit (2); "today"
        # tries 1 (1); the last "heart" has no next word and tries 1 (1). Trying
        # every length from the longest label's down would take 12.
        assert calls == {"lookup": 7, "max_label_len": 1}
        extract_spans(tokenize("heart"), table)
        assert calls == {"lookup": 8, "max_label_len": 2}


# mixed case and punctuation, so labels and sentences both need normalizing
WORDS = ["ab", "Ab", "AB", "cd", "Cd", "e", "e.", "(e", ",", "f-g"]
LABELS = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join)
SENTENCES = st.lists(st.sampled_from(WORDS + ["x", "X."]), max_size=14).map(" ".join)


@settings(max_examples=200)
@given(labels=st.lists(LABELS, min_size=2, max_size=12, unique_by=normalize_label), sentence=SENTENCES)
def test_extract_spans_equals_oracle_on_random_tables(labels, sentence):
    # labels pair up into groups in order; an odd last label joins the final group
    last_group = len(labels) // 2 - 1
    table = read_table(f"{min(i // 2, last_group)}\t{label}\n" for i, label in enumerate(labels))
    tokens = tokenize(sentence)
    got = [(s.start, s.end, s.group_id) for s in extract_spans(tokens, table)]
    want = greedy_spans(norms(tokens), table.index, max(map(len, table.index)))
    assert got == [(i, j, table.lookup(norms(tokens)[i:j])) for i, j in want]


# labels of 1-6 words over 3 words, so that many share their first two words at different lengths
PREFIX_WORDS = ["a", "b", "c"]
PREFIX_LABELS = st.lists(st.sampled_from(PREFIX_WORDS), min_size=1, max_size=6).map(" ".join)


@given(
    entries=st.lists(st.tuples(st.integers(0, 4), PREFIX_LABELS), min_size=2, max_size=16, unique_by=lambda e: e[1]),
    plurals=st.booleans(),
    data=st.data(),
)
def test_extract_spans_equals_oracle_however_the_table_is_built(entries, plurals, data):
    labels = [label for _, label in entries]
    # the sentence strings labels and single words together, so that long labels occur in it
    pieces = st.sampled_from(labels + PREFIX_WORDS + ["as", "cs", "x"])
    sentence = " ".join(data.draw(st.lists(pieces, max_size=8))).split()
    # labels pair up into groups in order; an odd last label joins the final group
    groups = [labels[i : i + 2] for i in range(0, len(labels) - 1, 2)]
    groups[-1] += labels[len(groups) * 2 :]
    tables = [
        read_table(f"{gid}\t{label}\n" for gid, group in enumerate(groups) for label in group),
        PhraseTable.from_groups(groups),
        # concepts that share a label merge, so align's groups differ from the pairs
        align([ConceptRecord(f"c{cid}", label) for cid, label in entries], expand_plurals=plurals),
        PhraseTable([]),
    ]
    for table in tables:
        got = [(s.start, s.end, s.group_id) for s in extract_spans(tokenize(" ".join(sentence)), table)]
        want = greedy_spans(sentence, table.index, table.max_label_len())
        assert got == [(i, j, table.index[tuple(sentence[i:j])]) for i, j in want]


# whitespace and punctuation of several kinds, including ones str.split and
# unicodedata treat specially
TEXT_CHARS = "aZß .,-(\"\t\n\u00a0\u2003\u3000"


@given(s=st.one_of(st.text(alphabet=TEXT_CHARS, max_size=30), st.text(max_size=30)))
def test_tokens_cover_the_text_and_survive_a_round_trip(s):
    tokens = tokenize(s)
    assert "".join(texts(tokens)) == "".join(s.split())
    assert tokenize(detokenize(tokens)) == tokens


# letters and digits outside ASCII (a letter, a superscript, an Arabic-Indic
# digit, a Roman numeral), punctuation and Unicode whitespace
WORD_CHARS = "aZ7ß²٣Ⅻ.,-'(\"¿ \t\u00a0\u2003\u3000"


@given(s=st.one_of(st.text(alphabet=WORD_CHARS, max_size=30), st.text(max_size=30)))
def test_tokenize_equals_the_per_character_loop(s):
    # a chunk of letters and digits alone is kept whole; the round trip above
    # would still pass if "word." were kept whole too
    assert tokenize(s) == frozen_tokenize(s)

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from plainterm.ontology import PhraseTable, normalize_label, read_table
from plainterm.textproc import Span, detokenize, extract_spans, tokenize

from oracles import greedy_spans


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


# whitespace and punctuation of several kinds, including ones str.split and
# unicodedata treat specially
TEXT_CHARS = "aZß .,-(\"\t\n\u00a0\u2003\u3000"


@given(s=st.one_of(st.text(alphabet=TEXT_CHARS, max_size=30), st.text(max_size=30)))
def test_tokens_cover_the_text_and_survive_a_round_trip(s):
    tokens = tokenize(s)
    assert "".join(texts(tokens)) == "".join(s.split())
    assert tokenize(detokenize(tokens)) == tokens

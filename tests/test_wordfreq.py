import io
import math

import pytest

from plainterm.wordfreq import EPSILON, FrequencyTable, build_table, load_table, wf


class TestLoadTable:
    def test_basic(self):
        table = load_table(io.StringIO("fever\t0.01\nthe\t0.05\n"))
        assert table == {"fever": 0.01, "the": 0.05}

    def test_keys_lowercased(self):
        table = load_table(io.StringIO("Fever\t0.01\n"))
        assert "fever" in table

    def test_comments_and_blanks(self):
        table = load_table(io.StringIO("# freq\n\nfever\t0.01\n"))
        assert table == {"fever": 0.01}

    def test_duplicate_word_is_an_error(self):
        with pytest.raises(ValueError, match="line 2: duplicate word 'fever'"):
            load_table(io.StringIO("fever\t0.01\nfever\t0.02\n"))
        # keys are lowercased, so a word may not repeat in another case either
        with pytest.raises(ValueError, match="line 3: duplicate word 'fever'"):
            load_table(io.StringIO("Fever\t0.5\n# comment\nfever\t0.001\n"))

    def test_empty_word_is_an_error(self):
        with pytest.raises(ValueError, match="^line 1: empty word$"):
            load_table(io.StringIO(" \t0.5\n"))

    def test_word_with_whitespace_is_an_error(self):
        # wf looks up single words, so this row could never be read
        with pytest.raises(ValueError, match="^line 2: word contains whitespace$"):
            load_table(io.StringIO("fever\t0.01\nheart attack\t0.1\n"))

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
            load_table(io.StringIO("fever\t0.0\n"))
        with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
            load_table(io.StringIO("fever\t1.5\n"))

    def test_non_numeric_probability(self):
        with pytest.raises(ValueError, match="line 1: bad probability"):
            load_table(io.StringIO("fever\thigh\n"))

    def test_wrong_columns(self):
        with pytest.raises(ValueError, match="line 1: expected 2 columns"):
            load_table(io.StringIO("fever 0.01\n"))


class TestBuildTable:
    def test_counts_normalized(self):
        table = build_table(io.StringIO("the cat\nthe dog\n"))
        assert table == {"the": 0.5, "cat": 0.25, "dog": 0.25}

    def test_lowercases(self):
        table = build_table(io.StringIO("The THE the\n"))
        assert table == {"the": 1.0}

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_table(io.StringIO("\n  \n"))

    def test_word_starting_with_hash_is_an_error(self):
        # its word<TAB>probability row would read back as a comment, losing the word
        message = "^line 2: word '#tag' starts with '#', which a frequency file reads as a comment$"
        with pytest.raises(ValueError, match=message):
            build_table(io.StringIO("the cat\nsee #Tag here\n"))
        # a '#' inside a word is kept, and its row reads back
        table = build_table(io.StringIO("c# and f# and\n"))
        rows = "".join(f"{word}\t{prob!r}\n" for word, prob in table.items())
        assert load_table(io.StringIO(rows)) == table == {"c#": 0.25, "and": 0.5, "f#": 0.25}


class TestWf:
    def table(self, **probs):
        return FrequencyTable(dict(probs))

    def test_single_word(self):
        t = self.table(fever=0.01)
        assert wf(["fever"], t) == math.log(0.01 + EPSILON)

    def test_min_over_words(self):
        t = self.table(heart=0.01, attack=0.001)
        assert wf(["heart", "attack"], t) == math.log(0.001 + EPSILON)

    def test_unknown_word_floors_score(self):
        t = self.table(heart=0.01)
        assert wf(["heart", "xyzzy"], t) == math.log(EPSILON)

    def test_lookup_is_case_insensitive(self):
        t = self.table(fever=0.01)
        assert wf(["Fever"], t) == wf(["fever"], t)

    def test_epsilon_adjusted_prob_round_trips(self):
        # storing exp(v) - epsilon makes wf return v bit-for-bit, which the
        # ranking fixtures rely on for exact score ties
        v = -9.05
        t = FrequencyTable({"attack": math.exp(v) - EPSILON})
        assert wf(["attack"], t) == v

    def test_empty_term(self):
        with pytest.raises(ValueError, match="empty term"):
            wf([], self.table())

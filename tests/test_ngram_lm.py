import io
import itertools
import math
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plainterm.ngram_lm import (
    START,
    STOP,
    UNK,
    MAX_ORDER,
    MIN_DISCOUNT,
    LookupScorer,
    NgramModel,
    check_train_settings,
    load_arpa,
    load_scorer,
    save_arpa,
    train,
)
from plainterm.ontology import AlternativeGroup, PhraseTable
from plainterm.simplifier import ScoreMemo
from plainterm.textproc import Span
from plainterm.wordfreq import FrequencyTable

from oracles import frozen_load_arpa, frozen_save_arpa, frozen_train

LN10 = math.log(10.0)


def context_sums_to_one(model, ctx):
    return math.fsum(math.exp(model.logprob(ctx, w)) for w in model.vocab - {START})


class TestTrainHandArithmetic:
    """Closed-form checks on corpora small enough to work by hand."""

    def test_single_sentence_trigram(self):
        # corpus "a b c", D=0.75: every predicted word has count 1 in a
        # count-1 context, so each order adds 0.25 then interpolates at 0.75
        model = train(["a b c"], order=3, discount=0.75, min_count=1)
        p1 = 0.25 / 4 + 0.75 * (4 / 4) * (1 / 5)
        assert p1 == pytest.approx(0.2125, abs=1e-15)
        assert math.exp(model.logprob([], "a")) == pytest.approx(p1, abs=1e-12)
        p2 = 0.25 + 0.75 * p1
        assert math.exp(model.logprob(["<s>"], "a")) == pytest.approx(p2, abs=1e-12)
        p3 = 0.25 + 0.75 * p2
        assert p3 == pytest.approx(0.55703125, abs=1e-15)
        assert math.exp(model.logprob(["<s>", "<s>"], "a")) == pytest.approx(p3, abs=1e-12)
        assert model.score(["a", "b", "c"]) == pytest.approx(math.log(p3), abs=1e-12)

    def test_repeated_bigram_counts(self):
        model = train(["a a", "a a"], order=2, discount=0.75, min_count=1)
        # unigrams: c(a)=4, c(</s>)=2, total 6, two types
        assert math.exp(model.logprob([], "a")) == pytest.approx(0.625, abs=1e-12)
        assert math.exp(model.logprob([], STOP)) == pytest.approx(0.291666666666, abs=1e-9)
        # seen bigram
        assert math.exp(model.logprob(["a"], "a")) == pytest.approx(0.546875, abs=1e-12)
        # unseen bigram goes through the backoff weight of <s>
        assert math.exp(model.logprob(["<s>"], STOP)) == pytest.approx(0.109375, abs=1e-12)

    def test_tiny_discount_recovers_ml_estimate(self):
        # with an unrepeated corpus every conditional approaches 1
        model = train(["a b c"], order=3, discount=1e-9, min_count=1)
        assert abs(model.score(["a", "b", "c"])) < 1e-8

    def test_rare_words_mapped_to_unk(self):
        model = train(["a b", "a c"], order=2, discount=0.5, min_count=2)
        assert model.vocab == frozenset({"a", "<s>", STOP, UNK})
        # b and c collapse onto the same unknown-word statistics
        assert model.score(["b"]) == model.score(["c"]) == model.score([UNK])


class TestModelInvariants:
    def make_corpus(self, rng, vocab, n):
        return [" ".join(rng.choices(vocab, k=rng.randint(1, 8))) for _ in range(n)]

    def test_distributions_sum_to_one(self):
        rng = random.Random(11)
        vocab = [f"w{i}" for i in range(12)]
        corpus = self.make_corpus(rng, vocab, 60)
        for order in (1, 2, 3):
            model = train(corpus, order=order, discount=0.75, min_count=1)
            contexts = {()} | set(model.backoffs)
            for ctx in contexts:
                assert context_sums_to_one(model, ctx) == pytest.approx(1.0, abs=1e-9)

    def test_start_symbol_in_corpus_is_an_error(self):
        # a corpus <s> would take probability mass from the words the model predicts
        with pytest.raises(ValueError, match=r"^line 3: corpus contains the start symbol '<s>'$"):
            train(["the cat", "", "the <s> cat", "<s>"], order=2, min_count=1)
        # the other symbols are predicted words, so mid-sentence they leave every sum at 1
        model = train([f"the {STOP} cat {UNK}", "the cat sat"], order=2, min_count=1)
        for ctx in {()} | set(model.backoffs):
            assert context_sums_to_one(model, ctx) == pytest.approx(1.0, abs=1e-9)

    def test_unseen_context_backs_off_cleanly(self):
        model = train(["a b", "b a"], order=3, discount=0.5, min_count=1)
        # a context never observed contributes no backoff penalty
        assert model.logprob(["b", "b"], "a") == model.logprob(["b"], "a")
        # a context word the model has never seen starts the context after it
        assert model.logprob(["zzz", "b"], "a") == model.logprob(["b"], "a")
        assert model.logprob(["b", "zzz"], "a") == model.logprob([], "a")

    def test_training_is_order_independent(self):
        rng = random.Random(5)
        corpus = self.make_corpus(rng, ["x", "y", "z"], 20)
        model_a = train(corpus, order=3, discount=0.75, min_count=1)
        shuffled = corpus[:]
        rng.shuffle(shuffled)
        model_b = train(shuffled, order=3, discount=0.75, min_count=1)
        assert model_a.probs == model_b.probs
        assert model_a.backoffs == model_b.backoffs

    def test_backoff_weights_add_innermost_first(self):
        # with these values the other associations of the sum differ in the last bit
        b1, b2, p = -0.1, -0.2, -0.3
        model = NgramModel(3, {("c",): p}, {("a", "b"): b1, ("b",): b2}, frozenset("abc"))
        assert b1 + (b2 + p) not in (b2 + (b1 + p), (b1 + b2) + p)
        assert model.logprob(["a", "b"], "c") == b1 + (b2 + p)

    def test_score_is_mean_of_logprobs(self):
        model = train(["a a", "a a"], order=2, discount=0.75, min_count=1)
        expected = (math.log(0.859375) + math.log(0.546875)) / 2
        assert model.score(["a", "a"]) == pytest.approx(expected, abs=1e-12)

    def test_mean_makes_repetition_score_equal(self):
        model = train(["a b a b"], order=1, discount=0.75, min_count=1)
        assert model.score(["a", "b"]) == model.score(["a", "b", "a", "b"])

    def test_score_validates_input(self):
        model = train(["a b"], order=2, discount=0.5, min_count=1)
        with pytest.raises(ValueError, match="empty sequence"):
            model.score([])
        with pytest.raises(ValueError, match="^word 'zzz' not in model vocabulary$"):
            model.logprob([], "zzz")

    def test_a_vocabulary_word_with_no_unigram_is_named_as_such(self):
        model = NgramModel(3, {("c",): -0.3, (UNK,): -1.0}, {}, frozenset("abc") | {UNK})
        calls = (lambda: model.score(["a"]), lambda: model.logprobs(["a"], 2), lambda: model.logprob([], "a"))
        for call in calls:
            with pytest.raises(ValueError, match="^word 'a' has no 1-gram entry$"):
                call()

    def test_train_validates_parameters(self):
        with pytest.raises(ValueError, match="order"):
            train(["a"], order=0)
        with pytest.raises(ValueError, match="discount"):
            train(["a"], discount=1.0)
        with pytest.raises(ValueError, match="min_count"):
            train(["a"], min_count=0)
        # the order is bounded before any sentence is padded
        with pytest.raises(ValueError, match=rf"order must be in \[1, {MAX_ORDER}\], got {MAX_ORDER + 1}"):
            train(["a"], order=MAX_ORDER + 1)
        # the bound itself passes; only the check runs, so nothing is trained
        check_train_settings(MAX_ORDER, 0.75, 1)
        with pytest.raises(ValueError, match="no training data"):
            train(["", "   "])

    def test_smallest_accepted_discount_trains(self):
        # a subnormal discount rounds an interpolated probability to 0, whose log fails
        with pytest.raises(ValueError, match=r"^discount must be at least 1e-12, got 5e-324$"):
            train(["a b", "c"], discount=5e-324)
        model = train(["a b c", "d e"], order=MAX_ORDER, discount=MIN_DISCOUNT, min_count=1)
        assert all(math.isfinite(value) for value in model.probs.values())


class TestArpa:
    def test_round_trip_is_exact(self):
        model = train(["a b c", "b c a", "a a b"], order=3, discount=0.75, min_count=1)
        buf = io.StringIO()
        save_arpa(model, buf)
        buf.seek(0)
        again = load_arpa(buf)
        assert again.order == model.order
        assert again.vocab == model.vocab
        assert set(again.probs) == set(model.probs)
        assert set(again.backoffs) == set(model.backoffs)
        for gram, value in model.probs.items():
            assert again.probs[gram] == pytest.approx(value, abs=1e-12)
        for ctx, value in model.backoffs.items():
            assert again.backoffs[ctx] == pytest.approx(value, abs=1e-12)

    def test_hand_written_unigram_file(self, data_dir):
        with open(data_dir / "unigram.arpa") as fh:
            model = load_arpa(fh)
        assert model.order == 1
        assert model.score(["the", "dog"]) == pytest.approx(-0.75 * LN10, abs=1e-12)

    def test_oov_without_unk_entry(self, data_dir):
        with open(data_dir / "unigram.arpa") as fh:
            model = load_arpa(fh)
        with pytest.raises(ValueError, match="no <unk>"):
            model.score(["cat"])

    def arpa_text(self):
        return (
            "\\data\\\n"
            "ngram 1=2\n"
            "\n"
            "\\1-grams:\n"
            "-0.5\tthe\n"
            "-1.0\tdog\n"
            "\n"
            "\\end\\\n"
        )

    def test_missing_header(self):
        with pytest.raises(ValueError, match="missing"):
            load_arpa(io.StringIO("ngram 1=2\n"))

    def test_bad_declaration(self):
        with pytest.raises(ValueError, match="bad ngram count declaration"):
            load_arpa(io.StringIO("\\data\\\nngram one=2\n"))

    @pytest.mark.parametrize("declarations", ["ngram 2=1\n", "ngram 1=1\nngram 3=1\n", "ngram 0=1\n"])
    def test_declared_orders_must_be_1_to_n(self, declarations):
        last = 1 + declarations.count("\n")
        with pytest.raises(ValueError, match=f"line {last}: ngram count declarations must cover orders 1..N"):
            load_arpa(io.StringIO("\\data\\\n" + declarations))

    # a repeat is refused whether the first count contradicts the section or matches it
    @pytest.mark.parametrize("first", [9, 2])
    def test_order_declared_twice(self, first):
        text = self.arpa_text().replace("ngram 1=2\n", f"ngram 1={first}\nngram 1=2\n")
        with pytest.raises(ValueError, match="line 3: ngram count for order 1 declared twice"):
            load_arpa(io.StringIO(text))

    def test_missing_section(self):
        text = "\\data\\\nngram 1=2\n\n\\end\\\n"
        with pytest.raises(ValueError, match=r"expected \\1-grams: section"):
            load_arpa(io.StringIO(text))

    def test_malformed_entry(self):
        text = self.arpa_text().replace("-0.5\tthe", "-0.5 the")
        with pytest.raises(ValueError, match="malformed entry"):
            load_arpa(io.StringIO(text))

    def test_count_mismatch(self):
        text = self.arpa_text().replace("ngram 1=2", "ngram 1=3")
        with pytest.raises(ValueError, match="declares 3 but section has 2"):
            load_arpa(io.StringIO(text))

    def test_missing_end(self):
        text = self.arpa_text().replace("\\end\\\n", "")
        with pytest.raises(ValueError, match=r"missing \\end\\"):
            load_arpa(io.StringIO(text))

    def test_blank_lines_in_count_block_are_skipped(self):
        text = self.arpa_text().replace("ngram 1=2\n", "\nngram 1=2\n\n")
        assert load_arpa(io.StringIO(text)) == load_arpa(io.StringIO(self.arpa_text()))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "entry, what",
        [("{}\tthe", "log probability"), ("-0.5\tthe\t{}", "backoff weight")],
        ids=["prob", "backoff"],
    )
    def test_rejects_non_finite_value(self, entry, what, value):
        text = self.arpa_text().replace("-0.5\tthe", entry.format(value))
        with pytest.raises(ValueError, match=f"line 5: {what} must be finite, got '{value}'"):
            load_arpa(io.StringIO(text))

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("abc\tthe", "line 5: bad log probability 'abc'"),
            ("-0.5\ta b", "line 5: expected a 1-gram, got 'a b'"),
            ("-0.5\tthe\txyz", "line 5: bad backoff weight 'xyz'"),
        ],
        ids=["prob", "gram", "backoff"],
    )
    def test_rejects_bad_entry(self, entry, message):
        text = self.arpa_text().replace("-0.5\tthe", entry)
        with pytest.raises(ValueError) as err:
            load_arpa(io.StringIO(text))
        assert str(err.value) == message

    def test_rejects_duplicate_ngram(self):
        text = self.arpa_text().replace("-1.0\tdog", "-3.0\tthe")
        with pytest.raises(ValueError, match="line 6: duplicate 1-gram 'the'"):
            load_arpa(io.StringIO(text))

    @pytest.mark.parametrize("gram", ["cat dog", "the cat"])
    def test_rejects_a_word_with_no_unigram_entry(self, gram):
        # the model would read cat as <unk>, so the entry could never be scored
        text = self.arpa_text().replace("ngram 1=2\n", "ngram 1=2\nngram 2=2\n")
        text = text.replace("\n\\end", f"\n\\2-grams:\n-0.1\tthe dog\n-0.2\t{gram}\n\n\\end")
        with pytest.raises(ValueError) as err:
            load_arpa(io.StringIO(text))
        assert str(err.value) == f"line 11: word 'cat' of 2-gram {gram!r} has no 1-gram entry"
        assert load_arpa(io.StringIO(text.replace(gram, "dog the"))).probs[("dog", "the")] == -0.2 * LN10


CORPORA = st.lists(
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6).map(" ".join), min_size=1, max_size=8
)


@given(
    corpus=CORPORA,
    order=st.integers(1, 4),
    discount=st.sampled_from([0.1, 0.5, 0.75, 0.95]),
    min_count=st.integers(1, 2),
)
def test_arpa_round_trip_on_random_models(corpus, order, discount, min_count):
    model = train(corpus, order=order, discount=discount, min_count=min_count)
    buf = io.StringIO()
    save_arpa(model, buf)
    text = buf.getvalue()
    loaded = load_arpa(io.StringIO(text))
    assert (loaded.order, loaded.vocab) == (model.order, model.vocab)
    assert loaded.probs.keys() == model.probs.keys()
    assert loaded.backoffs.keys() == model.backoffs.keys()
    # the log10 conversion may move a value by an ulp, so compare to a tolerance
    assert all(abs(loaded.probs[g] - p) <= 1e-12 for g, p in model.probs.items())
    assert all(abs(loaded.backoffs[c] - b) <= 1e-12 for c, b in model.backoffs.items())
    # ...but once saved, a model re-saves to the same bytes
    again = io.StringIO()
    save_arpa(loaded, again)
    assert again.getvalue() == text
    # a file need not list its n-grams in order; the ids still follow the sorted words
    again = io.StringIO()
    save_arpa(load_arpa(io.StringIO(reverse_sections(text))), again)
    assert again.getvalue() == text


def reverse_sections(text):
    """ARPA text with the entries of each section in reverse order."""
    lines, entries = [], []
    for line in text.splitlines(keepends=True):
        if "\t" in line:
            entries.append(line)
        else:
            lines += reversed(entries)
            entries = []
            lines.append(line)
    return "".join(lines + entries[::-1])


# a few common words and several rare ones, so min_count maps some to <unk>;
# a line may be blank, which train skips
TRAIN_CORPORA = st.lists(
    st.lists(st.sampled_from("aaabbbccdefgh"), max_size=9).map(" ".join), min_size=1, max_size=10
).filter(lambda corpus: any(line.split() for line in corpus))


@given(
    corpus=TRAIN_CORPORA,
    order=st.integers(1, 5),
    discount=st.floats(0.05, 0.95),
    min_count=st.integers(1, 3),
)
def test_train_equals_frozen_all_orders_at_once_counting(corpus, order, discount, min_count):
    model = train(corpus, order=order, discount=discount, min_count=min_count)
    frozen = NgramModel(*frozen_train(corpus, order=order, discount=discount, min_count=min_count))
    assert model == frozen
    assert (list(model.probs), list(model.backoffs)) == (list(frozen.probs), list(frozen.backoffs))
    buf, expected = io.StringIO(), io.StringIO()
    save_arpa(model, buf)
    save_arpa(frozen, expected)
    assert buf.getvalue() == expected.getvalue()


# words of several letters: CPython already keeps one object per 1-character string
SHARED_WORDS_CORPUS = ["heart attack and heart failure", "the heart attack", "failure of the heart </s>"]


def shared_words_arpa():
    buf = io.StringIO()
    save_arpa(train(SHARED_WORDS_CORPUS, order=3, min_count=1), buf)
    return buf.getvalue()


def shared_words_model(loaded):
    if loaded:
        return load_arpa(io.StringIO(shared_words_arpa()))
    return train(SHARED_WORDS_CORPUS, order=3, min_count=1)


@pytest.mark.parametrize("loaded", [False, True], ids=["train", "load_arpa"])
def test_every_ngram_holds_one_str_per_word(loaded):
    # the id table holds each word's str once; the vocabulary and the views' tuples share it
    model = shared_words_model(loaded)
    canon = {}
    table = model._table
    keys = [*model.probs, *model.backoffs, *((w,) for w in model.vocab), table.words[1:], tuple(table.ids)]
    assert all(canon.setdefault(w, w) is w for key in keys for w in key)
    assert len(canon) == len(table.ids)


# more words, so that most 2-gram keys pass 256, the largest int CPython keeps one object for
SHARED_KEYS_CORPUS = [*SHARED_WORDS_CORPUS, " ".join(f"w{i:02}" for i in range(24))]


@pytest.mark.parametrize("loaded", [False, True], ids=["train", "load_arpa"])
def test_every_backoff_shares_its_probs_key_and_its_weight(loaded):
    model = train(SHARED_KEYS_CORPUS, order=3, min_count=1)
    if loaded:
        buf = io.StringIO()
        save_arpa(model, buf)
        model = load_arpa(io.StringIO(buf.getvalue()))
    key_of = {key: key for key in model._probs}
    assert {len(ctx) for ctx in model.backoffs} == {1, 2}
    assert sum(ctx > 256 for ctx in model._backoffs) > 10
    assert all(key_of[ctx] is ctx for ctx in model._backoffs)
    canon = {}
    assert all(canon.setdefault(w, w) is w for w in model.backoffs.values())
    # some weights repeat, so the pooling is exercised
    assert len(canon) < len(model.backoffs)


def arpa_with_bad_backoffs(bad, which):
    """The shared-words model's ARPA text with bad as the backoff text of the
    lines that `which` slices from those of its first repeated backoff text;
    (text, the indices of those lines)."""
    lines = shared_words_arpa().splitlines(keepends=True)
    by_text = {}
    for i, line in enumerate(lines):
        fields = line.split("\t")
        if len(fields) == 3:
            by_text.setdefault(fields[2], []).append(i)
    picked = next(at for at in by_text.values() if len(at) > 1)[which]
    for i in picked:
        prob, gram, _ = lines[i].split("\t")
        lines[i] = f"{prob}\t{gram}\t{bad}\n"
    return "".join(lines), picked


BAD_BACKOFFS = [("nan", "backoff weight must be finite, got 'nan'"), ("x", "bad backoff weight 'x'")]


@pytest.mark.parametrize("bad, message", BAD_BACKOFFS)
def test_bad_backoff_text_after_a_pooled_one_fails_at_its_own_line(bad, message):
    # the first line keeps the good text, which is pooled before the bad one is read
    text, (second,) = arpa_with_bad_backoffs(bad, slice(1, 2))
    with pytest.raises(ValueError, match=f"^line {second + 1}: {message}$"):
        load_arpa(io.StringIO(text))


@pytest.mark.parametrize("bad, message", BAD_BACKOFFS)
def test_repeated_bad_backoff_text_fails_at_its_first_line(bad, message):
    text, (first, _) = arpa_with_bad_backoffs(bad, slice(0, 2))
    with pytest.raises(ValueError, match=f"^line {first + 1}: {message}$"):
        load_arpa(io.StringIO(text))


ARPA_MUTATIONS = (
    "blank", "spaces", "space-tab", "crlf", "four-fields", "nan", "duplicate", "stray", "no-end", "cut",
)


def mutate_arpa(lines, kind, at):
    """lines with one change of the given kind, placed by at."""
    blanks = {"blank": "\n", "spaces": "   \n", "space-tab": " \t \n"}
    cut = at % (len(lines) + 1)
    if kind in blanks:
        return lines[:cut] + [blanks[kind]] + lines[cut:]
    if kind == "crlf":
        return [line[:-1] + "\r\n" if line.endswith("\n") else line for line in lines]
    if kind == "no-end":
        return [line for line in lines if line.strip() != "\\end\\"]
    if kind == "cut":
        return lines[:cut]
    entries = [i for i, line in enumerate(lines) if "\t" in line]
    if not entries:
        return lines
    i = entries[at % len(entries)]
    fields = lines[i].rstrip("\r\n").split("\t")
    if kind == "four-fields":
        changed = "\t".join(fields + ["-0.5"] * (4 - len(fields))) + "\n"
    elif kind == "nan":
        fields[0 if len(fields) == 2 or at % 2 else 2] = "nan"
        changed = "\t".join(fields) + "\n"
    elif kind == "duplicate":
        return lines[: i + 1] + [lines[i]] + lines[i + 1 :]
    else:  # a stray backslash line before an entry ends its section early
        return lines[:i] + ["\\x\n"] + lines[i:]
    return lines[:i] + [changed] + lines[i + 1 :]


def load_outcome(load, text):
    """The model a loader reads, with its dicts in insertion order, or its error message."""
    try:
        model = load(io.StringIO(text))
    except ValueError as exc:
        return str(exc)
    return model.order, list(model.probs.items()), list(model.backoffs.items()), model.vocab


@given(
    corpus=st.lists(
        st.lists(st.sampled_from(["heart", "attack", "of", "the", "failure"]), min_size=1, max_size=5).map(" ".join),
        min_size=1,
        max_size=5,
    ),
    order=st.integers(1, 3),
    mutations=st.lists(st.tuples(st.sampled_from(ARPA_MUTATIONS), st.integers(0, 10**6)), min_size=1, max_size=3),
)
def test_load_arpa_equals_frozen_loader_on_mutated_text(corpus, order, mutations):
    buf = io.StringIO()
    save_arpa(train(corpus, order=order, min_count=1), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    for kind, at in mutations:
        lines = mutate_arpa(lines, kind, at)
    text = "".join(lines)
    expected = load_outcome(lambda stream: NgramModel(*frozen_load_arpa(stream)), text)
    assert load_outcome(load_arpa, text) == expected


# "a\x01" sorts after "a" but, joined into a line, before "a b"
ARPA_WORDS = ["a", "a\x01", "\x01", "b", "<s>"]
ARPA_GRAMS = [gram for k in (1, 2, 3) for gram in itertools.product(ARPA_WORDS, repeat=k)]


@given(grams=st.lists(st.sampled_from(ARPA_GRAMS), max_size=12, unique=True), extra_orders=st.integers(0, 1))
def test_save_arpa_bytes_equal_a_tuple_sorted_writer(grams, extra_orders):
    # a higher-order word need not be a unigram: the constructor takes one,
    # though load_arpa refuses it
    order = max(map(len, grams), default=1) + extra_orders
    probs = {gram: -(i + 1) / 7 for i, gram in enumerate(grams)}
    backoffs = {gram: -(i + 1) / 3 for i, gram in enumerate(grams) if i % 2}
    model = NgramModel(order, probs, backoffs, frozenset(g[0] for g in grams if len(g) == 1))
    buf, expected = io.StringIO(), io.StringIO()
    save_arpa(model, buf)
    frozen_save_arpa(model, expected)
    assert buf.getvalue() == expected.getvalue()


def backoff_walk(model, tokens, pads):
    """Log-probabilities by a plain backoff walk, and the deepest backoff chain.

    Each token after the first order - 1 - pads is scored given the tokens
    before it, which follow pads start symbols; a word outside the
    vocabulary is <unk>. Each position adds its backoff weights from the
    innermost outwards, b1 + (b2 + p), as NgramModel does.
    """
    n = model.order - 1
    history = [START] * pads + [tok if tok in model.vocab else UNK for tok in tokens]
    logps, depth = [], 0
    for i in range(n, len(history)):
        ctx, word = tuple(history[i - n : i]), history[i]
        weights = []
        while ctx + (word,) not in model.probs:
            weights.append(model.backoffs.get(ctx, 0.0))
            ctx = ctx[1:]
        value = model.probs[ctx + (word,)]
        for weight in reversed(weights):
            value = weight + value
        logps.append(value)
        depth = max(depth, len(weights))
    return logps, depth


# x and y never occur in CORPORA, so they are read as <unk>
WORDS = st.sampled_from("abcdefxy")
SPLICES = st.tuples(st.integers(0, 8), st.integers(0, 8), st.lists(WORDS, min_size=1, max_size=3))


def test_window_scores_equal_whole_sentence_scores():
    depths = set()

    @given(
        corpus=CORPORA,
        order=st.integers(1, 4),
        min_count=st.integers(1, 2),
        sentence=st.lists(WORDS, min_size=1, max_size=8),
        splices=st.lists(SPLICES, min_size=1, max_size=4),
    )
    def check(corpus, order, min_count, sentence, splices):
        model = train(corpus, order=order, min_count=min_count)
        memo = ScoreMemo(model, PhraseTable([]), FrequencyTable())
        norms = tuple(sentence)
        for a, b, label in splices:
            start, end = sorted((min(a, len(norms)), min(b, len(norms))))
            label, matched = tuple(label), norms[start:end]
            sent = (*norms[:start], *label, *norms[end:])
            whole = model.score(sent)
            logps, depth = backoff_walk(model, sent, order - 1)
            reference = math.fsum(logps) / len(logps)
            # the matched words are a row too, unless they are empty (start == end) or
            # the label itself, which is then the row that keeps them; one memo across
            # the splices, so a window memoized for one is read by the next
            labels = (label,) if matched in ((), label) else (matched, label)
            memo.table = PhraseTable([AlternativeGroup(0, labels)])
            rows = memo.rows(norms, Span(start, end, 0, matched))
            (row,) = [row for row in rows if row[0] == label]
            assert row[1] == sent
            assert row[2] == whole == reference
            depths.add(depth)

    check()
    # the association of the backoff sum only shows on chains of two or more
    assert max(depths) >= 2


def test_logprobs_equal_a_plain_backoff_walk_after_any_start_pads():
    unknown = set()

    @given(
        corpus=CORPORA,
        order=st.integers(1, 4),
        min_count=st.integers(1, 2),
        tokens=st.lists(WORDS, max_size=8),
    )
    def check(corpus, order, min_count, tokens):
        model = train(corpus, order=order, min_count=min_count)
        for pads in range(order):
            expected, _ = backoff_walk(model, tokens, pads)
            assert model.logprobs(tokens, pads) == expected
        if tokens:
            assert model.score(tokens) == math.fsum(model.logprobs(tokens, order - 1)) / len(tokens)
        unknown.update((order, tok) for tok in tokens if tok not in model.vocab)

    check()
    # words outside the vocabulary were read as <unk> at every order
    assert {order for order, _ in unknown} == {1, 2, 3, 4}


@pytest.mark.parametrize("pads", [-1, 3, 4])
def test_logprobs_refuses_pads_outside_zero_to_order_minus_one(pads):
    # 4 pads on an order-3 model would score two start symbols as words; -1 would drop a token
    model = train(["a b c", "a b d"], order=3, min_count=1)
    assert len(model.logprobs(("a", "b"), 2)) == 2
    with pytest.raises(ValueError, match=rf"pads must be in \[0, 2\], got {pads}"):
        model.logprobs(("a", "b"), pads)


@st.composite
def models_and_dicts(draw):
    """(model, the tuple-keyed probs and backoffs it holds), from train or from the constructor.

    A constructed model has a 1-gram for every vocabulary word and <unk>, and
    its other keys may hold words outside the vocabulary, in any order.
    """
    if draw(st.booleans()):
        corpus, order, min_count = draw(CORPORA), draw(st.integers(1, 4)), draw(st.integers(1, 2))
        _, probs, backoffs, _ = frozen_train(corpus, order=order, min_count=min_count)
        return train(corpus, order=order, min_count=min_count), probs, backoffs
    vocab = {*draw(st.lists(st.sampled_from(ARPA_WORDS), unique=True)), UNK}
    higher = draw(st.lists(st.sampled_from(ARPA_GRAMS[len(ARPA_WORDS) :]), max_size=12, unique=True))
    grams = draw(st.permutations([(w,) for w in sorted(vocab)] + higher))
    contexts = draw(st.lists(st.sampled_from(ARPA_GRAMS[: -(len(ARPA_WORDS) ** 3)]), max_size=8, unique=True))
    probs = {gram: -(i + 1) / 7 for i, gram in enumerate(grams)}
    backoffs = {ctx: -(i + 1) / 3 for i, ctx in enumerate(contexts)}
    return NgramModel(3, probs, backoffs, frozenset(vocab)), probs, backoffs


def test_views_read_the_packed_dicts_as_the_tuple_dicts_they_came_from():
    outside = set()

    @given(drawn=models_and_dicts(), tokens=st.lists(st.sampled_from([*ARPA_WORDS, "x"]), max_size=6))
    def check(drawn, tokens):
        model, probs, backoffs = drawn
        for view, tuples in [(model.probs, probs), (model.backoffs, backoffs)]:
            assert list(view.items()) == list(tuples.items())
            assert view == tuples and len(view) == len(tuples)
            assert ("x",) not in view and "a" not in view and view.get((), -1.0) == -1.0
            with pytest.raises(TypeError):
                view[("a",)] = 0.0
        for pads in range(model.order):
            expected, _ = backoff_walk(model, tokens, pads)
            assert model.logprobs(tokens, pads) == expected
        # a word of a higher-order key that is not in the vocabulary is read as <unk>
        outside.update(tok for tok in tokens if tok not in model.vocab and any(tok in gram for gram in probs))

    check()
    assert outside


def test_model_deeper_than_the_recursion_limit_scores(deep_arpa):
    model = load_scorer(str(deep_arpa))
    assert model.order > sys.getrecursionlimit()
    # every word is <unk>, and each backs off through all order - 1 empty contexts
    assert model.score(["a", "b", "."]) == -1.0 * LN10


class TestLookupScorer:
    def test_exact_match(self):
        scorer = LookupScorer({"a b .": -2.0})
        assert scorer.score(["a", "b", "."]) == -2.0

    def test_missing_without_default(self):
        with pytest.raises(ValueError, match="no stored score"):
            LookupScorer({}).score(["x"])

    def test_empty_sequence(self):
        with pytest.raises(ValueError, match="^cannot score empty sequence$"):
            LookupScorer({}).score([])

    def test_load(self):
        scorer = LookupScorer.load(io.StringIO("a b .\t-2.5\n# note\n\nc .\t-1\n"))
        assert scorer.score(["a", "b", "."]) == -2.5
        assert scorer.score(["c", "."]) == -1.0

    def test_load_bad_score(self):
        with pytest.raises(ValueError, match="line 1: bad score"):
            LookupScorer.load(io.StringIO("a\tnope\n"))

    def test_load_rejects_duplicate_sentence(self):
        with pytest.raises(ValueError, match="line 3: duplicate sentence 'a b'"):
            LookupScorer.load(io.StringIO("a b\t-1.0\nc\t-2.0\na b\t-9.0\n"))

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN"])
    def test_load_rejects_non_finite_score(self, text):
        with pytest.raises(ValueError, match=f"line 2: score must be finite, got '{text}'"):
            LookupScorer.load(io.StringIO(f"a .\t-5.0\nb .\t{text}\n"))

    @pytest.mark.parametrize(
        "sentence, message",
        [
            ("Patient had a heart attack .", "simplify asks for 'patient had a heart attack .'"),
            ("attack.", "simplify asks for 'attack .'"),
            ("a  b", "simplify asks for 'a b'"),
            ("", "empty sentence"),
            (" ", "empty sentence"),
        ],
    )
    def test_load_rejects_a_sentence_simplify_never_asks_for(self, sentence, message):
        with pytest.raises(ValueError) as err:
            LookupScorer.load(io.StringIO(f"a .\t-5.0\n{sentence}\t-1.0\n"))
        if sentence.strip():
            message = f"unreachable sentence {sentence!r}, {message}"
        assert str(err.value) == f"line 2: {message}"
        # the score is parsed first, so a bad score keeps its message
        with pytest.raises(ValueError, match="^line 1: bad score 'x'$"):
            LookupScorer.load(io.StringIO(f"{sentence}\tx\n"))


class TestLoadScorer:
    def test_sniffs_arpa(self, tmp_path, data_dir):
        path = tmp_path / "model.arpa"
        path.write_text((data_dir / "unigram.arpa").read_text())
        scorer = load_scorer(str(path))
        assert isinstance(scorer, NgramModel)

    def test_sniffs_lookup_table(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("a b .\t-2.0\n")
        scorer = load_scorer(str(path))
        assert isinstance(scorer, LookupScorer)
        assert scorer.score(["a", "b", "."]) == -2.0

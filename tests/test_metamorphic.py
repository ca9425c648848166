"""Metamorphic relations: two runs that the README says must agree, do.

Each test names the README sentence it guards. The inputs are small random
tables, corpora and sentences; the language model is trained by `train`, so
every run takes the window path of `ScoreMemo`.
"""

from hypothesis import given
from hypothesis import strategies as st

from plainterm.evaluation import grid_search_alpha
from plainterm.ngram_lm import train
from plainterm.ontology import normalize_label, read_table
from plainterm.simplifier import ScoreMemo, SimplifierConfig, simplify
from plainterm.wordfreq import FrequencyTable

# "e" and "f." occur in no corpus, so the model reads them as <unk>, and
# equal-length candidates made of them tie on lm; "ß" capitalizes to "SS"
WORDS = ["a", "b", "c", "d", "ß", "e", "f."]
LABELS = st.lists(st.sampled_from(WORDS), min_size=1, max_size=2).map(" ".join)
CORPORA = st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4).map(" ".join), min_size=1, max_size=4)
SENTENCE = st.lists(st.sampled_from(WORDS + ["A", "x"]), min_size=1, max_size=6).map(" ".join)
SENTENCES = st.lists(SENTENCE, min_size=1, max_size=3)
# sentences of one length, whose spans can sit at the same offsets
SAME_LENGTH = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from(WORDS + ["A", "x"]), min_size=n, max_size=n).map(" ".join), min_size=1, max_size=3
    )
)
# words that no sentence, corpus or LABELS label holds
FRESH = st.lists(st.sampled_from(["g", "h", "i"]), min_size=1, max_size=4).map(" ".join)
# a missing word takes the wf floor, so labels of absent words tie on wf
FREQS = st.dictionaries(st.sampled_from(WORDS), st.sampled_from([0.001, 0.2, 0.5])).map(FrequencyTable)


def table_rows(labels, repeats):
    """Rows pairing labels into groups in order (an odd last label joins the
    final group), with the labels at the indexes in repeats written twice."""
    last_group = len(labels) // 2 - 1
    rows = [f"{min(i // 2, last_group)}\t{label}\n" for i, label in enumerate(labels)]
    return rows + [rows[i % len(rows)] for i in repeats]


@given(
    corpus=CORPORA,
    order=st.integers(1, 3),
    labels=st.lists(LABELS, min_size=2, max_size=8, unique_by=normalize_label),
    repeats=st.lists(st.integers(0, 7), max_size=2),
    freq=FREQS,
    sentences=SENTENCES,
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    rng=st.randoms(use_true_random=False),
)
def test_shuffled_table_rows_leave_every_result_equal(corpus, order, labels, repeats, freq, sentences, alpha, rng):
    # README, simplify: "ties keep the lexicographically smallest term", so
    # no ranking can depend on the order of the table's rows
    rows = table_rows(labels, repeats)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    table, other = read_table(rows), read_table(shuffled)
    model = train(corpus, order=order, min_count=1)
    config = SimplifierConfig(alpha=alpha)
    for sentence in sentences:
        assert simplify(sentence, table, model, freq, config).to_dict() == simplify(
            sentence, other, model, freq, config
        ).to_dict()


@given(
    corpus=CORPORA,
    order=st.integers(1, 3),
    labels=st.lists(LABELS, min_size=2, max_size=6, unique_by=normalize_label),
    freq=FREQS,
    sources=SENTENCES,
    references=SENTENCES,
)
def test_reversed_dev_pairs_leave_the_tune_curve_equal(corpus, order, labels, freq, sources, references):
    # README, evaluate: "Mean SARI is the `math.fsum` of the sentence scores
    # over their number (`evaluation.mean_sari`), the same mean `tune` takes."
    table = read_table(table_rows(labels, []))
    model = train(corpus, order=order, min_count=1)
    pairs = list(zip(sources, references))
    grid = [0.0, 0.3, 0.7, 1.0]
    assert grid_search_alpha(pairs, table, model, freq, grid) == grid_search_alpha(
        pairs[::-1], table, model, freq, grid
    )


@given(
    corpus=CORPORA,
    order=st.integers(1, 3),
    labels=st.lists(LABELS, min_size=2, max_size=8, unique_by=normalize_label),
    freqs=st.tuples(FREQS, FREQS),
    sentences=SENTENCES,
    max_iterations=st.integers(1, 5),
)
def test_at_alpha_one_the_frequency_table_changes_no_final(corpus, order, labels, freqs, sentences, max_iterations):
    # README, simplify: "Candidate ranking scores `alpha * lm + (1 - alpha) * wf`",
    # so at alpha 1 wf has no weight, and ties go to lm, then to the term
    table = read_table(table_rows(labels, []))
    model = train(corpus, order=order, min_count=1)
    config = SimplifierConfig(alpha=1.0, max_iterations=max_iterations)
    for sentence in sentences:
        one, two = (simplify(sentence, table, model, freq, config) for freq in freqs)
        assert one.final == two.final


@given(
    corpus=CORPORA,
    order=st.integers(1, 3),
    labels=st.lists(LABELS, min_size=2, max_size=8, unique_by=normalize_label),
    freq=FREQS,
    sentences=st.tuples(SAME_LENGTH, SENTENCE).flatmap(
        lambda drawn: st.lists(
            st.sampled_from([*drawn[0], drawn[1], *(s.upper() for s in drawn[0])]), min_size=2, max_size=6
        )
    ),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    max_iterations=st.integers(1, 5),
    rng=st.randoms(use_true_random=False),
)
def test_sentences_alone_in_any_order_or_through_one_memo_give_equal_results(
    corpus, order, labels, freq, sentences, alpha, max_iterations, rng
):
    # README, Library: "Pass your own memo to `simplify` in place of `lm` to
    # share it across calls", and `combined` "is the same float it would be
    # without the memo", so no memo state may cross from one sentence to the next
    table = read_table(table_rows(labels, []))
    model = train(corpus, order=order, min_count=1)
    config = SimplifierConfig(alpha=alpha, max_iterations=max_iterations)
    alone = [simplify(sentence, table, model, freq, config).to_dict() for sentence in sentences]
    positions = list(range(len(sentences)))
    rng.shuffle(positions)
    shuffled = {i: simplify(sentences[i], table, model, freq, config).to_dict() for i in positions}
    memo = ScoreMemo(model, table, freq)
    shared = {i: simplify(sentences[i], table, memo, freq, config).to_dict() for i in positions}
    assert [shuffled[i] for i in range(len(sentences))] == alone
    assert [shared[i] for i in range(len(sentences))] == alone


@given(
    corpus=CORPORA,
    order=st.integers(1, 3),
    labels=st.lists(LABELS, min_size=2, max_size=8, unique_by=normalize_label),
    fresh=st.lists(FRESH, min_size=2, max_size=3, unique=True),
    fresh_id=st.integers(-2, 6),
    freq=FREQS,
    sentences=SENTENCES,
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    max_iterations=st.integers(1, 5),
)
def test_a_group_sharing_no_word_with_the_input_changes_no_result(
    corpus, order, labels, fresh, fresh_id, freq, sentences, alpha, max_iterations
):
    # README, Library: "At each position `extract_spans` tries only those
    # lengths, then length 1, and checks each through `lookup`, so it finds the
    # spans that trying every length from the longest label's down would find";
    # a group whose words no reachable sentence holds adds labels, lengths and
    # two-word prefixes, but no span
    rows = table_rows(labels, [])
    taken = {int(row.split("\t")[0]) for row in rows}
    if fresh_id in taken:
        fresh_id = max(taken) + 1
    table = read_table(rows)
    grown = read_table(rows + [f"{fresh_id}\t{label}\n" for label in fresh])
    model = train(corpus, order=order, min_count=1)
    config = SimplifierConfig(alpha=alpha, max_iterations=max_iterations)
    for sentence in sentences:
        assert simplify(sentence, table, model, freq, config).to_dict() == simplify(
            sentence, grown, model, freq, config
        ).to_dict()


@given(
    corpus=CORPORA,
    order=st.integers(1, 3),
    labels=st.lists(LABELS, min_size=2, max_size=8, unique_by=normalize_label),
    new_ids=st.lists(st.integers(-20, 20), min_size=4, max_size=4, unique=True),
    freq=FREQS,
    sentences=SENTENCES,
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    max_iterations=st.integers(1, 5),
)
def test_renumbered_group_ids_change_only_the_traced_group_ids(
    corpus, order, labels, new_ids, freq, sentences, alpha, max_iterations
):
    # README, simplify: "Candidate ranking scores `alpha * lm + (1 - alpha) * wf`
    # ...; ties keep the lexicographically smallest term", so a group id only
    # names a group: nothing but the trace's group_id may read it
    rows = table_rows(labels, [])
    renumbered = [f"{new_ids[int(gid)]}\t{rest}" for gid, rest in (row.split("\t", 1) for row in rows)]
    table, other = read_table(rows), read_table(renumbered)
    model = train(corpus, order=order, min_count=1)
    config = SimplifierConfig(alpha=alpha, max_iterations=max_iterations)
    for sentence in sentences:
        expected = simplify(sentence, table, model, freq, config).to_dict()
        for passes in expected["trace"]:
            for rep in passes:
                rep["span"]["group_id"] = new_ids[rep["span"]["group_id"]]
        assert simplify(sentence, other, model, freq, config).to_dict() == expected

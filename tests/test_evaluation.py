import io
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from plainterm.evaluation import (
    MAX_BOOTSTRAP_ITERATIONS,
    MAX_REPLICATIONS,
    EvalCounts,
    JudgmentRecord,
    aggregate_judgments,
    alpha_range,
    bleu,
    check_iterations,
    default_alpha_grid,
    format_report,
    grid_search_alpha,
    load_judgments,
    load_unchanged,
    mean_sari,
    sari,
    sari_components,
    sg_significance,
    simplification_gain,
)
import plainterm.simplifier as simplifier
from plainterm.simplifier import ScoreMemo, SimplifierConfig, simplify

from oracles import bleu_score, frozen_bleu, frozen_sari_components, sari_score

# published judgment tallies (S/F/E/N/U) for the three headline systems
HUMAN = EvalCounts(1730, 273, 904, 40, 4053)
NGRAM = EvalCounts(1452, 1004, 1732, 110, 2702)
GPT1 = EvalCounts(1404, 747, 1736, 117, 2996)


class TestCounts:
    def test_total(self):
        assert EvalCounts(1, 2, 3, 4, 5).total == 15

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            EvalCounts(s=-1)

    def test_gain(self):
        assert simplification_gain(EvalCounts(10, 4, 3, 2, 1)) == pytest.approx(6 / 20)

    def test_gain_of_published_tallies(self):
        assert round(simplification_gain(HUMAN), 2) == 0.21
        assert round(simplification_gain(NGRAM), 2) == 0.06
        assert round(simplification_gain(GPT1), 2) == 0.09

    def test_gain_requires_judgments(self):
        with pytest.raises(ValueError, match="no judgments"):
            simplification_gain(EvalCounts())


class TestLoaders:
    def test_load_judgments(self):
        records = load_judgments(io.StringIO("s1,human,S\ns2,human,F\n"))
        assert records == [
            JudgmentRecord("s1", "human", "S"),
            JudgmentRecord("s2", "human", "F"),
        ]

    def test_header_skipped(self):
        records = load_judgments(io.StringIO("sentence_id,system_id,category\ns1,human,S\n"))
        assert len(records) == 1

    def test_unknown_category(self):
        with pytest.raises(ValueError, match="line 1: unknown category 'X'"):
            load_judgments(io.StringIO("s1,human,X\n"))

    def test_wrong_field_count(self):
        with pytest.raises(ValueError, match="line 1: expected 3 fields"):
            load_judgments(io.StringIO("s1,human\n"))

    def test_csv_error_names_line(self):
        # an unclosed quote runs the field to the end of the file
        text = "s1,human\n\"" + "x" * 200_000 + "\n"
        with pytest.raises(ValueError, match="line 2: field larger than field limit"):
            load_unchanged(io.StringIO(text))

    def test_unterminated_quoted_field_names_the_line_its_row_starts_on(self):
        # the open quote takes in the next line and the end of the file, so the row has two fields
        text = 's1,human,S\n\ns2,"open\nmore,S\n'
        with pytest.raises(ValueError) as err:
            load_judgments(io.StringIO(text))
        assert str(err.value) == "line 3: expected 3 fields, got 2"

    def test_load_unchanged(self):
        flags = load_unchanged(io.StringIO("sentence_id,system_id\ns1,human\ns2,ngram\n"))
        assert flags == [("s1", "human"), ("s2", "ngram")]

    def test_repeated_unchanged_pair_is_refused(self):
        # counted twice, the pair would add 2 * replications U judgments
        text = "sentence_id,system_id\ns3,a\ns3,b\n\ns3,a\n"
        with pytest.raises(ValueError) as err:
            load_unchanged(io.StringIO(text))
        assert str(err.value) == "line 5: duplicate unchanged pair 's3','a'"

    # the report writes a system id as it is: a tab adds a TSV column, a line break splits a row
    REPORT_BREAKS = ["\t", "\n", "\r", "\r\n", "\v", "\x1e", "\x85", "\u2028"]

    @pytest.mark.parametrize("sep", REPORT_BREAKS, ids=repr)
    def test_judgment_system_id_with_a_tab_or_line_break_is_refused(self, sep):
        text = f's0,a b,S\ns1,"a{sep}b",S\n'
        with pytest.raises(ValueError) as err:
            load_judgments(io.StringIO(text))
        # the row starts on line 2, wherever its quoted line break ends it
        assert str(err.value) == f"line 2: system id {'a' + sep + 'b'!r} contains a tab or a line break"

    @pytest.mark.parametrize("sep", REPORT_BREAKS, ids=repr)
    def test_unchanged_system_id_with_a_tab_or_line_break_is_refused(self, sep):
        text = f'sentence_id,system_id\ns0,a b\ns1,"a{sep}b"\n'
        with pytest.raises(ValueError) as err:
            load_unchanged(io.StringIO(text))
        assert str(err.value) == f"line 3: system id {'a' + sep + 'b'!r} contains a tab or a line break"


class TestAggregate:
    def test_tallies_by_system(self):
        records = [
            JudgmentRecord("s1", "a", "S"),
            JudgmentRecord("s2", "a", "S"),
            JudgmentRecord("s3", "a", "F"),
            JudgmentRecord("s1", "b", "E"),
        ]
        counts = aggregate_judgments(records)
        assert counts["a"] == EvalCounts(s=2, f=1)
        assert counts["b"] == EvalCounts(e=1)

    def test_unchanged_pairs_scaled_by_replications(self):
        counts = aggregate_judgments([], unchanged=[("s1", "a"), ("s2", "a")], replications=7)
        assert counts["a"] == EvalCounts(u=14)

    def test_replication_override(self):
        counts = aggregate_judgments([], unchanged=[("s1", "a")], replications=3)
        assert counts["a"].u == 3

    def test_bad_category_mentions_record(self):
        # the record refuses its category when it is built, so no bad one reaches aggregate_judgments
        with pytest.raises(ValueError) as err:
            JudgmentRecord("s1", "a", "Q")
        assert str(err.value) == "unknown category 'Q', expected one of S/F/E/N"

    def test_bad_replications(self):
        with pytest.raises(ValueError, match="replications"):
            aggregate_judgments([], replications=0)

    def test_replications_are_bounded(self):
        with pytest.raises(ValueError, match=rf"^replications must be <= {MAX_REPLICATIONS}, got {10**19}$"):
            aggregate_judgments([], replications=10**19)
        counts = aggregate_judgments([], unchanged=[("s1", "a")], replications=MAX_REPLICATIONS)
        assert counts["a"].u == MAX_REPLICATIONS


class TestSari:
    def test_perfect_rewrite(self):
        # output equals the reference; source shares only the period
        score = sari("foo .", "bar .", ["bar ."])
        assert score == pytest.approx(125.0 / 3, abs=1e-9)

    def test_unchanged_output_scores_low(self):
        score = sari("foo .", "foo .", ["bar ."])
        assert score == pytest.approx(100.0 / 18, abs=1e-9)

    def test_identical_everything(self):
        keep, delete, add = sari_components("a b c d", "a b c d", ["a b c d"])
        assert keep == pytest.approx(100.0)
        assert delete == 0.0
        assert add == 0.0

    def test_components_with_two_references(self):
        keep, delete, add = sari_components("a b", "a c", ["a c", "a b"])
        assert keep == pytest.approx(100 * (2 / 3) / 4, abs=1e-9)
        assert delete == pytest.approx(25.0, abs=1e-9)
        assert add == pytest.approx(50.0, abs=1e-9)

    def test_components_are_the_same_float_on_every_python(self):
        # sums added left to right; Python 3.12's compensated sum() gives ...556p+6 and ...bffffffffffffp+3
        assert sari_components("e g b b a a a b d e g", "", ["b"])[1] == float.fromhex("0x1.8955555555555p+6")
        assert sari_components("b c b a a", "a b c a", ["a c b", "d", "c"]) == (
            float.fromhex("0x1.c000000000001p+3"),
            float.fromhex("0x1.638e38e38e38ep+6"),
            0.0,
        )

    def test_case_insensitive(self):
        assert sari("Foo .", "Bar .", ["bar ."]) == sari("foo .", "bar .", ["bar ."])

    def test_requires_reference(self):
        with pytest.raises(ValueError, match="reference"):
            sari("a", "b", [])

    def test_rejects_a_blank_reference(self):
        # scored, a blank reference made rewriting pay: 25.0 for 'a dog', 0.0 for the source itself
        for output in ("the cat sat", "a dog"):
            with pytest.raises(ValueError, match="^empty reference$"):
                sari("the cat sat", output, [""])
        with pytest.raises(ValueError, match="^empty reference$"):
            sari("a", "b", ["a", " \t "])
        with pytest.raises(ValueError, match="^line 2: empty reference$"):
            mean_sari(["a", "b c"], ["a", "b"], ["a", " "])

    def test_rejects_fully_empty_pair(self):
        with pytest.raises(ValueError, match="both empty"):
            sari("", "", ["a"])
        # the mean names the line of the pair it could not score
        with pytest.raises(ValueError, match="^line 2: source and output are both empty$"):
            mean_sari(["a b", " "], ["a", ""], ["a", "b"])

    @pytest.mark.parametrize(
        "lines, message",
        [
            ((["a"], ["a"], ["a", "b"]), "sources, outputs and references must have the same number of lines"),
            (([], [], []), "no sentences to score"),
        ],
        ids=["ragged", "empty"],
    )
    def test_mean_needs_parallel_lines(self, lines, message):
        with pytest.raises(ValueError) as err:
            mean_sari(*lines)
        assert str(err.value) == message

    def test_matches_oracle_on_random_cases(self):
        rng = random.Random(404)
        vocab = list("abcdefgh")
        for _ in range(80):
            src = " ".join(rng.choices(vocab, k=rng.randint(1, 10)))
            out = " ".join(rng.choices(vocab, k=rng.randint(1, 10)))
            refs = [
                " ".join(rng.choices(vocab, k=rng.randint(1, 10)))
                for _ in range(rng.randint(1, 3))
            ]
            assert sari(src, out, refs) == pytest.approx(sari_score(src, out, refs), abs=1e-9)


# few words, so n-grams repeat within a sentence and across the references
SENTENCES = st.lists(st.sampled_from(["a", "b", "c", "d", "A", "."]), max_size=8).map(" ".join)


@given(source=SENTENCES, output=SENTENCES, references=st.lists(SENTENCES, min_size=1, max_size=3))
@example(source="", output="a b a .", references=["a b"])
@example(source="a a b a b .", output="", references=["a b", "a a b ."])
# both keep sums here change the last bit of keep if their terms are added in reverse
@example(
    source="a c b d d a b a d A",
    output=". . d b c d a",
    references=[". d . c d c b A . A", "c", "a A a d A A a c A"],
)
def test_sari_components_repr_equals_frozen_counter_algebra(source, output, references):
    assume(source or output)
    # the frozen copy predates the empty-reference error
    if not all(ref.split() for ref in references):
        with pytest.raises(ValueError, match="^empty reference$"):
            sari_components(source, output, references)
        return
    assert repr(sari_components(source, output, references)) == repr(
        frozen_sari_components(source, output, references)
    )


class TestBleu:
    def test_identity_is_100(self):
        assert bleu(["a b c d e"], ["a b c d e"]) == pytest.approx(100.0)

    def test_no_fourgram_match_zeroes_score(self):
        assert bleu(["a b c d e"], ["a b c f e"]) == 0.0

    def test_clipping(self):
        # "a" appears once in the reference, so only one of three counts: the
        # precisions are 5/7, 4/6, 3/5 and 2/4, whose product is 1/7
        assert bleu(["a a a b c d e"], ["a b c d e"]) == pytest.approx(100 * 7**-0.25, abs=1e-9)

    def test_brevity_penalty(self):
        score = bleu(["a b c d"], ["a b c d e f"])
        assert score == pytest.approx(100 * math.exp(1 - 6 / 4), abs=1e-9)

    def test_corpus_level_pooling(self):
        # matches and totals pool over the corpus before the ratio is taken
        outputs = ["a b c d", "x y z w"]
        references = ["a b c d", "x y q w"]
        assert bleu(outputs, references) == pytest.approx(bleu_score(outputs, references), abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            bleu(["a"], ["a", "b"])

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="no sentences"):
            bleu([], [])

    def test_blank_reference_names_its_line(self):
        with pytest.raises(ValueError, match=r"^line 2: empty reference$"):
            bleu(["a b", "", "c"], ["a b", " \t", ""])
        # an empty output line is still scored: its reference counts towards the brevity penalty
        assert bleu(["a b c d", ""], ["a b c d", "e"]) == pytest.approx(100 * math.exp(1 - 5 / 4), abs=1e-9)

    def test_matches_oracle_on_random_cases(self):
        rng = random.Random(77)
        vocab = list("abcdefgh")
        for _ in range(80):
            n = rng.randint(1, 5)
            outputs = [" ".join(rng.choices(vocab, k=rng.randint(1, 10))) for _ in range(n)]
            references = [" ".join(rng.choices(vocab, k=rng.randint(1, 10))) for _ in range(n)]
            assert bleu(outputs, references) == pytest.approx(
                bleu_score(outputs, references), abs=1e-9
            )


def test_bleu_equals_frozen_slice_counting():
    rng = random.Random(78)
    vocab = ["a", "b", "c", "."]
    nonzero = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        # lines up to 20 words long, so that some cases share 4-grams and score above 0
        outputs = [" ".join(rng.choices(vocab, k=rng.randint(0, 20))) for _ in range(n)]
        references = [" ".join(rng.choices(vocab, k=rng.randint(0, 20))) for _ in range(n)]
        blank = [line_no for line_no, ref in enumerate(references, start=1) if not ref]
        if blank:
            with pytest.raises(ValueError, match=f"^line {blank[0]}: empty reference$"):
                bleu(outputs, references)
        else:
            score = bleu(outputs, references)
            assert score == frozen_bleu(outputs, references)
            nonzero += score > 0
    assert nonzero >= 50


class TestSignificance:
    def test_clearly_different_systems(self):
        p = sg_significance(HUMAN, NGRAM, iterations=10000, seed=42)
        assert p < 0.05

    def test_identical_systems(self):
        p = sg_significance(NGRAM, NGRAM, iterations=10000, seed=42)
        assert p > 0.9

    def test_exact_p_values_are_pinned(self):
        # the second p-value is off the add-one floor, so it also pins the S, F, E,
        # N, U order in which each system's multinomial is drawn
        assert sg_significance(HUMAN, NGRAM, iterations=10000, seed=42) == 0.00019998000199980003
        assert sg_significance(NGRAM, GPT1, iterations=10000, seed=42) == 0.0037996200379962005

    def test_p_value_never_zero(self):
        p = sg_significance(HUMAN, NGRAM, iterations=10000, seed=42)
        assert p >= 2 / 10001

    def test_deterministic_for_seed(self):
        a = sg_significance(HUMAN, GPT1, iterations=2000, seed=7)
        b = sg_significance(HUMAN, GPT1, iterations=2000, seed=7)
        assert a == b

    def test_iteration_floor(self):
        with pytest.raises(ValueError, match="iterations"):
            sg_significance(HUMAN, NGRAM, iterations=10)
        # one past the bound is refused before numpy allocates anything
        with pytest.raises(ValueError, match=rf"got {MAX_BOOTSTRAP_ITERATIONS + 1}"):
            sg_significance(HUMAN, NGRAM, iterations=MAX_BOOTSTRAP_ITERATIONS + 1)
        # the bound itself passes; only the check runs, so nothing is drawn
        check_iterations(MAX_BOOTSTRAP_ITERATIONS)

    def test_requires_judgments(self):
        with pytest.raises(ValueError, match="no judgments"):
            sg_significance(EvalCounts(), NGRAM)


class TestAlphaGrid:
    def test_default_grid(self):
        grid = default_alpha_grid()
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert len(grid) == 29
        assert grid == sorted(grid)
        assert 0.5 in grid
        # refined points above 0.9 only
        assert 0.93 in grid
        assert 0.43 not in grid

    @pytest.mark.parametrize("start, stop, step", [(-0.1, 1, 0.1), (0, 1.1, 0.1), (0, 1, 0.001), (0.5, 0.4, 0.1)])
    def test_range_is_bounded_before_any_point_is_made(self, start, stop, step):
        with pytest.raises(ValueError, match="bad alpha range"):
            alpha_range(start, stop, step)

    def test_default_grid_is_pinned(self):
        assert repr(default_alpha_grid()) == (
            "[0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, "
            "0.75, 0.8, 0.85, 0.9, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99, 1.0]"
        )


class TestGridSearch:
    def test_step_fixture_best_alpha(self, tune):
        pairs, table, lm, freq = tune
        best, curve = grid_search_alpha(pairs, table, lm, freq)
        assert best == 0.5
        assert len(curve) == len(default_alpha_grid())
        low = pytest.approx(100.0 / 18, abs=1e-9)
        high = pytest.approx(125.0 / 3, abs=1e-9)
        for alpha, score in curve:
            assert score == (high if alpha >= 0.5 else low)

    def test_curve_is_monotone_step(self, tune):
        pairs, table, lm, freq = tune
        _, curve = grid_search_alpha(pairs, table, lm, freq)
        scores = [score for _, score in curve]
        assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))

    def test_explicit_grid(self, tune):
        pairs, table, lm, freq = tune
        best, curve = grid_search_alpha(pairs, table, lm, freq, grid=[0.2, 0.8])
        assert best == 0.8
        assert [alpha for alpha, _ in curve] == [0.2, 0.8]

    def test_curve_repr_is_pinned(self, tune):
        pairs, table, lm, freq = tune
        best, curve = grid_search_alpha(pairs, table, lm, freq)
        assert best == 0.5
        assert repr(curve) == repr(
            [(alpha, 41.666666666666664 if alpha >= 0.5 else 5.5555555555555545) for alpha in default_alpha_grid()]
        )

    def test_a_shared_memo_gives_what_a_fresh_memo_per_call_gives(self, tune, two_stage, over_grid, monkeypatch):
        table, lm, _ = two_stage
        # "excessive fat in blood" made familiar, so a low alpha and a high one
        # rewrite the same pass input in two ways
        freq = {"excessive": 0.5, "fat": 0.5, "in": 0.5, "blood": 0.5, "high": 0.5}
        sources = ["Hyperlipidemia with elevated triglycerides .", "Hyperlipidemia with high triglycerides ."]
        stage = [(source, "high fat in blood .") for source in sources], table, lm, freq
        passes = set()
        simplify_once = simplifier.simplify_once

        def recorded(current, *args):
            output, replacements = simplify_once(current, *args)
            if replacements:
                passes.add((current[0], tuple((rep.span, rep.chosen) for rep in replacements)))
            return output, replacements

        monkeypatch.setattr(simplifier, "simplify_once", recorded)
        for pairs, table, lm, freq in (tune, stage):
            # walked both ways, a shared memo first sees alpha 0.0 in one and 1.0 in the other
            for grid in (default_alpha_grid(), default_alpha_grid()[::-1]):
                passes.clear()
                memo = ScoreMemo(lm, table, freq)
                shared = over_grid(pairs, table, memo, freq, grid)
                # one output per distinct pass input and picks, and a second walk adds none
                assert len(memo.outputs) == len(passes)
                outputs = dict(memo.outputs)
                assert over_grid(pairs, table, memo, freq, grid) == shared
                assert memo.outputs == outputs
                fresh = over_grid(pairs, table, lm, freq, grid)
                assert shared == fresh
                assert repr(shared) == repr(fresh)
        assert len({tokens for tokens, _ in passes}) < len(passes)

    def test_each_row_scored_once_across_the_grid(self, tune, counting, over_grid):
        pairs, table, lm, freq = tune
        # one memo over the grid, walked in grid_search_alpha's order
        shared = counting(lm)
        memo = ScoreMemo(shared, table, freq)
        over_grid(pairs, table, memo, freq, default_alpha_grid())
        once = dict(shared.calls)
        assert sum(once.values()) == sum(len(rows) for spans in memo.spans.values() for _, rows in spans)
        # a second walk on the same memo asks nothing
        over_grid(pairs, table, memo, freq, default_alpha_grid())
        assert shared.calls == once
        # grid_search_alpha asks exactly what that memo asked: once per row
        scorer = counting(lm)
        _, curve = grid_search_alpha(pairs, table, scorer, freq)
        assert scorer.calls == once
        # the same curve as simplifying every pair afresh at every alpha
        assert curve == [
            (alpha, math.fsum(
                sari(src, simplify(src, table, lm, freq, SimplifierConfig(alpha=alpha)).final, [ref])
                for src, ref in pairs
            ) / len(pairs))
            for alpha in default_alpha_grid()
        ]
        # and a second call reaches the scorer again
        grid_search_alpha(pairs, table, scorer, freq)
        assert scorer.calls == {key: 2 * n for key, n in once.items()}

    def test_tokens_spans_and_wf_computed_once_for_the_whole_grid(self, two_stage, monkeypatch):
        table, lm, freq = two_stage
        pairs = [
            ("Hyperlipidemia with elevated triglycerides .", "high fat in blood ."),
            ("Hyperlipidemia with high triglycerides .", "high fat in blood ."),
        ]
        tokenized, spans, labels = Counter(), {}, Counter()
        tokenize, extract_spans, wf = simplifier.tokenize, simplifier.extract_spans, simplifier.wf

        def counted_tokenize(sentence):
            tokenized[sentence] += 1
            return tokenize(sentence)

        def counted_extract_spans(tokens, table_):
            norms = tuple(t.norm for t in tokens)
            assert norms not in spans
            spans[norms] = extract_spans(tokens, table_)
            return spans[norms]

        def counted_wf(label, freq_):
            labels[label] += 1
            return wf(label, freq_)

        monkeypatch.setattr(simplifier, "tokenize", counted_tokenize)
        monkeypatch.setattr(simplifier, "extract_spans", counted_extract_spans)
        monkeypatch.setattr(simplifier, "wf", counted_wf)
        _, curve = grid_search_alpha(pairs, table, lm, freq)
        assert len(curve) == 29
        assert tokenized == {source: 1 for source, _ in pairs}
        # the two sources share pass inputs, and each is matched once
        assert len(spans) > len(pairs)
        # wf once per distinct label for the whole grid
        ranked = {label for found in spans.values() for span in found for label in table.group(span.group_id).labels}
        assert labels == {label: 1 for label in ranked}

    def test_empty_dev_set(self, tune):
        _, table, lm, freq = tune
        with pytest.raises(ValueError, match="empty development set"):
            grid_search_alpha([], table, lm, freq)

    def test_empty_grid(self, tune):
        pairs, table, lm, freq = tune
        with pytest.raises(ValueError, match="empty alpha grid"):
            grid_search_alpha(pairs, table, lm, freq, grid=[])

    def test_ties_go_to_the_smallest_alpha_of_an_unsorted_grid(self, tune):
        _, table, lm, freq = tune
        # nothing in the source matches the table, so every alpha scores the same
        best, curve = grid_search_alpha([("baz .", "baz .")], table, lm, freq, grid=[0.7, 0.3, 0.9, 0.35])
        assert [alpha for alpha, _ in curve] == [0.7, 0.3, 0.9, 0.35]
        assert len({score for _, score in curve}) == 1
        assert best == 0.3


class TestReport:
    def counts(self):
        return {"human": EvalCounts(10, 2, 3, 1, 4), "ngram": EvalCounts(5, 5, 5, 5, 0)}

    def test_tsv(self):
        text = format_report(self.counts(), fmt="tsv")
        assert text == (
            "system\tS\tF\tE\tN\tU\tSG\n"
            "human\t10\t2\t3\t1\t4\t0.40\n"
            "ngram\t5\t5\t5\t5\t0\t0.00\n"
        )

    def test_table_alignment(self):
        text = format_report(self.counts(), fmt="table")
        lines = text.splitlines()
        assert lines[0].split() == ["system", "S", "F", "E", "N", "U", "SG"]
        assert lines[1].startswith("human")
        assert lines[1].rstrip().endswith("0.40")

    @pytest.mark.parametrize(
        "counts, fmt, expected",
        [
            ({}, "table", "system  S  F  E  N  U  SG\n"),
            ({}, "tsv", "system\tS\tF\tE\tN\tU\tSG\n"),
            (
                {"a-very-long-system-name": EvalCounts(123, 4, 5, 6, 7), "b": EvalCounts(0, 1, 0, 0, 0)},
                "table",
                "system                     S  F  E  N  U     SG\n"
                "a-very-long-system-name  123  4  5  6  7   0.82\n"
                "b                          0  1  0  0  0  -1.00\n",
            ),
            (
                {"a-very-long-system-name": EvalCounts(123, 4, 5, 6, 7), "b": EvalCounts(0, 1, 0, 0, 0)},
                "tsv",
                "system\tS\tF\tE\tN\tU\tSG\n"
                "a-very-long-system-name\t123\t4\t5\t6\t7\t0.82\n"
                "b\t0\t1\t0\t0\t0\t-1.00\n",
            ),
        ],
        ids=["empty-table", "empty-tsv", "wide-table", "wide-tsv"],
    )
    def test_exact_bytes(self, counts, fmt, expected):
        assert format_report(counts, fmt=fmt) == expected

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown report format"):
            format_report(self.counts(), fmt="csv")

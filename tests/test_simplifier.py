import contextlib
import dataclasses
import io
import math
import zlib
from collections import Counter
from operator import attrgetter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import plainterm.simplifier
from plainterm.ngram_lm import LookupScorer, load_arpa, save_arpa, train
from plainterm.ontology import AlternativeGroup, PhraseTable, align, normalize_label, parse_records, read_table
from plainterm.simplifier import (
    Candidate,
    Replacement,
    ScoreMemo,
    SimplifierConfig,
    rank_span,
    simplify,
    simplify_once,
)
from plainterm.textproc import Span, Token, extract_spans, tokenize
from plainterm.wordfreq import EPSILON, FrequencyTable, build_table


def norms_of(tokens):
    return tuple(t.norm for t in tokens)


def pass_input(sentence):
    """The (tokens, norms, text) record simplify makes for sentence's first pass."""
    tokens = tuple(tokenize(sentence))
    return tokens, norms_of(tokens), sentence


def span_for(sentence, table):
    tokens = tokenize(sentence)
    spans = extract_spans(tokens, table)
    assert len(spans) == 1
    return norms_of(tokens), spans[0]


class TestConfig:
    def test_defaults(self):
        config = SimplifierConfig()
        assert config.alpha == 0.7
        assert config.max_iterations == 5

    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            SimplifierConfig(alpha=1.5)
        with pytest.raises(ValueError, match="alpha"):
            SimplifierConfig(alpha=-0.1)

    def test_iteration_floor(self):
        with pytest.raises(ValueError, match="max_iterations"):
            SimplifierConfig(max_iterations=0)
        # a float that passes the floor would fail later, inside simplify's range()
        for value in (2.5, float("inf"), 1.0):
            with pytest.raises(ValueError, match="max_iterations must be an int >= 1"):
                SimplifierConfig(max_iterations=value)

    def test_a_config_cannot_be_changed_past_its_checks(self):
        # an alpha of 5 assigned after the [0, 1] check would invert the ranking
        config = SimplifierConfig(alpha=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.alpha = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_iterations = 0
        assert config == SimplifierConfig(alpha=1.0)


class TestRankSpan:
    def setup_method(self):
        self.table = PhraseTable.from_groups([["big", "large"]])
        self.freq = FrequencyTable({"big": 0.01, "large": 0.001})
        self.lm = LookupScorer({"a big dog .": -2.0, "a large dog .": -1.0})

    def rows(self, lm=None, freq=None):
        norms, span = span_for("a big dog .", self.table)
        # an empty table is falsy, so test for None
        freq = self.freq if freq is None else freq
        return ScoreMemo(lm or self.lm, self.table, freq).rows(norms, span), span

    def rank(self, alpha, lm=None, freq=None):
        rows, span = self.rows(lm, freq)
        return rank_span(rows, span, alpha)

    def test_pure_lm_picks_fluent_candidate(self):
        chosen, _ = self.rank(alpha=1.0)
        assert chosen == ("large",)

    def test_pure_wf_picks_common_candidate(self):
        chosen, _ = self.rank(alpha=0.0)
        assert chosen == ("big",)

    def test_combined_is_weighted_sum(self):
        # at 0.3 "big" is kept, so its ranking builds no candidates; at 0.9 "large" wins
        assert self.rank(alpha=0.3) == (("big",), ())
        _, candidates = self.rank(alpha=0.9)
        assert len(candidates) == 2
        for cand in candidates:
            assert cand.combined == pytest.approx(
                0.9 * cand.lm_score + 0.1 * cand.wf_score, abs=1e-12
            )

    def test_candidate_sentence_is_spliced(self):
        _, candidates = self.rank(alpha=1.0)
        by_term = {c.term: c.candidate_sentence for c in candidates}
        assert by_term[("large",)] == ("a", "large", "dog", ".")
        assert by_term[("big",)] == ("a", "big", "dog", ".")

    def test_wf_scores_the_bare_term(self):
        # at alpha 0.5 "big" is kept, so its scores are read from the rows
        assert self.rank(alpha=0.5) == (("big",), ())
        rows, _ = self.rows()
        by_term = {term: w for term, _, _, w in rows}
        assert by_term[("big",)] == math.log(0.01 + EPSILON)
        assert by_term[("large",)] == math.log(0.001 + EPSILON)

    def test_combined_tie_goes_to_higher_lm(self):
        freq = FrequencyTable({"big": 0.01, "large": 0.01})
        chosen, _ = self.rank(alpha=0.0, freq=freq)
        assert chosen == ("large",)

    def test_full_tie_keeps_smallest_term(self, constant):
        lm = constant(-3.0)
        freq = FrequencyTable({})
        chosen, _ = self.rank(alpha=0.5, lm=lm, freq=freq)
        assert chosen == ("big",)

    def test_exact_ties_through_a_shared_memo_at_two_alphas(self):
        table = PhraseTable.from_groups([["big", "large"], ["ill", "sick"]])
        # one ulp apart: the lm scores differ, yet every combined score below ties
        lm = LookupScorer({
            "a big dog was sick .": -2.0,
            "a large dog was sick .": math.nextafter(-2.0, 0.0),
            "a big dog was ill .": -2.0,
        })
        freq = FrequencyTable({})
        tokens = tokenize("a big dog was sick .")
        norms = tuple(t.norm for t in tokens)
        big, sick = extract_spans(tokens, table)
        memo = ScoreMemo(lm, table, freq)
        big_rows, sick_rows = memo.rows(norms, big), memo.rows(norms, sick)
        for alpha in (0.0, 0.5):
            chosen, candidates = rank_span(big_rows, big, alpha)
            assert candidates[0].combined == candidates[1].combined
            assert candidates[1].lm_score > candidates[0].lm_score
            assert chosen == ("large",)
            chosen, candidates = rank_span(sick_rows, sick, alpha)
            assert candidates[0].lm_score == candidates[1].lm_score
            assert candidates[0].combined == candidates[1].combined
            assert chosen == ("ill",)

    def test_spans_with_one_start_keep_their_own_candidates_in_one_memo(self, constant):
        # rows keyed on the start alone would hand the second span the first one's labels
        table = PhraseTable.from_groups([["a", "x"], ["a b", "y"]])
        memo = ScoreMemo(constant(-1.0), table, FrequencyTable({}))
        for span, terms in [
            (Span(0, 1, 0, ("a",)), [("a",), ("x",)]),
            (Span(0, 2, 1, ("a", "b")), [("a", "b"), ("y",)]),
        ]:
            rows = memo.rows(("a", "b"), span)
            assert [term for term, _, _, _ in rows] == terms
            # every score ties, so the smallest term, the matched text, is kept
            assert rank_span(rows, span, 0.5) == (span.matched, ())



class TestSimplifyOnce:
    def test_applies_winning_substitution(self):
        table = PhraseTable.from_groups([["big", "large"]])
        lm = LookupScorer({"a big dog .": -2.0, "a large dog .": -1.0})
        freq = FrequencyTable({})
        current = pass_input("a big dog .")
        (out, norms, text), reps = simplify_once(current, ScoreMemo(lm, table, freq), SimplifierConfig(alpha=1.0))
        assert [t.text for t in out] == ["a", "large", "dog", "."]
        assert (norms, text) == (("a", "large", "dog", "."), "a large dog .")
        assert len(reps) == 1
        assert reps[0].chosen == ("large",)

    def test_keeps_sentence_when_original_wins(self):
        table = PhraseTable.from_groups([["big", "large"]])
        lm = LookupScorer({"a big dog .": -1.0, "a large dog .": -2.0})
        freq = FrequencyTable({})
        current = pass_input("a big dog .")
        output, reps = simplify_once(current, ScoreMemo(lm, table, freq), SimplifierConfig(alpha=1.0))
        assert reps == []
        # the input record itself comes back
        assert output is current
        assert [t.text for t in output[0]] == ["a", "big", "dog", "."]

    def test_multiple_spans_replaced_in_one_pass(self, constant):
        table = PhraseTable.from_groups([["pyrexia", "fever"], ["otalgia", "earache"]])
        lm = constant(-1.0)
        freq = FrequencyTable({"fever": 0.5, "earache": 0.5, "pyrexia": 1e-9, "otalgia": 1e-9})
        current = pass_input("pyrexia and otalgia .")
        (out, _, text), reps = simplify_once(current, ScoreMemo(lm, table, freq), SimplifierConfig(alpha=0.0))
        assert [t.text for t in out] == ["Fever", "and", "earache", "."]
        assert text == "Fever and earache ."
        assert len(reps) == 2

    def test_sentence_initial_replacement_capitalized(self, constant):
        table = PhraseTable.from_groups([["pyrexia", "fever"]])
        lm = constant(-1.0)
        freq = FrequencyTable({"fever": 0.5, "pyrexia": 1e-9})
        current = pass_input("Pyrexia was noted .")
        (out, _, _), _ = simplify_once(current, ScoreMemo(lm, table, freq), SimplifierConfig(alpha=0.0))
        assert [t.text for t in out] == ["Fever", "was", "noted", "."]

    def test_mid_sentence_replacement_stays_lowercase(self, constant):
        table = PhraseTable.from_groups([["pyrexia", "fever"]])
        lm = constant(-1.0)
        freq = FrequencyTable({"fever": 0.5, "pyrexia": 1e-9})
        current = pass_input("Noted Pyrexia today .")
        (out, _, _), _ = simplify_once(current, ScoreMemo(lm, table, freq), SimplifierConfig(alpha=0.0))
        assert [t.text for t in out] == ["Noted", "fever", "today", "."]

    def test_longer_replacement_shifts_following_tokens(self, constant):
        table = PhraseTable.from_groups([["dyspnoea", "shortness of breath"]])
        lm = constant(-1.0)
        freq = FrequencyTable({"shortness": 0.1, "of": 0.5, "breath": 0.1, "dyspnoea": 1e-9})
        current = pass_input("dyspnoea worse at night .")
        (out, norms, text), _ = simplify_once(current, ScoreMemo(lm, table, freq), SimplifierConfig(alpha=0.0))
        assert [t.text for t in out] == ["Shortness", "of", "breath", "worse", "at", "night", "."]
        assert [t.norm for t in out] == ["shortness", "of", "breath", "worse", "at", "night", "."]
        assert norms == norms_of(out) and text == "Shortness of breath worse at night ."

    def test_spliced_norm_is_taken_after_capitalization(self, constant):
        # "ß".upper() is "SS", so the norm of a capitalized "ß..." is "ss...", as tokenize gives
        table = PhraseTable.from_groups([["pyrexia", "ßfever"]])
        lm = constant(-1.0)
        freq = FrequencyTable({"ßfever": 0.5, "pyrexia": 1e-9})
        current = pass_input("pyrexia .")
        (out, norms, _), _ = simplify_once(current, ScoreMemo(lm, table, freq), SimplifierConfig(alpha=0.0))
        assert out == tuple(tokenize("SSfever ."))
        assert norms == ("ssfever", ".")

    def test_a_caller_cannot_alter_a_stored_output(self, two_stage):
        table, lm, freq = two_stage
        memo = ScoreMemo(lm, table, freq)
        config = SimplifierConfig(alpha=1.0)
        sentence = "Hyperlipidemia with elevated triglycerides ."
        before = simplify(sentence, table, memo, freq, config).to_dict()
        current = pass_input(sentence)
        (out, _, _), _ = simplify_once(current, memo, config)
        kept = tuple(out)
        # a stored output handed out as a list would take both edits
        with contextlib.suppress(TypeError):
            out[0] = Token("Bogus", "bogus")
            out.append(Token("!", "!"))
        (again, _, _), _ = simplify_once(current, memo, config)
        assert again == kept
        assert simplify(sentence, table, memo, freq, config).to_dict() == before

    def test_rank_span_runs_once_per_span_per_pass(self, two_stage, monkeypatch):
        table, lm, freq = two_stage
        calls = []
        rank = plainterm.simplifier.rank_span

        def counted(rows, span, alpha):
            result = rank(rows, span, alpha)
            calls.append((rows, span, result))
            return result

        monkeypatch.setattr(plainterm.simplifier, "rank_span", counted)
        memo = ScoreMemo(lm, table, freq)
        result = simplify("Hyperlipidemia with elevated triglycerides .", table, memo, freq, SimplifierConfig(alpha=1.0))
        assert [len(passes) for passes in result.trace] == [2, 1, 0]
        # every pass input has two spans, so the second pass keeps one and the third both
        assert [len(spans) for spans in memo.spans.values()] == [2, 2, 2]
        held = [(rows, span) for spans in memo.spans.values() for span, rows in spans]
        # one call per span of each pass, on the rows the memo holds for it
        assert len(calls) == len(held) == 6
        assert all(rows is held_rows and span == held_span for (rows, span, _), (held_rows, held_span) in zip(calls, held))
        # candidates are built only for a rewrite, and each such ranking is a Replacement
        assert [(span, *ranked) for _, span, ranked in calls if ranked[1]] == [rep for passes in result.trace for rep in passes]
        assert all(ranked == (span.matched, ()) for _, span, ranked in calls if not ranked[1])
        # a pass that rewrites nothing still ranks each span once, and builds no candidates
        calls.clear()
        current = pass_input(result.final)
        outputs = dict(memo.outputs)
        output, reps = simplify_once(current, memo, SimplifierConfig(alpha=1.0))
        assert output is current and reps == []
        assert memo.outputs == outputs
        assert [(span, ranked) for _, span, ranked in calls] == [(span, (span.matched, ())) for _, span in held[-2:]]


class TestSimplify:
    def test_no_match_returns_original_verbatim(self, constant):
        table = PhraseTable.from_groups([["pyrexia", "fever"]])
        result = simplify(
            "Nothing   to  change", table, constant(-1.0), FrequencyTable({}), SimplifierConfig()
        )
        assert result.final == "Nothing   to  change"
        assert result.iterations == 0
        assert not result.changed
        assert result.trace == [()]

    def test_empty_sentence(self):
        table = PhraseTable.from_groups([["a", "b"]])
        result = simplify("", table, LookupScorer({}), FrequencyTable({}), SimplifierConfig())
        assert result.final == ""
        assert result.iterations == 0
        assert result.trace == []

    def test_two_stage_convergence(self, two_stage):
        table, lm, freq = two_stage
        config = SimplifierConfig(alpha=1.0)
        result = simplify("Hyperlipidemia with elevated triglycerides .", table, lm, freq, config)
        assert result.final == "Excessive fat in blood with high triglycerides ."
        assert result.iterations == 2
        assert [len(passes) for passes in result.trace] == [2, 1, 0]
        assert result.changed

    def test_iteration_cap_stops_early(self, two_stage):
        table, lm, freq = two_stage
        config = SimplifierConfig(alpha=1.0, max_iterations=1)
        result = simplify("Hyperlipidemia with elevated triglycerides .", table, lm, freq, config)
        assert result.final == "Elevated lipids in blood with high triglycerides ."
        assert result.iterations == 1
        assert len(result.trace) == 1

    def test_oscillation_cut_by_cycle_guard(self, oscillator):
        table, lm, freq = oscillator
        result = simplify("x a c .", table, lm, freq, SimplifierConfig(alpha=1.0))
        assert result.iterations == 2
        assert result.final == "x a c ."
        assert not result.changed
        assert [len(passes) for passes in result.trace] == [2, 2]

    def test_converged_run_ends_with_empty_trace_entry(self, two_stage):
        table, lm, freq = two_stage
        result = simplify(
            "Hyperlipidemia with elevated triglycerides .", table, lm, freq, SimplifierConfig(alpha=1.0)
        )
        assert result.trace[-1] == ()

    def test_result_to_dict_shape(self, two_stage):
        table, lm, freq = two_stage
        result = simplify(
            "Hyperlipidemia with elevated triglycerides .", table, lm, freq, SimplifierConfig(alpha=1.0)
        )
        data = result.to_dict()
        assert set(data) == {"original", "final", "iterations", "changed", "trace"}
        first = data["trace"][0][0]
        assert first["span"]["start"] == 0
        assert first["span"]["matched"] == "hyperlipidemia"
        assert first["chosen"] == "elevated lipids in blood"
        terms = {c["term"] for c in first["candidates"]}
        assert terms == {"hyperlipidemia", "elevated lipids in blood", "excessive fat in blood"}
        for cand in first["candidates"]:
            assert set(cand) == {"term", "sentence", "lm", "wf", "combined"}


class TestScoreMemo:
    def run(self, two_stage, lm):
        table, _, freq = two_stage
        return simplify("Hyperlipidemia with elevated triglycerides .", table, lm, freq, SimplifierConfig(alpha=1.0))

    def test_each_row_scored_once_per_call(self, two_stage, counting):
        table, lm, freq = two_stage
        scorer = counting(lm)
        memo = ScoreMemo(scorer, table, freq)
        result = self.run(two_stage, memo)
        assert result.iterations == 2
        # exactly one call per (pass input, span, label) row, for that row's sentence
        held = [rows for spans in memo.spans.values() for _, rows in spans]
        assert sum(scorer.calls.values()) == sum(map(len, held))
        assert scorer.calls == Counter(sent for rows in held for _, sent, _, _ in rows)
        # each span's keep-the-original candidate is the pass input itself,
        # asked for once per span: the first input has two
        assert scorer.calls[tuple(result.original.lower().split())] == 2

    def test_no_score_outlives_a_call(self, two_stage, counting):
        scorer = counting(two_stage[1])
        first = self.run(two_stage, scorer)
        once = dict(scorer.calls)
        assert self.run(two_stage, scorer) == first
        assert scorer.calls == {key: 2 * n for key, n in once.items()}

    def test_a_memo_passed_in_is_used_as_is(self, two_stage, counting):
        table, lm, freq = two_stage
        scorer = counting(lm)
        memo = ScoreMemo(scorer, table, freq)
        first = self.run(two_stage, memo)
        once = dict(scorer.calls)
        assert sum(once.values()) == sum(len(rows) for spans in memo.spans.values() for _, rows in spans)
        assert self.run(two_stage, memo) == first
        assert scorer.calls == once

    def test_a_memo_serves_one_table_and_one_frequency_table(self, two_stage):
        table, lm, freq = two_stage
        memo = ScoreMemo(lm, table, freq)
        first = self.run(two_stage, memo)
        same_groups = PhraseTable.from_groups([[" ".join(label) for label in g.labels] for g in table.groups])
        config = SimplifierConfig(alpha=1.0)
        for call in (
            lambda: simplify(first.original, same_groups, memo, freq, config),
            lambda: simplify(first.original, table, memo, FrequencyTable({}), config),
        ):
            with pytest.raises(ValueError, match="one phrase table and one frequency table"):
                call()
        assert self.run(two_stage, memo) == first


class TestWindowScoring:
    """Around an NgramModel, candidates are rescored only in their changed window."""

    STAGE_INPUT = "Hyperlipidemia with elevated triglycerides ."

    @pytest.fixture
    def runs(self, data_dir, two_stage):
        """An ARPA-loaded model, and (sentence, table, freq) for the pipeline and two-stage inputs."""
        stage_table, stage_lm, stage_freq = two_stage
        with open(data_dir / "pipeline_corpus.txt") as fh:
            corpus = fh.read().splitlines()
        buf = io.StringIO()
        save_arpa(train([*corpus, *stage_lm.scores]), buf)
        model = load_arpa(io.StringIO(buf.getvalue()))
        with open(data_dir / "pipeline_ontology.tsv") as fh:
            table = align(parse_records(fh))
        freq = build_table(corpus)
        with open(data_dir / "pipeline_input.txt") as fh:
            runs = [(line.rstrip("\n"), table, freq) for line in fh]
        return model, [*runs, (self.STAGE_INPUT, stage_table, stage_freq)]

    @pytest.mark.parametrize("alpha", [0.0, 0.7, 1.0])
    def test_window_path_matches_whole_sentence_path(self, runs, counting, alpha):
        model, inputs = runs
        config = SimplifierConfig(alpha=alpha)
        changed = 0
        for sentence, table, freq in inputs:
            window = simplify(sentence, table, model, freq, config)
            # the proxy forwards only score, so every candidate is scored whole
            whole = simplify(sentence, table, counting(model), freq, config)
            assert window.to_dict() == whole.to_dict()
            changed += window.changed
        assert changed

    def test_each_pass_input_scored_whole_once_per_call(self, runs, monkeypatch):
        model, inputs = runs
        calls = []
        logprobs = model.logprobs

        def counted(tokens, pads):
            calls.append((tuple(tokens), pads))
            return logprobs(tokens, pads)

        passes = Counter()
        simplify_once = plainterm.simplifier.simplify_once

        def recorded(current, *args):
            passes[current[1]] += 1
            return simplify_once(current, *args)

        def scored_whole():
            # a base is a pass input with all order - 1 start pads
            return Counter(t for t, pads in calls if t in passes and pads == model.order - 1)

        monkeypatch.setattr(model, "logprobs", counted)
        monkeypatch.setattr(plainterm.simplifier, "simplify_once", recorded)
        _, table, freq = inputs[-1]
        config = SimplifierConfig(alpha=1.0)
        result = simplify(self.STAGE_INPUT, table, model, freq, config)
        first = norms_of(tokenize(self.STAGE_INPUT))
        assert result.iterations >= 1
        # later passes ran, and each took its base from the pass before
        assert len(passes) >= 2 and set(passes.values()) == {1}
        assert scored_whole() == {first: 1}
        # no base outlives its call
        simplify(self.STAGE_INPUT, table, model, freq, config)
        assert scored_whole() == {first: 2}

    def test_windows_with_the_same_words_and_other_start_pads_are_kept_apart(self):
        # at order 3 the window of "b c" spliced at 1 and that of "c" spliced at 2
        # both span "x b c y z": the first after one start pad, the second after none
        model = train(["x b c y z w v m q"], order=3, min_count=1)
        memo = ScoreMemo(model, PhraseTable([]), FrequencyTable({}))
        splices = [
            (("x", "m", "y", "z", "w"), 1, 2, ("b", "c")),
            (("x", "b", "q", "y", "z", "v"), 2, 3, ("c",)),
        ]
        for norms, start, end, label in splices:
            matched = norms[start:end]
            memo.table = PhraseTable([AlternativeGroup(0, (matched, label))])
            rows = memo.rows(norms, Span(start, end, 0, matched))
            (row,) = [row for row in rows if row[0] == label]
            assert row[1] == (*norms[:start], *label, *norms[end:])
            assert row[2] == model.score(row[1])
        # each pass input's base, with two start pads, and the two windows
        bases = {(norms, 2) for norms, *_ in splices}
        assert set(memo.logps) == bases | {(("x", "b", "c", "y", "z"), 1), (("x", "b", "c", "y", "z"), 0)}


class TestRankingFixture:
    """End-to-end ranking over the stored table/scores fixture."""

    EXPECTED = "Patient had multiple heart attacks ."

    @pytest.mark.parametrize("alpha", [0.6, 0.7, 0.9, 1.0])
    def test_fluency_weighted_choice(self, alpha, ranking_table, ranking_lm, ranking_freq):
        result = simplify(
            "Patient had multiple myocardial infarctions .",
            ranking_table,
            ranking_lm,
            ranking_freq,
            SimplifierConfig(alpha=alpha),
        )
        assert result.final == self.EXPECTED
        assert result.iterations == 1

    def test_pure_wf_tie_broken_by_lm(self, ranking_table, ranking_lm, ranking_freq):
        # "heart attack" and "heart attacks" share the exact familiarity score;
        # the higher language-model score decides
        result = simplify(
            "Patient had multiple myocardial infarctions .",
            ranking_table,
            ranking_lm,
            ranking_freq,
            SimplifierConfig(alpha=0.0),
        )
        assert result.final == self.EXPECTED

    def test_all_alternatives_ranked(self, ranking_table, ranking_lm, ranking_freq):
        result = simplify(
            "Patient had multiple myocardial infarctions .",
            ranking_table,
            ranking_lm,
            ranking_freq,
            SimplifierConfig(alpha=0.7),
        )
        assert len(result.trace[0]) == 1
        assert len(result.trace[0][0].candidates) == 5



SPAN = Span(1, 2, 0, ("big",))
CANDIDATE = Candidate(("large",), ("a", "large"), -1.0, -2.5, -1.45)
RECORDS = [
    (Token, ("text", "norm"), ("Big", "big")),
    (Span, ("start", "end", "group_id", "matched"), tuple(SPAN)),
    (Candidate, ("term", "candidate_sentence", "lm_score", "wf_score", "combined"), tuple(CANDIDATE)),
    (Replacement, ("span", "chosen", "candidates"), (SPAN, ("large",), (CANDIDATE,))),
]


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_pass_records_keep_their_contract(cls, fields, values):
    record = cls(*values)
    assert cls._fields == fields
    assert record == cls(**dict(zip(fields, values))) == values
    assert hash(record) == hash(values) and record in {cls(*values)}
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert repr(record) == f"{cls.__name__}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"


class CrcScorer:
    """Pure, deterministic LmScorer whose scores look arbitrary."""

    def score(self, tokens):
        return -(zlib.crc32(" ".join(tokens).encode()) % 1000) / 100.0


# "ß" capitalizes to "SS", so a sentence-initial splice can change its norm
WORDS = ["a", "b", "c", "d", "ß", "e."]
LABELS = st.lists(st.sampled_from(WORDS), min_size=1, max_size=2).map(" ".join)
FREQ = FrequencyTable({"a": 0.3, "b": 0.01, "c": 0.2, "ß": 0.05})


@given(
    labels=st.lists(LABELS, min_size=2, max_size=8, unique_by=normalize_label),
    words=st.lists(st.sampled_from(WORDS + ["x", "A"]), max_size=10),
    sep=st.sampled_from([" ", "  ", " \t"]),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    max_iterations=st.integers(1, 5),
)
def test_simplify_invariants_on_random_tables(labels, words, sep, alpha, max_iterations):
    # labels pair up into groups in order; an odd last label joins the final group
    last_group = len(labels) // 2 - 1
    table = read_table(f"{min(i // 2, last_group)}\t{label}\n" for i, label in enumerate(labels))
    sentence = sep.join(words)
    config = SimplifierConfig(alpha=alpha, max_iterations=max_iterations)
    result = simplify(sentence, table, CrcScorer(), FREQ, config)
    assert len(result.trace) <= max_iterations
    assert result.iterations <= len(result.trace)
    if result.iterations == 0:
        assert result.final == sentence
    if result.trace and result.trace[-1] == ():
        again = simplify(result.final, table, CrcScorer(), FREQ, config)
        assert (again.final, again.iterations) == (result.final, 0)


class ScoreOnly:
    """Forwards only score, so simplify scores every candidate sentence whole."""

    def __init__(self, lm):
        self.lm = lm

    def score(self, tokens):
        return self.lm.score(tokens)


# a sentence-initial "ß" is written "SS", and its norm "ss" is a word of its own here
LM_WORDS = ["b", "c", "ss", "ß", "x", "y"]
LM_LABELS = st.lists(st.sampled_from(LM_WORDS), min_size=1, max_size=2).map(" ".join)


@given(
    corpus=st.lists(st.lists(st.sampled_from(LM_WORDS), min_size=1, max_size=5).map(" ".join), min_size=1, max_size=6),
    order=st.integers(1, 4),
    min_count=st.integers(1, 2),
    labels=st.lists(LM_LABELS, min_size=2, max_size=6, unique_by=normalize_label),
    freq=st.dictionaries(st.sampled_from(LM_WORDS), st.sampled_from([0.001, 0.2, 0.3, 0.5])),
    words=st.lists(st.sampled_from(LM_WORDS), max_size=7),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    max_iterations=st.integers(1, 5),
)
# an output base spliced over rep.chosen, "ß", where the pass wrote "SS", changed this trace
@example(
    corpus=["ss x y", "b x y", "ß x", "c x y ss", "x ss y", "ss ss x"],
    order=3,
    min_count=1,
    labels=["b", "ß", "ss", "c"],
    freq={"ß": 0.5, "b": 0.001, "ss": 0.001, "c": 0.3, "x": 0.2},
    words=["b", "x", "y"],
    alpha=0.5,
    max_iterations=5,
)
def test_carried_bases_and_windows_equal_whole_sentence_scores(
    corpus, order, min_count, labels, freq, words, alpha, max_iterations
):
    # labels pair up into groups in order; an odd last label joins the final group
    last_group = len(labels) // 2 - 1
    table = read_table(f"{min(i // 2, last_group)}\t{label}\n" for i, label in enumerate(labels))
    model = train(corpus, order=order, min_count=min_count)
    config = SimplifierConfig(alpha=alpha, max_iterations=max_iterations)
    sentence, freq = " ".join(words), FrequencyTable(freq)
    window = simplify(sentence, table, model, freq, config)
    whole = simplify(sentence, table, ScoreOnly(model), freq, config)
    assert window.to_dict() == whole.to_dict()


# a few values that tie exactly, including both zeros, mixed with arbitrary ones
SCORES = st.one_of(st.sampled_from([0.0, -0.0, -1.0, -2.5, math.nextafter(-1.0, 0.0)]), st.floats(-50.0, 50.0))


@given(
    scores=st.lists(st.tuples(SCORES, SCORES), min_size=1, max_size=6),
    copies=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=3),
    matched=st.integers(0, 5),
    alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)
def test_rank_span_picks_what_the_candidate_max_picks(scores, copies, matched, alpha):
    # copying one row's scores over another's forces exact ties at every alpha
    for src, dst in copies:
        if max(src, dst) < len(scores):
            scores[dst] = scores[src]
    # terms in label order, so the first row holds the smallest term
    rows = [((f"t{i}",), ("a", f"t{i}", "c"), lm, w) for i, (lm, w) in enumerate(scores)]
    # one row keeps the matched text, so the winner is sometimes kept and sometimes not
    span = Span(1, 2, 0, rows[matched % len(rows)][0])
    # the rule rank_span had when it built every candidate and took their max
    candidates = tuple(Candidate(t, s, lm, w, alpha * lm + (1.0 - alpha) * w) for t, s, lm, w in rows)
    best = max(candidates, key=attrgetter("combined", "lm_score"))
    kept = best.term == span.matched
    assert rank_span(rows, span, alpha) == (best.term, () if kept else candidates)

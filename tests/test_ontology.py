import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plainterm.ontology import (
    AlternativeGroup,
    ConceptRecord,
    PhraseTable,
    align,
    normalize_label,
    parse_records,
    pluralize,
    read_table,
    write_table,
)
from plainterm.textproc import extract_spans, tokenize

from oracles import component_label_sets, naive_plural


def records(stream_text):
    return parse_records(io.StringIO(stream_text))


class TestParseRecords:
    def test_basic(self):
        recs = records("C1\tOtalgia\tsrcA\tP\nC1\tEarache\tsrcB\tA\n")
        assert len(recs) == 2
        assert recs[0].concept_id == "C1"
        assert recs[0].label == "Otalgia"

    def test_comments_and_blanks_skipped(self):
        recs = records("# header\n\nC1\tOtalgia\tsrc\tP\n")
        assert len(recs) == 1

    def test_wrong_column_count(self):
        with pytest.raises(ValueError, match="line 1: expected 4 columns, got 3"):
            records("C1\tOtalgia\tsrc\n")

    def test_bad_flag(self):
        with pytest.raises(ValueError, match="flag must be P or A"):
            records("C1\tOtalgia\tsrc\tX\n")

    def test_empty_concept_id(self):
        with pytest.raises(ValueError, match="line 1"):
            records("\tOtalgia\tsrc\tP\n")

    def test_empty_label(self):
        with pytest.raises(ValueError, match="line 1"):
            records("C1\t  \tsrc\tP\n")


class TestPluralize:
    def test_y_to_ies(self):
        assert pluralize("allergy") == "allergies"

    def test_sibilant_es(self):
        for w in ("rash", "reflux", "abscess", "stitch", "buzz"):
            assert pluralize(w).endswith("es")

    def test_default_s(self):
        assert pluralize("symptom") == "symptoms"

    def test_matches_oracle(self):
        for w in ("injury", "box", "branch", "wish", "mass", "fizz", "arm", "toe"):
            assert pluralize(w) == naive_plural(w)


class TestAlign:
    def test_shared_label_merges_concepts(self):
        recs = records(
            "C1\tOtalgia\ta\tP\n"
            "C1\tEarache\ta\tA\n"
            "C2\tOtalgia\tb\tP\n"
            "C2\tEar pain\tb\tA\n"
        )
        groups = align(recs, expand_plurals=False).groups
        assert len(groups) == 1
        assert set(groups[0].labels) == {("otalgia",), ("earache",), ("ear", "pain")}

    def test_singleton_concept_dropped(self):
        recs = records("C1\tOtalgia\ta\tP\nC2\tFever\tb\tP\nC2\tPyrexia\tb\tA\n")
        groups = align(recs, expand_plurals=False).groups
        assert len(groups) == 1
        assert ("otalgia",) not in groups[0].labels

    def test_plural_variant_added(self):
        recs = records("C1\tHeart attack\ta\tP\nC1\tMyocardial infarction\ta\tA\n")
        groups = align(recs).groups
        labels = set(groups[0].labels)
        assert ("heart", "attacks") in labels
        assert ("myocardial", "infarctions") in labels

    def test_plural_collision_merges(self):
        # "studies" is the generated plural of C1's label and a literal label of C2
        recs = records(
            "C1\tStudy\ta\tP\nC1\tTrial\ta\tA\nC2\tStudies\tb\tP\nC2\tInvestigations\tb\tA\n"
        )
        groups = align(recs).groups
        assert len(groups) == 1

    def test_no_plural_for_nonalpha_head(self):
        recs = records("C1\ttype 2\ta\tP\nC1\tsecond type\ta\tA\n")
        groups = align(recs).groups
        heads = {lab[-1] for lab in groups[0].labels}
        assert "2s" not in heads

    def test_blank_label_joins_no_group(self):
        # parse_records refuses a blank label, but a record built by hand can carry
        # one; kept, the two blanks would put concept a, the smallest id, in b's group
        recs = [ConceptRecord("a", " "), ConceptRecord("b", "x"), ConceptRecord("b", "\t"), ConceptRecord("b", "y")]
        assert align(recs, expand_plurals=False).groups == [AlternativeGroup(0, (("x",), ("y",)))]

    def test_group_ids_dense_and_ordered(self):
        recs = records(
            "C9\tZeta\ta\tP\nC9\tZed\ta\tA\n"
            "C1\tAlpha\ta\tP\nC1\tAy\ta\tA\n"
        )
        groups = align(recs).groups
        assert [g.group_id for g in groups] == [0, 1]
        # ordered by smallest member concept id, not input order
        assert ("alpha",) in groups[0].labels
        assert ("zeta",) in groups[1].labels

    def test_order_independent(self):
        text = (
            "C2\tPyrexia\ta\tP\nC2\tFever\ta\tA\n"
            "C1\tOtalgia\tb\tP\nC1\tEarache\tb\tA\n"
        )
        forward = align(records(text)).groups
        reversed_lines = "".join(
            line + "\n" for line in reversed(text.strip().split("\n"))
        )
        backward = align(records(reversed_lines)).groups
        assert forward == backward

    def test_matches_component_oracle(self):
        rng = random.Random(73)
        words = [chr(97 + i) * 2 for i in range(14)]
        for _ in range(200):
            pairs = []
            for cid in range(rng.randint(1, 8)):
                for _ in range(rng.randint(1, 4)):
                    pairs.append((cid, " ".join(rng.choices(words, k=rng.randint(1, 2)))))
            lines = "".join(f"C{cid}\t{text}\ts\tA\n" for cid, text in pairs)
            groups = align(records(lines)).groups
            got = {frozenset(g.labels) for g in groups}
            want = component_label_sets(pairs, expand_plurals=True)
            assert got == want
            # group ids are dense and follow each group's smallest concept id
            smallest = [min(cid for cid, text in pairs if tuple(text.split()) in g.labels) for g in groups]
            assert [g.group_id for g in groups] == list(range(len(groups)))
            assert smallest == sorted(smallest)


class TestPhraseTable:
    def test_lookup(self):
        table = PhraseTable.from_groups([["otalgia", "earache"], ["pyrexia", "fever"]])
        assert table.lookup(("otalgia",)) == 0
        assert table.lookup(("fever",)) == 1
        assert table.lookup(("unknown",)) is None

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError, match="more than one group"):
            PhraseTable.from_groups([["a", "b"], ["b", "c"]])

    def test_bare_constructor_rejects_a_label_in_two_groups(self):
        # the only check for a table built outside read_table, from_groups and align
        groups = [AlternativeGroup(0, (("a",), ("b",))), AlternativeGroup(1, (("b",), ("c",)))]
        with pytest.raises(ValueError) as err:
            PhraseTable(groups)
        assert str(err.value) == "label 'b' appears in more than one group"

    @pytest.mark.parametrize("labels", [["", "big"], ["big", " "], ["big", "large", "\t"]])
    def test_from_groups_rejects_an_empty_label(self, labels):
        with pytest.raises(ValueError) as err:
            PhraseTable.from_groups([["a", "b"], labels])
        assert str(err.value) == "group 1: empty label"

    @pytest.mark.parametrize(
        "groups, message",
        [
            ([["a", "b"], ["b", "c"]], "group 1: label 'b' appears in more than one group"),
            ([["a", "b"], ["c", "C"]], "group 1: group 1 has fewer than 2 labels"),
            ([["a", "b"], []], "group 1: no labels"),
        ],
    )
    def test_from_groups_errors_name_a_group(self, groups, message):
        with pytest.raises(ValueError) as err:
            PhraseTable.from_groups(groups)
        assert str(err.value) == message

    def test_from_groups_labels_hold_one_str_per_word(self):
        groups = [["heart attack", "myocardial infarction"], ["Heart Failure,", "cardiac failure"]]
        table = PhraseTable.from_groups(groups)
        canon = {}
        labels = [*table.index, *(label for group in table.groups for label in group.labels)]
        assert all(canon.setdefault(w, w) is w for label in labels for w in label)

    def test_max_label_len(self):
        table = PhraseTable.from_groups([["otalgia", "shortness of breath"]])
        assert table.max_label_len() == 3

    def test_max_label_len_of_empty_table(self):
        assert PhraseTable([]).max_label_len() == 0

    def test_round_trip(self):
        table = PhraseTable.from_groups(
            [["otalgia", "earache"], ["shortness of breath", "dyspnoea"]]
        )
        buf = io.StringIO()
        write_table(table, buf)
        buf.seek(0)
        again = read_table(buf)
        assert again.groups == table.groups

    def test_read_rejects_singleton_group(self):
        with pytest.raises(ValueError, match="fewer than 2"):
            read_table(io.StringIO("0\tonly one\n"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0\ta\n0\tb\n# c\n1\tc\n1\tb\n", "line 5: label 'b' appears in more than one group"),
            ("0\ta\n0\tb\n\n1\tc\n1\tc\n", "line 4: group 1 has fewer than 2 labels"),
            ("0\ta\n0\tHeart Attack\n1\theart attack\n1\tc\n", "line 3: label 'heart attack' appears in more than one group"),
        ],
    )
    def test_read_group_errors_name_a_line(self, text, message):
        with pytest.raises(ValueError) as err:
            read_table(io.StringIO(text))
        assert str(err.value) == message

    def test_read_normalizes_hand_written_labels(self):
        table = read_table(io.StringIO("0\tHeart attack\n0\tmyocardial infarction\n"))
        assert table.groups[0].labels == (("heart", "attack"), ("myocardial", "infarction"))
        spans = extract_spans(tokenize("Heart attack ."), table)
        assert [(s.start, s.end, s.group_id) for s in spans] == [(0, 2, 0)]

    def test_read_labels_hold_one_str_per_word(self):
        # multi-letter words, read through both normalize_label paths
        text = "0\theart attack\n0\tmyocardial infarction\n1\tHeart Failure,\n1\tcardiac failure\n"
        table = read_table(io.StringIO(text))
        canon = {}
        labels = [*table.index, *(label for group in table.groups for label in group.labels)]
        assert all(canon.setdefault(w, w) is w for label in labels for w in label)

    def test_read_rejects_bad_group_id(self):
        with pytest.raises(ValueError, match="line 1"):
            read_table(io.StringIO("x\tlabel\n"))

    def test_read_takes_each_group_id_in_one_spelling(self):
        # int() alone would read "1_0" as group 10 and merge it with "10"
        rows = ["1_0\tfever", "10\tpyrexia", " 2 \theart attack", "\u0662\tmyocardial infarction"]
        with pytest.raises(ValueError) as err:
            read_table(rows)
        assert str(err.value) == "line 1: bad group id '1_0'"
        table = read_table(["10\tfever", " 10 \tpyrexia", "-1\theart attack", "-1\tmyocardial infarction"])
        assert [group.group_id for group in table.groups] == [-1, 10]

    def test_normalize_label_splits_punct(self):
        assert normalize_label("Heart attack,") == ("heart", "attack", ",")
        assert normalize_label("  Shortness  of Breath ") == ("shortness", "of", "breath")


# letters with and without case (incl. non-ASCII and final sigma), digits,
# punctuation, underscore and whitespace other than a plain space
LABEL_CHARS = "abzAZ09 _-.,'()/\u00e9\u00c9\u00df\u03a3\u03c3\u03c2\u0130\u0131\u01c5\u00b2\u0301\u00a0\u2003\x0b\x1c\t"


@settings(max_examples=500)
@given(text=st.one_of(st.text(alphabet=LABEL_CHARS, max_size=20), st.text(max_size=20)))
def test_table_label_fast_path_equals_normalize_label(text):
    assert normalize_label(text) == tuple(t.norm for t in tokenize(text))

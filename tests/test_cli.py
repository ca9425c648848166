import contextlib
import io
import json
import logging
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_golden import run_all

import plainterm
from plainterm.cli import _parse_grid, main
from plainterm.ngram_lm import load_arpa
from plainterm.wordfreq import build_table

DATA = pathlib.Path(__file__).parent / "data"


def run(argv):
    return main(argv)


class TestBuildTable:
    def test_writes_merged_groups(self, data_dir, capsys):
        assert run(["build-table", str(data_dir / "otalgia_ontology.tsv"), "--no-plural-variants"]) == 0
        out = capsys.readouterr().out
        assert out == ("0\tear pain\n0\tearache\n0\totalgia\n0\tpain in ear\n")

    def test_plural_variants_added_by_default(self, data_dir, capsys):
        assert run(["build-table", str(data_dir / "otalgia_ontology.tsv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        assert "0\totalgias" in lines
        assert "0\tear pains" in lines

    def test_output_file(self, data_dir, tmp_path):
        target = tmp_path / "table.tsv"
        assert run(["build-table", str(data_dir / "otalgia_ontology.tsv"), "-o", str(target)]) == 0
        assert target.read_text().startswith("0\t")

    def test_missing_input_exits_1(self, tmp_path, capsys):
        assert run(["build-table", str(tmp_path / "nope.tsv")]) == 1
        assert "error:" in capsys.readouterr().err


class TestTrainLm:
    def test_writes_loadable_arpa(self, data_dir, tmp_path):
        target = tmp_path / "model.arpa"
        assert run(["train-lm", str(data_dir / "pipeline_corpus.txt"), "-o", str(target)]) == 0
        with open(target) as fh:
            model = load_arpa(fh)
        assert model.order == 3
        assert "<unk>" in model.vocab

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--discount", "2.0"], "discount must be in (0, 1), got 2.0"),
            (["--discount", "1.5"], "discount must be in (0, 1), got 1.5"),
            (["--order", "0"], "order must be in [1, 10], got 0"),
            (["--order", "11"], "order must be in [1, 10], got 11"),
            (["--min-count", "0"], "min_count must be >= 1, got 0"),
        ],
        ids=["discount-2.0", "discount-1.5", "order-0", "order-11", "min-count-0"],
    )
    def test_bad_setting_is_usage_error_before_any_load(self, tmp_path, capsys, flag, message):
        # reading the missing corpus would exit 1
        assert run(["train-lm", str(tmp_path / "missing.txt"), *flag]) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"


class TestSimplify:
    def simplify_args(self, data_dir, extra=()):
        return [
            "simplify",
            "--input", str(data_dir / "ranking_input.txt"),
            "--table", str(data_dir / "ranking_table.tsv"),
            "--lm", str(data_dir / "ranking_lm.tsv"),
            "--freq", str(data_dir / "ranking_freq.tsv"),
            *extra,
        ]

    def test_writes_result_rows(self, data_dir, capsys):
        assert run(self.simplify_args(data_dir)) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "Patient had multiple myocardial infarctions .\t"
            "Patient had multiple heart attacks .\t1\n"
        )
        assert "simplified 1 sentences: 1 changed" in captured.err

    def test_trace_json(self, data_dir, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert run(self.simplify_args(data_dir, ["--trace", str(trace)])) == 0
        capsys.readouterr()
        data = json.loads(trace.read_text())
        sent = data["sentences"][0]
        assert sent["iterations"] == 1
        assert sent["changed"] is True
        first_pass = sent["trace"][0]
        assert len(first_pass) == 1
        assert len(first_pass[0]["candidates"]) == 5
        assert first_pass[0]["chosen"] == "heart attacks"

    def test_empty_input(self, data_dir, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        args = self.simplify_args(data_dir)
        args[args.index("--input") + 1] = str(empty)
        assert run(args) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "simplified 0 sentences" in captured.err

    def test_full_pipeline_matches_golden(self, data_dir, tmp_path, capsys):
        table = tmp_path / "table.tsv"
        arpa = tmp_path / "model.arpa"
        freq = tmp_path / "freq.tsv"
        out = tmp_path / "out.tsv"
        assert run(["build-table", str(data_dir / "pipeline_ontology.tsv"), "-o", str(table)]) == 0
        assert run(["train-lm", str(data_dir / "pipeline_corpus.txt"), "-o", str(arpa)]) == 0
        with open(data_dir / "pipeline_corpus.txt") as fh:
            freq_table = build_table(fh)
        freq.write_text("".join(f"{w}\t{p!r}\n" for w, p in sorted(freq_table.items())))
        code = run(
            [
                "simplify",
                "--input", str(data_dir / "pipeline_input.txt"),
                "--table", str(table),
                "--lm", str(arpa),
                "--freq", str(freq),
                "-o", str(out),
            ]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert out.read_text() == (data_dir / "pipeline_golden.tsv").read_text()
        assert "simplified 4 sentences: 3 changed, iterations mean=0.75 median=1\n" in err

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--alpha", "1.5"], "alpha must be in [0, 1], got 1.5"),
            (["--alpha", "nan"], "alpha must be in [0, 1], got nan"),
            (["--max-iterations", "0"], "max_iterations must be >= 1"),
        ],
    )
    def test_bad_setting_is_usage_error_before_any_load(self, data_dir, tmp_path, capsys, flag, message):
        # loading the missing LM would exit 1
        args = self.simplify_args(data_dir, flag)
        args[args.index("--lm") + 1] = str(tmp_path / "missing.arpa")
        assert run(args) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_model_deeper_than_the_recursion_limit(self, data_dir, deep_arpa, capsys):
        args = self.simplify_args(data_dir)
        args[args.index("--lm") + 1] = str(deep_arpa)
        assert run(args) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("Patient had multiple myocardial infarctions .\t")
        assert "Traceback" not in captured.err

    def test_tab_in_input_exits_1(self, data_dir, tmp_path, capsys):
        # an unchanged sentence is copied verbatim, so its tab would add output columns
        source = tmp_path / "input.txt"
        source.write_text("plain text .\nkeep\tthis .\n")
        args = self.simplify_args(data_dir)
        args[args.index("--input") + 1] = str(source)
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 2: ")

    @pytest.mark.parametrize(
        "lm, message",
        [
            ("ranking_lm.tsv", "no stored score for 'patient had two heart attack .'"),
            ("unigram.arpa", "word 'patient' not in model vocabulary and model has no <unk>"),
        ],
    )
    def test_unscorable_sentence_names_its_line(self, data_dir, tmp_path, capsys, lm, message):
        # line 1 has no match, so nothing in it is scored
        source = tmp_path / "input.txt"
        source.write_text("plain text .\nPatient had two myocardial infarctions .\n")
        args = self.simplify_args(data_dir)
        args[args.index("--input") + 1] = str(source)
        args[args.index("--lm") + 1] = str(data_dir / lm)
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 2: {message}\n"


class TestEvaluate:
    def write_sentences(self, tmp_path):
        sources = tmp_path / "sources.txt"
        outputs = tmp_path / "outputs.txt"
        references = tmp_path / "references.txt"
        sources.write_text("foo .\nthe cat sat .\n")
        outputs.write_text("bar .\nthe cat sat .\n")
        references.write_text("bar .\nthe cat sat .\n")
        return sources, outputs, references

    def write_judgments(self, tmp_path):
        judgments = tmp_path / "judgments.csv"
        judgments.write_text(
            "sentence_id,system_id,category\n"
            "s1,a,S\ns2,a,S\ns3,a,F\ns4,a,E\n"
            "s1,b,F\ns2,b,F\ns3,b,S\ns4,b,N\n"
        )
        unchanged = tmp_path / "unchanged.csv"
        unchanged.write_text("s5,a\n")
        return judgments, unchanged

    def test_bleu_and_sari(self, tmp_path, capsys):
        sources, outputs, references = self.write_sentences(tmp_path)
        code = run(
            [
                "evaluate",
                "--sources", str(sources),
                "--outputs", str(outputs),
                "--references", str(references),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # outputs equal the references, so BLEU is exact; mean SARI covers one
        # perfect rewrite and one identity pair
        assert "BLEU\t100.00" in out
        sari_line = [l for l in out.splitlines() if l.startswith("SARI")][0]
        mean_sari = (125.0 / 3 + 100.0 / 3) / 2
        assert sari_line == f"SARI\t{mean_sari:.2f}"

    def test_judgment_report_with_compare(self, tmp_path, capsys):
        judgments, unchanged = self.write_judgments(tmp_path)
        code = run(
            [
                "evaluate",
                "--judgments", str(judgments),
                "--unchanged", str(unchanged),
                "--replications", "7",
                "--format", "tsv",
                "--compare", "a", "b",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "a\t2\t1\t1\t0\t7\t0.09" in out
        assert "b\t1\t2\t0\t1\t0\t-0.25" in out
        assert "p-value(a vs b)\t" in out

    def test_published_judgment_tables(self, tmp_path, capsys):
        # S/F/E/N tallies and unchanged pairs as published; U is the pairs times 7
        published = {
            "human": ((1730, 273, 904, 40), 579, "4053", "0.21"),
            "ngram": ((1452, 1004, 1732, 110), 386, "2702", "0.06"),
            "gpt1": ((1404, 747, 1736, 117), 428, "2996", "0.09"),
        }
        judgments, unchanged = tmp_path / "judgments.csv", tmp_path / "unchanged.csv"
        judgment_rows, unchanged_rows = ["sentence_id,system_id,category"], []
        for system, (tallies, pairs, _, _) in published.items():
            for category, count in zip("SFEN", tallies):
                judgment_rows += [f"s{i},{system},{category}" for i in range(count)]
            unchanged_rows += [f"u{i},{system}" for i in range(pairs)]
        judgments.write_text("\n".join(judgment_rows) + "\n")
        unchanged.write_text("\n".join(unchanged_rows) + "\n")
        argv = ["evaluate", "--judgments", str(judgments), "--unchanged", str(unchanged)]
        assert run([*argv, "--compare", "human", "ngram"]) == 0
        header, *table, p_value = capsys.readouterr().out.splitlines()
        assert header.split() == ["system", "S", "F", "E", "N", "U", "SG"]
        assert sorted(row.split() for row in table) == sorted(
            [system, *map(str, tallies), u, sg] for system, (tallies, _, u, sg) in published.items()
        )
        assert p_value.startswith("p-value(human vs ngram)\t")

    def test_compare_unknown_system(self, tmp_path, capsys):
        judgments, _ = self.write_judgments(tmp_path)
        code = run(["evaluate", "--judgments", str(judgments), "--compare", "a", "zz"])
        assert code == 1
        assert "not present" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--iterations", "999"], "iterations must be in [1000, 1000000], got 999"),
            (["--iterations", "1000001"], "iterations must be in [1000, 1000000], got 1000001"),
            (["--replications", "0"], "replications must be >= 1, got 0"),
        ],
        ids=["iterations-999", "iterations-1000001", "replications-0"],
    )
    def test_bad_setting_is_usage_error_before_any_load(self, tmp_path, capsys, flag, message):
        # reading the missing judgments would exit 1
        argv = ["evaluate", "--judgments", str(tmp_path / "missing.csv"), "--compare", "a", "b"]
        assert run([*argv, *flag]) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_selector_without_inputs_is_usage_error(self, capsys):
        assert run(["evaluate", "--bleu"]) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, given, message",
        [
            ("--bleu", ["--outputs"], "--bleu needs --outputs and --references"),
            ("--sari", ["--outputs", "--references"], "--sari needs --outputs, --sources and --references"),
            ("--sari", ["--outputs", "--sources"], "--sari needs --outputs, --sources and --references"),
            ("--sg", ["--outputs", "--references"], "--sg needs --judgments"),
        ],
    )
    def test_metric_flag_names_its_missing_inputs(self, tmp_path, capsys, flag, given, message):
        sources, outputs, references = self.write_sentences(tmp_path)
        files = {"--sources": sources, "--outputs": outputs, "--references": references}
        argv = ["evaluate", flag]
        for name in given:
            argv += [name, str(files[name])]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_bleu_flag_computes_only_bleu(self, tmp_path, capsys):
        sources, outputs, references = self.write_sentences(tmp_path)
        argv = ["evaluate", "--bleu", "--sources", str(sources), "--outputs", str(outputs)]
        assert run(argv + ["--references", str(references)]) == 0
        assert capsys.readouterr().out == "BLEU\t100.00\n"

    def test_no_inputs_at_all(self, capsys):
        assert run(["evaluate"]) == 2
        assert "nothing to evaluate" in capsys.readouterr().err


class TestTune:
    def tune_args(self, data_dir, extra=()):
        return [
            "tune",
            "--dev", str(data_dir / "tune_dev.tsv"),
            "--table", str(data_dir / "tune_table.tsv"),
            "--lm", str(data_dir / "tune_lm.tsv"),
            "--freq", str(data_dir / "tune_freq.tsv"),
            *extra,
        ]

    def test_default_grid_curve(self, data_dir, capsys):
        assert run(self.tune_args(data_dir)) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "alpha\tsari"
        assert len(lines) == 30
        assert "0.45\t5.555556" in lines
        assert "0.50\t41.666667" in lines
        assert "best alpha: 0.50 (sari 41.6667)" in captured.err

    def test_explicit_grid(self, data_dir, capsys):
        assert run(self.tune_args(data_dir, ["--grid", "0:1:0.5"])) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["0.00\t5.555556", "0.50\t41.666667", "1.00\t41.666667"]

    def test_comma_grid(self, data_dir, capsys):
        assert run(self.tune_args(data_dir, ["--grid", "0.2,0.8"])) == 0
        captured = capsys.readouterr()
        assert "best alpha: 0.80" in captured.err

    @pytest.mark.parametrize(
        "spec, want",
        [
            ("0:1:0.5", "[0.0, 0.5, 1.0]"),
            (
                "0:1:0.05",
                "[0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, "
                "0.75, 0.8, 0.85, 0.9, 0.95, 1.0]",
            ),
            ("0.9:1:0.01", "[0.9, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99, 1.0]"),
        ],
    )
    def test_range_grid_is_pinned(self, spec, want):
        assert repr(_parse_grid(spec)) == want

    def test_bad_grid_is_usage_error(self, data_dir, capsys):
        specs = ("zero:one:half", "", ",", "0:1:nan", "nan:1:0.1", "0:inf:0.1", "0:nan:0.1")
        # a range must lie in [0, 1] with a step of at least 0.01, so no spec can make points without end
        specs += ("0:1:1e-300", "0:1e300:1", "0:1:-0.1", "0:1.5:0.1", "0:1:0.005", "0:1:inf", "1:0:0.1")
        for spec in specs:
            assert run(self.tune_args(data_dir, ["--grid", spec])) == 2
            assert f"bad grid spec {spec!r}" in capsys.readouterr().err

    def test_grid_point_finer_than_printed_is_usage_error(self, data_dir, tmp_path, capsys):
        args = self.tune_args(data_dir, ["--grid", "0.5,0.504,0.925"])
        args[args.index("--lm") + 1] = str(tmp_path / "missing.tsv")
        assert run(args) == 2
        assert capsys.readouterr().err == "usage error: grid point 0.504 has more than 2 decimals\n"

    def test_negative_zero_grid_point_reads_as_zero(self, data_dir, capsys):
        assert run(self.tune_args(data_dir, ["--grid=-0,0.5"])) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["0.00\t5.555556", "0.50\t41.666667"]
        assert repr(_parse_grid("-0,0.5")) == "[0.0, 0.5]"

    @pytest.mark.parametrize("spec, point", [("0.5,0.5", "0.5"), ("0.2,0.5,0.2", "0.2"), ("0,-0", "0.0")])
    def test_repeated_grid_point_is_usage_error_before_any_load(self, data_dir, tmp_path, capsys, spec, point):
        args = self.tune_args(data_dir, [f"--grid={spec}"])
        args[args.index("--lm") + 1] = str(tmp_path / "missing.tsv")
        assert run(args) == 2
        assert capsys.readouterr().err == f"usage error: grid point {point} repeats\n"

    @pytest.mark.parametrize(
        "lm, message",
        [
            (None, "no stored score for 'the bar was high'"),
            ("arpa", "word 'high' not in model vocabulary and model has no <unk>"),
        ],
    )
    def test_unscorable_pair_names_its_line(self, data_dir, tmp_path, capsys, lm, message):
        # the failing pair is the second pair but sits on line 4, after a comment and a blank line
        dev = tmp_path / "dev.tsv"
        dev.write_text("foo .\tbar .\n# a comment\n\nthe bar was high\tthe x was high\n")
        args = self.tune_args(data_dir)
        args[args.index("--dev") + 1] = str(dev)
        if lm == "arpa":
            arpa = tmp_path / "lm.arpa"
            # no <unk>, and no "high"
            unigrams = "".join(f"-0.5\t{word}\n" for word in ("foo", "bar", ".", "the", "was"))
            arpa.write_text(f"\\data\\\nngram 1=5\n\n\\1-grams:\n{unigrams}\n\\end\\\n")
            args[args.index("--lm") + 1] = str(arpa)
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 4: {message}\n"

    @pytest.mark.parametrize("spec, bad", [("0.5,1.5", "1.5"), ("0.5,nan", "nan")])
    def test_out_of_range_alpha_is_usage_error_before_any_load(self, data_dir, tmp_path, capsys, spec, bad):
        args = self.tune_args(data_dir, ["--grid", spec])
        args[args.index("--lm") + 1] = str(tmp_path / "missing.tsv")
        assert run(args) == 2
        assert capsys.readouterr().err == f"usage error: alpha must be in [0, 1], got {bad}\n"


# every file input of every command: (command, flag), where None is the positional input
FILE_INPUTS = [
    ("build-table", None),
    ("train-lm", None),
    *(("simplify", flag) for flag in ("--input", "--table", "--lm", "--freq")),
    *(("evaluate", flag) for flag in ("--outputs", "--sources", "--references", "--judgments", "--unchanged")),
    *(("tune", flag) for flag in ("--dev", "--table", "--lm", "--freq")),
]


def file_argv(command, tmp_path):
    """argv that runs command on valid files, each named by its flag in FILE_INPUTS."""
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("the cat sat .\n")
    # the headers make a leading byte-order mark visible: a misread header is a data row
    judgments = tmp_path / "judgments.csv"
    judgments.write_text("sentence_id,system_id,category\ns1,a,S\ns2,a,F\ns1,b,E\n")
    unchanged = tmp_path / "unchanged.csv"
    unchanged.write_text("sentence_id,system_id\ns3,a\n")
    d = DATA
    argv = {
        "build-table": ["build-table", d / "otalgia_ontology.tsv"],
        "train-lm": ["train-lm", d / "pipeline_corpus.txt"],
        "simplify": [
            "simplify", "--input", d / "ranking_input.txt", "--table", d / "ranking_table.tsv",
            "--lm", d / "ranking_lm.tsv", "--freq", d / "ranking_freq.tsv",
        ],
        "evaluate": [
            "evaluate", "--outputs", sentences, "--sources", sentences, "--references", sentences,
            "--judgments", judgments, "--unchanged", unchanged,
        ],
        "tune": [
            "tune", "--dev", d / "tune_dev.tsv", "--table", d / "tune_table.tsv",
            "--lm", d / "tune_lm.tsv", "--freq", d / "tune_freq.tsv",
        ],
    }[command]
    return [str(arg) for arg in argv]


def replace_input(argv, flag, path):
    """Point flag's file input at path; return the path it named before."""
    at = argv.index(flag) + 1 if flag else 1
    argv[at], old = str(path), argv[at]
    return pathlib.Path(old)


class TestUndecodableInput:
    @pytest.mark.parametrize("command, flag", FILE_INPUTS)
    def test_bad_byte_names_its_line(self, tmp_path, capsys, command, flag):
        # every loader skips lines of spaces; 1500 of them put the bad byte
        # past the text layer's first decode chunk, and a lone CR ends a line
        # in text mode as LF does
        bad = tmp_path / "bad.txt"
        bad.write_bytes((b" " * 20 + b"\r") * 750 + (b" " * 20 + b"\n") * 750 + b"\xff\n")
        argv = file_argv(command, tmp_path)
        replace_input(argv, flag, bad)
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: line 1501: not valid UTF-8: invalid start byte\n"

    @pytest.mark.parametrize("command, flag", FILE_INPUTS)
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, command, flag):
        argv = file_argv(command, tmp_path)
        assert run(argv) == 0
        want = capsys.readouterr()
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + replace_input(argv, flag, marked).read_bytes())
        assert run(argv) == 0
        assert capsys.readouterr() == want


# each command's numeric flags, each with the extreme values its type parses
INT_EXTREMES = ["-1", "0", "10000000000000000000"]
FLOAT_EXTREMES = [*INT_EXTREMES, "5e-324", "1e19", "nan", "inf"]
NUMERIC_FLAGS = {
    "build-table": {},
    "train-lm": {"--order": INT_EXTREMES, "--discount": FLOAT_EXTREMES, "--min-count": INT_EXTREMES},
    "simplify": {"--alpha": FLOAT_EXTREMES, "--max-iterations": INT_EXTREMES},
    "evaluate": {"--replications": INT_EXTREMES, "--iterations": INT_EXTREMES, "--seed": INT_EXTREMES},
    "tune": {"--max-iterations": INT_EXTREMES, "--grid": FLOAT_EXTREMES},
}
BYTE_VARIANTS = {
    "as-is": lambda data: data,
    "bom": lambda data: b"\xef\xbb\xbf" + data,
    "bad-byte": lambda data: data + b"\xff\n",
    "cr": lambda data: data.replace(b"\n", b"\r"),
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
}


@st.composite
def command_lines(draw):
    """(command, flag args, {file flag: byte variant}) with at most two numeric flags set.

    A file flag left out of the variants is read as-is.
    """
    command = draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    numeric = NUMERIC_FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(numeric)), max_size=2, unique=True)) if numeric else []
    flag_args = [arg for flag in chosen for arg in (flag, draw(st.sampled_from(numeric[flag])))]
    flags = [flag for name, flag in FILE_INPUTS if name == command]
    variants = {flag: draw(st.sampled_from(sorted(BYTE_VARIANTS))) for flag in flags}
    return command, flag_args, variants


@example(("evaluate", ["--seed", "-1"], {}))
@example(("evaluate", ["--replications", "10000000000000000000"], {}))
@example(("train-lm", ["--discount", "5e-324"], {}))
@given(command_lines())
def test_every_run_ends_in_one_line(case):
    """Flags are checked before any file is read, and every run ends in one line of stderr.

    A run is made twice: once with every file input missing, and once with
    the files in their drawn byte variants. Refused flags must give the same
    usage error both times. Accepted flags must not fail the second run,
    which ends in exit 0 unless a file holds an undecodable byte.
    """
    command, flag_args, variants = case
    if command == "evaluate":
        # the bootstrap p-value is what reads --iterations and --seed
        flag_args = [*flag_args, "--compare", "a", "b"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        argv = file_argv(command, tmp)
        missing = list(argv)
        for number, (name, flag) in enumerate(FILE_INPUTS):
            if name == command:
                replace_input(missing, flag, tmp / "missing")
                path = tmp / f"input{number}"
                data = replace_input(argv, flag, path).read_bytes()
                path.write_bytes(BYTE_VARIANTS[variants.get(flag, "as-is")](data))
        results = run_all({"missing": {"argv": missing + flag_args}, "files": {"argv": argv + flag_args}}, tmp)
    (first, first_streams), (code, streams) = results["missing"], results["files"]
    for exit_code, err in ((first, first_streams["stderr"]), (code, streams["stderr"])):
        assert exit_code in (0, 1, 2)
        assert "Traceback" not in err
        # nothing, or one line ended by a newline
        assert err == "" or (err.count("\n") == 1 and err.endswith("\n"))
        assert exit_code == 0 or err
    if first == 2:
        assert (code, streams["stderr"]) == (2, first_streams["stderr"])
    else:
        assert first == 1 and first_streams["stderr"].startswith("error: [Errno 2] No such file")
        if "bad-byte" in variants.values():
            assert code == 1 and re.match(r"error: line \d+: not valid UTF-8: ", streams["stderr"])
        else:
            assert code == 0, streams["stderr"]


class TestEntryPoints:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["not-a-command"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_out_of_memory_ends_in_one_line(self, data_dir, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(plainterm.cli, "cmd_build_table", exhausted)
        assert run(["build-table", str(data_dir / "otalgia_ontology.tsv")]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_each_call_writes_its_summary_to_its_own_stderr(self, data_dir, tmp_path):
        root = logging.getLogger()
        before = root.level, list(root.handlers)
        table = ["build-table", str(data_dir / "pipeline_ontology.tsv"), "-o", str(tmp_path / "table.tsv")]
        model = ["train-lm", str(data_dir / "pipeline_corpus.txt"), "-o", str(tmp_path / "model.arpa")]
        for argv, summary in [
            (table, "built 3 groups from 6 records\n"),
            (table, "built 3 groups from 6 records\n"),
            (model, "trained order-3 model, vocabulary size 20\n"),
            (model, "trained order-3 model, vocabulary size 20\n"),
        ]:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(argv) == 0
            assert err.getvalue() == summary
        assert (root.level, root.handlers) == before

    def python(self, *args):
        # the child process runs the package these tests import, installed or not
        src = str(pathlib.Path(plainterm.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_module_help(self):
        proc = self.python("-m", "plainterm.cli", "--help")
        assert proc.returncode == 0
        assert "build-table" in proc.stdout
        assert "simplify" in proc.stdout

    def test_import_leaves_numpy_unloaded(self):
        # only sg_significance needs numpy; every other command starts without it
        proc = self.python("-c", "import sys, plainterm.cli; print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

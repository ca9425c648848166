"""Command-line interface: build-table, train-lm, simplify, evaluate, tune.

Data goes to stdout or the requested output files; summaries go to stderr.
Exit codes: 0 on success, 1 on runtime or data errors, 2 on usage errors.
Given the same inputs and seed, every command writes byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
from typing import IO, ContextManager, Sequence

from . import evaluation, ngram_lm, ontology, simplifier, wordfreq
from .textproc import open_text, rows


class UsageError(Exception):
    """Bad flag combinations detected after argparse has run."""


def _open_out(path: str | None) -> ContextManager[IO[str]]:
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


def _read_lines(path: str) -> list[str]:
    with open_text(path) as fh:
        return [line.rstrip("\n") for line in fh]


def _as_usage_error(check, *args, **kwargs):
    """Call check; a ValueError from it is a flag error, so it is a usage error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_build_table(args: argparse.Namespace) -> int:
    records = []
    for path in args.ontologies:
        with open_text(path) as fh:
            records.extend(ontology.parse_records(fh))
    table = ontology.align(records, expand_plurals=args.plural_variants)
    with _open_out(args.output) as out:
        ontology.write_table(table, out)
    print(f"built {len(table.groups)} groups from {len(records)} records", file=sys.stderr)
    return 0


def cmd_train_lm(args: argparse.Namespace) -> int:
    _as_usage_error(ngram_lm.check_train_settings, args.order, args.discount, args.min_count)
    with open_text(args.corpus) as fh:
        model = ngram_lm.train(
            fh, order=args.order, discount=args.discount, min_count=args.min_count
        )
    with _open_out(args.output) as out:
        ngram_lm.save_arpa(model, out)
    print(f"trained order-{model.order} model, vocabulary size {len(model.vocab)}", file=sys.stderr)
    return 0


def _load_models(
    args: argparse.Namespace,
) -> tuple[ontology.PhraseTable, ngram_lm.LmScorer, wordfreq.FrequencyTable]:
    """Load the --table, --lm and --freq files shared by simplify and tune."""
    with open_text(args.table) as fh:
        table = ontology.read_table(fh)
    lm = ngram_lm.load_scorer(args.lm)
    with open_text(args.freq) as fh:
        freq = wordfreq.load_table(fh)
    return table, lm, freq


def cmd_simplify(args: argparse.Namespace) -> int:
    config = _as_usage_error(simplifier.SimplifierConfig, alpha=args.alpha, max_iterations=args.max_iterations)
    sentences = _read_lines(args.input)
    for line_no, sentence in enumerate(sentences, start=1):
        # the original is copied into the output row, so a tab would add columns
        if "\t" in sentence:
            raise ValueError(f"line {line_no}: input sentence contains a tab")
    table, lm, freq = _load_models(args)
    results = []
    for line_no, sentence in enumerate(sentences, start=1):
        # the scorer may have no score for a candidate: a lookup table without its row,
        # or an ARPA model without <unk> that meets an unknown word
        try:
            results.append(simplifier.simplify(sentence, table, lm, freq, config))
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
    with _open_out(args.output) as out:
        for res in results:
            out.write(f"{res.original}\t{res.final}\t{res.iterations}\n")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="\n") as fh:
            json.dump({"sentences": [r.to_dict() for r in results]}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if results:
        iterations = [r.iterations for r in results]
        changed = sum(1 for r in results if r.changed)
        print(
            f"simplified {len(results)} sentences: {changed} changed, "
            f"iterations mean={statistics.mean(iterations):.2f} "
            f"median={statistics.median(iterations):g}",
            file=sys.stderr,
        )
    else:
        print("simplified 0 sentences", file=sys.stderr)
    return 0


def _evaluate_judgments(args: argparse.Namespace, out_lines: list[str]) -> None:
    with open_text(args.judgments, newline="") as fh:
        records = evaluation.load_judgments(fh)
    unchanged: list[tuple[str, str]] = []
    if args.unchanged:
        with open_text(args.unchanged, newline="") as fh:
            unchanged = evaluation.load_unchanged(fh)
    counts = evaluation.aggregate_judgments(records, unchanged, replications=args.replications)
    out_lines.append(evaluation.format_report(counts, fmt=args.format).rstrip("\n"))
    if args.compare:
        sys_a, sys_b = args.compare
        for name in (sys_a, sys_b):
            if name not in counts:
                raise ValueError(f"system {name!r} not present in judgments")
        p = evaluation.sg_significance(
            counts[sys_a], counts[sys_b], iterations=args.iterations, seed=args.seed
        )
        out_lines.append(f"p-value({sys_a} vs {sys_b})\t{p:.4g}")


def cmd_evaluate(args: argparse.Namespace) -> int:
    _as_usage_error(evaluation.check_replications, args.replications)
    _as_usage_error(evaluation.check_iterations, args.iterations)
    # numpy refuses a negative seed, but only after the judgments are read
    if args.seed < 0:
        raise UsageError(f"seed must be >= 0, got {args.seed}")
    have_bleu = bool(args.outputs and args.references)
    have_sari = have_bleu and bool(args.sources)
    have_sg = bool(args.judgments)
    if args.bleu and not have_bleu:
        raise UsageError("--bleu needs --outputs and --references")
    if args.sari and not have_sari:
        raise UsageError("--sari needs --outputs, --sources and --references")
    if args.sg and not have_sg:
        raise UsageError("--sg needs --judgments")
    if args.bleu or args.sari or args.sg:
        want_bleu, want_sari, want_sg = args.bleu, args.sari, args.sg
    elif have_bleu or have_sari or have_sg:
        want_bleu, want_sari, want_sg = have_bleu, have_sari, have_sg
    else:
        raise UsageError("nothing to evaluate: provide --outputs with --references, and/or --judgments")

    out_lines: list[str] = []
    if want_bleu or want_sari:
        outputs = _read_lines(args.outputs)
        references = _read_lines(args.references)
        if want_bleu:
            out_lines.append(f"BLEU\t{evaluation.bleu(outputs, references):.2f}")
        if want_sari:
            sources = _read_lines(args.sources)
            out_lines.append(f"SARI\t{evaluation.mean_sari(sources, outputs, references):.2f}")
    if want_sg:
        _evaluate_judgments(args, out_lines)

    with _open_out(args.output) as out:
        for line in out_lines:
            out.write(line + "\n")
    return 0


def _parse_grid(spec: str) -> list[float]:
    try:
        if ":" in spec:
            start, stop, step = map(float, spec.split(":"))
            return evaluation.alpha_range(start, stop, step)
        # + 0.0 reads -0 as 0, which the curve would print as -0.00
        points = [float(tok) + 0.0 for tok in spec.split(",") if tok.strip()]
        if not points:
            raise ValueError
        return points
    except ValueError:
        raise UsageError(
            f"bad grid spec {spec!r}: use start:stop:step in [0, 1] with step >= 0.01, or a comma list"
        ) from None


def cmd_tune(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid) if args.grid is not None else None
    # with no --grid, checking the default alpha still checks --max-iterations
    seen = set()
    for alpha in grid or [simplifier.SimplifierConfig.alpha]:
        _as_usage_error(simplifier.SimplifierConfig, alpha=alpha, max_iterations=args.max_iterations)
        # the curve prints alpha to 2 decimals, so a finer point would print as its neighbour
        if round(alpha, 2) != alpha:
            raise UsageError(f"grid point {alpha!r} has more than 2 decimals")
        # a repeated point would be scored again and printed as a second identical row
        if alpha in seen:
            raise UsageError(f"grid point {alpha!r} repeats")
        seen.add(alpha)
    pairs = []
    with open_text(args.dev) as fh:
        for line_no, (source, reference) in rows(fh, 2):
            # a blank source simplifies to a blank output, which SARI cannot score;
            # refuse it here, before any model loads
            if not source.split():
                raise ValueError(f"line {line_no}: empty source")
            if not reference.split():
                raise ValueError(f"line {line_no}: empty reference")
            pairs.append((source, reference))
    table, lm, freq = _load_models(args)
    best_alpha, curve = evaluation.grid_search_alpha(
        pairs, table, lm, freq, grid=grid, max_iterations=args.max_iterations
    )
    with _open_out(args.output) as out:
        out.write("alpha\tsari\n")
        for alpha, score in curve:
            out.write(f"{alpha:.2f}\t{score:.6f}\n")
    best_score = dict(curve)[best_alpha]
    print(f"best alpha: {best_alpha:.2f} (sari {best_score:.4f})", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plainterm",
        description="Replace specialist terms with plain-language alternatives "
        "and evaluate the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_defaults = simplifier.SimplifierConfig()

    p = sub.add_parser(
        "build-table",
        help="merge ontology TSVs into a phrase table",
        description="Input rows: concept_id<TAB>label<TAB>source<TAB>P|A. "
        "Output rows: group_id<TAB>label, sorted.",
    )
    p.add_argument("ontologies", nargs="+", metavar="TSV", help="ontology record files")
    p.add_argument("--output", "-o", help="phrase table file (default stdout)")
    p.add_argument(
        "--no-plural-variants",
        dest="plural_variants",
        action="store_false",
        help="do not add naive head-word plurals as group members",
    )
    p.set_defaults(func=cmd_build_table)

    p = sub.add_parser(
        "train-lm",
        help="train a backoff n-gram model and write ARPA",
        description="Corpus: UTF-8, one pre-tokenized sentence per line.",
    )
    p.add_argument("corpus", help="training corpus file")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--discount", type=float, default=0.75)
    p.add_argument("--min-count", type=int, default=2, help="words rarer than this become <unk>")
    p.add_argument("--output", "-o", help="ARPA file (default stdout)")
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser(
        "simplify",
        help="simplify a file of sentences",
        description="Input: one sentence per line. Output rows: "
        "original<TAB>simplified<TAB>iterations. The --lm file may be an ARPA "
        "model or a sentence<TAB>score table.",
    )
    p.add_argument("--input", required=True, help="sentences to simplify")
    p.add_argument("--table", required=True, help="phrase table from build-table")
    p.add_argument("--lm", required=True, help="ARPA model or sentence-score table")
    p.add_argument("--freq", required=True, help="word<TAB>probability table")
    p.add_argument("--alpha", type=float, default=run_defaults.alpha, help="fluency weight in [0, 1]")
    p.add_argument("--max-iterations", type=int, default=run_defaults.max_iterations)
    p.add_argument("--output", "-o", help="result TSV (default stdout)")
    p.add_argument("--trace", help="write a JSON trace of every ranking decision")
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser(
        "evaluate",
        help="score outputs with BLEU/SARI and judgment tallies",
        description="Judgments CSV: sentence_id,system_id,category with "
        "category one of S/F/E/N. Unchanged CSV: sentence_id,system_id. "
        "Sentence files: one sentence per line. Without metric flags, "
        "whatever the provided inputs allow is computed.",
    )
    p.add_argument("--outputs", help="system output sentences")
    p.add_argument("--sources", help="source sentences")
    p.add_argument("--references", help="reference sentences")
    p.add_argument("--judgments", help="judgment CSV")
    p.add_argument("--unchanged", help="unchanged-pair CSV")
    p.add_argument("--replications", type=int, default=7, help="U judgments per unchanged pair")
    p.add_argument("--bleu", action="store_true", help="require corpus BLEU")
    p.add_argument("--sari", action="store_true", help="require mean SARI")
    p.add_argument("--sg", action="store_true", help="require judgment tallies")
    p.add_argument("--compare", nargs=2, metavar=("SYS_A", "SYS_B"), help="bootstrap p-value for a system pair")
    p.add_argument("--iterations", type=int, default=10000, help="bootstrap resamples")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=("table", "tsv"), default="table")
    p.add_argument("--output", "-o", help="report file (default stdout)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "tune",
        help="grid-search alpha against a dev set",
        description="Dev file rows: source<TAB>reference. Writes an "
        "alpha<TAB>sari curve and reports the best alpha on stderr.",
    )
    p.add_argument("--dev", required=True, help="parallel dev TSV")
    p.add_argument("--table", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--freq", required=True)
    p.add_argument("--grid", help="start:stop:step or comma-separated alphas (default built-in grid)")
    p.add_argument("--max-iterations", type=int, default=run_defaults.max_iterations)
    p.add_argument("--output", "-o", help="curve TSV (default stdout)")
    p.set_defaults(func=cmd_tune)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

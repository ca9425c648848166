"""Evaluation: judgment aggregation, simplification gain, SARI, BLEU, tuning.

Human judgments label each source/output pair with one of four categories:
S (output simpler), F (original was simpler, a failure), E (equally simple),
N (neither understood). Pairs the system left unchanged are tallied
separately as U. Simplification gain is (S - F) / total judgments.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from dataclasses import astuple, dataclass, fields
from typing import IO, Iterable, Iterator, Sequence

from .ngram_lm import LmScorer
from .ontology import PhraseTable
from .simplifier import ScoreMemo, SimplifierConfig, simplify
from .textproc import ngrams
from .wordfreq import FrequencyTable

__all__ = [
    "CATEGORIES",
    "EvalCounts",
    "JudgmentRecord",
    "simplification_gain",
    "load_judgments",
    "load_unchanged",
    "MAX_REPLICATIONS",
    "check_replications",
    "aggregate_judgments",
    "sari",
    "sari_components",
    "mean_sari",
    "bleu",
    "MAX_BOOTSTRAP_ITERATIONS",
    "check_iterations",
    "sg_significance",
    "alpha_range",
    "default_alpha_grid",
    "grid_search_alpha",
    "format_report",
]

CATEGORIES = ("S", "F", "E", "N")

# sg_significance draws iterations x 5 int64 per system, 40 MB each at this bound
MAX_BOOTSTRAP_ITERATIONS = 10**6
# sg_significance draws a system's judgment total as an int64, which no
# in-memory list of unchanged pairs can overflow at this bound
MAX_REPLICATIONS = 10**6
# a report writes a system id as it is, so it may hold no tab and no str.splitlines line boundary
_REPORT_BREAKS = frozenset("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


@dataclass(frozen=True)
class EvalCounts:
    """Judgment tallies for one system; the field order is the report's column order."""

    s: int = 0
    f: int = 0
    e: int = 0
    n: int = 0
    u: int = 0

    def __post_init__(self) -> None:
        for field in fields(self):
            if getattr(self, field.name) < 0:
                raise ValueError(f"negative count for {field.name}")

    @property
    def total(self) -> int:
        return sum(astuple(self))


@dataclass(frozen=True)
class JudgmentRecord:
    """One judgment; a category outside CATEGORIES raises ValueError when the record is built."""

    sentence_id: str
    system_id: str
    category: str

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}, expected one of {'/'.join(CATEGORIES)}")


def simplification_gain(counts: EvalCounts) -> float:
    """Net fraction of judgments won: (S - F) / total, over all five categories."""
    if counts.total == 0:
        raise ValueError("no judgments")
    return (counts.s - counts.f) / counts.total


def _csv_rows(stream: IO[str] | Iterable[str], header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_no, stripped fields) for each CSV row with as many fields as header.

    Blank rows are skipped, and so is a literal header on line 1. Malformed rows,
    and a system_id with a tab or a line break, raise ValueError naming the
    line the row starts on, which a quoted line break makes differ from the
    line it ends on.
    """
    system = header.index("system_id")
    reader = csv.reader(stream)
    start = 1
    try:
        for row in reader:
            line_no, start = start, reader.line_num + 1
            fields = [cell.strip() for cell in row]
            if not any(fields) or (line_no == 1 and fields == header):
                continue
            if len(fields) != len(header):
                raise ValueError(f"line {line_no}: expected {len(header)} fields, got {len(fields)}")
            if not _REPORT_BREAKS.isdisjoint(fields[system]):
                raise ValueError(f"line {line_no}: system id {fields[system]!r} contains a tab or a line break")
            yield line_no, fields
    except csv.Error as exc:
        raise ValueError(f"line {start}: {exc}") from None


def load_judgments(stream: IO[str] | Iterable[str]) -> list[JudgmentRecord]:
    """Read sentence_id,system_id,category CSV rows; a literal header is skipped."""
    records: list[JudgmentRecord] = []
    for line_no, (sentence_id, system_id, category) in _csv_rows(
        stream, ["sentence_id", "system_id", "category"]
    ):
        try:
            records.append(JudgmentRecord(sentence_id, system_id, category))
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
    return records


def load_unchanged(stream: IO[str] | Iterable[str]) -> list[tuple[str, str]]:
    """Read sentence_id,system_id CSV rows flagging pairs the system left alone.

    Each pair counts as several U judgments, so a pair listed twice raises
    ValueError at its second row rather than counting twice.
    """
    pairs: dict[tuple[str, str], None] = {}
    for line_no, (sentence_id, system_id) in _csv_rows(stream, ["sentence_id", "system_id"]):
        if (sentence_id, system_id) in pairs:
            raise ValueError(f"line {line_no}: duplicate unchanged pair {sentence_id!r},{system_id!r}")
        pairs[sentence_id, system_id] = None
    return list(pairs)


def check_replications(replications: int) -> None:
    """Raise ValueError unless each unchanged pair counts as 1 to MAX_REPLICATIONS judgments."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if replications > MAX_REPLICATIONS:
        raise ValueError(f"replications must be <= {MAX_REPLICATIONS}, got {replications}")


def aggregate_judgments(
    records: Iterable[JudgmentRecord],
    unchanged: Iterable[tuple[str, str]] = (),
    replications: int = 7,
) -> dict[str, EvalCounts]:
    """Tally judgments per system.

    Every unchanged pair counts as `replications` U judgments, mirroring a
    collection setup where each changed pair is judged that many times but
    identical pairs are judged once and extrapolated.
    """
    check_replications(replications)
    tallies: dict[str, Counter[str]] = defaultdict(Counter)
    for rec in records:
        tallies[rec.system_id][rec.category.lower()] += 1
    for _, system_id in unchanged:
        tallies[system_id]["u"] += replications
    # each tally is keyed by EvalCounts field name; a category no judgment used stays 0
    return {system_id: EvalCounts(**tallies[system_id]) for system_id in sorted(tallies)}


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p > 0 or r > 0 else 0.0


def sari_components(source: str, output: str, references: Sequence[str]) -> tuple[float, float, float]:
    """Keep, delete, and add components on a 0..100 scale, each averaged over n=1..4.

    Source and output counts are scaled by the number of references. The keep
    and delete ratios are added one by one in the source n-grams' first-occurrence
    order, not by sum(), so a score is the same float on Python 3.10 to 3.12.
    """
    if not references:
        raise ValueError("at least one reference required")
    src = source.lower().split()
    out = output.lower().split()
    if not src and not out:
        raise ValueError("source and output are both empty")
    refs = [r.lower().split() for r in references]
    # a blank reference would score every kept word as a miss, rewarding rewrites
    if not all(refs):
        raise ValueError("empty reference")
    numref = len(refs)
    keep_sum = del_sum = add_sum = 0.0
    for n in range(1, 5):
        s_counts = Counter(ngrams(src, n))
        c_counts = Counter(ngrams(out, n))
        r_counts: Counter[tuple[str, ...]] = Counter()
        for ref in refs:
            r_counts.update(ngrams(ref, n))

        keep_p = keep_r = delete = 0.0
        keep_cands = keep_alls = del_cands = 0
        for gram, s in s_counts.items():
            s *= numref
            c = c_counts.get(gram, 0) * numref
            r = r_counts.get(gram, 0)
            if c:
                keep_cands += 1
                if r:
                    keep_good = min(s, c, r)
                    keep_p += keep_good / min(s, c)
                    keep_r += keep_good / min(s, r)
            if r:
                keep_alls += 1
            if s > c:
                del_cands += 1
                if s - c > r:
                    delete += (s - c - r) / (s - c)
        keep_sum += _f1(keep_p / keep_cands if keep_cands else 0.0, keep_r / keep_alls if keep_alls else 0.0)
        del_sum += delete / del_cands if del_cands else 0.0

        add_cand = c_counts.keys() - s_counts.keys()
        add_good = len(add_cand & r_counts.keys())
        add_all = r_counts.keys() - s_counts.keys()
        add_sum += _f1(add_good / len(add_cand) if add_cand else 0.0, add_good / len(add_all) if add_all else 0.0)
    # each component is always averaged over the four n-gram levels
    return 100.0 * keep_sum / 4, 100.0 * del_sum / 4, 100.0 * add_sum / 4


def sari(source: str, output: str, references: Sequence[str]) -> float:
    """SARI score in [0, 100]: mean of keep F1, delete precision, and add F1."""
    keep, delete, add = sari_components(source, output, references)
    return (keep + delete + add) / 3.0


def mean_sari(sources: Sequence[str], outputs: Sequence[str], references: Sequence[str]) -> float:
    """Mean sentence SARI over parallel lines, one reference per line, summed by math.fsum.

    A pair that SARI cannot score raises its ValueError prefixed with the
    pair's 1-based line.
    """
    if not (len(sources) == len(outputs) == len(references)):
        raise ValueError("sources, outputs and references must have the same number of lines")
    if not outputs:
        raise ValueError("no sentences to score")
    scores = []
    for line_no, (source, output, ref) in enumerate(zip(sources, outputs, references), start=1):
        try:
            scores.append(sari(source, output, [ref]))
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
    return math.fsum(scores) / len(scores)


def bleu(outputs: Sequence[str], references: Sequence[str]) -> float:
    """Corpus BLEU-4 in [0, 100]: uniform weights over n = 1..4 and no smoothing.

    Single reference per output; any n-gram level with zero matches zeroes the
    whole score, as in the original definition. An empty output line is
    allowed; a blank reference raises ValueError naming its 1-based line.
    """
    if len(outputs) != len(references):
        raise ValueError(
            f"outputs and references must have the same length, got {len(outputs)} and {len(references)}"
        )
    if not outputs:
        raise ValueError("no sentences to score")
    ref_tokens = [r.split() for r in references]
    # a blank reference matches none of its output's n-grams, so it could only lower the score
    for line_no, ref_t in enumerate(ref_tokens, start=1):
        if not ref_t:
            raise ValueError(f"line {line_no}: empty reference")
    out_tokens = [o.split() for o in outputs]
    out_len = sum(len(t) for t in out_tokens)
    ref_len = sum(len(t) for t in ref_tokens)
    log_precisions = []
    for n in range(1, 5):
        matched = 0
        total = 0
        for out_t, ref_t in zip(out_tokens, ref_tokens):
            out_counts = Counter(ngrams(out_t, n))
            ref_counts = Counter(ngrams(ref_t, n))
            total += sum(out_counts.values())
            matched += sum(min(c, ref_counts[g]) for g, c in out_counts.items())
        # with no output words this returns at n = 1, before the brevity penalty divides by out_len
        if matched == 0:
            return 0.0
        log_precisions.append(math.log(matched / total))
    brevity = 1.0 if out_len > ref_len else math.exp(1.0 - ref_len / out_len)
    return 100.0 * brevity * math.exp(math.fsum(log_precisions) / 4)


def check_iterations(iterations: int) -> None:
    """Raise ValueError unless 1000 <= iterations <= MAX_BOOTSTRAP_ITERATIONS."""
    if not 1000 <= iterations <= MAX_BOOTSTRAP_ITERATIONS:
        raise ValueError(f"iterations must be in [1000, {MAX_BOOTSTRAP_ITERATIONS}], got {iterations}")


def sg_significance(
    a: EvalCounts,
    b: EvalCounts,
    iterations: int = 10000,
    seed: int = 42,
) -> float:
    """Two-sided bootstrap p-value for the simplification-gain difference.

    Each system's judgment multiset is resampled with replacement (as a
    multinomial over its category proportions) `iterations` times; the p-value
    is twice the smaller tail of the resampled difference around zero, with an
    add-one correction so it is never exactly 0.
    """
    check_iterations(iterations)
    if a.total == 0 or b.total == 0:
        raise ValueError("no judgments")
    # imported here, its only use, so that importing the package stays cheap
    import numpy as np

    rng = np.random.default_rng(seed)
    ps_a = np.array(astuple(a), dtype=float) / a.total
    ps_b = np.array(astuple(b), dtype=float) / b.total
    draws_a = rng.multinomial(a.total, ps_a, size=iterations)
    draws_b = rng.multinomial(b.total, ps_b, size=iterations)
    # columns 0 and 1 are the S and F draws
    sg_a = (draws_a[:, 0] - draws_a[:, 1]) / a.total
    sg_b = (draws_b[:, 0] - draws_b[:, 1]) / b.total
    diff = sg_a - sg_b
    tail = min(int((diff <= 0).sum()), int((diff >= 0).sum()))
    return min(1.0, 2.0 * (tail + 1) / (iterations + 1))


def alpha_range(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to stop, each rounded to 10 decimals: at most 101 alphas.

    Unless 0 <= start <= stop <= 1 and step >= 0.01, raises ValueError before making any point.
    """
    # NaN fails every comparison, and an infinite step would make a NaN point
    if not (0.0 <= start <= stop <= 1.0 and 0.01 <= step < math.inf):
        raise ValueError(f"bad alpha range {start}:{stop}:{step}: need 0 <= start <= stop <= 1, step >= 0.01")
    points = []
    k = 0
    while (point := round(start + k * step, 10)) <= stop + 1e-12:
        points.append(point)
        k += 1
    return points


def default_alpha_grid() -> list[float]:
    """0 to 1 in steps of 0.05, refined to steps of 0.01 above 0.90."""
    return sorted({*alpha_range(0.0, 1.0, 0.05), *alpha_range(0.9, 1.0, 0.01)})


def grid_search_alpha(
    dev_pairs: Sequence[tuple[str, str]],
    table: PhraseTable,
    lm: LmScorer,
    freq: FrequencyTable,
    grid: Sequence[float] | None = None,
    max_iterations: int = SimplifierConfig.max_iterations,
) -> tuple[float, list[tuple[float, float]]]:
    """Pick the alpha maximizing mean SARI over (source, reference) dev pairs.

    Returns the best alpha (smallest on ties) and the full (alpha, sari) curve,
    one entry per grid point. One ScoreMemo serves the whole grid: tokens,
    spans, language-model scores and wf scores do not depend on alpha, so
    each sentence is tokenized, each pass input matched and each span's
    candidates scored once for the whole grid; a scorer other than an
    NgramModel is asked once per (pass input, span, label) row. Each grid
    point recomputes only the combined scores and their argmax.
    """
    pairs = list(dev_pairs)
    if not pairs:
        raise ValueError("empty development set")
    points = list(grid) if grid is not None else default_alpha_grid()
    if not points:
        raise ValueError("empty alpha grid")
    memo = ScoreMemo(lm, table, freq)
    sources, references = zip(*pairs)
    curve: list[tuple[float, float]] = []
    for alpha in points:
        config = SimplifierConfig(alpha=alpha, max_iterations=max_iterations)
        outputs = [simplify(source, table, memo, freq, config).final for source in sources]
        curve.append((alpha, mean_sari(sources, outputs, references)))
    best_alpha, _ = max(curve, key=lambda point: (point[1], -point[0]))
    return best_alpha, curve


def format_report(counts_by_system: dict[str, EvalCounts], fmt: str = "table") -> str:
    """Render per-system counts and simplification gain as TSV or aligned text."""
    rows = [["system", *(field.name.upper() for field in fields(EvalCounts)), "SG"]]
    for system_id in sorted(counts_by_system):
        c = counts_by_system[system_id]
        rows.append([system_id, *map(str, astuple(c)), f"{simplification_gain(c):.2f}"])
    if fmt == "tsv":
        lines = ["\t".join(row) for row in rows]
    elif fmt == "table":
        widths = [max(map(len, column)) for column in zip(*rows)]
        lines = [
            "  ".join(cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i]) for i, cell in enumerate(row))
            for row in rows
        ]
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return "\n".join(lines) + "\n"

"""One benchmark workload in one process: ``prepare`` writes the inputs,
``measure`` sets up, runs the timed loop, checks the outputs and prints one
JSON object on stdout.

    python3 perfbench/worker.py prepare WORKLOAD DIR --seed N --scale full
    python3 perfbench/worker.py measure WORKLOAD DIR --seconds S --trace 0|1

``run.py`` starts both as separate processes, so that ``peak_rss_mb`` of the
measuring process does not include generation or training of the workload's
own language model, neither of which is timed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import oracles  # noqa: E402  (tests/oracles.py: slow, independent references)
import plainterm.evaluation as evaluation  # noqa: E402
import plainterm.simplifier as simplifier  # noqa: E402
from plainterm import ngram_lm, ontology, wordfreq  # noqa: E402

from clock import Calibrator  # noqa: E402
from gen import Generator, freq_rows, table_rows  # noqa: E402
from tracing import TracedScorer, Tracer  # noqa: E402

WORKLOADS = ("simplify-dense", "simplify-long", "tune-grid", "build-models")
SETUP_REPEATS = 3
BUILD_SETUP_REPEATS = 25  # reading the build inputs takes about 10 ms
# The timed loop repeats one round of fixed work (every input sentence, the
# dev batch, one build) until --seconds have passed. Every timed interval is
# scaled by a calibration kernel run next to it (clock.py), and a metric
# takes the median of the scaled repetitions: per sentence, per whole
# grid_search_alpha call, per build step, per set-up load. The round's rows
# (or curve, or files) are digested.
MIN_ROUNDS = 2
CHUNK = 10  # the kernel is sampled before every CHUNK sentences or tune evaluations
CHECK_EVERY = 3  # one sentence of the round in CHECK_EVERY gets the independent check
TOLERANCE = 1e-9
TUNE_CHECK_ALPHAS = (0.0, 0.7, 1.0)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


# -- prepare ---------------------------------------------------------------


def prepare(workload: str, out_dir: str, seed: int, scale: str) -> dict:
    """Write the workload's input files; return their sha256 digests."""
    g = Generator(seed, scale)
    files = {}
    if workload == "build-models":
        files["ontology.tsv"] = g.ontology_rows()
        files["corpus.txt"] = g.corpus
    else:
        groups = g.long_groups if workload == "simplify-long" else g.dense_groups
        files["table.tsv"] = table_rows(groups)
        files["freq.tsv"] = freq_rows(g.freq)
        if workload == "tune-grid":
            files["dev.tsv"] = [f"{src}\t{ref}" for src, ref in g.dev_pairs()]
        elif workload == "simplify-long":
            files["input.txt"] = g.long_sentences()
        else:
            files["input.txt"] = g.dense_sentences()
    for name, lines in files.items():
        _write_lines(os.path.join(out_dir, name), lines)
    if workload != "build-models":
        # the workload's own LM, trained by the program, outside any timed region
        model = ngram_lm.train(g.corpus)
        with open(os.path.join(out_dir, "lm.arpa"), "w", encoding="utf-8", newline="\n") as fh:
            ngram_lm.save_arpa(model, fh)
    return {name: _file_sha(os.path.join(out_dir, name)) for name in sorted(os.listdir(out_dir))}


# -- independent checks ----------------------------------------------------


class Reference:
    """Plain re-implementations of span matching, LM scoring, wf and argmax.

    The table and frequency files are parsed here, not by the program; the LM
    is the program's loaded probability and backoff dicts, walked by a plain
    backoff loop written here.
    """

    def __init__(self, table_path: str, freq_path: str, table, lm) -> None:
        self.table = table
        self.index: dict[tuple[str, ...], int] = {}
        self.groups: dict[int, list[tuple[str, ...]]] = {}
        with open(table_path, encoding="utf-8") as fh:
            for line in fh:
                gid_text, label_text = line.rstrip("\n").split("\t")
                label = tuple(label_text.split())
                self.index[label] = int(gid_text)
                self.groups.setdefault(int(gid_text), []).append(label)
        for labels in self.groups.values():
            labels.sort()
        self.max_len = max(len(lab) for lab in self.index)
        self.freq: dict[str, float] = {}
        with open(freq_path, encoding="utf-8") as fh:
            for line in fh:
                word, prob = line.rstrip("\n").split("\t")
                self.freq[word] = float(prob)
        self.lm = lm

    def lm_score(self, words) -> float:
        model = self.lm
        n = model.order
        history = ["<s>"] * (n - 1)
        total = 0.0
        for word in words:
            if word not in model.vocab:
                word = "<unk>"
            ctx = tuple(history[len(history) - (n - 1) :]) if n > 1 else ()
            logp = 0.0
            while (ctx + (word,)) not in model.probs:
                logp += model.backoffs.get(ctx, 0.0)
                ctx = ctx[1:]
            total += logp + model.probs[ctx + (word,)]
            history.append(word)
        return total / len(words)

    def wf(self, label) -> float:
        return min(math.log(self.freq.get(w, 0.0) + 1e-10) for w in label)

    def check(self, result, alpha: float, max_iterations: int) -> list[str]:
        """Replay every pass of one SimplificationResult; return the problems."""
        problems: list[str] = []
        norms = [t.norm for t in simplifier.tokenize(result.original)]
        changed_passes = 0
        for pass_no, replacements in enumerate(result.trace):
            spans = oracles.greedy_spans(norms, self.index, self.max_len)
            tokens = simplifier.tokenize(" ".join(norms))
            found = [(s.start, s.end) for s in simplifier.extract_spans(tokens, self.table)]
            if found != spans:
                problems.append(f"pass {pass_no}: extract_spans {found} != oracle {spans}")
                return problems
            got = {(r.span.start, r.span.end): r for r in replacements}
            if not set(got) <= set(spans):
                problems.append(f"pass {pass_no}: replaced spans {sorted(got)} not among oracle spans")
                return problems
            expected = []
            for start, end in spans:
                matched = tuple(norms[start:end])
                gid = self.index[matched]
                scored = []
                for label in self.groups[gid]:
                    lm = self.lm_score(norms[:start] + list(label) + norms[end:])
                    wf = self.wf(label)
                    scored.append((label, lm, wf, alpha * lm + (1.0 - alpha) * wf))
                best = max(c for *_, c in scored)
                expected.append((start, end, gid, matched, scored, best))
            chosen_by_span = {}
            for start, end, gid, matched, scored, best in expected:
                rep = got.get((start, end))
                chosen = rep.chosen if rep is not None else matched
                combined_of = {label: c for label, _, _, c in scored}
                if combined_of.get(chosen, -math.inf) < best - TOLERANCE:
                    problems.append(f"pass {pass_no}: span {start}:{end} chose {chosen} below the argmax")
                if rep is None:
                    continue
                if rep.span.group_id != gid:
                    problems.append(f"pass {pass_no}: span {start}:{end} group {rep.span.group_id} != {gid}")
                ref = {label: (lm, wf, c) for label, lm, wf, c in scored}
                if len(rep.candidates) != len(scored):
                    problems.append(f"pass {pass_no}: span {start}:{end} has {len(rep.candidates)} candidates")
                for cand in rep.candidates:
                    lm, wf, c = ref.get(cand.term, (math.nan,) * 3)
                    if not (
                        abs(cand.lm_score - lm) <= TOLERANCE
                        and abs(cand.wf_score - wf) <= TOLERANCE
                        and abs(cand.combined - c) <= TOLERANCE
                    ):
                        problems.append(f"pass {pass_no}: candidate {cand.term} scores differ from the reference")
                chosen_by_span[(start, end)] = chosen
            if not chosen_by_span:
                break
            changed_passes += 1
            for (start, end), label in sorted(chosen_by_span.items(), reverse=True):
                norms[start:end] = list(label)
        if changed_passes != result.iterations:
            problems.append(f"{changed_passes} changing passes but iterations={result.iterations}")
        if result.iterations and result.final.lower().split() != norms:
            problems.append("final sentence differs from the replayed passes")
        if len(result.trace) > max_iterations:
            problems.append("more passes than the iteration cap")
        return problems


# -- shared helpers --------------------------------------------------------


def _load(work: str, tracer: Tracer | None):
    def timed(name, fn, *args):
        return tracer.span(name, fn, *args) if tracer else fn(*args)

    with open(os.path.join(work, "table.tsv"), encoding="utf-8") as fh:
        table = timed("ontology.read_table", ontology.read_table, fh)
    lm = timed("ngram_lm.load_arpa", ngram_lm.load_scorer, os.path.join(work, "lm.arpa"))
    with open(os.path.join(work, "freq.tsv"), encoding="utf-8") as fh:
        freq = timed("wordfreq.load_table", wordfreq.load_table, fh)
    return table, lm, freq


def _setup(work: str, tracer: Tracer | None, repeats: int, cal: Calibrator):
    """Load the three model files `repeats` times; return the last load and
    the median scaled and wall load times."""
    walls, scaled = [], []
    loaded = None
    for _ in range(repeats):
        loaded = None
        gc.collect()
        loaded, wall, norm = cal.timed(_load, work, tracer)
        walls.append(wall)
        scaled.append(norm)
    return loaded, {"setup_s": statistics.median(scaled), "setup_wall_s": statistics.median(walls),
                    "setup_repeats": repeats}


def _latency(samples: list[float]) -> dict:
    """Median and the highest whole percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "p50_ms": statistics.median(ordered) * 1e3}
    pct = min(99, math.floor(100 * (1 - 10 / n))) if n >= 20 else None
    if pct is not None and pct >= 50:
        # nearest rank: the value at or below which pct % of the samples lie
        rank = math.ceil(pct / 100 * n)
        out["tail_pct"] = pct
        out["tail_ms"] = ordered[rank - 1] * 1e3
        out["tail_beyond"] = n - rank
    return out


def _ranking_text(result) -> str:
    parts = []
    for pass_no, replacements in enumerate(result.trace):
        for rep in replacements:
            span = rep.span
            parts.append(f"{pass_no} {span.start} {span.end} {span.group_id} {' '.join(rep.chosen)}")
            for c in rep.candidates:
                parts.append(f" {' '.join(c.term)} {c.lm_score!r} {c.wf_score!r} {c.combined!r}")
    return "\n".join(parts) + "\n"


def _row(result) -> str:
    return f"{result.original}\t{result.final}\t{result.iterations}\n"


# -- workloads -------------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _per_op_median(per_round: list[list[float]]) -> list[float]:
    """Each operation's median time over the rounds."""
    return [statistics.median(times) for times in zip(*per_round)]


def run_simplify(work: str, seconds: float, tracer: Tracer | None, plant_fault: bool) -> dict:
    cal = Calibrator()
    (table, lm, freq), setup = _setup(work, tracer, 1 if tracer else SETUP_REPEATS, cal)
    with open(os.path.join(work, "input.txt"), encoding="utf-8") as fh:
        sentences = [line.rstrip("\n") for line in fh]
    config = simplifier.SimplifierConfig()
    call, scorer = simplifier.simplify, lm
    if tracer:
        tracer.install(table)
        scorer = TracedScorer(lm, tracer)
        call = tracer.span_wrapper("simplifier.sentence", simplifier.simplify, tracer.after_sentence)
        tracer.phase = "loop"
    rounds: list[list[float]] = []
    scaled_rounds: list[list[float]] = []
    first: list = []
    mismatched = 0
    gc.collect()
    loop_start = perf_counter()
    while len(rounds) < MIN_ROUNDS or perf_counter() - loop_start < seconds:
        latencies, scaled = [], []
        for i, sentence in enumerate(sentences):
            if i % CHUNK == 0:
                cal.sample()
            started = perf_counter()
            result = call(sentence, table, scorer, freq, config)
            latencies.append(perf_counter() - started)
            scaled.append(cal.scale(latencies[-1]))
            if not rounds:
                first.append(result)
            elif _row(result) != _row(first[i]):
                mismatched += 1
        rounds.append(latencies)
        scaled_rounds.append(scaled)
    rss = _peak_rss_mb()
    out: dict = {"ops": len(rounds) * len(sentences)}
    if tracer:
        # rerun the round untraced, twice, to get the tracing overhead
        tracer.uninstall()
        gc.collect()
        untraced = [
            cal.timed(lambda: [simplifier.simplify(s, table, lm, freq, config) for s in sentences])[2]
            for _ in range(MIN_ROUNDS)
        ]
        out["overhead_ratio"] = min(sum(r) for r in scaled_rounds) / min(untraced)
    rows = [_row(r) for r in first]
    if plant_fault:
        rows[0] = rows[0].replace("\t", "\tx", 1)
    ref = Reference(os.path.join(work, "table.tsv"), os.path.join(work, "freq.tsv"), table, lm)
    problems = [f"{mismatched} repeated sentences gave a different row"] if mismatched else []
    failed = mismatched
    checked = 0
    for i in range(0, len(first), CHECK_EVERY):
        checked += 1
        found = ref.check(first[i], config.alpha, config.max_iterations)
        if found:
            failed += 1
            problems.extend(f"sentence {i}: {p}" for p in found[:3])
    per_sentence = _per_op_median(scaled_rounds)
    out.update(
        **setup,
        ops_per_s=len(sentences) / sum(per_sentence),
        wall_ops_per_s=len(sentences) / statistics.median(sum(r) for r in rounds),
        kernel_ms=statistics.median(cal.samples) * 1e3,
        latency=_latency(per_sentence),
        tail=_latency([t for r in rounds for t in r]),
        rounds=len(rounds),
        peak_rss_mb=rss,
        attempted=len(rounds) * len(sentences),
        failed=failed,
        checked=checked,
        problems=problems[:20],
        digests={"rows": _sha("".join(rows)), "ranking": _sha("".join(_ranking_text(r) for r in first))},
    )
    return out


def run_tune(work: str, seconds: float, tracer: Tracer | None, plant_fault: bool) -> dict:
    cal = Calibrator()
    (table, lm, freq), setup = _setup(work, tracer, 1 if tracer else SETUP_REPEATS, cal)
    with open(os.path.join(work, "dev.tsv"), encoding="utf-8") as fh:
        batch = [tuple(line.rstrip("\n").split("\t")) for line in fh]
    scorer = lm
    if tracer:
        tracer.install(table)
        scorer = TracedScorer(lm, tracer)
        tracer.phase = "loop"
    rounds: list[list[float]] = []
    captured: list = []
    inner_simplify, inner_sari = evaluation.simplify, evaluation.sari

    # throughput is timed over whole grid_search_alpha calls, cut into
    # segments by the kernel samples taken before every CHUNK evaluations; the
    # kernel's own time is left out. The simplify() calls are timed for the
    # latency figure, and the first round's results are kept for the checks.
    segment = {"start": 0.0, "wall": 0.0, "scaled": 0.0}

    def cut_segment():
        wall = perf_counter() - segment["start"]
        segment["wall"] += wall
        segment["scaled"] += cal.scale(wall)
        cal.sample()
        segment["start"] = perf_counter()

    def timed_simplify(source, table_, lm_, freq_, config):
        if tracer is None and len(latencies) % CHUNK == 0:
            cut_segment()  # not in traced runs, where it would add to the grid search's span
        started = perf_counter()
        result = inner_simplify(source, table_, lm_, freq_, config)
        latencies.append(cal.scale(perf_counter() - started))
        if not rounds:
            captured.append((source, config.alpha, result))
        return result

    def counted_sari(source, output, references):
        sari_calls[-1] += 1
        return inner_sari(source, output, references)

    results: list = []
    round_times: list[float] = []
    scaled_round_times: list[float] = []
    sari_calls: list[int] = []
    evaluation.simplify, evaluation.sari = timed_simplify, counted_sari
    gc.collect()
    loop_start = perf_counter()
    try:
        while len(rounds) < MIN_ROUNDS or perf_counter() - loop_start < seconds:
            latencies: list[float] = []
            sari_calls.append(0)
            args = (batch, table, scorer, freq)
            cal.sample()
            segment.update(start=perf_counter(), wall=0.0, scaled=0.0)
            results.append(
                tracer.span("evaluation.grid_search_alpha", evaluation.grid_search_alpha, *args)
                if tracer
                else evaluation.grid_search_alpha(*args)
            )
            cut_segment()
            round_times.append(segment["wall"])
            scaled_round_times.append(segment["scaled"])
            rounds.append(latencies)
    finally:
        evaluation.simplify, evaluation.sari = inner_simplify, inner_sari
    rss = _peak_rss_mb()
    best, curve = results[0]
    evals = len(batch) * len(curve)
    if any(len(r) != evals for r in rounds) or any(n != evals for n in sari_calls):
        raise RuntimeError("grid_search_alpha no longer calls evaluation.simplify and evaluation.sari "
                           "once per evaluation; perfbench/worker.py must be revised")
    out: dict = {"ops": evals * len(rounds)}
    if tracer:
        # rerun the round untraced, twice, to get the tracing overhead
        tracer.uninstall()
        gc.collect()
        untraced = [cal.timed(evaluation.grid_search_alpha, batch, table, lm, freq)[2] for _ in range(MIN_ROUNDS)]
        out["overhead_ratio"] = min(scaled_round_times) / min(untraced)
    if plant_fault:
        curve = [(curve[0][0], curve[0][1] + 1.0)] + curve[1:]
    problems = []
    failed = 0
    for i, res in enumerate(results[1:], start=1):
        if res != results[0]:
            failed += evals
            problems.append(f"round {i} gave a different curve")
    # the curve, recomputed from the captured outputs with the oracle SARI
    finals: dict[float, list[str]] = {}
    for _, alpha, result in captured:
        finals.setdefault(alpha, []).append(result.final)
    for alpha, score in curve:
        outs = finals.get(alpha, [])
        if len(outs) != len(batch):
            failed += 1
            problems.append(f"alpha {alpha}: {len(outs)} outputs for {len(batch)} pairs")
            continue
        expect = sum(oracles.sari_score(s, o, [r]) for (s, r), o in zip(batch, outs)) / len(batch)
        if abs(expect - score) > TOLERANCE:
            failed += 1
            problems.append(f"alpha {alpha}: sari {score!r} != oracle {expect!r}")
    top = max(score for _, score in curve)
    if best != min(alpha for alpha, score in curve if score == top):
        failed += 1
        problems.append(f"best alpha {best} is not the smallest argmax of the curve")
    ref = Reference(os.path.join(work, "table.tsv"), os.path.join(work, "freq.tsv"), table, lm)
    checked = 0
    for source, alpha, result in captured:
        if alpha in TUNE_CHECK_ALPHAS:
            checked += 1
            found = ref.check(result, alpha, simplifier.SimplifierConfig().max_iterations)
            if found:
                failed += 1
                problems.extend(f"alpha {alpha} {source[:30]!r}: {p}" for p in found[:3])
    curve_text = "".join(f"{a!r}\t{s!r}\n" for a, s in curve) + f"best\t{best!r}\n"
    out.update(
        **setup,
        ops_per_s=evals / statistics.median(scaled_round_times),
        wall_ops_per_s=evals / statistics.median(round_times),
        kernel_ms=statistics.median(cal.samples) * 1e3,
        latency=_latency(_per_op_median(rounds)),
        tail=_latency([t for r in rounds for t in r]),
        rounds=len(rounds),
        peak_rss_mb=rss,
        attempted=evals * len(rounds),
        failed=failed,
        checked=checked + len(curve) + 1,
        problems=problems[:20],
        digests={"curve": _sha(curve_text)},
    )
    return out


def _build_once(onto_lines, corpus_lines, work: str, tracer: Tracer | None, cal: Calibrator):
    """build-table then train-lm, as cmd_build_table and cmd_train_lm do;
    returns the wall and scaled times of the two, the table and the model.
    Each step is timed between two kernel samples, whose time is left out."""
    wall = {"table": 0.0, "lm": 0.0}
    scaled = {"table": 0.0, "lm": 0.0}

    def step(part, name, fn, *args):
        result, w, s = cal.timed(tracer.span, name, fn, *args) if tracer else cal.timed(fn, *args)
        wall[part] += w
        scaled[part] += s
        return result

    records = step("table", "ontology.parse_records", ontology.parse_records, onto_lines)
    table = step("table", "ontology.align", ontology.align, records)
    with open(os.path.join(work, "table.tsv"), "w", encoding="utf-8", newline="\n") as fh:
        step("table", "ontology.write_table", ontology.write_table, table, fh)
    model = step("lm", "ngram_lm.train", ngram_lm.train, corpus_lines)
    with open(os.path.join(work, "lm.arpa"), "w", encoding="utf-8", newline="\n") as fh:
        step("lm", "ngram_lm.save_arpa", ngram_lm.save_arpa, model, fh)
    return (wall, scaled), table, model


def _read_inputs(work: str):
    with open(os.path.join(work, "ontology.tsv"), encoding="utf-8") as fh:
        onto = fh.readlines()
    with open(os.path.join(work, "corpus.txt"), encoding="utf-8") as fh:
        corpus = fh.readlines()
    return onto, corpus


def run_build(work: str, seconds: float, tracer: Tracer | None, plant_fault: bool) -> dict:
    # set-up is reading the two input files, as build-table and train-lm do
    # before their first step; it is short, so it is repeated more often
    cal = Calibrator()
    walls, scaled = [], []
    setup_repeats = BUILD_SETUP_REPEATS
    for _ in range(setup_repeats):
        (onto, corpus), wall, norm = cal.timed(_read_inputs, work)
        walls.append(wall)
        scaled.append(norm)
    setup = {"setup_s": statistics.median(scaled), "setup_wall_s": statistics.median(walls),
             "setup_repeats": setup_repeats}
    rows = sum(1 for line in onto if line.strip() and not line.startswith("#"))
    tokens = sum(len(line.split()) for line in corpus)
    if tracer:
        tracer.install()
        tracer.phase = "loop"
    builds = []
    last = None
    digests = None
    failed = 0
    problems = []
    loop_start = perf_counter()
    while len(builds) < MIN_ROUNDS or perf_counter() - loop_start < seconds:
        last = None
        gc.collect()
        last = (
            tracer.span("bench.build", _build_once, onto, corpus, work, tracer, cal)
            if tracer
            else _build_once(onto, corpus, work, None, cal)
        )
        builds.append(last[0])
        files = {name: _file_sha(os.path.join(work, name)) for name in ("table.tsv", "lm.arpa")}
        if digests is None:
            digests = files
        elif files != digests:
            failed += 1
            problems.append(f"build {len(builds)} wrote different files")
    rss = _peak_rss_mb()
    wall_table_s = statistics.median(w["table"] for w, _ in builds)
    wall_lm_s = statistics.median(w["lm"] for w, _ in builds)
    table_s = statistics.median(s["table"] for _, s in builds)
    lm_s = statistics.median(s["lm"] for _, s in builds)
    out: dict = {"ops": len(builds)}
    if tracer:
        # rerun one build untraced to get the tracing overhead
        tracer.uninstall()
        last = None
        gc.collect()
        last = _build_once(onto, corpus, work, None, cal)
        untraced = last[0][1]
        out["overhead_ratio"] = (table_s + lm_s) / (untraced["table"] + untraced["lm"])
    if plant_fault:
        digests["table.tsv"] = _sha("planted fault")
    # independent checks on the last build: the table reads back to the same
    # groups, and load_arpa(save_arpa(m)) round-trips the model
    _, table, model = last
    with open(os.path.join(work, "table.tsv"), encoding="utf-8") as fh:
        reread = ontology.read_table(fh)
    if [g.labels for g in reread.groups] != [g.labels for g in table.groups]:
        failed += 1
        problems.append("read_table(write_table(t)) differs from t")
    with open(os.path.join(work, "lm.arpa"), encoding="utf-8") as fh:
        loaded = ngram_lm.load_arpa(fh)
    if (
        loaded.order != model.order
        or loaded.vocab != model.vocab
        or loaded.probs.keys() != model.probs.keys()
        or loaded.backoffs.keys() != model.backoffs.keys()
        or any(abs(loaded.probs[k] - v) > TOLERANCE for k, v in model.probs.items())
        or any(abs(loaded.backoffs[k] - v) > TOLERANCE for k, v in model.backoffs.items())
    ):
        failed += 1
        problems.append("load_arpa(save_arpa(m)) does not round-trip")
    out.update(
        **setup,
        ops_per_s=1.0 / (table_s + lm_s),
        wall_ops_per_s=1.0 / (wall_table_s + wall_lm_s),
        kernel_ms=statistics.median(cal.samples) * 1e3,
        latency=_latency([table_s + lm_s]),
        rounds=len(builds),
        build_table_rows_per_s=rows / table_s,
        train_lm_tokens_per_s=tokens / lm_s,
        peak_rss_mb=rss,
        attempted=2 * len(builds),
        failed=failed,
        checked=2,
        problems=problems,
        digests={"table": digests["table.tsv"], "arpa": digests["lm.arpa"]},
    )
    return out


RUNNERS = {
    "simplify-dense": run_simplify,
    "simplify-long": run_simplify,
    "tune-grid": run_tune,
    "build-models": run_build,
}


# -- per-layer report ------------------------------------------------------

# boundaries each workload must observe in a traced run; one that sees no
# call means the program no longer calls through it, and the traced run
# fails instead of reporting a layer as free
EXPECTED = {
    "simplify-dense": (
        "textproc.tokenize", "textproc.extract_spans", "ontology.lookup", "ontology.max_label_len",
        "ngram_lm.score", "wordfreq.wf", "simplifier.rank_span", "simplifier.simplify_once",
    ),
    "simplify-long": ("textproc.tokenize", "textproc.extract_spans", "ontology.lookup", "ontology.max_label_len"),
    "tune-grid": (
        "textproc.tokenize", "textproc.extract_spans", "ontology.lookup", "ontology.max_label_len",
        "ngram_lm.score", "wordfreq.wf", "simplifier.rank_span", "simplifier.simplify_once",
        "simplifier.sentence", "evaluation.sari",
    ),
    "build-models": (
        "textproc.tokenize", "ontology.parse_records", "ontology.align", "ontology.write_table",
        "ngram_lm.train", "ngram_lm.save_arpa",
    ),
}


def layer_report(workload: str, tr: Tracer, out: dict) -> dict:
    """Every per-layer figure the traced run gives, as {name: (value, unit)};
    a value of None means the boundary saw no call (unobserved)."""
    ops = out["ops"]
    c = tr.counts
    rep: dict[str, tuple] = {}

    def boundary(metric, name, phase="loop", want=("calls", "s")):
        calls, secs = tr.total(name, phase)
        if "calls" in want:
            rep[f"{metric}_calls"] = (calls if calls else None, "count")
        if "s" in want:
            rep[f"{metric}_s"] = (secs if calls else None, "s")

    def ratio(name, num, den, unit="ratio"):
        rep[name] = (num / den if den else None, unit)

    boundary("ontology.max_label_len", "ontology.max_label_len")
    boundary("textproc.extract_spans", "textproc.extract_spans")
    boundary("ontology.lookup", "ontology.lookup", want=("calls",))
    ratio("ontology.lookup_hit_ratio", c["lookup_hits"], tr.total("ontology.lookup")[0])
    boundary("ngram_lm.score", "ngram_lm.score")
    score_calls = tr.total("ngram_lm.score")[0]
    rep["ngram_lm.scored_tokens"] = (c["scored_tokens"] if score_calls else None, "count")
    ratio("ngram_lm.unk_ratio", c["unk_tokens"], c["scored_tokens"])
    # rounds repeat the same inputs, so distinct sequences are counted against one round's calls
    ratio("ngram_lm.unique_score_ratio", len(tr.unique_scored) * out["rounds"], score_calls)
    boundary("simplifier.rank_span", "simplifier.rank_span")
    rank_calls = tr.total("simplifier.rank_span")[0]
    rep["simplifier.candidates"] = (c["candidates"] if rank_calls else None, "count")
    ratio("simplifier.replacement_ratio", c["replaced"], rank_calls)
    boundary("simplifier.simplify_once", "simplifier.simplify_once", want=("s",))
    rep["simplifier.passes"] = (tr.total("simplifier.simplify_once")[0] or None, "count")
    ratio("simplifier.iterations_mean", c["iterations"], c["sentences"], "count")
    rep["simplifier.cap_hits"] = (c["cap_hits"] if c["sentences"] else None, "count")
    boundary("wordfreq.wf", "wordfreq.wf")
    boundary("evaluation.grid_search_alpha", "evaluation.grid_search_alpha", want=("s",))
    boundary("evaluation.sari", "evaluation.sari")
    for name in ("ontology.read_table", "ngram_lm.load_arpa", "wordfreq.load_table"):
        boundary(name, name, phase="setup", want=("s",))
    for name in ("ontology.parse_records", "ontology.align", "ontology.write_table", "ngram_lm.train", "ngram_lm.save_arpa"):
        boundary(name, name, want=("s",))
    rep["trace_overhead_ratio"] = (out["overhead_ratio"], "ratio")
    rep["ops"] = (ops, "count")

    # the JSON metrics: per-op figures that exist on every workload
    metrics = {}
    for layer in ("textproc", "ontology", "ngram_lm"):
        calls, secs = tr.layer_self_seconds(layer)
        metrics[f"{layer}.self_ms_per_op"] = (secs / ops * 1e3, "ms/op")
    per_op = {
        "ontology.max_label_len_calls_per_op": tr.total("ontology.max_label_len")[0],
        "ontology.lookup_calls_per_op": tr.total("ontology.lookup")[0],
        "ngram_lm.score_calls_per_op": score_calls,
        "ngram_lm.scored_tokens_per_op": c["scored_tokens"],
        "simplifier.rank_span_calls_per_op": rank_calls,
        "simplifier.candidates_per_op": c["candidates"],
        "simplifier.passes_per_op": tr.total("simplifier.simplify_once")[0],
        "evaluation.sari_calls_per_op": tr.total("evaluation.sari")[0],
    }
    for name, count in per_op.items():
        metrics[name] = (count / ops, "count/op")
    for name in (
        "ontology.lookup_hit_ratio",
        "ngram_lm.unk_ratio",
        "ngram_lm.unique_score_ratio",
        "simplifier.replacement_ratio",
        "trace_overhead_ratio",
    ):
        value, unit = rep[name]
        metrics[name] = (value or 0.0, unit)

    missing = [name for name in EXPECTED[workload] if not tr.total(name)[0]]
    self_times = {
        name: secs for (phase, name), secs in tr.seconds.items() if phase == "loop" and name != "bench.build"
    }
    spans = [s for s in tr.spans if s is not None]
    return {
        "layers": {k: list(v) for k, v in rep.items()},
        "metrics": {k: list(v) for k, v in metrics.items()},
        "self_seconds": self_times,
        "unobserved": missing,
        "spans": spans,
    }


def measure(workload: str, work: str, seconds: float, trace: bool, plant_fault: bool) -> dict:
    tracer = Tracer() if trace else None
    out = RUNNERS[workload](work, seconds, tracer, plant_fault)
    if trace:
        out["trace"] = layer_report(workload, tracer, out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("step", choices=("prepare", "measure"))
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("dir")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--plant-fault", action="store_true")
    args = parser.parse_args(argv)
    if args.step == "prepare":
        result = prepare(args.workload, args.dir, args.seed, args.scale)
    else:
        result = measure(args.workload, args.dir, args.seconds, bool(args.trace), args.plant_fault)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

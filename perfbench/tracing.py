"""Spans and counters recorded around the program's layer boundaries.

Nothing here edits the program: the tracer replaces module-level names the
pipeline calls through (``plainterm.simplifier.rank_span`` and so on), wraps
two methods on one ``PhraseTable`` instance, and hands the simplifier an
``LmScorer`` proxy. ``uninstall`` puts every original back.

Coarse boundaries (sentence, pass, extract_spans, rank_span, loaders, build
steps) become spans with name, start, end, parent and sentence id, kept in
memory. Fine boundaries (score, lookup, wf, tokenize, sari, max_label_len)
are too frequent for one span per call; they add to a call counter and a
summed time, and that time is subtracted from the enclosing span so self
times stay exact. A span's self time is its duration minus its children.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

import plainterm.evaluation
import plainterm.ontology
import plainterm.simplifier

# boundary name -> layer (module) it belongs to
LAYER = {
    "textproc.tokenize": "textproc",
    "textproc.extract_spans": "textproc",
    "ontology.lookup": "ontology",
    "ontology.max_label_len": "ontology",
    "ontology.read_table": "ontology",
    "ontology.parse_records": "ontology",
    "ontology.align": "ontology",
    "ontology.write_table": "ontology",
    "ngram_lm.score": "ngram_lm",
    "ngram_lm.load_arpa": "ngram_lm",
    "ngram_lm.train": "ngram_lm",
    "ngram_lm.save_arpa": "ngram_lm",
    "wordfreq.wf": "wordfreq",
    "wordfreq.load_table": "wordfreq",
    "simplifier.sentence": "simplifier",
    "simplifier.simplify_once": "simplifier",
    "simplifier.rank_span": "simplifier",
    "evaluation.grid_search_alpha": "evaluation",
    "evaluation.sari": "evaluation",
    "bench.build": "bench",
}


class Tracer:
    """Collects spans and counters for one phase at a time ("setup", "loop")."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.sentence = 0
        self.spans: list[tuple] = []  # (name, start, end, parent, sentence, phase)
        self._stack: list[list] = []  # [span index, start, child seconds]
        self.calls: dict[tuple[str, str], int] = Counter()
        self.seconds: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.unique_scored: set[tuple[str, ...]] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a coarse span and return its result."""
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        frame = [index, perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            self.spans[index] = (name, frame[1], end, parent, self.sentence, self.phase)
            key = (self.phase, name)
            self.calls[key] += 1
            self.seconds[key] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration

    def _fine(self, name: str, started: float, returned: float) -> None:
        key = (self.phase, name)
        self.calls[key] += 1
        self.seconds[key] += returned - started
        if self._stack:
            # the bookkeeping after the call is charged to nobody
            self._stack[-1][2] += perf_counter() - started

    def fine_wrapper(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = perf_counter()
            result = fn(*args, **kwargs)
            returned = perf_counter()
            if after is not None:
                after(result, args)
            self._fine(name, started, returned)
            return result

        return wrapper

    def span_wrapper(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patched.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def install(self, table=None) -> None:
        """Wrap the module-level names the pipeline calls through, and the
        lookup methods of one PhraseTable instance."""
        simp = plainterm.simplifier
        counts = self.counts

        def after_rank(result, args):
            chosen, candidates = result
            counts["candidates"] += len(candidates)
            counts["replaced"] += chosen != args[1].matched

        self._patch(simp, "tokenize", self.fine_wrapper("textproc.tokenize", simp.tokenize))
        self._patch(simp, "extract_spans", self.span_wrapper("textproc.extract_spans", simp.extract_spans))
        self._patch(simp, "rank_span", self.span_wrapper("simplifier.rank_span", simp.rank_span, after_rank))
        self._patch(simp, "simplify_once", self.span_wrapper("simplifier.simplify_once", simp.simplify_once))
        self._patch(simp, "wf", self.fine_wrapper("wordfreq.wf", simp.wf))
        ev = plainterm.evaluation
        self._patch(ev, "simplify", self.span_wrapper("simplifier.sentence", ev.simplify, self.after_sentence))
        self._patch(ev, "sari", self.fine_wrapper("evaluation.sari", ev.sari))
        ont = plainterm.ontology
        self._patch(ont, "tokenize", self.fine_wrapper("textproc.tokenize", ont.tokenize))
        if table is not None:
            def after_lookup(result, args):
                counts["lookup_hits"] += result is not None

            self._patch(table, "lookup", self.fine_wrapper("ontology.lookup", table.lookup, after_lookup))
            self._patch(table, "max_label_len", self.fine_wrapper("ontology.max_label_len", table.max_label_len))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def after_sentence(self, result, args) -> None:
        self.counts["sentences"] += 1
        self.counts["iterations"] += result.iterations
        self.counts["cap_hits"] += result.iterations == args[4].max_iterations
        self.sentence += 1

    # -- reading -----------------------------------------------------------

    def total(self, name: str, phase: str = "loop") -> tuple[int, float]:
        key = (phase, name)
        return self.calls.get(key, 0), self.seconds.get(key, 0.0)

    def layer_self_seconds(self, layer: str, phase: str = "loop") -> tuple[int, float]:
        calls, seconds = 0, 0.0
        for (ph, name), n in self.calls.items():
            if ph == phase and LAYER[name] == layer:
                calls += n
                seconds += self.seconds[(ph, name)]
        return calls, seconds


class TracedScorer:
    """LmScorer proxy: counts calls, tokens, <unk> mappings and distinct inputs."""

    def __init__(self, lm, tracer: Tracer) -> None:
        self.lm = lm
        self.tracer = tracer
        self.vocab = getattr(lm, "vocab", None)

    def score(self, tokens):
        started = perf_counter()
        result = self.lm.score(tokens)
        returned = perf_counter()
        counts = self.tracer.counts
        counts["scored_tokens"] += len(tokens)
        if self.vocab is not None:
            counts["unk_tokens"] += sum(1 for tok in tokens if tok not in self.vocab)
        self.tracer.unique_scored.add(tuple(tokens))
        self.tracer._fine("ngram_lm.score", started, returned)
        return result

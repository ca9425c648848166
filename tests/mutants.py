"""Committed mutant gate: tier-1 must fail on every mutant listed here.

Each entry is (name, file, old text, new text). The old text must occur
exactly once in its file, so a refactor that moves the code fails the gate
loudly, and the change that moves it updates the entry. Removing an entry
loosens the gate.

For each mutant the runner copies the whole tree into a temporary directory,
applies the one edit there and runs `pytest -x -q`, which must end in a test
failure (exit 1): an import or collection error does not count. The whole
tree is copied, not just src/, because pyproject.toml's pythonpath puts the
checkout's own src/ first. The unmutated copy is run first and must pass.

    python3 tests/mutants.py

pytest does not collect this file, since its name does not start with test_.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

MUTANTS = [
    # the backoff weights folded from the left, (b1 + b2) + p, instead of b1 + (b2 + p)
    (
        "backoff-left-fold",
        "src/plainterm/ngram_lm.py",
        "        while weights:\n            prob = weights.pop() + prob\n",
        "        prob = sum(weights) + prob\n",
    ),
    (
        "splice-window-one-short",
        "src/plainterm/simplifier.py",
        "stop = min(start + length + n, len(sent))",
        "stop = min(start + length + n - 1, len(sent))",
    ),
    # one log-prob memo entry for the same words at start 1 of an order-3
    # sentence and at start 2, which have different pads and windows
    (
        "window-memo-key-without-pads",
        "src/plainterm/simplifier.py",
        "key = (words, pads)",
        "key = words",
    ),
    # a pass input's base scored after no start pads, so its first order - 1 words go unscored
    (
        "base-keyed-with-no-pads",
        "src/plainterm/simplifier.py",
        "start, end = span.start, span.end\n        base = None if self.n is None else self._logprobs(norms, self.n)",
        "start, end = span.start, span.end\n        base = None if self.n is None else self._logprobs(norms, 0)",
    ),
    # the same in output, so each pass output's base is spliced from one scored without start pads
    (
        "output-base-keyed-with-no-pads",
        "src/plainterm/simplifier.py",
        "if output is None:\n            base = None if self.n is None else self._logprobs(norms, self.n)",
        "if output is None:\n            base = None if self.n is None else self._logprobs(norms, 0)",
    ),
    # the carried base stored where the next pass does not look, which then scores its input whole
    (
        "carry-stores-an-unread-key",
        "src/plainterm/simplifier.py",
        "self.logps.setdefault((sent, self.n), base)",
        "self.logps.setdefault((sent, 0), base)",
    ),
    # a new pass output left without a base, so the next pass scores its input whole
    (
        "output-base-not-carried",
        "src/plainterm/simplifier.py",
        "            if base is not None:\n                self.logps.setdefault((sent, self.n), base)\n",
        "",
    ),
    # every window read after a full context of start pads, whatever its place in the sentence
    (
        "logprobs-ignores-pads",
        "src/plainterm/ngram_lm.py",
        "history = [ids[START]] * pads",
        "history = [ids[START]] * n",
    ),
    # the base spliced over the chosen words, not the norms of the words written
    (
        "carry-splices-chosen",
        "src/plainterm/simplifier.py",
        "sent = (*sent[:start], *map(_NORM, new), *sent[end:])",
        "sent = (*sent[:start], *rep.chosen, *sent[end:])",
    ),
    (
        "carry-window-one-short",
        "src/plainterm/simplifier.py",
        "base = self._splice(base, sent, start, end, len(words))",
        "base = self._splice(base, sent, start, end, len(words) - 1)",
    ),
    # a candidate's mean taken over the pass input's length, not its own
    (
        "splice-score-over-input-length",
        "src/plainterm/simplifier.py",
        "math.fsum(logps) / len(sent)",
        "math.fsum(logps) / len(norms)",
    ),
    # one memo entry for sentences that differ only in case, so the second gets the first's tokens
    (
        "tokens-memo-keyed-by-lowercase",
        "src/plainterm/simplifier.py",
        "current = memo.tokens.get(sentence)\n    if current is None:\n        tokens = tuple(tokenize(sentence))\n        current = memo.tokens[sentence] =",
        "current = memo.tokens.get(sentence.lower())\n    if current is None:\n        tokens = tuple(tokenize(sentence))\n        current = memo.tokens[sentence.lower()] =",
    ),
    # one stored pass output for case variants, which share norms but not text
    (
        "outputs-memo-keyed-by-norms",
        "src/plainterm/simplifier.py",
        "key = (tokens, picks)",
        "key = (norms, picks)",
    ),
    # one stored pass output per pass input, so every grid point reuses the first one's rewrite
    (
        "outputs-memo-without-picks",
        "src/plainterm/simplifier.py",
        "key = (tokens, picks)",
        "key = tokens",
    ),
    # rank_span's tie rule: an exact tie in combined goes to the higher lm score
    (
        "rank-key-without-lm",
        "src/plainterm/simplifier.py",
        "key=lambda i: (combined[i], rows[i][2])",
        "key=lambda i: combined[i]",
    ),
    (
        "rank-key-swapped",
        "src/plainterm/simplifier.py",
        "key=lambda i: (combined[i], rows[i][2])",
        "key=lambda i: (rows[i][2], combined[i])",
    ),
    # an exact tie in combined goes to the first tied row, whatever their lm scores
    (
        "rank-tie-skips-lm",
        "src/plainterm/simplifier.py",
        "if combined.count(best) > 1:",
        "if False:",
    ),
    # iteration stops only on a pass that rewrites nothing, so a cycle runs to the cap
    (
        "no-cycle-guard",
        "src/plainterm/simplifier.py",
        "if current[1] in seen:",
        "if not replacements:",
    ),
    (
        "splice-capitalize",
        "src/plainterm/simplifier.py",
        "words[0] = words[0][:1].upper() + words[0][1:]",
        "words[0] = words[0].capitalize()",
    ),
    # a kept span ranks to its candidates, which simplify_once takes for a rewrite
    (
        "kept-span-builds-candidates",
        "src/plainterm/simplifier.py",
        "    if chosen == span.matched:\n        return chosen, ()\n",
        "",
    ),
    (
        "arpa-strips-only-newline",
        "src/plainterm/ngram_lm.py",
        'line = raw.rstrip("\\r\\n")\n            fields = line.split("\\t")',
        'line = raw.rstrip("\\n")\n            fields = line.split("\\t")',
    ),
    (
        "arpa-backslash-line-does-not-end-section",
        "src/plainterm/ngram_lm.py",
        'if stripped.startswith("\\\\"):\n                    break\n',
        'if stripped.startswith("\\\\"):\n                    continue\n',
    ),
    (
        "arpa-blank-line-ends-section",
        "src/plainterm/ngram_lm.py",
        "if not stripped:\n                    continue\n",
        "if not stripped:\n                    break\n",
    ),
    (
        "arpa-accepts-four-fields",
        "src/plainterm/ngram_lm.py",
        "if len(fields) not in (2, 3):",
        "if len(fields) not in (2, 3, 4):",
    ),
    # a text met again gets its log10 value, where its first line got the natural log
    (
        "arpa-pooled-backoff-kept-in-log10",
        "src/plainterm/ngram_lm.py",
        "backoff = backoff_of[fields[2]] = log10_backoff * _LN10",
        "backoff = log10_backoff * _LN10\n                    backoff_of[fields[2]] = log10_backoff",
    ),
    (
        "train-contexts-from-wrong-order",
        "src/plainterm/ngram_lm.py",
        "contexts = {key: key for key in probs if key >= top // base}",
        "contexts = {key: key for key in probs if key >= top}",
    ),
    (
        "train-backoff-weights-not-pooled",
        "src/plainterm/ngram_lm.py",
        "backoffs[ctx] = weights.setdefault(backoff, backoff)",
        "backoffs[ctx] = backoff",
    ),
    # B ** k in place of B ** (k - 1): a k-gram's key % B ** k drops no word,
    # so train reads a lower-order gram that is not there
    (
        "train-lower-gram-drops-no-word",
        "src/plainterm/ngram_lm.py",
        "top = base ** (k - 1)",
        "top = base ** k",
    ),
    # B = V, so the largest id carries into the next digit: keys of different lengths mix
    (
        "base-equal-to-vocabulary-size",
        "src/plainterm/ngram_lm.py",
        "self.base = len(self.words)",
        "self.base = len(self.words) - 1",
    ),
    # ids in the order the words come, which for a loaded model is its 1-gram
    # section's, so save_arpa's int sort follows the file
    (
        "ids-in-file-order",
        "src/plainterm/ngram_lm.py",
        "ordered = sorted({*words, START})",
        "ordered = list(dict.fromkeys([*words, START]))",
    ),
    (
        "align-without-union",
        "src/plainterm/ontology.py",
        "parent[find(member)] = find(anchor)",
        "find(member), find(anchor)",
    ),
    (
        "align-group-id-from-largest-concept",
        "src/plainterm/ontology.py",
        "smallest_id[root] = min(smallest_id.get(root, concept_id), concept_id)",
        "smallest_id[root] = max(smallest_id.get(root, concept_id), concept_id)",
    ),
    # groups looked up by their place in the table, which is their id only when ids are 0, 1, 2, ...
    (
        "group-looked-up-by-position",
        "src/plainterm/ontology.py",
        "self._by_id = {g.group_id: g for g in self.groups}",
        "self._by_id = dict(enumerate(self.groups))",
    ),
    # labels kept in file order, so an exact tie goes to whichever row came first
    (
        "labels-in-file-order",
        "src/plainterm/ontology.py",
        "groups.append(AlternativeGroup(group_id, tuple(sorted(first_wheres))))",
        "groups.append(AlternativeGroup(group_id, tuple(first_wheres)))",
    ),
    (
        "span-lengths-shortest-first",
        "src/plainterm/ontology.py",
        "for k in range(bits.bit_length() - 1, 1, -1)",
        "for k in range(2, bits.bit_length())",
    ),
    (
        "tokenize-keeps-printable-chunks-whole",
        "src/plainterm/textproc.py",
        "if chunk.isalnum():",
        "if chunk.isprintable():",
    ),
    (
        "span-without-length-one",
        "src/plainterm/textproc.py",
        "single = (1,) if max_len else ()",
        "single = ()",
    ),
    # a system id holding a carriage return reaches the report, which a line-based reader splits there
    (
        "system-id-lets-carriage-return-through",
        "src/plainterm/evaluation.py",
        '_REPORT_BREAKS = frozenset("\\t\\n\\r',
        '_REPORT_BREAKS = frozenset("\\t\\n',
    ),
    # BLEU over orders 1 to 3, still averaged over four
    (
        "bleu-orders-one-to-three",
        "src/plainterm/evaluation.py",
        "for n in range(1, 5):\n        matched = 0",
        "for n in range(1, 4):\n        matched = 0",
    ),
    # the sentence scores added left to right, so the mean depends on the pairs' order
    (
        "mean-sari-plain-addition",
        "src/plainterm/evaluation.py",
        "    return math.fsum(scores) / len(scores)\n",
        "    total = 0.0\n    for score in scores:\n        total += score\n    return total / len(scores)\n",
    ),
    (
        "sari-keep-recall-over-candidates",
        "src/plainterm/evaluation.py",
        "keep_r / keep_alls if keep_alls else 0.0",
        "keep_r / keep_cands if keep_cands else 0.0",
    ),
    (
        "sari-add-recall-over-candidates",
        "src/plainterm/evaluation.py",
        "add_good / len(add_all) if add_all else 0.0",
        "add_good / len(add_cand) if add_cand else 0.0",
    ),
]

# left out of the copy: version control, caches and benchmark output
_SKIPPED = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".work", "out"}


def check_entries() -> list[str]:
    """The entries whose old text does not occur exactly once in their file."""
    problems = []
    for name, file, old, _new in MUTANTS:
        path = ROOT / file
        count = path.read_text(encoding="utf-8").count(old) if path.is_file() else 0
        if count != 1:
            problems.append(f"{name}: old text occurs {count} times in {file}, expected once")
    return problems


def run_tier1(edit: tuple[str, str, str] | None) -> tuple[int, float]:
    """Copy the tree, apply edit (file, old, new) if any, run pytest -x -q; (exit code, seconds)."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=lambda _dir, names: [n for n in names if n in _SKIPPED or n.endswith(".egg-info")])
        if edit is not None:
            file, old, new = edit
            path = tree / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        # no bytecode: an edit of the same size within a second could reuse a stale .pyc
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return proc.returncode, time.perf_counter() - start


def main() -> int:
    problems = check_entries()
    for problem in problems:
        print(f"bad entry: {problem}")
    if problems:
        return 1
    code, seconds = run_tier1(None)
    if code != 0:
        print(f"the unmutated tree fails tier-1 (exit {code}, {seconds:.1f} s), so no mutant can be judged")
        return 1
    print(f"unmutated tree: passed ({seconds:.1f} s)")
    survivors = []
    for name, file, old, new in MUTANTS:
        code, seconds = run_tier1((file, old, new))
        # 1 is a test failure; 2 and above are collection, usage or internal errors
        if code == 1:
            print(f"caught   {name} ({seconds:.1f} s)")
        else:
            print(f"SURVIVED {name} (exit {code}, {seconds:.1f} s)")
            survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

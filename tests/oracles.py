"""Independent reference implementations used to cross-check the package.

These deliberately avoid the library's own code paths: plain loops, dicts,
and transitive closure instead of union-find, Counter algebra, or greedy
scanning. They are slow and obvious on purpose. The frozen copies at the
end are the exception: they keep earlier implementations as they were, as
exact references for faster rewrites.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter, defaultdict


def naive_plural(word):
    if word.endswith("y"):
        return word[:-1] + "ies"
    if word.endswith(("s", "x", "z", "ch", "sh")):
        return word + "es"
    return word + "s"


def component_label_sets(pairs, expand_plurals=False):
    """Group concepts by repeated merging until nothing changes.

    pairs: (concept_id, label_text) tuples, labels simple space-separated
    lowercase words. Returns the set of merged label frozensets, keeping only
    components with at least two labels.
    """
    label_sets = {}
    for concept_id, text in pairs:
        words = tuple(text.lower().split())
        variants = {words}
        if expand_plurals and words and words[-1].isalpha():
            variants.add(words[:-1] + (naive_plural(words[-1]),))
        label_sets.setdefault(concept_id, set()).update(variants)

    components = [set(v) for v in label_sets.values()]
    changed = True
    while changed:
        changed = False
        for i in range(len(components)):
            for j in range(i + 1, len(components)):
                if components[i] and components[j] and components[i] & components[j]:
                    components[i] |= components[j]
                    components[j] = set()
                    changed = True
    return {frozenset(c) for c in components if len(c) >= 2}


def greedy_spans(norms, index, max_len):
    """All matches sorted by start then longest, accepted when disjoint."""
    matches = []
    for i in range(len(norms)):
        for j in range(i + 1, min(i + max_len, len(norms)) + 1):
            if tuple(norms[i:j]) in index:
                matches.append((i, j))
    matches.sort(key=lambda m: (m[0], -(m[1] - m[0])))
    accepted = []
    for i, j in matches:
        if all(j <= a or i >= b for a, b in accepted):
            accepted.append((i, j))
    return accepted


def _gram_counts(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i : i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def sari_score(source, output, references):
    """SARI on a 0..100 scale: keep F1, delete precision, add F1, each averaged
    over n-gram sizes 1..4, then averaged together."""
    s_toks = source.lower().split()
    c_toks = output.lower().split()
    r_toks = [r.lower().split() for r in references]
    numref = len(r_toks)

    keep_sum = del_sum = add_sum = 0.0
    for n in range(1, 5):
        s = _gram_counts(s_toks, n)
        c = _gram_counts(c_toks, n)
        r = {}
        for ref in r_toks:
            for g, cnt in _gram_counts(ref, n).items():
                r[g] = r.get(g, 0) + cnt

        # keep: n-grams present in both source and output, credited against refs
        keep_cand = {}
        for g in s:
            if g in c:
                keep_cand[g] = min(s[g] * numref, c[g] * numref)
        keep_good = {g: min(v, r[g]) for g, v in keep_cand.items() if g in r and min(v, r[g]) > 0}
        keep_all = {}
        for g in s:
            if g in r:
                v = min(s[g] * numref, r[g])
                if v > 0:
                    keep_all[g] = v
        p = sum(keep_good[g] / keep_cand[g] for g in keep_good) / len(keep_cand) if keep_cand else 0.0
        rr = sum(keep_good[g] / keep_all[g] for g in keep_good) / len(keep_all) if keep_all else 0.0
        keep_sum += 2 * p * rr / (p + rr) if p + rr > 0 else 0.0

        # delete: n-grams dropped from the source, precision only
        del_cand = {g: s[g] * numref - c.get(g, 0) * numref for g in s}
        del_cand = {g: v for g, v in del_cand.items() if v > 0}
        del_good = {g: v - r.get(g, 0) for g, v in del_cand.items()}
        del_good = {g: v for g, v in del_good.items() if v > 0}
        del_sum += (
            sum(del_good[g] / del_cand[g] for g in del_good) / len(del_cand) if del_cand else 0.0
        )

        # add: new n-gram types backed by the references
        add_cand = {g for g in c if g not in s}
        add_good = {g for g in add_cand if g in r}
        add_all = {g for g in r if g not in s}
        p = len(add_good) / len(add_cand) if add_cand else 0.0
        rr = len(add_good) / len(add_all) if add_all else 0.0
        add_sum += 2 * p * rr / (p + rr) if p + rr > 0 else 0.0

    return 100.0 * (keep_sum / 4 + del_sum / 4 + add_sum / 4) / 3


def bleu_score(outputs, references):
    """Corpus BLEU, 0..100, uniform weights over n=1..4, no smoothing."""
    out_toks = [o.split() for o in outputs]
    ref_toks = [r.split() for r in references]
    out_len = sum(len(t) for t in out_toks)
    ref_len = sum(len(t) for t in ref_toks)
    if out_len == 0:
        return 0.0
    precisions = []
    for n in range(1, 5):
        hit = 0
        total = 0
        for ot, rt in zip(out_toks, ref_toks):
            oc = _gram_counts(ot, n)
            rc = _gram_counts(rt, n)
            for g, cnt in oc.items():
                total += cnt
                hit += min(cnt, rc.get(g, 0))
        if total == 0 or hit == 0:
            return 0.0
        precisions.append(hit / total)
    geo = math.exp(sum(math.log(p) for p in precisions) / 4)
    bp = 1.0 if out_len > ref_len else math.exp(1 - ref_len / out_len)
    return 100.0 * bp * geo


# Frozen copies: a faster rewrite must give the same floats (the same repr)
# and the same bytes as these, so they keep the old code paths, Counter
# algebra, tuple sorts and per-position n-gram slices included.


def _frozen_ngram_counter(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _left_sum(terms):
    # sum() as it was before Python 3.12 made it compensated: plain float adds, left to right
    total = 0.0
    for term in terms:
        total += term
    return total


def _frozen_sari_ngram(src, out, refs, n):
    numref = len(refs)
    s_counts = _frozen_ngram_counter(src, n)
    c_counts = _frozen_ngram_counter(out, n)
    r_counts = Counter()
    for ref in refs:
        r_counts.update(_frozen_ngram_counter(ref, n))
    s_rep = Counter({g: c * numref for g, c in s_counts.items()})
    c_rep = Counter({g: c * numref for g, c in c_counts.items()})

    keep_cand = s_rep & c_rep
    keep_good = keep_cand & r_counts
    keep_all = s_rep & r_counts
    keep_p = _left_sum(keep_good[g] / keep_cand[g] for g in keep_good) / len(keep_cand) if keep_cand else 0.0
    keep_r = _left_sum(keep_good[g] / keep_all[g] for g in keep_good) / len(keep_all) if keep_all else 0.0
    keep = 2 * keep_p * keep_r / (keep_p + keep_r) if keep_p > 0 or keep_r > 0 else 0.0

    del_cand = s_rep - c_rep
    del_good = del_cand - r_counts
    delete = _left_sum(del_good[g] / del_cand[g] for g in del_good) / len(del_cand) if del_cand else 0.0

    add_cand = set(c_counts) - set(s_counts)
    add_good = add_cand & set(r_counts)
    add_all = set(r_counts) - set(s_counts)
    add_p = len(add_good) / len(add_cand) if add_cand else 0.0
    add_r = len(add_good) / len(add_all) if add_all else 0.0
    add = 2 * add_p * add_r / (add_p + add_r) if add_p > 0 or add_r > 0 else 0.0

    return keep, delete, add


def frozen_sari_components(source, output, references):
    """SARI keep, delete and add components by per-level Counter & and -."""
    src = source.lower().split()
    out = output.lower().split()
    refs = [r.lower().split() for r in references]
    keep_sum = del_sum = add_sum = 0.0
    for n in range(1, 5):
        keep, delete, add = _frozen_sari_ngram(src, out, refs, n)
        keep_sum += keep
        del_sum += delete
        add_sum += add
    return 100.0 * keep_sum / 4, 100.0 * del_sum / 4, 100.0 * add_sum / 4


def frozen_bleu(outputs, references, max_n=4):
    """Corpus BLEU, counting each sentence's n-grams by tuple slices."""
    out_tokens = [o.split() for o in outputs]
    ref_tokens = [r.split() for r in references]
    out_len = sum(len(t) for t in out_tokens)
    ref_len = sum(len(t) for t in ref_tokens)
    if out_len == 0:
        return 0.0
    log_precisions = []
    for n in range(1, max_n + 1):
        matched = 0
        total = 0
        for out_t, ref_t in zip(out_tokens, ref_tokens):
            out_counts = _frozen_ngram_counter(out_t, n)
            ref_counts = _frozen_ngram_counter(ref_t, n)
            total += sum(out_counts.values())
            matched += sum(min(c, ref_counts[g]) for g, c in out_counts.items())
        if matched == 0 or total == 0:
            return 0.0
        log_precisions.append(math.log(matched / total))
    brevity = 1.0 if out_len > ref_len else math.exp(1.0 - ref_len / out_len)
    return 100.0 * brevity * math.exp(math.fsum(log_precisions) / max_n)


def frozen_tokenize(sentence):
    """tokenize before its whole-chunk fast path: every chunk is peeled character by character."""

    def is_punct(ch):
        return unicodedata.category(ch).startswith("P")

    texts = []
    for chunk in sentence.split():
        lead = 0
        while lead < len(chunk) and is_punct(chunk[lead]):
            texts.append(chunk[lead])
            lead += 1
        trail = len(chunk)
        while trail > lead and is_punct(chunk[trail - 1]):
            trail -= 1
        if trail > lead:
            texts.append(chunk[lead:trail])
        texts.extend(chunk[trail:])
    return [(text, text.lower()) for text in texts]


def frozen_save_arpa(model, stream):
    """ARPA text with each section's n-grams sorted as string tuples."""
    ln10 = math.log(10.0)
    by_order = {}
    for gram in model.probs:
        by_order.setdefault(len(gram), []).append(gram)
    stream.write("\\data\\\n")
    for k in range(1, model.order + 1):
        stream.write(f"ngram {k}={len(by_order.get(k, []))}\n")
    for k in range(1, model.order + 1):
        stream.write(f"\n\\{k}-grams:\n")
        for gram in sorted(by_order.get(k, [])):
            log10_prob = model.probs[gram] / ln10
            line = f"{log10_prob!r}\t{' '.join(gram)}"
            backoff = model.backoffs.get(gram)
            if backoff is not None:
                line += f"\t{backoff / ln10!r}"
            stream.write(line + "\n")
    stream.write("\n\\end\\\n")


def frozen_train(corpus, order=3, discount=0.75, min_count=2):
    """The (order, probs, backoffs, vocab) of a trained model, counting every
    order at each predicted position by tuple slices, all orders at once."""
    start, stop, unk = "<s>", "</s>", "<unk>"
    placeholder = -99.0 * math.log(10.0)
    sentences = []
    raw_counts = Counter()
    for line in corpus:
        words = line.split()
        if not words:
            continue
        sentences.append(words)
        raw_counts.update(words)
    if not sentences:
        raise ValueError("no training data")

    keep = {w for w, c in raw_counts.items() if c >= min_count}
    vocab = keep | {start, stop, unk}

    counts = [Counter() for _ in range(order + 1)]
    for words in sentences:
        mapped = [w if w in keep else unk for w in words]
        padded = [start] * (order - 1) + mapped + [stop]
        for i in range(order - 1, len(padded)):
            for k in range(1, order + 1):
                counts[k][tuple(padded[i - k + 1 : i + 1])] += 1

    ctx_totals = [defaultdict(int) for _ in range(order + 1)]
    ctx_types = [defaultdict(int) for _ in range(order + 1)]
    for k in range(1, order + 1):
        for gram, count in counts[k].items():
            ctx = gram[:-1]
            ctx_totals[k][ctx] += count
            ctx_types[k][ctx] += 1

    predicted = sorted(vocab - {start})
    uniform = 1.0 / len(predicted)

    probs = {}
    backoffs = {}

    total = ctx_totals[1][()]
    lam = discount * ctx_types[1][()] / total
    for word in predicted:
        count = counts[1].get((word,), 0)
        prob = max(count - discount, 0.0) / total + lam * uniform
        probs[(word,)] = math.log(prob)
    probs[(start,)] = placeholder

    for k in range(2, order + 1):
        for gram, count in counts[k].items():
            ctx = gram[:-1]
            ctx_total = ctx_totals[k][ctx]
            lam = discount * ctx_types[k][ctx] / ctx_total
            lower = math.exp(probs[gram[1:]])
            prob = max(count - discount, 0.0) / ctx_total + lam * lower
            probs[gram] = math.log(prob)
        for ctx, ctx_total in ctx_totals[k].items():
            lam = discount * ctx_types[k][ctx] / ctx_total
            backoffs[ctx] = math.log(lam)
            if ctx not in probs:
                probs[ctx] = placeholder

    return order, probs, backoffs, frozenset(vocab)


_FROZEN_LN10 = math.log(10.0)


def _frozen_arpa_lines(stream):
    """Yield (line_no, line, stripped) for each non-blank line, then (last + 1, "", "") at the end."""
    line_no = 0
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        stripped = line.strip()
        if stripped:
            yield line_no, line, stripped
    yield line_no + 1, "", ""


def frozen_load_arpa(stream):
    """The (order, probs, backoffs, vocab) of an ARPA file, read through a
    generator of non-blank lines that strips every line; errors name the
    offending line.

    Reads the stream once. Blank lines are ignored anywhere, every value must
    be finite, and an n-gram may not repeat within its section.
    """
    lines = _frozen_arpa_lines(stream)
    line_no, _, stripped = next(lines)
    if stripped != "\\data\\":
        raise ValueError(f"line {line_no}: missing \\data\\ header")
    declared: dict[int, int] = {}
    for line_no, line, stripped in lines:
        if not stripped.startswith("ngram "):
            break
        try:
            order_text, count_text = stripped[len("ngram ") :].split("=", 1)
            declared[int(order_text)] = int(count_text)
        except ValueError:
            raise ValueError(f"line {line_no}: bad ngram count declaration {line!r}") from None
        last_declaration = line_no
    if not declared:
        raise ValueError(f"line {line_no}: no ngram counts declared")
    max_order = max(declared)
    # distinct orders, all >= 1 and as many as the largest: exactly 1..N
    if min(declared) < 1 or len(declared) != max_order:
        raise ValueError(f"line {last_declaration}: ngram count declarations must cover orders 1..N")

    probs: dict[tuple[str, ...], float] = {}
    backoffs: dict[tuple[str, ...], float] = {}
    for k in range(1, max_order + 1):
        header = f"\\{k}-grams:"
        if stripped != header:
            raise ValueError(f"line {line_no}: expected {header} section")
        seen = 0
        # the end-of-input line is empty, so it ends the last section too
        for line_no, line, stripped in lines:
            if not stripped or stripped.startswith("\\"):
                break
            fields = line.split("\t")
            if len(fields) not in (2, 3):
                raise ValueError(f"line {line_no}: malformed entry, expected 2 or 3 tab-separated fields")
            try:
                log10_prob = float(fields[0])
            except ValueError:
                raise ValueError(f"line {line_no}: bad log probability {fields[0]!r}") from None
            # NaN compares false both ways, so it would win or lose a ranking silently
            if not -math.inf < log10_prob < math.inf:
                raise ValueError(f"line {line_no}: log probability must be finite, got {fields[0]!r}")
            gram = tuple(fields[1].split(" "))
            if len(gram) != k or not all(gram):
                raise ValueError(f"line {line_no}: expected a {k}-gram, got {fields[1]!r}")
            prob = log10_prob * _FROZEN_LN10
            if probs.setdefault(gram, prob) is not prob:
                raise ValueError(f"line {line_no}: duplicate {k}-gram {fields[1]!r}")
            if len(fields) == 3:
                try:
                    log10_backoff = float(fields[2])
                except ValueError:
                    raise ValueError(f"line {line_no}: bad backoff weight {fields[2]!r}") from None
                if not -math.inf < log10_backoff < math.inf:
                    raise ValueError(f"line {line_no}: backoff weight must be finite, got {fields[2]!r}")
                backoffs[gram] = log10_backoff * _FROZEN_LN10
            seen += 1
        if seen != declared[k]:
            raise ValueError(
                f"line {line_no}: {k}-gram count mismatch, header declares {declared[k]} but section has {seen}"
            )
    if stripped != "\\end\\":
        raise ValueError(f"line {line_no}: missing \\end\\ terminator")

    vocab = frozenset(gram[0] for gram in probs if len(gram) == 1)
    return max_order, probs, backoffs, vocab

"""plainterm: lexical simplification of specialist text with plain alternatives.

Pipeline: align ontology labels into a phrase table, match spans in a
sentence, rank each span's alternatives with a language model and a word
frequency score, substitute, and iterate to a fixed point. The evaluation
side covers SARI, BLEU, judgment tallies with simplification gain, bootstrap
significance, and alpha tuning.
"""

from .ngram_lm import LmScorer, LookupScorer, NgramModel, load_arpa, save_arpa, train
from .ontology import (
    AlternativeGroup,
    ConceptRecord,
    PhraseTable,
    align,
    parse_records,
    read_table,
    write_table,
)
from .simplifier import (
    Candidate,
    ScoreMemo,
    SimplificationResult,
    SimplifierConfig,
    rank_span,
    simplify,
    simplify_once,
)
from .textproc import Span, Token, detokenize, extract_spans, tokenize
from .wordfreq import FrequencyTable, build_table, load_table, wf
from .evaluation import (
    EvalCounts,
    JudgmentRecord,
    aggregate_judgments,
    bleu,
    grid_search_alpha,
    sari,
    sg_significance,
    simplification_gain,
)

__version__ = "0.1.0"

__all__ = [
    "AlternativeGroup",
    "Candidate",
    "ConceptRecord",
    "EvalCounts",
    "FrequencyTable",
    "JudgmentRecord",
    "LmScorer",
    "LookupScorer",
    "NgramModel",
    "PhraseTable",
    "ScoreMemo",
    "SimplificationResult",
    "SimplifierConfig",
    "Span",
    "Token",
    "aggregate_judgments",
    "align",
    "bleu",
    "build_table",
    "detokenize",
    "extract_spans",
    "grid_search_alpha",
    "load_arpa",
    "load_table",
    "parse_records",
    "rank_span",
    "read_table",
    "sari",
    "save_arpa",
    "sg_significance",
    "simplification_gain",
    "simplify",
    "simplify_once",
    "tokenize",
    "train",
    "wf",
    "write_table",
]

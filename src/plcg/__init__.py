"""Probabilistic left-corner grammar toolkit.

Treebank ingestion, PCFG and left-corner model induction, grammar
transforms, an exhaustive chart parser, a beam left-corner parser, and
PARSEVAL evaluation, with a command-line front end (``plcg``).
"""

from .chart import (
    sentence_probability,
    viterbi_parse,
)
from .derivation import (
    ReplayError,
    derivation_events,
    replay,
    stack_delta,
)
from .evalb import (
    EvalReport,
    SentenceScore,
    YieldMismatchError,
    aggregate,
    brackets,
    score_corpus,
    score_pair,
)
from .grammar_types import (
    ATTACH_RULE,
    DeltaModel,
    PcfgModel,
    PlcgModel,
    Rule,
)
from .induction import (
    delta_tree_log_prob,
    induce_delta_model,
    induce_pcfg,
    induce_plcg,
    pcfg_tree_log_prob,
    plcg_tree_log_prob,
)
from .lc_parser import (
    ParserState,
    TooManyDerivationsError,
    beam_parse,
    exhaustive_lc_parse,
    recover_tree,
)
from .model_io import ModelFormatError, load_model, loads, dumps, save_model
from .transforms import (
    ReservedSymbolError,
    binarize_corpus,
    binarize_pcfg,
    binarize_tree,
    debinarize_tree,
)
from .treebank import (
    PreprocessOptions,
    Tree,
    TreeReadError,
    UnaryMode,
    leaves,
    preprocess_corpus,
    read_trees,
    to_pos_tree,
    write_tree,
    write_trees,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Explanation-graph engine.

Probabilistic inference and parameter learning over AND/OR graphs of
random switches: inside (sum-product) probabilities, Viterbi
explanations, EM/MAP estimation via expected counts, and Viterbi
training with Dirichlet pseudo counts.  Frontends compile context-free
parsing (top-down and left-corner), naive Bayes with a hidden class,
and probabilistic graph reachability into the shared graph format.
"""

from .errors import (
    AllZero,
    CyclicGraph,
    DanglingReference,
    ExplGraphError,
    ExplGraphWarning,
    ExplosionLimit,
    FileFormatError,
    InconsistentExplanation,
    InvalidRow,
    LengthMismatch,
    MissingParameter,
    NoPath,
    TermSyntaxError,
    Unparseable,
    UndeclaredValue,
    VanishingAcceptance,
    ZeroEvidence,
)
from .graph import (
    Body,
    DefiningFormula,
    Explanation,
    ExplanationGraph,
    GraphBuilder,
    SwitchDecl,
    SwitchInstance,
    check_exclusiveness,
    diagnose_exclusiveness,
    enumerate_explanations,
    explanation_prob,
    merge_graphs,
    validate_graph,
)
from .grammar import (
    CFGRule,
    CorpusSample,
    Grammar,
    MetricsReport,
    ParseTree,
    compile_pcfg,
    compile_pcfg_corpus,
    compile_plcg,
    compile_plcg_corpus,
    count_ml,
    gen_corpus,
    metrics,
    parse_corpus,
    tree_from_explanation,
    tree_goals_graph,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    SessionResult,
    cv_run,
    fold_partition,
    run_session,
)
from .inference import InsideTable, ViterbiResult, goal_prob, inside_prob, viterbi
from .learning import (
    LearnConfig,
    LearnReport,
    em_map_learn,
    expected_counts,
    learn,
    objective,
    vt_learn,
)
from .models import (
    DataRow,
    EdgeGraph,
    NBHSpec,
    compile_nbh,
    compile_nbh_corpus,
    compile_path_graph,
    compile_path_queries,
    nbh_classify,
    nbh_classify_rows,
    six_node_demo_graph,
)
from .tables import ExpectedCounts, ParameterTable, PseudoCountTable
from .terms import Term, parse_term, render_term

__version__ = "0.1.0"

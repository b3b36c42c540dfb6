"""Experiment orchestration: cross-validation and the built-in session.

``cv_run`` partitions a dataset into near-equal folds with a seeded
shuffle, learns on the held-in folds and scores Viterbi predictions on
the held-out fold: parse-tree metrics for grammar tasks, accuracy for the
hidden-class naive-Bayes task.  A grammar fold's test sentences are
parsed from one graph and one Viterbi pass (``parse_corpus``), as an NBH
fold's rows are classified from one graph (``nbh_classify_rows``).
Per-fold iteration counts and learning wall time are recorded so method
comparisons (e.g. Viterbi training versus EM convergence speed) can be
rerun at small scale.

``run_session`` replays the bundled six-node graph demo: Viterbi path
before learning, Viterbi training on five reachability goals, Viterbi
path after learning, with built-in checks of the expected outcome.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AllZero, ExplGraphError, ZeroEvidence
from .grammar import (
    Grammar,
    MetricsReport,
    ParseTree,
    compile_pcfg_corpus,
    compile_plcg_corpus,
    metrics,
    parse_corpus,
)
from .graph import check_exclusiveness, diagnose_exclusiveness, enumerate_explanations
from .inference import viterbi
from .learning import LearnConfig, LearnReport, learn
from .models import (
    DataRow,
    NBHSpec,
    compile_nbh_corpus,
    compile_path_queries,
    nbh_classify_rows,
    six_node_demo_graph,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "cv_run",
    "run_session",
    "SessionResult",
    "SESSION_QUERIES",
]


@dataclass
class ExperimentConfig:
    """A cross-validation experiment over one task and one method."""

    task: str  # pcfg | plcg | nbh
    method: str = "em"
    folds: int = 8
    seed: int = 0
    learn: LearnConfig = None
    grammar: Optional[Grammar] = None
    treebank: Optional[list[ParseTree]] = None
    nbh_spec: Optional[NBHSpec] = None
    nbh_rows: Optional[list[DataRow]] = None

    def __post_init__(self):
        if self.task not in ("pcfg", "plcg", "nbh"):
            raise ExplGraphError(f"cross-validation not defined for task {self.task!r}")
        if self.folds < 2:
            raise ExplGraphError("need at least 2 folds")
        if self.learn is None:
            self.learn = LearnConfig(method=self.method, seed=self.seed)
        if self.learn.method != self.method:
            raise ExplGraphError("config.method and learn.method disagree")
        if self.task in ("pcfg", "plcg"):
            if self.grammar is None or self.treebank is None:
                raise ExplGraphError(f"task {self.task} needs grammar and treebank")
            n = len(self.treebank)
        else:
            if self.nbh_spec is None or self.nbh_rows is None:
                raise ExplGraphError("task nbh needs nbh_spec and nbh_rows")
            n = len(self.nbh_rows)
        if self.folds > n:
            raise ExplGraphError(f"{self.folds} folds exceed dataset size {n}")


@dataclass
class ExperimentReport:
    task: str
    method: str
    folds: list  # MetricsReport (grammar tasks) or float accuracy (nbh)
    means: dict[str, float]
    sds: dict[str, float]
    iterations: list[int]
    learn_times: list[float]  # parameter fitting only
    fold_times: list[float]  # fitting plus compilation and prediction
    prediction_failures: int = 0

    def render(self) -> str:
        out = [f"task {self.task}", f"method {self.method}", f"folds {len(self.folds)}"]
        for i, f in enumerate(self.folds):
            timing = (
                f"iterations {self.iterations[i]} "
                f"learn_time {self.learn_times[i]:.4f} "
                f"total_time {self.fold_times[i]:.4f}"
            )
            if isinstance(f, MetricsReport):
                out.append(
                    f"fold {i} lt {f.lt:.4f} bt {f.bt:.4f} zero_cb {f.zero_cb:.4f} "
                    f"n {f.n} {timing}"
                )
            else:
                out.append(f"fold {i} accuracy {f:.4f} {timing}")
        for k in self.means:
            out.append(f"mean {k} {self.means[k]:.4f} sd {self.sds[k]:.4f}")
        if self.prediction_failures:
            out.append(f"prediction_failures {self.prediction_failures}")
        return "\n".join(out) + "\n"

    def to_dict(self) -> dict:
        folds = [
            {"lt": f.lt, "bt": f.bt, "zero_cb": f.zero_cb, "n": f.n}
            if isinstance(f, MetricsReport)
            else {"accuracy": f}
            for f in self.folds
        ]
        return {
            "task": self.task,
            "method": self.method,
            "folds": folds,
            "means": self.means,
            "sds": self.sds,
            "iterations": self.iterations,
            "learn_times": self.learn_times,
            "fold_times": self.fold_times,
            "prediction_failures": self.prediction_failures,
        }


def fold_partition(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle split into ``folds`` parts with sizes differing by
    at most one; parts are disjoint and cover range(n)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def _aggregate(rows: dict[str, list[float]]) -> tuple[dict, dict]:
    means = {k: float(np.mean(v)) for k, v in rows.items()}
    sds = {k: float(np.std(v)) for k, v in rows.items()}
    return means, sds


def _grammar_fold(config, train_idx, test_idx):
    grammar = config.grammar
    trees = config.treebank
    compile_corpus = compile_pcfg_corpus if config.task == "pcfg" else compile_plcg_corpus
    train_sents = [trees[i].tokens() for i in train_idx]
    graph, goals = compile_corpus(grammar, train_sents)
    t0 = time.perf_counter()
    report = learn(graph, goals, config.learn)
    dt = time.perf_counter() - t0
    test = [trees[int(i)] for i in test_idx]
    parsed = parse_corpus(grammar, [t.tokens() for t in test], report.final_theta, config.task)
    predicted = [p for p in parsed if p is not None]
    reference = [t for t, p in zip(test, parsed) if p is not None]
    if not predicted:
        raise ExplGraphError("no test sentence could be predicted in a fold")
    failures = len(test) - len(predicted)
    return _metrics_with_failures(predicted, reference, failures), report, dt, failures


def _metrics_with_failures(predicted, reference, failures) -> MetricsReport:
    m = metrics(predicted, reference)
    if failures:
        n = m.n + failures
        scale = m.n / n
        m = MetricsReport(m.lt * scale, m.bt * scale, m.zero_cb * scale, n)
    return m


def _nbh_fold(config, train_idx, test_idx):
    spec = config.nbh_spec
    rows = config.nbh_rows
    train = [rows[int(i)] for i in train_idx]
    graph, goals = compile_nbh_corpus(spec, train, observed_class=True)
    t0 = time.perf_counter()
    report = learn(graph, goals, config.learn)
    dt = time.perf_counter() - t0
    test = [rows[int(i)] for i in test_idx if rows[int(i)].cls is not None]
    if not test:
        raise ExplGraphError("fold contains no labelled test rows")
    predicted = nbh_classify_rows(spec, report.final_theta, test)
    correct = sum(pred == row.cls for (pred, _), row in zip(predicted, test))
    return correct / len(test), report, dt, 0


def cv_run(config: ExperimentConfig) -> ExperimentReport:
    """Deterministic k-fold cross-validation for one task and method."""
    n = len(config.treebank if config.task in ("pcfg", "plcg") else config.nbh_rows)
    parts = fold_partition(n, config.folds, config.seed)
    run_fold = _grammar_fold if config.task in ("pcfg", "plcg") else _nbh_fold
    per_fold, iters, times, totals = [], [], [], []
    failures = 0
    for f in range(config.folds):
        test_idx = parts[f]
        train_idx = np.concatenate([parts[i] for i in range(config.folds) if i != f])
        t0 = time.perf_counter()
        try:
            score, report, dt, failed = run_fold(config, train_idx, test_idx)
        except (ZeroEvidence, AllZero) as e:
            raise type(e)(f"fold {f}: {e}") from e
        totals.append(time.perf_counter() - t0)
        per_fold.append(score)
        iters.append(report.iterations)
        times.append(dt)
        failures += failed
    if config.task == "nbh":
        rows = {"accuracy": [float(x) for x in per_fold]}
    else:
        rows = {
            "lt": [m.lt for m in per_fold],
            "bt": [m.bt for m in per_fold],
            "zero_cb": [m.zero_cb for m in per_fold],
        }
    rows["iterations"] = [float(i) for i in iters]
    rows["learn_time"] = times
    rows["total_time"] = totals
    means, sds = _aggregate(rows)
    return ExperimentReport(
        config.task, config.method, per_fold, means, sds, iters, times, totals, failures
    )


# ---------------------------------------------------------------------------
# built-in session on the six-node demo graph
# ---------------------------------------------------------------------------

SESSION_QUERIES = [(1, 4), (1, 3), (2, 4), (2, 5), (3, 6)]
_PRE_PATH = [1, 2, 3, 4]
_PRE_PROB = 0.432
_POST_PATH = [1, 6, 5, 4]


@dataclass
class SessionResult:
    ok: bool
    transcript: str
    pre: object
    post: object
    report: LearnReport
    diagnostics: list[str] = field(default_factory=list)


def _route(explanation, start: int) -> list[int]:
    """The nodes of a path explanation's route, read off its derivation:
    each move body is tagged with the node it moves to."""
    nodes, derivation = [start], explanation.derivation
    while derivation:
        ((node, derivation),) = derivation
        nodes.append(node)
    return nodes


def run_session(delta: float = 1.0, seed: int = 0, strict: bool = True) -> SessionResult:
    """Pre-learning Viterbi, Viterbi training, post-learning Viterbi.

    Checks that the most probable route flips from 1-2-3-4 (probability
    0.432 under the built-in edge probabilities) to 1-6-5-4 after
    training on the five session goals.  In strict mode a failed check
    raises; otherwise it is reported in the transcript.
    """
    lines = []
    diagnostics = []
    eg = six_node_demo_graph()
    theta0 = eg.parameter_table()
    graph, goals = compile_path_queries(eg, SESSION_QUERIES)
    g14 = goals[0]

    pre = viterbi(graph, g14, theta0)
    lines.append("?- viterbi path(1,4)")
    lines.append(f"P = {pre.prob:.6g}")
    lines.append("VE = " + pre.explanation.render())
    lines.append(f"route: {' -> '.join(map(str, _route(pre.explanation, 1)))}")

    verdict = check_exclusiveness(enumerate_explanations(graph, g14))
    lines.append(f"exclusiveness of expl(path(1,4)): {verdict}")
    diagnose_exclusiveness(graph)  # cache so later inside tables carry the flag

    config = LearnConfig(method="vt", delta=delta, seed=seed, init="uniform")
    lines.append(
        "?- learn([path(1,4), path(1,3), path(2,4), path(2,5), path(3,6)]) by vt"
    )
    report = learn(graph, goals, config)
    lines.append(
        f"vt: {report.iterations} passes, {report.termination}, "
        f"objective {report.objective:.6g}"
    )

    post = viterbi(graph, g14, report.final_theta)
    lines.append("?- viterbi path(1,4)")
    lines.append(f"P = {post.prob:.6g}")
    lines.append("VE = " + post.explanation.render())
    lines.append(f"route: {' -> '.join(map(str, _route(post.explanation, 1)))}")

    def check(name, cond):
        if not cond:
            diagnostics.append(f"check failed: {name}")

    check("pre-learning route is 1 -> 2 -> 3 -> 4", _route(pre.explanation, 1) == _PRE_PATH)
    check(
        "pre-learning probability is 0.432",
        abs(pre.prob - _PRE_PROB) <= 1e-9 * _PRE_PROB,
    )
    check("post-learning route is 1 -> 6 -> 5 -> 4", _route(post.explanation, 1) == _POST_PATH)
    check("training reached a fixed point", report.termination == "fixed_point")

    ok = not diagnostics
    lines.extend(diagnostics)
    lines.append("session ok" if ok else "session FAILED")
    transcript = "\n".join(lines) + "\n"
    if strict and not ok:
        raise ExplGraphError("session checks failed:\n" + "\n".join(diagnostics))
    return SessionResult(ok, transcript, pre, post, report, diagnostics)

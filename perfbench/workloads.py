"""The four benchmark workloads, their output checks and their metrics.

Every workload is a batch job run in a closed loop by one caller.  Inputs
(corpus, treebank or rows, and the fold split) are fixed by the workload
name and a data seed; the run seed seeds the learners' restart
initialisation.  The library sees only the generated inputs and is driven
through its public calls; each call is wrapped in a tracer span.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from explgraph import (
    AllZero,
    DataRow,
    ExperimentConfig,
    LearnConfig,
    NBHSpec,
    Term,
    Unparseable,
    compile_nbh_corpus,
    compile_pcfg,
    compile_pcfg_corpus,
    compile_plcg,
    compile_plcg_corpus,
    cv_run,
    enumerate_explanations,
    explanation_prob,
    fold_partition,
    gen_corpus,
    learn,
    metrics,
    nbh_classify,
    render_term,
    run_session,
    tree_from_explanation,
    viterbi,
)
from explgraph.inference import log_theta_vector
from explgraph.io import load_grammar

from measure import median, percentile, reachable_share, timed_call

# One CPU-time deadline for every sentence of both grammar workloads.
PARSE_DEADLINE_S = 0.25
# A sentence's parse CPU time varied by up to 1.5x between runs on a shared
# machine.  Sentences finishing within this factor below the deadline are
# recorded as near it; only those may change verdict between runs.
VERDICT_SPREAD = 3.0
# Test sentences up to this length are checked against enumeration.
ENUM_MAX_TOKENS = 8
CV_FOLDS_GRAMMAR = 4
CV_FOLDS_NBH = 5
FOLD_SEED = 0
DEFAULT_DATA_SEED = 1
OBJ_RTOL = 1e-12
THETA_ATOL = 1e-9


@dataclass
class Pass:
    """What one pass of a workload measured and produced."""

    wall_s: float
    e2e: dict  # metric name -> value, for this pass
    ops: int  # library operations timed in this pass
    outcome: object = None  # deterministic result compared across passes
    verdicts: dict = None  # {"timeouts": [ids], "near": {id: cpu_s}}
    outputs: dict = field(default_factory=dict)  # kept for checks
    graph: object = None  # a training graph, for graph sizes and DP timings
    goals: list = None
    theta: object = None

    def release(self) -> None:
        """Drop what only checks and layer timings need."""
        self.outputs, self.graph, self.goals, self.theta = {}, None, None, None


@dataclass
class Tested:
    """Per-sentence results of the test folds of one pass."""

    latencies: list = field(default_factory=list)
    timeouts: list = field(default_factory=list)
    near: dict = field(default_factory=dict)  # id -> CPU s, finished near the deadline
    fails: int = 0
    # (tokens, explanation, tree, log_prob, theta, graph when short enough to enumerate)
    parsed: list = field(default_factory=list)


class Checks:
    """Collects named output checks; a failed check is a failed operation."""

    def __init__(self):
        self.run = 0
        self.failures: list[str] = []

    def expect(self, cond: bool, what: str) -> None:
        self.run += 1
        if not cond:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def check_theta(checks: Checks, theta, what: str) -> None:
    worst = max(abs(float(vec.sum()) - 1.0) for vec in theta.data.values())
    checks.expect(worst <= THETA_ATOL, f"{what}: theta rows sum to 1 (worst error {worst:.3g})")


def check_monotone(checks: Checks, trace, what: str) -> None:
    ok = all(b >= a - OBJ_RTOL * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))
    checks.expect(ok, f"{what}: objective trace never decreases")


def check_session(checks: Checks) -> None:
    result = run_session(strict=False)
    checks.expect(result.ok, "run_session passes: " + "; ".join(result.diagnostics))


def graph_sizes(graph, goals) -> dict:
    comp = graph.compiled()
    reach, total = reachable_share(graph, goals)
    return {
        "graph.goals": graph.n_goals,
        "graph.bodies": comp.n_bodies,
        "graph.atoms": graph.body_size(),
        "graph.reachable_share": reach / total,
        "compiled.levels": len(comp.levels),
        "compiled.slots": comp.layout.n_slots,
    }


def dp_pass_ms(tracer, graph, goals, theta, repeats: int = 5) -> dict:
    """Median time of one standalone call of each compiled pass."""
    comp = graph.compiled()
    log_theta = log_theta_vector(graph, theta)
    seeds = np.bincount(np.asarray(goals, dtype=np.int64), minlength=graph.n_goals)
    inside, scores = comp.inside_pass(log_theta)
    _, sel = comp.viterbi_pass(log_theta)
    calls = {
        "compiled.inside": lambda: comp.inside_pass(log_theta),
        "compiled.viterbi": lambda: comp.viterbi_pass(log_theta),
        "compiled.outside": lambda: comp.expected_counts_pass(inside, scores, seeds),
        "compiled.select_expl": lambda: comp.selected_explanations_pass(sel),
        "compiled.select_counts": lambda: comp.selected_counts_pass(sel, seeds),
    }
    out = {}
    with tracer.span("bench.dp_passes"):
        for name, call in calls.items():
            times = []
            for _ in range(repeats):
                with tracer.span(name):
                    t0 = time.perf_counter()
                    call()
                    times.append(time.perf_counter() - t0)
            out[name + "_ms"] = 1000.0 * median(times)
    return out


def corpus_stats(sentences) -> dict:
    lengths = [len(s) for s in sentences]
    return {
        "n": len(lengths),
        "distinct": len({tuple(s) for s in sentences}),
        "median_len": median(lengths),
        "max_len": max(lengths),
    }


# ---------------------------------------------------------------------------
# grammar workloads
# ---------------------------------------------------------------------------


def demo20_corpus(root, tracer, n, data_seed):
    with tracer.span("io.load_grammar"):
        grammar = load_grammar(str(root / "data" / "demo20.grammar"))
    with tracer.span("grammar.gen_corpus"):
        sample = gen_corpus(grammar, grammar.pcfg_parameter_table(), n, seed=data_seed)
    return grammar, sample


class PcfgLearn:
    """Compile the N=1000 demo20 corpus once, then VT and EM learning."""

    name = "pcfg-learn"
    e2e_names = ("setup_s", "learn_s", "peak_rss_mb")
    job_metric = "learn_s"
    N = 1000

    def setup(self, root, tracer, data_seed):
        grammar, sample = demo20_corpus(root, tracer, self.N, data_seed)
        return {"grammar": grammar, "sentences": sample.sentences()}

    def inputs(self, data):
        return {"corpus": corpus_stats(data["sentences"])}

    def run_pass(self, data, tracer, seed):
        grammar, sentences = data["grammar"], data["sentences"]
        t0 = time.perf_counter()
        with tracer.span("bench.learn"):
            with tracer.span("grammar.compile"):
                graph, goals = compile_pcfg_corpus(grammar, sentences)
            with tracer.span("compiled.flatten"):
                graph.compiled()
            with tracer.span("learning.vt"):
                vt = learn(graph, goals, LearnConfig(method="vt", delta=1.0, restarts=5, seed=seed))
            with tracer.span("learning.em"):
                em = learn(graph, goals, LearnConfig(method="em", seed=seed))
        wall = time.perf_counter() - t0
        outcome = (vt.iterations, vt.objective, em.iterations, em.objective)
        return Pass(
            wall_s=wall,
            e2e={"learn_s": wall},
            ops=3,
            outcome=outcome,
            outputs={"vt": vt, "em": em},
            graph=graph,
            goals=goals,
            theta=vt.final_theta,
        )

    def check(self, checks, first, data):
        vt, em = first.outputs["vt"], first.outputs["em"]
        checks.expect(
            vt.termination == "fixed_point", f"vt stops at fixed_point ({vt.termination})"
        )
        check_monotone(checks, em.objective_trace, "em")
        check_monotone(checks, vt.objective_trace, "vt")
        check_theta(checks, vt.final_theta, "vt")
        check_theta(checks, em.final_theta, "em")

    def layer_metrics(self, totals, spans_of, first):
        out = {"grammar.compile_s": totals.get("grammar.compile", 0.0)}
        out["compiled.flatten_s"] = totals.get("compiled.flatten", 0.0)
        out["learning.vt_s"] = totals.get("learning.vt", 0.0)
        out["learning.vt_iterations"] = first.outputs["vt"].iterations
        out["learning.em_s"] = totals.get("learning.em", 0.0)
        out["learning.em_iterations"] = first.outputs["em"].iterations
        return out


class GrammarCV:
    """4-fold VT cross-validation on the N=200 demo20 treebank.

    Mirrors ``harness._grammar_fold`` call for call, with a CPU-time
    deadline on each test sentence (compile, Viterbi, tree recovery).  A
    sentence past the deadline is a prediction failure, like
    ``Unparseable``; its latency counts at the deadline.
    """

    e2e_names = (
        "setup_s",
        "learn_s",
        "eval_s",
        "parse_p50_ms",
        "parse_p95_ms",
        "parse_fail_share",
        "cv_lt_pct",
        "cv_bt_pct",
        "cv_zero_cb_pct",
        "peak_rss_mb",
    )
    job_metric = "eval_s"
    N = 200

    def __init__(self, mode):
        self.mode = mode
        self.name = f"{mode}-cv"
        self.compile_corpus = compile_pcfg_corpus if mode == "pcfg" else compile_plcg_corpus
        self.compile_one = compile_pcfg if mode == "pcfg" else compile_plcg

    def setup(self, root, tracer, data_seed):
        grammar, sample = demo20_corpus(root, tracer, self.N, data_seed)
        return {"grammar": grammar, "trees": sample.trees()}

    def inputs(self, data):
        return {
            "treebank": corpus_stats([t.tokens() for t in data["trees"]]),
            "folds": CV_FOLDS_GRAMMAR,
            "fold_seed": FOLD_SEED,
            "parse_deadline_s": PARSE_DEADLINE_S,
        }

    def run_pass(self, data, tracer, seed):
        grammar, trees = data["grammar"], data["trees"]
        config = LearnConfig(method="vt", delta=1.0, seed=seed)
        learn_s = 0.0
        reports, fold_scores = [], []
        tested = Tested()
        keep = None
        t_start = time.perf_counter()
        with tracer.span("bench.cv"):
            with tracer.span("harness.fold_partition"):
                parts = fold_partition(len(trees), CV_FOLDS_GRAMMAR, FOLD_SEED)
            for f in range(CV_FOLDS_GRAMMAR):
                with tracer.span("bench.fold", fold=f):
                    train_idx = np.concatenate(
                        [parts[i] for i in range(CV_FOLDS_GRAMMAR) if i != f]
                    )
                    train_sents = [trees[i].tokens() for i in train_idx]
                    t0 = time.perf_counter()
                    with tracer.span("grammar.compile"):
                        graph, goals = self.compile_corpus(grammar, train_sents)
                    with tracer.span("compiled.flatten"):
                        graph.compiled()
                    with tracer.span("learning.vt"):
                        report = learn(graph, goals, config)
                    learn_s += time.perf_counter() - t0
                    reports.append(report)
                    if keep is None:
                        keep = (graph, goals, report.final_theta)
                    fold_scores.append(
                        self.test_fold(grammar, trees, parts[f], report.final_theta, tracer, tested)
                    )
        eval_s = time.perf_counter() - t_start
        n_test = len(tested.latencies)
        means = [float(np.mean([s[k] for s in fold_scores])) for k in range(3)]
        e2e = {
            "learn_s": learn_s,
            "eval_s": eval_s,
            "parse_p50_ms": 1000.0 * percentile(tested.latencies, 50),
            "parse_p95_ms": 1000.0 * percentile(tested.latencies, 95, min_beyond=10),
            "parse_fail_share": tested.fails / n_test,
            "cv_lt_pct": means[0],
            "cv_bt_pct": means[1],
            "cv_zero_cb_pct": means[2],
        }
        return Pass(
            wall_s=eval_s,
            e2e=e2e,
            ops=CV_FOLDS_GRAMMAR + n_test,
            outcome=tuple(r.objective for r in reports),
            verdicts={"timeouts": sorted(tested.timeouts), "near": tested.near},
            outputs={"reports": reports, "parsed": tested.parsed},
            graph=keep[0],
            goals=keep[1],
            theta=keep[2],
        )

    def test_fold(self, grammar, trees, test_idx, theta, tracer, tested):
        """Parse one fold's test sentences; returns its (lt, bt, zero_cb)."""
        predicted, reference = [], []
        fold_fails = 0
        for i in test_idx:
            ref = trees[int(i)]
            tokens = ref.tokens()

            def parse_one():
                with tracer.span("grammar.parse_compile"):
                    sg = self.compile_one(grammar, tokens)
                with tracer.span("inference.viterbi"):
                    res = viterbi(sg, sg.roots[0], theta)
                with tracer.span("grammar.tree"):
                    tree = tree_from_explanation(grammar, tokens, res.explanation, self.mode)
                return sg, res, tree

            with tracer.span("grammar.parse", sentence=int(i)):
                status, latency, cpu, value = timed_call(
                    parse_one, PARSE_DEADLINE_S, (Unparseable, AllZero)
                )
            tested.latencies.append(latency)
            if status != "timeout" and cpu >= PARSE_DEADLINE_S / VERDICT_SPREAD:
                tested.near[int(i)] = cpu
            if status == "ok":
                sg, res, tree = value
                predicted.append(tree)
                reference.append(ref)
                short = sg if len(tokens) <= ENUM_MAX_TOKENS else None
                tested.parsed.append((tokens, res.explanation, tree, res.log_prob, theta, short))
            else:
                fold_fails += 1
                if status == "timeout":
                    tested.timeouts.append(int(i))
        tested.fails += fold_fails
        with tracer.span("grammar.metrics"):
            m = metrics(predicted, reference)
        # failures count as misses, as cv_run does
        scale = m.n / (m.n + fold_fails)
        return (m.lt * scale, m.bt * scale, m.zero_cb * scale)

    def check(self, checks, first, data):
        for f, report in enumerate(first.outputs["reports"]):
            checks.expect(
                report.termination == "fixed_point",
                f"fold {f}: vt stops at fixed_point ({report.termination})",
            )
            check_monotone(checks, report.objective_trace, f"fold {f} vt")
            check_theta(checks, report.final_theta, f"fold {f} vt")
        for tokens, expl, tree, log_prob, theta, sg in first.outputs["parsed"]:
            sentence = " ".join(tokens)
            checks.expect(tree.tokens() == tokens, f"tree yield equals tokens: {sentence}")
            checks.expect(
                tree_rule_counts(tree) == explanation_rule_counts(expl, self.mode),
                f"tree rule counts equal the Viterbi explanation: {sentence}",
            )
            if sg is not None:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    best = max(
                        explanation_prob(e, theta)
                        for e in enumerate_explanations(sg, sg.roots[0])
                    )
                ok = math.isclose(math.log(best), log_prob, rel_tol=1e-9, abs_tol=1e-12)
                checks.expect(ok, f"viterbi equals enumeration maximum: {sentence}")

    def layer_metrics(self, totals, spans_of, first):
        tree_ms = [1000.0 * d for d in spans_of("grammar.tree")]
        reports = first.outputs["reports"]
        return {
            "grammar.compile_s": totals.get("grammar.compile", 0.0),
            "compiled.flatten_s": totals.get("compiled.flatten", 0.0),
            "learning.vt_s": totals.get("learning.vt", 0.0),
            "learning.vt_iterations": sum(r.iterations for r in reports),
            "grammar.parse_compile_ms": 1000.0 * median(spans_of("grammar.parse_compile")),
            "inference.viterbi_ms": 1000.0 * median(spans_of("inference.viterbi")),
            "grammar.tree_s": totals.get("grammar.tree", 0.0),
            "grammar.tree_p50_ms": median(tree_ms),
            "grammar.tree_timeouts": len(first.verdicts["timeouts"]),
        }


def tree_rule_counts(tree) -> dict:
    return {
        (render_term(lhs), render_term(tuple(rhs))): c
        for (lhs, rhs), c in tree.rule_counts().items()
    }


def explanation_rule_counts(expl, mode) -> dict:
    """Rule multiset of an explanation.

    PCFG switches are rules.  In the left-corner encoding every rule use
    is one ``lc(G,B)`` projection whose value names the rule, so the rule
    multiset is the ``lc`` part of the explanation.
    """
    out: dict = {}
    for (s, v), m in expl.items():
        if mode == "pcfg":
            key = (render_term(s), render_term(v))
        elif isinstance(s, Term) and s.functor == "lc":
            key = (render_term(v.args[0]), render_term(v.args[1]))
        else:
            continue
        out[key] = out.get(key, 0) + m
    return out


# ---------------------------------------------------------------------------
# hidden-class naive Bayes
# ---------------------------------------------------------------------------

NBH_ROWS = 3000
NBH_ATTRS = 12
NBH_VALUES = ("x", "y", "z")
NBH_MISSING = 0.1


def nbh_rows(seed: int) -> list:
    """Rows in the style of demos/05: each class mixes two clusters of
    opposite attribute polarity, so class marginals are confounded."""
    rng = np.random.default_rng(seed)
    n, k = NBH_ROWS, NBH_ATTRS
    is_pos = rng.random(n) < 0.5
    cluster = rng.random(n) < 0.5
    u = rng.random((n, k))
    missing = rng.random((n, k)) < NBH_MISSING
    # favoured value: index 0 or 2 with probability 0.7, the others 0.15
    flip = (~is_pos)[:, None] & (np.arange(k) % 2 == 1)[None, :]
    fav = np.where(cluster[:, None] ^ flip, 0, 2)
    other = np.where(u < 0.15, 1, np.where(u < 0.30, 2 - fav, fav))
    rows = []
    for i in range(n):
        values = tuple(
            None if missing[i, j] else NBH_VALUES[int(other[i, j])] for j in range(k)
        )
        rows.append(DataRow("pos" if is_pos[i] else "neg", values))
    return rows


class NbhCV:
    """One 5-fold MAP cross-validation through ``cv_run``."""

    name = "nbh-cv"
    e2e_names = ("setup_s", "eval_s", "cv_accuracy_pct", "peak_rss_mb")
    job_metric = "eval_s"

    def setup(self, root, tracer, data_seed):
        spec = NBHSpec(
            ("pos", "neg"), 2, tuple((f"a{j}", NBH_VALUES) for j in range(1, NBH_ATTRS + 1))
        )
        with tracer.span("bench.gen_rows"):
            rows = nbh_rows(data_seed)
        return {"spec": spec, "rows": rows}

    def inputs(self, data):
        rows = data["rows"]
        cells = sum(len(r.values) for r in rows)
        return {
            "rows": {
                "n": len(rows),
                "distinct": len(set(rows)),
                "attributes": NBH_ATTRS,
                "missing_share": sum(v is None for r in rows for v in r.values) / cells,
            },
            "folds": CV_FOLDS_NBH,
            "fold_seed": FOLD_SEED,
        }

    def config(self, data, seed):
        return ExperimentConfig(
            task="nbh",
            method="map",
            folds=CV_FOLDS_NBH,
            seed=FOLD_SEED,
            learn=LearnConfig(method="map", delta=1.0, seed=seed),
            nbh_spec=data["spec"],
            nbh_rows=data["rows"],
        )

    def run_pass(self, data, tracer, seed):
        """Untraced pass: ``cv_run`` as users call it."""
        config = self.config(data, seed)
        t0 = time.perf_counter()
        report = cv_run(config)
        wall = time.perf_counter() - t0
        folds = tuple(float(a) for a in report.folds)
        return Pass(
            wall_s=wall,
            e2e={"eval_s": wall, "cv_accuracy_pct": 100.0 * report.means["accuracy"]},
            ops=1,
            outcome=folds,
        )

    def fold_loop(self, data, tracer, seed):
        """The folds of ``cv_run`` driven call by call, for layer spans."""
        spec, rows = data["spec"], data["rows"]
        config = LearnConfig(method="map", delta=1.0, seed=seed)
        reports, accuracies = [], []
        keep = None
        t0 = time.perf_counter()
        with tracer.span("bench.cv"):
            with tracer.span("harness.fold_partition"):
                parts = fold_partition(len(rows), CV_FOLDS_NBH, FOLD_SEED)
            for f in range(CV_FOLDS_NBH):
                with tracer.span("bench.fold", fold=f):
                    train_idx = np.concatenate([parts[i] for i in range(CV_FOLDS_NBH) if i != f])
                    train = [rows[int(i)] for i in train_idx]
                    with tracer.span("models.compile"):
                        graph, goals = compile_nbh_corpus(spec, train, observed_class=True)
                    with tracer.span("compiled.flatten"):
                        graph.compiled()
                    with tracer.span("learning.map"):
                        report = learn(graph, goals, config)
                    reports.append(report)
                    if keep is None:
                        keep = (graph, goals, report.final_theta)
                    correct = total = 0
                    for i in parts[f]:
                        row = rows[int(i)]
                        with tracer.span("models.classify"):
                            pred, _ = nbh_classify(spec, report.final_theta, row.without_class())
                        correct += int(pred == row.cls)
                        total += 1
                    accuracies.append(correct / total)
        wall = time.perf_counter() - t0
        return Pass(
            wall_s=wall,
            e2e={},
            ops=CV_FOLDS_NBH + len(rows),
            outcome=tuple(accuracies),
            outputs={"reports": reports},
            graph=keep[0],
            goals=keep[1],
            theta=keep[2],
        )

    def check(self, checks, first, data):
        checks.expect(
            all(0.0 <= a <= 1.0 for a in first.outcome) and len(first.outcome) == CV_FOLDS_NBH,
            "cv_run reports one accuracy per fold",
        )

    def check_loop(self, checks, loop, reference):
        checks.expect(
            loop.outcome == reference.outcome,
            f"traced fold loop reproduces cv_run accuracy {loop.outcome} == {reference.outcome}",
        )
        for f, report in enumerate(loop.outputs["reports"]):
            check_monotone(checks, report.objective_trace, f"fold {f} map")
            check_theta(checks, report.final_theta, f"fold {f} map")

    def layer_metrics(self, totals, spans_of, first):
        reports = first.outputs["reports"]
        return {
            "models.compile_s": totals.get("models.compile", 0.0),
            "compiled.flatten_s": totals.get("compiled.flatten", 0.0),
            "learning.map_s": totals.get("learning.map", 0.0),
            "learning.map_iterations": sum(r.iterations for r in reports),
            "models.classify_s": totals.get("models.classify", 0.0),
            "models.classify_p50_ms": 1000.0 * median(spans_of("models.classify")),
        }


WORKLOADS = {
    w.name: w for w in (PcfgLearn(), GrammarCV("pcfg"), GrammarCV("plcg"), NbhCV())
}

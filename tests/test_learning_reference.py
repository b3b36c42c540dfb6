"""The one learning loop against the two learners it replaced.

``reference_em_map_learn`` and ``reference_vt_learn`` are the learners
as they stood before ``em``, ``map`` and ``vt`` came to share one loop
(``explgraph.learning._learn``), kept verbatim but for their docstrings.
Every run that stops by its method's own test must be bitwise the
reference's, and so must the number of passes it makes.  A ``vt`` run
stopped by ``max_iter`` differs by design: its trace gains the objective
at ``final_theta``.
"""

import warnings
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from explgraph.compiled import CompiledGraph
from explgraph.errors import ExplGraphError, ZeroEvidence
from explgraph.graph import ExplanationGraph, GoalId
from explgraph.grammar import compile_pcfg_corpus, compile_plcg_corpus, gen_corpus
from explgraph.harness import SESSION_QUERIES, fold_partition
from explgraph.inference import check_nonzero, log_theta_vector
from explgraph.io import load_grammar
from explgraph.learning import (
    LearnConfig,
    LearnReport,
    _best_restart,
    _initial_theta,
    _obs_total,
    _observation_seeds,
    _prior_term,
    _RowExplanations,
    _warn_degenerate,
    em_map_learn,
    learn,
    vt_learn,
)
from explgraph.models import (
    DataRow,
    NBHSpec,
    compile_nbh_corpus,
    compile_path_queries,
    six_node_demo_graph,
)
from explgraph.tables import ParameterTable

DEMO20 = Path(__file__).resolve().parent.parent / "data" / "demo20.grammar"


def reference_em_map_learn(
    graph: ExplanationGraph, goals: Sequence[GoalId], config: LearnConfig
) -> LearnReport:
    """The ``em``/``map`` learner of its own loop."""
    if config.method not in ("em", "map"):
        raise ExplGraphError("em_map_learn handles methods 'em' and 'map'")
    comp = graph.compiled()
    layout = graph.slots()
    seeds = _observation_seeds(graph, goals)
    delta = config.delta_flat(graph)
    seeds_f = seeds.astype(float)
    observed = np.nonzero(seeds)[0]

    def run(restart: int) -> LearnReport:
        theta = _initial_theta(graph, config, restart)
        trace: list[float] = []
        degenerate: list[str] = []
        converged = False
        iterations = 0
        with np.errstate(divide="ignore"):
            log_theta = np.log(theta)
        inside, scores = comp.inside_pass(log_theta)
        check_nonzero(graph, observed, inside, ZeroEvidence)
        prev = _obs_total(seeds_f, inside) + _prior_term(delta, log_theta)
        trace.append(prev)
        for it in range(1, config.max_iter + 1):
            iterations = it
            eta, _ = comp.expected_counts_pass(inside, scores, seeds)
            theta, degenerate = layout.normalize(eta + delta)
            with np.errstate(divide="ignore"):
                log_theta = np.log(theta)
            inside, scores = comp.inside_pass(log_theta)
            check_nonzero(graph, observed, inside, ZeroEvidence)
            current = _obs_total(seeds_f, inside) + _prior_term(delta, log_theta)
            trace.append(current)
            if abs(current - prev) <= config.tol * max(1.0, abs(prev)):
                converged = True
                break
            prev = current
        _warn_degenerate(graph, degenerate)
        return LearnReport(
            method=config.method,
            final_theta=ParameterTable.from_flat(layout, theta),
            objective_trace=trace,
            iterations=iterations,
            converged=converged,
            termination="tol_reached" if converged else "max_iter",
            degenerate_switches=degenerate,
        )

    return _best_restart(run, config)


def reference_vt_learn(
    graph: ExplanationGraph, goals: Sequence[GoalId], config: LearnConfig
) -> LearnReport:
    """The ``vt`` learner of its own loop: it appends no trace entry for
    the parameters of its last ``max_iter`` update."""
    if config.method != "vt":
        raise ExplGraphError("vt_learn handles method 'vt'")
    comp = graph.compiled()
    layout = graph.slots()
    seeds = _observation_seeds(graph, goals)
    delta = config.delta_flat(graph)
    seeds_f = seeds.astype(float)
    observed = np.nonzero(seeds)[0]
    pick = np.searchsorted(observed, np.asarray(list(goals), dtype=np.int64)).tolist()

    def run(restart: int) -> LearnReport:
        theta = _initial_theta(graph, config, restart)
        trace: list[float] = []
        degenerate: list[str] = []
        rows = None
        converged = False
        iterations = 0
        for it in range(1, config.max_iter + 1):
            iterations = it
            with np.errstate(divide="ignore"):
                log_theta = np.log(theta)
            best, sel = comp.viterbi_pass(log_theta)
            check_nonzero(graph, observed, best)
            trace.append(_obs_total(seeds_f, best) + _prior_term(delta, log_theta))
            # integer counts, so the update does not depend on summation order
            eta, use = comp.selected_counts_pass(sel, seeds)
            prev, rows = rows, comp.selected_multisets(sel, eta, use, observed)
            if prev is not None and np.array_equal(rows, prev):
                converged = True
                break
            theta, degenerate = layout.normalize(eta + delta)
        if not converged:
            # keep the reported explanations consistent with final_theta
            with np.errstate(divide="ignore"):
                _, sel = comp.viterbi_pass(np.log(theta))
            rows = comp.selected_multisets(sel, *comp.selected_counts_pass(sel, seeds), observed)
        _warn_degenerate(graph, degenerate)
        return LearnReport(
            method="vt",
            final_theta=ParameterTable.from_flat(layout, theta),
            objective_trace=trace,
            iterations=iterations,
            converged=converged,
            termination="fixed_point" if converged else "max_iter",
            per_goal_viterbi=_RowExplanations(layout, rows, pick),
            degenerate_switches=degenerate,
        )

    return _best_restart(run, config)


# -- the graphs ----------------------------------------------------------------


def _demo20_graph(compile_corpus):
    demo20 = load_grammar(DEMO20)
    sentences = gen_corpus(demo20, demo20.pcfg_parameter_table(), 200, seed=1).sentences()
    return compile_corpus(demo20, sentences)


def _nbh_fold_graph():
    """Training rows of fold 0 of 4 over 240 rows drawn as in demos/05:
    two clusters per class with opposite polarities, some values missing."""
    rng = np.random.default_rng(17)
    spec = NBHSpec(("pos", "neg"), 2, tuple((f"a{j}", ("x", "y", "z")) for j in range(6)))
    rows = []
    for _ in range(240):
        c, cluster = str(rng.choice(spec.classes)), int(rng.integers(2))
        vals = tuple(
            None if rng.random() < 0.1
            else "xz"[(cluster + (c == "neg") * j) % 2] if rng.random() < 0.7
            else str(rng.choice(["x", "y", "z"]))
            for j in range(6)
        )
        rows.append(DataRow(c, vals))
    parts = fold_partition(len(rows), 4, 5)
    return compile_nbh_corpus(spec, [rows[int(i)] for p in parts[1:] for i in p])


GRAPHS = {
    "pcfg": lambda: _demo20_graph(compile_pcfg_corpus),
    "plcg": lambda: _demo20_graph(compile_plcg_corpus),
    "nbh": _nbh_fold_graph,
    "path": lambda: compile_path_queries(six_node_demo_graph(), SESSION_QUERIES),
}


@pytest.fixture(scope="module")
def graphs():
    return {name: make() for name, make in GRAPHS.items()}


def _config(method, **kw):
    if method != "em":
        kw.setdefault("delta", 1.0)
    return LearnConfig(method=method, **kw)


def _both(graph, goals, config) -> tuple[LearnReport, LearnReport]:
    reference = reference_vt_learn if config.method == "vt" else reference_em_map_learn
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return learn(graph, goals, config), reference(graph, goals, config)


def _fields(report: LearnReport):
    return (
        report.method,
        report.final_theta,
        [x.hex() for x in report.objective_trace],
        report.iterations,
        report.converged,
        report.termination,
        report.best_restart_index,
        report.degenerate_switches,
        None if report.per_goal_viterbi is None else list(report.per_goal_viterbi),
    )


# -- equality with the reference ------------------------------------------------


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("method", ["em", "map", "vt"])
def test_one_loop_equals_reference_learners(graphs, name, method):
    graph, goals = graphs[name]
    for seed in range(3):
        for restarts in (1, 3):
            new, ref = _both(graph, goals, _config(method, seed=seed, restarts=restarts))
            assert ref.termination != "max_iter"
            assert _fields(new) == _fields(ref)


@pytest.mark.parametrize("method", ["em", "map", "vt"])
@pytest.mark.parametrize("max_iter", [1, 2])
def test_max_iter_run_equals_reference_but_for_the_last_vt_objective(graphs, method, max_iter):
    # every method takes more than two passes on the NBH fold graph
    graph, goals = graphs["nbh"]
    new, ref = _both(graph, goals, _config(method, max_iter=max_iter))
    assert (new.termination, new.iterations) == ("max_iter", max_iter)
    if method == "vt":
        # the reference's trace stops one update before its final_theta
        assert len(ref.objective_trace) == max_iter
        ref.objective_trace.append(new.objective)
    assert _fields(new) == _fields(ref)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_vt_pass_after_the_last_update_is_never_a_fixed_point(graphs, name):
    # one update short of the fixed point, the run makes the same passes,
    # but its last one only scores final_theta
    graph, goals = graphs[name]
    full = learn(graph, goals, _config("vt"))
    cut, ref = _both(graph, goals, _config("vt", max_iter=full.iterations - 1))
    assert (cut.termination, cut.iterations) == ("max_iter", full.iterations - 1)
    assert (ref.termination, ref.iterations) == (cut.termination, cut.iterations)
    assert cut.objective_trace == full.objective_trace
    assert cut.final_theta == full.final_theta
    assert list(cut.per_goal_viterbi) == list(full.per_goal_viterbi)


def _counting(monkeypatch):
    calls = dict.fromkeys(("inside_pass", "expected_counts_pass", "viterbi_pass"), 0)
    for name in calls:
        original = getattr(CompiledGraph, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(CompiledGraph, name, counted)
    return calls


@pytest.mark.parametrize("method", ["em", "map", "vt"])
@pytest.mark.parametrize("max_iter", [1000, 3])
@pytest.mark.parametrize("name", ["pcfg", "nbh"])
def test_pass_calls_equal_the_reference(graphs, monkeypatch, name, method, max_iter):
    graph, goals = graphs[name]
    calls = _counting(monkeypatch)
    counts = []
    for learner in (learn, reference_vt_learn if method == "vt" else reference_em_map_learn):
        for name in calls:
            calls[name] = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = learner(graph, goals, _config(method, max_iter=max_iter))
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    k = report.iterations
    if method == "vt":
        # a run stopped by max_iter scores its final parameters once more
        extra = report.termination == "max_iter"
        assert counts[0] == {"inside_pass": 0, "expected_counts_pass": 0, "viterbi_pass": k + extra}
    else:
        assert counts[0] == {"inside_pass": k + 1, "expected_counts_pass": k, "viterbi_pass": 0}


# -- the objective of a run stopped by max_iter -----------------------------------


def _trace_formula(method, graph, goals, theta, delta):
    """The trace's objective at ``theta``: the observed goals' log inside
    (``em``, ``map``) or Viterbi (``vt``) values plus the log prior term."""
    log_theta = log_theta_vector(graph, theta)
    comp = graph.compiled()
    values = (comp.viterbi_pass if method == "vt" else comp.inside_pass)(log_theta)[0]
    prior = 0.0 if method == "em" else float(np.sum(delta * log_theta))
    return float(sum(values[g] for g in goals)) + prior


@pytest.mark.parametrize("method", ["em", "map", "vt"])
@pytest.mark.parametrize("max_iter", [1, 2])
def test_max_iter_objective_scores_the_final_theta(graphs, method, max_iter):
    graph, goals = graphs["nbh"]
    config = _config(method, max_iter=max_iter)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = learn(graph, goals, config)
    assert report.termination == "max_iter"
    assert len(report.objective_trace) == max_iter + 1
    want = _trace_formula(method, graph, goals, report.final_theta, config.delta_flat(graph))
    assert report.objective == pytest.approx(want, rel=1e-12)


def test_vt_max_iter_objective_is_not_one_update_stale(graphs):
    # demo20 N=200, delta 1, one update: the objective at final_theta, not
    # the one at the initial parameters that the reference reports
    graph, goals = graphs["pcfg"]
    new, ref = _both(graph, goals, _config("vt", max_iter=1))
    assert ref.objective == pytest.approx(-2816.232, abs=1e-3)
    assert new.objective_trace[0] == ref.objective
    assert new.objective == pytest.approx(-2435.570, abs=1e-3)
    delta = _config("vt").delta_flat(graph)
    assert new.objective == pytest.approx(
        _trace_formula("vt", graph, goals, new.final_theta, delta), rel=1e-12
    )


def test_learners_keep_their_method_checks():
    graph, goals = GRAPHS["path"]()
    with pytest.raises(ExplGraphError, match="em_map_learn"):
        em_map_learn(graph, goals, _config("vt"))
    with pytest.raises(ExplGraphError, match="vt_learn"):
        vt_learn(graph, goals, _config("map"))

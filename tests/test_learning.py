import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest

from explgraph.errors import AllZero, ExplGraphError, ZeroEvidence
from explgraph.graph import (
    GraphBuilder,
    SwitchInstance,
    enumerate_explanations,
    explanation_prob,
)
from explgraph.grammar import compile_pcfg_corpus, compile_plcg_corpus, gen_corpus
from explgraph.inference import viterbi
from explgraph.io import load_grammar
from explgraph.learning import (
    LearnConfig,
    em_map_learn,
    expected_counts,
    learn,
    objective,
    vt_learn,
)
from explgraph.tables import ParameterTable, PseudoCountTable, SlotLayout

from conftest import body_index, random_exclusive_graph, random_general_graph, random_theta

DEMO20 = Path(__file__).resolve().parent.parent / "data" / "demo20.grammar"


def two_value_goals():
    """ga has the single explanation {(s,a)}, gb has {(s,b)}."""
    b = GraphBuilder()
    b.declare_switch("s", ("a", "b"))
    ga = b.goal("ga")
    gb = b.goal("gb")
    b.add_body(ga, [], [SwitchInstance("s", "a")])
    b.add_body(gb, [], [SwitchInstance("s", "b")])
    b.add_root(ga)
    b.add_root(gb)
    return b.build(), ga, gb


def choice_goal():
    """g <-> {(s,a)} v {(s,b)}"""
    b = GraphBuilder()
    b.declare_switch("s", ("a", "b"))
    g = b.goal("g")
    b.add_body(g, [], [SwitchInstance("s", "a")])
    b.add_body(g, [], [SwitchInstance("s", "b")])
    b.add_root(g)
    return b.build(), g


# -- expected counts -------------------------------------------------------


def test_expected_counts_symmetric_posterior():
    graph, g = choice_goal()
    eta = expected_counts(graph, [g], ParameterTable.uniform(graph))
    assert eta.get("s", "a") == pytest.approx(0.5, abs=1e-12)
    assert eta.get("s", "b") == pytest.approx(0.5, abs=1e-12)


def test_expected_counts_single_explanation_equals_multiplicities():
    b = GraphBuilder()
    b.declare_switch("s", ("a", "b"))
    g = b.goal("g")
    b.add_body(g, [], [SwitchInstance("s", "a", 3)])
    b.add_root(g)
    graph = b.build()
    eta = expected_counts(graph, [g], ParameterTable.uniform(graph))
    assert eta.get("s", "a") == pytest.approx(3.0, abs=1e-12)


def test_expected_counts_matches_enumeration_oracle():
    rng = np.random.default_rng(20)
    for _ in range(50):
        graph, root = random_exclusive_graph(rng)
        theta = random_theta(rng, graph)
        expls = enumerate_explanations(graph, root)
        probs = np.array([explanation_prob(e, theta) for e in expls])
        z = probs.sum()
        if z <= 0:
            continue
        eta = expected_counts(graph, [root], theta)
        for key, decl in graph.switches.items():
            for v in decl.values:
                want = sum(
                    p * e.count(decl.id, v) for p, e in zip(probs, expls)
                ) / z
                assert eta.get(key, v) == pytest.approx(want, abs=1e-9)


def test_expected_counts_additive_over_goal_multiplicity():
    graph, g = choice_goal()
    theta = ParameterTable.uniform(graph)
    once = expected_counts(graph, [g], theta)
    thrice = expected_counts(graph, [g, g, g], theta)
    assert thrice.get("s", "a") == pytest.approx(3 * once.get("s", "a"), rel=1e-12)


def test_expected_counts_zero_evidence():
    graph, g = choice_goal()
    theta = ParameterTable(graph.switches, {"s": [0.0, 0.0]}, validate=False)
    with pytest.raises(ZeroEvidence):
        expected_counts(graph, [g], theta)


# -- EM / MAP ---------------------------------------------------------------


def test_em_complete_data_closed_form():
    graph, ga, gb = two_value_goals()
    report = em_map_learn(graph, [ga, ga, gb], LearnConfig(method="em"))
    assert report.final_theta.vector("s") == pytest.approx([2 / 3, 1 / 3], rel=1e-12)
    assert report.converged


def test_map_complete_data_closed_form():
    graph, ga, gb = two_value_goals()
    report = em_map_learn(graph, [ga, ga, gb], LearnConfig(method="map", delta=1.0))
    assert report.final_theta.vector("s") == pytest.approx([3 / 5, 2 / 5], rel=1e-12)


def test_em_forces_single_value():
    b = GraphBuilder()
    b.declare_switch("c", ("heads", "tails"))
    g = b.goal("g")
    b.add_body(g, [], [SwitchInstance("c", "heads")])
    b.add_root(g)
    graph = b.build()
    for seed in range(3):
        report = em_map_learn(graph, [g], LearnConfig(method="em", seed=seed))
        assert report.final_theta.get("c", "heads") == pytest.approx(1.0, rel=1e-12)


def test_map_requires_positive_delta():
    graph, g = choice_goal()
    with pytest.raises(ExplGraphError):
        em_map_learn(graph, [g], LearnConfig(method="map", delta=0.0))
    bad = PseudoCountTable(graph.switches, {"s": [1.0, 0.0]})
    with pytest.raises(ExplGraphError):
        em_map_learn(graph, [g], LearnConfig(method="map", pseudo_counts=bad))


def test_em_ignores_delta():
    graph, ga, gb = two_value_goals()
    r1 = em_map_learn(graph, [ga, ga, gb], LearnConfig(method="em"))
    r2 = em_map_learn(graph, [ga, ga, gb], LearnConfig(method="em", delta=7.0))
    assert np.array_equal(r1.final_theta.vector("s"), r2.final_theta.vector("s"))


@pytest.mark.parametrize("method", ["vt", "map"])
@pytest.mark.parametrize("delta", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_delta_is_refused_before_any_pass(method, delta):
    # a non-finite delta used to pass validation and fail one pass later
    # with "negative or non-finite probability"
    graph, ga, gb = two_value_goals()
    with pytest.raises(ExplGraphError, match="finite, strictly positive pseudo counts"):
        learn(graph, [ga, gb], LearnConfig(method=method, delta=delta))


def test_em_still_ignores_a_non_finite_delta():
    graph, ga, gb = two_value_goals()
    ref = learn(graph, [ga, ga, gb], LearnConfig(method="em"))
    for delta in (float("nan"), float("inf")):
        report = learn(graph, [ga, ga, gb], LearnConfig(method="em", delta=delta))
        assert np.array_equal(report.final_theta.vector("s"), ref.final_theta.vector("s"))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-6])
def test_tol_must_be_finite_and_positive(tol):
    # tol=nan used to be accepted and ran every EM call to max_iter
    with pytest.raises(ExplGraphError, match="tol must be finite and positive"):
        LearnConfig(method="em", tol=tol)


def test_degenerate_switch_flagged():
    b = GraphBuilder()
    b.declare_switch("s", ("a", "b"))
    b.declare_switch("unused", ("x", "y", "z"))
    g = b.goal("g")
    b.add_body(g, [], [SwitchInstance("s", "a")])
    b.add_root(g)
    graph = b.build()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = em_map_learn(graph, [g], LearnConfig(method="em"))
    assert report.degenerate_switches == ["unused"]
    assert report.final_theta.vector("unused") == pytest.approx([1 / 3] * 3)
    # under MAP the unused switch gets its prior (uniform here), unflagged
    report = em_map_learn(graph, [g], LearnConfig(method="map", delta=2.0))
    assert report.degenerate_switches == []
    assert report.final_theta.vector("unused") == pytest.approx([1 / 3] * 3)


def test_degenerate_warning_points_at_the_caller(monkeypatch):
    graph, g = choice_goal()
    normalize = SlotLayout.normalize
    # vt and map never leave a switch degenerate (their pseudo counts are
    # positive), so every entry point is made to flag switch s
    monkeypatch.setattr(SlotLayout, "normalize", lambda self, flat: (normalize(self, flat)[0], ["s"]))
    for call, method in ((learn, "em"), (learn, "vt"), (em_map_learn, "map"), (vt_learn, "vt")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(graph, [g], LearnConfig(method=method, max_iter=1))
        assert caught and {w.filename for w in caught} == {__file__}, (call, method)


# -- VT -----------------------------------------------------------------------


def test_vt_single_explanation_terminates_in_two_passes():
    graph, ga, gb = two_value_goals()
    report = vt_learn(graph, [ga, ga, gb], LearnConfig(method="vt", delta=0.5))
    assert report.iterations == 2
    assert report.termination == "fixed_point"
    assert report.final_theta.vector("s") == pytest.approx([2.5 / 4, 1.5 / 4], rel=1e-15)


def test_vt_hand_executed_two_goal_example():
    b = GraphBuilder()
    b.declare_switch("s", ("a", "b"))
    g1 = b.goal("g1")
    g2 = b.goal("g2")
    b.add_body(g1, [], [SwitchInstance("s", "a")])
    b.add_body(g1, [], [SwitchInstance("s", "b", 2)])
    b.add_body(g2, [], [SwitchInstance("s", "a")])
    b.add_root(g1)
    b.add_root(g2)
    graph = b.build()
    report = vt_learn(
        graph, [g1, g2], LearnConfig(method="vt", delta=0.1, init="uniform")
    )
    # pass 1 picks {(s,a)} for g1 (0.5 > 0.25); update gives 2.1/2.2;
    # pass 2 confirms the same explanations
    assert report.final_theta.get("s", "a") == pytest.approx(2.1 / 2.2, rel=1e-12)
    assert report.iterations == 2
    assert report.termination == "fixed_point"
    assert [e.render() for e in report.per_goal_viterbi] == ["{s=a}", "{s=a}"]


def _vt_pass(comp, graph, seeds, choice, observed):
    """(sel, counts, use, rows of ``observed``) of a VT pass selecting
    local body ``choice[g]`` (default 0)."""
    index = body_index(comp)
    sel = np.array([index[(g, choice.get(g, 0))] for g in range(graph.n_goals)], dtype=np.int64)
    eta, use = comp.selected_counts_pass(sel, seeds)
    return sel, eta, use, comp.selected_multisets(sel, eta, use, observed)


def test_vt_fixed_point_when_used_goal_switches_to_an_equal_multiset():
    # r -> g; g <-> h1 v h2 and both h1 and h2 explain as {s=a}
    b = GraphBuilder()
    b.declare_switch("s", ("a", "b"))
    h1, h2, g, r = (b.goal(x) for x in ("h1", "h2", "g", "r"))
    b.add_body(h1, [], [SwitchInstance("s", "a")])
    b.add_body(h2, [], [SwitchInstance("s", "a")])
    b.add_body(g, [h1])
    b.add_body(g, [h2])
    b.add_body(r, [g])
    b.add_root(r)
    graph = b.build()
    comp = graph.compiled()
    seeds = np.bincount([r], minlength=graph.n_goals)
    prev = _vt_pass(comp, graph, seeds, {}, [r])
    cur = _vt_pass(comp, graph, seeds, {g: 1}, [r])
    assert cur[2][g] > 0 and cur[0][g] != prev[0][g]  # the selection moved on a used goal
    assert np.array_equal(cur[3], prev[3])


def test_vt_no_fixed_point_when_observed_goals_swap_explanations():
    # r1 -> g1, r2 -> g2; each gi <-> {s=a} v {s=b}; the swap keeps the
    # aggregate counts (one a, one b) but changes both observed multisets
    b = GraphBuilder()
    b.declare_switch("s", ("a", "b"))
    g1, g2, r1, r2 = (b.goal(x) for x in ("g1", "g2", "r1", "r2"))
    for gi in (g1, g2):
        b.add_body(gi, [], [SwitchInstance("s", "a")])
        b.add_body(gi, [], [SwitchInstance("s", "b")])
    b.add_body(r1, [g1])
    b.add_body(r2, [g2])
    b.add_root(r1)
    b.add_root(r2)
    graph = b.build()
    comp = graph.compiled()
    seeds = np.bincount([r1, r2], minlength=graph.n_goals)
    prev = _vt_pass(comp, graph, seeds, {g1: 0, g2: 1}, [r1, r2])
    cur = _vt_pass(comp, graph, seeds, {g1: 1, g2: 0}, [r1, r2])
    assert np.array_equal(prev[1], cur[1])
    assert not np.array_equal(cur[3], prev[3])
    assert np.array_equal(cur[3], _vt_pass(comp, graph, seeds, {g1: 1, g2: 0}, [r1, r2])[3])


@pytest.mark.parametrize(
    "compile_corpus, n, trace, digest",
    [
        (
            compile_pcfg_corpus,
            1000,
            ["-0x1.b7a4fba626b53p+13", "-0x1.7d3c2ef5b6e6bp+13"],
            "f2154c3496bffc77c051e499252812ffcef0d0f5064bbb6a0eee87730a001647",
        ),
        (
            compile_plcg_corpus,
            200,
            ["-0x1.ab1d89cac904ep+11", "-0x1.317d65b66b6e7p+11", "-0x1.31797f5238b40p+11"],
            "1f4e9b9e41f39f2fc97617bd862082cd9da6a548fa9270d9832b88a407d39ba5",
        ),
    ],
    ids=["pcfg", "plcg"],
)
def test_vt_outcomes_pinned_on_demo20(compile_corpus, n, trace, digest):
    # demo20 corpus seed 1, learner seed 3, 5 restarts.  Every restart
    # stops at a pass that selects other bodies on used goals than the
    # pass before but repeats every observed multiset (the tie case).
    # Values recorded from the learner that compared multisets as sorted
    # (slot, count) tuples.  The second objective of each trace was re-taken
    # (one ulp) when corpus goals came to be keyed by the words they span:
    # the objective sums over goals in goal-id order.  The plcg one was
    # re-taken again (one ulp) when left-corner keys came to be read off the
    # chart by the walk both frontends share, which moves goal ids only.
    demo20 = load_grammar(DEMO20)
    sentences = gen_corpus(demo20, demo20.pcfg_parameter_table(), n, seed=1).sentences()
    graph, goals = compile_corpus(demo20, sentences)
    report = vt_learn(graph, goals, LearnConfig(method="vt", delta=1.0, restarts=5, seed=3))
    assert (report.iterations, report.termination, report.best_restart_index) == (
        len(trace),
        "fixed_point",
        0,
    )
    assert [x.hex() for x in report.objective_trace] == trace
    rendered = "\n".join(e.render() for e in report.per_goal_viterbi)
    assert hashlib.sha256(rendered.encode()).hexdigest() == digest


def test_vt_requires_positive_delta():
    graph, g = choice_goal()
    with pytest.raises(ExplGraphError):
        vt_learn(graph, [g], LearnConfig(method="vt", delta=0.0))


def test_vt_fixed_point_rerun_reproduces_explanations():
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(40):
        graph, root = random_general_graph(rng)
        goals = [int(g) for g in rng.choice(graph.n_goals, size=int(rng.integers(1, 5)))]
        report = vt_learn(
            graph,
            goals,
            LearnConfig(method="vt", delta=1.0, seed=int(rng.integers(1 << 16))),
        )
        if report.termination != "fixed_point":
            continue
        again = [viterbi(graph, g, report.final_theta).explanation for g in goals]
        assert again == report.per_goal_viterbi
        checked += 1
    assert checked >= 30


def test_vt_complete_data_equals_counting():
    graph, ga, gb = two_value_goals()
    goals = [ga] * 5 + [gb] * 2
    for delta in (0.1, 1.0, 3.0):
        report = vt_learn(graph, goals, LearnConfig(method="vt", delta=delta))
        want = np.array([5 + delta, 2 + delta])
        want = want / want.sum()
        assert np.max(np.abs(report.final_theta.vector("s") - want)) < 1e-15


def test_monotone_traces_all_methods():
    rng = np.random.default_rng(22)
    for _ in range(40):
        graph, root = random_general_graph(rng)
        goals = [int(g) for g in rng.choice(graph.n_goals, size=int(rng.integers(1, 5)))]
        seed = int(rng.integers(1 << 16))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reports = [
                vt_learn(graph, goals, LearnConfig(method="vt", delta=1.0, seed=seed)),
                em_map_learn(graph, goals, LearnConfig(method="em", seed=seed, max_iter=80)),
                em_map_learn(
                    graph, goals, LearnConfig(method="map", delta=0.5, seed=seed, max_iter=80)
                ),
            ]
        for report in reports:
            trace = report.objective_trace
            assert all(np.isfinite(trace))
            for a, b in zip(trace, trace[1:]):
                assert b >= a - 1e-12


def test_restart_dominance_and_tie_to_lowest_index():
    rng = np.random.default_rng(23)
    graph, root = random_general_graph(rng)
    goals = [root]
    config = LearnConfig(method="vt", delta=1.0, seed=7, restarts=6)
    best = vt_learn(graph, goals, config)
    singles = [
        vt_learn(
            graph,
            goals,
            LearnConfig(method="vt", delta=1.0, seed=7, restarts=1),
        )
    ]
    # restart 0 with the same seed is the first singleton
    assert best.objective >= singles[0].objective - 1e-12


def test_seed_determinism_bitwise():
    rng = np.random.default_rng(24)
    graph, root = random_general_graph(rng)
    goals = [root, root]
    for method, cls in (("em", em_map_learn), ("map", em_map_learn), ("vt", vt_learn)):
        cfg = dict(method=method, seed=99, restarts=3)
        if method != "em":
            cfg["delta"] = 1.0
        r1 = cls(graph, goals, LearnConfig(**cfg))
        r2 = cls(graph, goals, LearnConfig(**cfg))
        assert r1.objective_trace == r2.objective_trace
        assert r1.final_theta == r2.final_theta
        assert r1.iterations == r2.iterations
        assert r1.best_restart_index == r2.best_restart_index


def test_uniform_init_identical_across_seeds():
    graph, g = choice_goal()
    r1 = vt_learn(graph, [g], LearnConfig(method="vt", delta=1.0, seed=1, init="uniform"))
    r2 = vt_learn(graph, [g], LearnConfig(method="vt", delta=1.0, seed=2, init="uniform"))
    assert r1.final_theta == r2.final_theta


# -- objective ----------------------------------------------------------------


def test_objective_em_single_goal():
    b = GraphBuilder()
    b.declare_switch("c", ("heads", "tails"))
    g = b.goal("g")
    b.add_body(g, [], [SwitchInstance("c", "heads")])
    b.add_root(g)
    graph = b.build()
    theta = ParameterTable(graph.switches, {"c": [0.6, 0.4]})
    assert objective("em", graph, [g], theta) == pytest.approx(np.log(0.6), rel=1e-12)


def test_objective_map_minus_em_is_prior_term():
    rng = np.random.default_rng(25)
    for _ in range(20):
        graph, root = random_general_graph(rng)
        theta = random_theta(rng, graph)
        delta = PseudoCountTable.constant(graph, 0.7)
        goals = [root]
        try:
            em = objective("em", graph, goals, theta)
        except ZeroEvidence:
            continue
        mp = objective("map", graph, goals, theta, delta)
        log_theta = np.log(graph.slots().flatten(theta))
        want = float(np.sum(0.7 * log_theta))
        assert mp - em == pytest.approx(want, rel=1e-9)


def test_objective_vt_uses_only_selected_switches():
    graph, g = choice_goal()
    theta = ParameterTable(graph.switches, {"s": [0.8, 0.2]})
    # Viterbi picks (s,a); with zero pseudo counts the objective is log 0.8
    assert objective("vt", graph, [g], theta) == pytest.approx(np.log(0.8), rel=1e-12)
    # with pseudo counts, only the selected pair contributes its delta term
    delta = PseudoCountTable(graph.switches, {"s": [0.5, 0.5]})
    want = (1 + 0.5) * np.log(0.8)
    assert objective("vt", graph, [g], theta, delta) == pytest.approx(want, rel=1e-12)


def test_objective_vt_all_zero():
    graph, g = choice_goal()
    theta = ParameterTable(graph.switches, {"s": [0.0, 0.0]}, validate=False)
    with pytest.raises(AllZero):
        objective("vt", graph, [g], theta)

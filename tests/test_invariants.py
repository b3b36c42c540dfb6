"""Cross-module invariants that don't belong to a single operation."""

import numpy as np
import pytest

from explgraph.errors import ExplGraphError, MissingParameter
from explgraph.graph import GraphBuilder, SwitchInstance
from explgraph.grammar import ParseTree, metrics
from explgraph.inference import inside_prob, viterbi
from explgraph.learning import LearnConfig, em_map_learn, vt_learn
from explgraph.tables import ParameterTable, PseudoCountTable, SlotLayout

from conftest import random_exclusive_graph, random_general_graph, random_theta


def test_inside_values_bounded_on_exclusive_graphs():
    rng = np.random.default_rng(50)
    for _ in range(40):
        graph, root = random_exclusive_graph(rng)
        theta = random_theta(rng, graph)
        table = inside_prob(graph, theta)
        lin = table.linear
        assert np.all(lin >= 0.0)
        assert np.all(lin <= 1.0 + 1e-9)


def test_vt_one_more_update_leaves_theta_fixed():
    rng = np.random.default_rng(51)
    layouts_checked = 0
    for _ in range(30):
        graph, root = random_general_graph(rng)
        goals = [int(g) for g in rng.choice(graph.n_goals, size=int(rng.integers(1, 4)))]
        report = vt_learn(
            graph, goals, LearnConfig(method="vt", delta=1.0, seed=int(rng.integers(1 << 16)))
        )
        if report.termination != "fixed_point":
            continue
        # recompute the update from the reported explanations by hand
        layout = graph.slots()
        eta = np.zeros(layout.n_slots)
        for e in report.per_goal_viterbi:
            for (s, v), m in e.items():
                eta[layout.slot(s, v)] += m
        new_theta, _ = layout.normalize(eta + 1.0)
        old = layout.flatten(report.final_theta)
        assert np.max(np.abs(new_theta - old)) <= 1e-15
        layouts_checked += 1
    assert layouts_checked >= 20


def test_best_objective_non_decreasing_in_restart_count():
    rng = np.random.default_rng(52)
    graph, root = random_general_graph(rng)
    goals = [root] * 3
    prev = -np.inf
    for k in (1, 2, 4, 8):
        report = vt_learn(
            graph, goals, LearnConfig(method="vt", delta=1.0, seed=5, restarts=k)
        )
        assert report.objective >= prev - 1e-12
        assert 0 <= report.best_restart_index < k
        prev = report.objective


def test_metrics_permutation_equivariant():
    rng = np.random.default_rng(53)

    def random_tree(tokens):
        if len(tokens) == 1:
            return ParseTree(str(rng.choice(["S", "A"])), (tokens[0],))
        k = int(rng.integers(1, len(tokens)))
        return ParseTree(
            str(rng.choice(["S", "A"])),
            (random_tree(tokens[:k]), random_tree(tokens[k:])),
        )

    for _ in range(20):
        n = int(rng.integers(3, 8))
        tokens = [f"w{i}" for i in range(4)]
        pred = [random_tree(tokens) for _ in range(n)]
        ref = [random_tree(tokens) for _ in range(n)]
        base = metrics(pred, ref)
        perm = rng.permutation(n)
        shuffled = metrics([pred[i] for i in perm], [ref[i] for i in perm])
        assert (base.lt, base.bt, base.zero_cb) == (
            shuffled.lt,
            shuffled.bt,
            shuffled.zero_cb,
        )


def test_builder_rejects_conflicting_switch_declarations():
    b1 = GraphBuilder()
    b1.declare_switch("s", ("a", "b"))
    g = b1.goal("g")
    b1.add_body(g, [], [SwitchInstance("s", "a")])
    b1.add_root(g)
    g1 = b1.build()
    b2 = GraphBuilder()
    b2.declare_switch("s", ("a", "b", "c"))
    with pytest.raises(ExplGraphError, match="conflicting declarations for switch s"):
        b2.declare_switches(g1.switches)
    b2.declare_switch("s", ("a", "b", "c"))  # the same declaration again


def test_parameter_table_validation():
    b = GraphBuilder()
    b.declare_switch("s", ("a", "b"))
    graph = b.build()
    with pytest.raises(ExplGraphError, match="sum"):
        ParameterTable(graph.switches, {"s": [0.5, 0.6]})
    with pytest.raises(ExplGraphError, match="negative"):
        ParameterTable(graph.switches, {"s": [-0.1, 1.1]})
    with pytest.raises(MissingParameter):
        ParameterTable(graph.switches, {})
    with pytest.raises(ExplGraphError, match="entries"):
        ParameterTable(graph.switches, {"s": [1.0]})
    # score tables skip the simplex check but not the shape check
    t = ParameterTable(graph.switches, {"s": [0.25, 0.36]}, validate=False)
    assert t.get("s", "b") == 0.36


def test_pseudo_count_table_validation():
    b = GraphBuilder()
    b.declare_switch("s", ("a", "b"))
    graph = b.build()
    with pytest.raises(ExplGraphError, match="negative"):
        PseudoCountTable(graph.switches, {"s": [-1.0, 1.0]})
    t = PseudoCountTable(graph.switches, {"s": [0.0, 1.0]})
    with pytest.raises(ExplGraphError, match="positive"):
        t.require_positive()


def test_slot_layout_normalize_flags_degenerate():
    b = GraphBuilder()
    b.declare_switch("s", ("a", "b"))
    b.declare_switch("t", ("x", "y", "z"))
    graph = b.build()
    layout = SlotLayout(graph.switches)
    flat = np.array([2.0, 6.0, 0.0, 0.0, 0.0])
    out, degenerate = layout.normalize(flat)
    assert out[:2] == pytest.approx([0.25, 0.75])
    assert out[2:] == pytest.approx([1 / 3] * 3)
    assert degenerate == ["t"]


def test_em_ignores_unreachable_minus_infinity_goals():
    # an unobserved goal may have probability 0 without poisoning the
    # objective of the observed ones
    b = GraphBuilder()
    b.declare_switch("s", ("a", "b"))
    dead = b.goal("dead")
    b.add_body(dead, [], [SwitchInstance("s", "b")])
    live = b.goal("live")
    b.add_body(live, [], [SwitchInstance("s", "a")])
    b.add_root(live)
    graph = b.build()
    report = em_map_learn(graph, [live, live], LearnConfig(method="em"))
    assert all(np.isfinite(report.objective_trace))
    assert report.final_theta.get("s", "a") == pytest.approx(1.0)


def test_cli_learn_deterministic_output(tmp_path):
    from explgraph.cli import main

    edges = tmp_path / "six.graph"
    edges.write_text(
        "edge 1 2 0.9\nedge 2 3 0.8\nedge 3 4 0.6\nedge 1 6 0.7\n"
        "edge 2 6 0.5\nedge 6 5 0.4\nedge 5 3 0.7\nedge 5 4 0.2\n"
        "query 1 4\nquery 2 5\n"
    )
    outputs = []
    for tag in ("one", "two"):
        params = tmp_path / f"{tag}.params"
        report = tmp_path / f"{tag}.report"
        code = main([
            "learn", "--task", "path", "--data", str(edges), "--method", "vt",
            "--delta", "1.0", "--seed", "7", "--restarts", "3",
            "--out-params", str(params), "--report", str(report),
        ])
        assert code == 0
        outputs.append((params.read_text(), report.read_text()))
    assert outputs[0] == outputs[1]

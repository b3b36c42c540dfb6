import warnings

import numpy as np
import pytest

from explgraph.errors import (
    CyclicGraph,
    DanglingReference,
    ExplGraphWarning,
    ExplosionLimit,
    MissingParameter,
    TermSyntaxError,
    UndeclaredValue,
)
from explgraph.graph import (
    Body,
    Explanation,
    GraphBuilder,
    SwitchDecl,
    SwitchInstance,
    _resolve,
    check_exclusiveness,
    enumerate_explanations,
    explanation_prob,
    validate_graph,
)
from explgraph.grammar import compile_pcfg_corpus
from explgraph.io import emit_expl_graph, load_expl_graph
from explgraph.tables import ParameterTable, SlotLayout

from conftest import (
    random_exclusive_graph,
    random_general_graph,
    random_theta,
    rebuilder,
    toy_grammar,
)


def coin_graph():
    b = GraphBuilder()
    b.declare_switch("c", ("heads", "tails"))
    g = b.goal("g")
    b.add_body(g, [], [SwitchInstance("c", "heads")])
    b.add_root(g)
    return b.build(), g


# -- validation ----------------------------------------------------------


def test_validate_single_node():
    graph, g = coin_graph()
    assert validate_graph(graph) == [g]
    # idempotent
    assert validate_graph(graph) == [g]


def test_validate_self_cycle():
    b = GraphBuilder()
    b.declare_switch("c", ("h",))
    g = b.goal("g")
    b.add_body(g, [g], [])
    with pytest.raises(CyclicGraph) as exc:
        b.build()
    assert "g" in str(exc.value)


def test_validate_two_cycle_witness():
    b = GraphBuilder()
    x = b.goal("x")
    y = b.goal("y")
    b.add_body(x, [y], [])
    b.add_body(y, [x], [])
    with pytest.raises(CyclicGraph) as exc:
        b.build()
    assert exc.value.cycle[0] == exc.value.cycle[-1]


def test_validate_dangling_reference():
    b = GraphBuilder()
    g = b.goal("g")
    b.add_body(g, [5], [])
    with pytest.raises(DanglingReference, match="goal g references missing goal id 5"):
        b.build()


def test_add_root_rejects_an_id_that_is_not_a_goal():
    # such a root used to build, and the graph file written from it did not load
    b = GraphBuilder()
    g = b.goal("g")
    b.add_body(g)
    for bad in (7, -1, 1):
        with pytest.raises(IndexError, match=f"no goal with id {bad}"):
            b.add_root(bad)
    b.add_root(g)
    graph = b.build()
    assert graph.roots == [g]
    assert load_expl_graph(emit_expl_graph(graph)).roots == [g]


def test_built_graph_holds_no_array_of_its_own():
    # its bodies live in the compiled arrays only, also once formulas are read
    rng = np.random.default_rng(6)
    graphs = [random_general_graph(rng)[0] for _ in range(5)]
    graphs.append(compile_pcfg_corpus(toy_grammar(), [["a", "b", "a"], ["b"]])[0])
    for graph in graphs:
        assert graph.formulas[graph.roots[0]].bodies
        assert graph.compiled().n_bodies > 0
        assert sorted(vars(graph)) == [
            "_compiled", "_formulas", "exclusiveness", "labels", "roots", "switches"
        ]
        assert not any(isinstance(value, np.ndarray) for value in vars(graph).values())


def test_validate_undeclared_value():
    b = GraphBuilder()
    b.declare_switch("c", ("h",))
    g = b.goal("g")
    b.add_body(g, [], [SwitchInstance("c", "zzz")])
    with pytest.raises(UndeclaredValue):
        b.build()


def test_topo_order_children_first():
    rng = np.random.default_rng(0)
    for _ in range(50):
        graph, _ = random_general_graph(rng)
        pos = {g: i for i, g in enumerate(graph.topo_order)}
        assert len(pos) == graph.n_goals
        for f in graph.formulas:
            for body in f.bodies:
                for s in body.subgoals:
                    assert pos[s] < pos[f.head]


def _reference_topo_order(graph):
    """The DFS that rebuilt a goal's child list on every step, kept as the reference."""
    n = graph.n_goals
    color = [0] * n
    order = []
    for start in range(n):
        if color[start]:
            continue
        stack = [(start, 0)]
        color[start] = 1
        while stack:
            goal, pos = stack[-1]
            children = [s for b in graph.formulas[goal].bodies for s in b.subgoals]
            if pos < len(children):
                stack[-1] = (goal, pos + 1)
                child = children[pos]
                if color[child] == 0:
                    color[child] = 1
                    stack.append((child, 0))
            else:
                color[goal] = 2
                order.append(goal)
                stack.pop()
    return order


def test_topo_order_matches_reference_dfs():
    rng = np.random.default_rng(0)
    graphs = [random_general_graph(rng)[0] for _ in range(50)]
    graphs += [random_exclusive_graph(rng)[0] for _ in range(20)]
    sentences = [["a", "b", "a"], ["b", "b", "a", "b", "a"], ["a"]]
    graphs.append(compile_pcfg_corpus(toy_grammar(), sentences)[0])
    for graph in graphs:
        assert graph.topo_order == _reference_topo_order(graph)


def test_validate_reports_first_bad_instance():
    def build(instances):
        b = GraphBuilder()
        b.declare_switch("c", ("h", "t"))
        b.declare_switch(1, ("h",))
        for k, inst in enumerate(instances):
            b.add_body(b.goal(f"g{k}"), [], [inst])
        return b.build()

    ok = [SwitchInstance("c", "h"), SwitchInstance(1, "h")]
    with pytest.raises(UndeclaredValue, match="zzz"):
        build(ok + [SwitchInstance("c", "zzz"), SwitchInstance("c", "yyy")])
    # equal to the declared 1 but no term: each instance object gets its own verdict;
    # a string switch name is checked as a symbol, not looked up as a rendered key
    for bad in (True, 1.0, "f(a)"):
        with pytest.raises(TermSyntaxError):
            build(ok + [SwitchInstance(bad, "h")])
    # an unhashable value is checked like any other
    with pytest.raises(UndeclaredValue):
        build(ok + [SwitchInstance("c", ["h"])])
    assert build(ok + ok).n_goals == 4


def test_resolve_gives_each_instance_the_slot_of_its_value():
    layout = SlotLayout({"c": SwitchDecl("c", ("t", "h"))})
    calls = []

    def slot(switch, value):
        calls.append((switch, value))
        return layout.slot(switch, value)

    a, b = SwitchInstance("c", "h", 2), SwitchInstance("c", "h")
    c = SwitchInstance("c", ["h"])  # unhashable: rejected without hashing
    slots, mults, errors = _resolve([a, b, a, c, SwitchInstance("c", "t")], slot)
    assert calls == [("c", "h"), ("c", "h"), ("c", "h"), ("c", ["h"]), ("c", "t")]
    assert slots.tolist() == [1, 1, 1, -1, 0] and slots.dtype == np.int64
    assert mults.tolist() == [2.0, 1.0, 2.0, 1.0, 1.0] and mults.dtype == np.float64
    assert list(errors) == [3] and isinstance(errors[3], UndeclaredValue)


def test_switch_declared_after_a_body_that_uses_it():
    b = GraphBuilder()
    g = b.goal("g")
    b.add_body(g, [], [SwitchInstance("c", "t"), SwitchInstance("d", 1, 3)])
    b.declare_switch("d", (0, 1))
    b.declare_switch("c", ("h", "t"))
    b.add_root(g)
    graph = b.build()
    assert graph.compiled().spart_slot.tolist() == [3, 1]
    assert graph.compiled().spart_mult.tolist() == [1.0, 3.0]
    assert graph.formulas[g].bodies[0].instances == (
        SwitchInstance("c", "t"),
        SwitchInstance("d", 1, 3),
    )


def test_cycle_detector_against_random_injections():
    # random DAGs validate; adding one back edge makes them cyclic
    rng = np.random.default_rng(1)
    for _ in range(40):
        graph, _ = random_general_graph(rng)
        order = validate_graph(graph)
        assert sorted(order) == list(range(graph.n_goals))
        donor = next((f.head for f in graph.formulas if f.bodies[0].subgoals), None)
        if donor is None:
            continue
        child = graph.formulas[donor].bodies[0].subgoals[0]
        builder = rebuilder(graph)
        builder.add_body(child, [donor])
        with pytest.raises(CyclicGraph):
            builder.build()


# -- enumeration ----------------------------------------------------------


def test_enumerate_single_explanation():
    graph, g = coin_graph()
    assert [e.render() for e in enumerate_explanations(graph, g)] == ["{c=heads}"]


def test_enumerate_empty_body():
    b = GraphBuilder()
    g = b.goal("g")
    b.add_body(g, [], [])
    b.add_root(g)
    graph = b.build()
    (e,) = enumerate_explanations(graph, g)
    assert len(e) == 0
    assert explanation_prob(e, ParameterTable.uniform(graph)) == 1.0


def test_enumerate_distributes_and_merges_counts():
    b = GraphBuilder()
    b.declare_switch("s", ("a", "b"))
    b.declare_switch("t", ("x", "y"))
    child = b.goal("child")
    b.add_body(child, [], [SwitchInstance("s", "a")])
    b.add_body(child, [], [SwitchInstance("t", "x")])
    top = b.goal("top")
    b.add_body(top, [child, child], [SwitchInstance("s", "a")])
    b.add_root(top)
    graph = b.build()
    rendered = {e.render() for e in enumerate_explanations(graph, top)}
    assert rendered == {
        "{s=a*3}",
        "{s=a*2, t=x}",
        "{s=a, t=x*2}",
    }


def test_enumerate_limit():
    rng = np.random.default_rng(2)
    graph, root = random_exclusive_graph(rng)
    with pytest.raises(ExplosionLimit):
        enumerate_explanations(graph, root, limit=0)


def test_enumeration_proves_root():
    # substituting an explanation's choices back into the graph re-derives
    # the root: check by evaluating with indicator parameters
    rng = np.random.default_rng(3)
    for _ in range(30):
        graph, root = random_exclusive_graph(rng)
        expls = enumerate_explanations(graph, root)
        assert len(expls) <= 20
        for e in expls:
            data = {}
            for key, decl in graph.switches.items():
                vec = np.zeros(len(decl.values))
                for vi, v in enumerate(decl.values):
                    if e.count(decl.id, v) > 0:
                        vec[vi] = 1.0
                if vec.sum() == 0:
                    vec[:] = 1.0
                data[key] = vec / vec.sum()
            theta = ParameterTable(graph.switches, data, validate=True)
            from explgraph.inference import goal_prob

            assert goal_prob(graph, root, theta) > 0.0


# -- exclusiveness ---------------------------------------------------------


def test_exclusive_same_switch_different_values():
    e1 = Explanation([SwitchInstance("s", "a")])
    e2 = Explanation([SwitchInstance("s", "b")])
    assert check_exclusiveness([e1, e2]) == "exclusive"


def test_overlapping_disjoint_switches():
    e1 = Explanation([SwitchInstance("s", "a")])
    e2 = Explanation([SwitchInstance("t", "b")])
    assert check_exclusiveness([e1, e2]) == "overlapping"


def test_unknown_on_repeated_switch():
    e = Explanation([SwitchInstance("s", "a", 2)])
    assert check_exclusiveness([e]) == "unknown"
    e2 = Explanation([SwitchInstance("s", "a"), SwitchInstance("s", "b")])
    assert check_exclusiveness([e2]) == "unknown"


def test_exclusive_sets_have_mass_at_most_one():
    rng = np.random.default_rng(4)
    for _ in range(40):
        graph, root = random_exclusive_graph(rng)
        expls = enumerate_explanations(graph, root)
        assert check_exclusiveness(expls) == "exclusive"
        for _ in range(3):
            theta = random_theta(rng, graph)
            mass = sum(explanation_prob(e, theta) for e in expls)
            assert mass <= 1.0 + 1e-9


# -- explanation probability ------------------------------------------------


def test_explanation_prob_empty_is_one():
    theta = ParameterTable({}, {})
    assert explanation_prob(Explanation(), theta) == 1.0


def test_explanation_prob_multiplicity():
    b = GraphBuilder()
    b.declare_switch("s", ("a", "b"))
    graph = b.build()
    theta = ParameterTable(graph.switches, {"s": [0.5, 0.5]})
    e = Explanation([SwitchInstance("s", "a", 2)])
    assert explanation_prob(e, theta) == pytest.approx(0.25, rel=1e-12)


def test_explanation_prob_missing_parameter():
    e = Explanation([SwitchInstance("nope", "a")])
    with pytest.raises(MissingParameter):
        explanation_prob(e, ParameterTable({}, {}))


def test_explanation_prob_multiplicative_over_merges():
    rng = np.random.default_rng(5)
    b = GraphBuilder()
    for s in range(6):
        b.declare_switch(f"s{s}", ("x", "y", "z"))
    graph = b.build()
    for _ in range(60):
        theta = random_theta(rng, graph)
        names = rng.permutation(6)
        half1, half2 = names[:3], names[3:]

        def random_expl(names):
            return Explanation(
                [
                    SwitchInstance(f"s{n}", rng.choice(["x", "y", "z"]), int(rng.integers(1, 3)))
                    for n in names
                ]
            )

        e1, e2 = random_expl(half1), random_expl(half2)
        p = explanation_prob(e1.merge(e2), theta)
        assert p == pytest.approx(
            explanation_prob(e1, theta) * explanation_prob(e2, theta), rel=1e-12
        )


def test_explanation_ignores_its_derivation():
    insts = [SwitchInstance("s", "a"), SwitchInstance("t", "b", 2)]
    carried = Explanation(insts, derivation=((0, ((1, ()),)),))
    bare = Explanation(insts)
    assert carried == bare and hash(carried) == hash(bare)
    assert carried.render() == bare.render() and len({carried, bare}) == 1
    assert carried.merge(bare).derivation is None
    assert carried.merge(bare) == Explanation(insts + insts)


def test_body_tag_is_kept_and_takes_no_part_in_equality():
    b = GraphBuilder()
    b.declare_switch("c", ("heads", "tails"))
    g = b.goal("g")
    b.add_body(g, [], [SwitchInstance("c", "heads")], tag=7)
    b.add_body(g, [], [SwitchInstance("c", "tails")])
    graph = b.build()
    assert [body.tag for body in graph.formulas[g].bodies] == [7, None]
    assert graph.formulas[g].bodies[0] == Body((), (SwitchInstance("c", "heads"),))
    assert graph.compiled().tagged and not coin_graph()[0].compiled().tagged


def test_duplicate_merge_warns():
    b = GraphBuilder()
    b.declare_switch("s", ("a", "b"))
    child1 = b.goal("c1")
    child2 = b.goal("c2")
    b.add_body(child1, [], [SwitchInstance("s", "a")])
    b.add_body(child2, [], [SwitchInstance("s", "a")])
    top = b.goal("top")
    b.add_body(top, [child1], [])
    b.add_body(top, [child2], [])
    b.add_root(top)
    graph = b.build()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        expls = enumerate_explanations(graph, top)
    assert len(expls) == 1
    assert any(issubclass(w.category, ExplGraphWarning) for w in caught)


def test_diagnose_exclusiveness_caches_per_root_verdict():
    from explgraph.graph import diagnose_exclusiveness

    b = GraphBuilder()
    b.declare_switch("s", ("a", "b"))
    b.declare_switch("t", ("x", "y"))
    g1 = b.goal("g1")
    b.add_body(g1, [], [SwitchInstance("s", "a")])
    b.add_body(g1, [], [SwitchInstance("s", "b")])
    g2 = b.goal("g2")
    b.add_body(g2, [], [SwitchInstance("t", "x")])
    b.add_root(g1)
    b.add_root(g2)
    graph = b.build()
    # each root is exclusive on its own even though g1 and g2 overlap
    # with each other; exclusiveness is a per-goal condition
    assert diagnose_exclusiveness(graph) == "exclusive"
    assert graph.exclusiveness == "exclusive"

    b = GraphBuilder()
    b.declare_switch("s", ("a", "b"))
    b.declare_switch("t", ("x", "y"))
    g = b.goal("g")
    b.add_body(g, [], [SwitchInstance("s", "a")])
    b.add_body(g, [], [SwitchInstance("t", "x")])
    b.add_root(g)
    assert diagnose_exclusiveness(b.build()) == "overlapping"

    b = GraphBuilder()
    b.declare_switch("s", ("a", "b"))
    g = b.goal("g")
    b.add_body(g, [], [SwitchInstance("s", "a", 2)])
    b.add_root(g)
    assert diagnose_exclusiveness(b.build()) == "unknown"

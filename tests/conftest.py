"""Shared fixtures and random-structure generators for the test suite."""

import numpy as np
import pytest

from explgraph.graph import GraphBuilder, SwitchInstance
from explgraph.grammar import CFGRule, Grammar
from explgraph.tables import ParameterTable


def toy_grammar() -> Grammar:
    """Three-rule binary grammar over tokens a, b with fixed probabilities."""
    return Grammar(
        "S",
        [CFGRule("S", ("S", "S")), CFGRule("S", ("a",)), CFGRule("S", ("b",))],
        [0.4, 0.3, 0.3],
    )


@pytest.fixture
def grammar():
    return toy_grammar()


def random_exclusive_graph(rng, max_switches=8, max_root_expl=20):
    """Tree-structured generative graph, exclusive by construction.

    Every goal owns a fresh switch with one value per body, so any two
    distinct explanations disagree on the choice switch of the topmost
    goal where they diverge.  Explanation counts are tracked during
    construction and capped.
    """
    builder = GraphBuilder()
    counter = {"sw": 0, "goal": 0}

    def fresh_goal(depth):
        gid = builder.goal(f"n{counter['goal']}")
        counter["goal"] += 1
        n_bodies = int(rng.integers(1, 4))
        sw = f"c{counter['sw']}"
        counter["sw"] += 1
        builder.declare_switch(sw, tuple(f"v{i}" for i in range(n_bodies)))
        total = 0
        for bi in range(n_bodies):
            subs = []
            count = 1
            if depth < 3 and counter["sw"] < max_switches:
                for _ in range(int(rng.integers(0, 3))):
                    if counter["sw"] >= max_switches:
                        break
                    child, child_count = fresh_goal(depth + 1)
                    subs.append(child)
                    count *= child_count
            builder.add_body(gid, subs, [SwitchInstance(sw, f"v{bi}")])
            total += count
        return gid, total

    while True:
        root, count = fresh_goal(0)
        if count <= max_root_expl:
            builder.add_root(root)
            graph = builder.build()
            return graph, root
        builder = GraphBuilder()
        counter = {"sw": 0, "goal": 0}


def random_general_graph(rng, max_switches=8, max_goals=9):
    """Random DAG with shared subgoals, repeated children, multiplicities.

    Exclusiveness is not guaranteed (and usually fails); explanation sets
    stay enumerable at desk scale.
    """
    builder = GraphBuilder()
    n_sw = int(rng.integers(1, max_switches + 1))
    switches = []
    for s in range(n_sw):
        name = f"s{s}"
        builder.declare_switch(name, tuple(f"v{i}" for i in range(int(rng.integers(2, 4)))))
        switches.append(name)
    n_goals = int(rng.integers(1, max_goals + 1))
    goals = []
    for gi in range(n_goals):
        g = builder.goal(f"g{gi}")
        for _ in range(int(rng.integers(1, 4))):
            subs = []
            if goals and rng.random() < 0.55:
                subs = [int(x) for x in rng.choice(goals, size=int(rng.integers(1, 3)))]
            insts = []
            for _ in range(int(rng.integers(0, 3))):
                name = switches[int(rng.integers(0, n_sw))]
                values = builder._switches[name].values
                insts.append(
                    SwitchInstance(
                        name,
                        values[int(rng.integers(0, len(values)))],
                        int(rng.integers(1, 3)),
                    )
                )
            if not subs and not insts:
                insts = [SwitchInstance(switches[0], builder._switches[switches[0]].values[0])]
            builder.add_body(g, subs, insts)
        goals.append(g)
    root = goals[-1]
    builder.add_root(root)
    return builder.build(), root


def random_grammar(rng, n_nonterminals=3, terminals=("a", "b")) -> Grammar:
    """Random CFG over nonterminals N0.. and ``terminals``, start N0.

    Each nonterminal gets one to three rules with right-hand sides of one
    to three symbols; left recursion occurs often.  A unit rule points
    only to a higher-numbered nonterminal, so there is no unit-rule cycle.
    """
    nts = [f"N{i}" for i in range(n_nonterminals)]
    rules = []
    for i, lhs in enumerate(nts):
        for _ in range(int(rng.integers(1, 4))):
            m = int(rng.integers(1, 4))
            if m == 1:
                pool = list(terminals) + nts[i + 1:]
            else:
                pool = list(terminals) + nts
            rhs = tuple(pool[int(rng.integers(0, len(pool)))] for _ in range(m))
            rules.append(CFGRule(lhs, rhs))
    # every nonterminal can finish on a terminal
    rules += [CFGRule(lhs, (terminals[0],)) for lhs in nts]
    return Grammar(nts[0], list(dict.fromkeys(rules)))


def interleaved(graph, rng):
    """``graph`` rebuilt with its bodies arriving in a random interleaving
    of the goals, each goal's bodies still in their order."""
    builder = GraphBuilder()
    builder.declare_switches(graph.switches)
    for label in graph.labels:
        builder.goal(label)
    queues = [list(f.bodies) for f in graph.formulas]
    heads = [g for g, queue in enumerate(queues) for _ in queue]
    for g in rng.permutation(heads).tolist():
        body = queues[g].pop(0)
        builder.add_body(g, body.subgoals, body.instances, body.tag)
    for r in graph.roots:
        builder.add_root(r)
    return builder.build()


def body_index(comp) -> dict[tuple[int, int], int]:
    """Global body index of each (goal, local body index) pair of a
    ``CompiledGraph``, read off ``body_head`` and ``body_local``."""
    pairs = zip(comp.body_head.tolist(), comp.body_local.tolist())
    return dict(zip(pairs, range(comp.n_bodies)))


def random_theta(rng, graph) -> ParameterTable:
    data = {}
    for key, decl in graph.switches.items():
        w = rng.uniform(0.05, 1.0, len(decl.values))
        data[key] = w / w.sum()
    return ParameterTable(graph.switches, data)


def rebuilder(graph):
    """A builder holding ``graph``'s switches, goals, bodies (given to
    ``add_body`` as ``graph.formulas`` reads them, in goal-id order) and
    roots, not yet built."""
    builder = GraphBuilder()
    builder.declare_switches(graph.switches)
    for label in graph.labels:
        builder.goal(label)
    for f in graph.formulas:
        for body in f.bodies:
            builder.add_body(f.head, body.subgoals, body.instances, body.tag)
    for r in graph.roots:
        builder.add_root(r)
    return builder

"""Tree recovery, treebank counting, session routes and slot normalisation
against the code they replaced.

``_ReferenceTreeWalk`` is the former tree walk, which rebuilt the switch
instances of a derivation as ``SwitchInstance`` objects (left-corner ones
from fresh ``Term`` names) and compared a second ``Explanation`` of them
with the explanation.  ``reference_count_ml`` is the former treebank
count, normalised by its own per-switch loop.  ``reference_path_nodes``
is the former session route, rebuilt from a path explanation's edge set.
``reference_normalize`` is the former per-switch loop of
``SlotLayout.normalize``.  ``reference_extract_viterbi`` is the former
Viterbi read-off: a whole-graph ``selected_counts_pass`` seeded with the
goal, a scan of every goal for the choice trace, the former
``selected_derivation`` over the goals it used (``reference_derivations``)
and an ``Explanation`` whose constructor sorts the items by rendering.
``reference_brackets``, ``reference_tokens``, ``reference_walk``,
``reference_render`` and ``reference_parse`` are the former recursive
``ParseTree.brackets``, ``tokens``, ``walk``, ``render`` and ``parse``.
All are kept verbatim but for their names.
"""

import sys
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np
import pytest

from explgraph.errors import (
    ExplGraphError,
    ExplGraphWarning,
    ExplosionLimit,
    InconsistentExplanation,
    MissingParameter,
    Unparseable,
)
from explgraph.grammar import (
    CFGRule,
    Grammar,
    ParseTree,
    _search_derivation,
    compile_pcfg,
    compile_pcfg_corpus,
    compile_plcg,
    compile_plcg_corpus,
    count_ml,
    gen_corpus,
    tree_from_explanation,
    tree_goals_graph,
)
from explgraph.graph import Explanation, SwitchDecl, SwitchInstance
from explgraph.harness import SESSION_QUERIES, _route, fold_partition
from explgraph.inference import ViterbiResult, extract_viterbi, log_theta_vector, viterbi
from explgraph.io import load_grammar
from explgraph.learning import LearnConfig, learn
from explgraph.models import compile_nbh_corpus, compile_path_queries, six_node_demo_graph
from explgraph.tables import ParameterTable, PseudoCountTable, SlotLayout
from explgraph.terms import Term, render_term

from conftest import random_grammar, random_theta
from test_models import _random_rows, _wide_spec

DEMO20 = Path(__file__).resolve().parent.parent / "data" / "demo20.grammar"


# -- the references -------------------------------------------------------------


def reference_tree_from_explanation(
    grammar: Grammar,
    sentence: Sequence[str],
    explanation: Explanation,
    mode: str = "pcfg",
    *,
    limit: int = 100_000,
) -> ParseTree:
    tokens = tuple(sentence)
    derivation = explanation.derivation
    if derivation is None:
        try:
            graph = (compile_pcfg if mode == "pcfg" else compile_plcg)(grammar, tokens)
        except Unparseable as e:
            raise InconsistentExplanation(f"explanation of an unparseable sentence: {e}") from e
        derivation = _search_derivation(graph, explanation, limit)
    walk = _ReferenceTreeWalk(grammar, tokens, mode)
    (tree,) = walk.sequence((grammar.start,), derivation)
    if walk.pos != len(tokens):
        raise InconsistentExplanation("derivation does not cover the sentence")
    if Explanation(walk.uses) != explanation:
        raise InconsistentExplanation("derivation does not reproduce the explanation")
    return tree


class _ReferenceTreeWalk:
    def __init__(self, grammar: Grammar, tokens: tuple[str, ...], mode: str):
        self.grammar = grammar
        self.tokens = tokens
        self.pos = 0
        self.uses: list[SwitchInstance] = []
        self.subtree = self.expand if mode == "pcfg" else self.left_corner

    def token(self) -> str:
        if self.pos >= len(self.tokens):
            raise InconsistentExplanation("derivation runs past the end of the sentence")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def rule(self, node) -> tuple[CFGRule, tuple]:
        ridx, kids = node
        if not 0 <= ridx < len(self.grammar.rules):
            raise InconsistentExplanation(f"derivation names no rule {ridx}")
        return self.grammar.rules[ridx], kids

    def sequence(self, symbols: Sequence[str], nodes: tuple) -> list:
        out, k = [], 0
        for s in symbols:
            if s in self.grammar.nonterminals:
                if k == len(nodes):
                    raise InconsistentExplanation(f"derivation lacks a subtree for {s}")
                out.append(self.subtree(s, nodes[k]))
                k += 1
            elif self.token() == s:
                out.append(s)
            else:
                raise InconsistentExplanation(f"derivation expects token {s!r}")
        if k != len(nodes):
            raise InconsistentExplanation("derivation has subtrees that no rule uses")
        return out

    def expand(self, symbol: str, node) -> ParseTree:
        rule, kids = self.rule(node)
        if rule.lhs != symbol:
            raise InconsistentExplanation(f"derivation expands {rule.lhs} where {symbol} stands")
        self.uses.append(SwitchInstance(rule.lhs, rule.rhs))
        return ParseTree(symbol, tuple(self.sequence(rule.rhs, kids)))

    def left_corner(self, goal: str, node) -> ParseTree:
        grammar = self.grammar
        label = done = self.token()
        self.uses.append(SwitchInstance(Term("first", (goal,)), label))
        self_lc = bool(grammar.lc_rule_values(goal, goal))
        while True:
            rule, kids = self.rule(node)
            if rule.rhs[0] != label or rule.lhs not in grammar.left_corner[goal]:
                raise InconsistentExplanation(f"derivation applies {rule} to a finished {label}")
            value = Term("rule", (rule.lhs, tuple(rule.rhs)))
            self.uses.append(SwitchInstance(Term("lc", (goal, label)), value))
            beta = rule.rhs[1:]
            arity = sum(s in grammar.nonterminals for s in beta)
            if len(kids) == arity and rule.lhs == goal:
                if self_lc:
                    self.uses.append(SwitchInstance(Term("att", (goal,)), "att"))
                return ParseTree(goal, (done, *self.sequence(beta, kids)))
            if len(kids) != arity + 1:
                raise InconsistentExplanation(f"derivation does not finish {rule.lhs} as {goal}")
            if rule.lhs == goal:
                self.uses.append(SwitchInstance(Term("att", (goal,)), "pro"))
            done = ParseTree(rule.lhs, (done, *self.sequence(beta, kids[:-1])))
            label, node = rule.lhs, kids[-1]


def reference_count_ml(
    grammar: Grammar,
    treebank: Sequence[ParseTree],
    delta: Optional[PseudoCountTable] = None,
) -> ParameterTable:
    decls = grammar._pcfg_decls
    counts = {a: np.zeros(len(decl.values)) for a, decl in decls.items()}
    for tree in treebank:
        grammar.validate_tree(tree)
        for (lhs, rhs), c in tree.rule_counts().items():
            counts[lhs][decls[lhs].value_index(tuple(rhs))] += c
    if delta is not None:
        for a in counts:
            counts[a] = counts[a] + delta.vector(a, len(decls[a].values))
    data = {}
    flagged = []
    for a, vec in counts.items():
        s = vec.sum()
        if s <= 0:
            flagged.append(a)
            data[a] = np.full(len(vec), 1.0 / len(vec))
        else:
            data[a] = vec / s
    if flagged:
        warnings.warn(
            "nonterminals unseen in the treebank got uniform probabilities: "
            + ", ".join(flagged),
            ExplGraphWarning,
            stacklevel=2,
        )
    return ParameterTable(decls, data)


def reference_edges_of(explanation) -> list[tuple[int, int]]:
    out = []
    for (s, v), m in explanation.items():
        if render_term(v) == "on":
            out.append((s.args[0], s.args[1]))
    return out


def reference_path_nodes(explanation, start: int) -> list[int]:
    edges = reference_edges_of(explanation)
    nodes = [start]
    remaining = list(edges)
    while remaining:
        nxt = None
        for e in list(remaining):
            if nodes[-1] in e:
                nxt = e[0] if e[1] == nodes[-1] else e[1]
                remaining.remove(e)
                break
        if nxt is None:
            return nodes + [None]  # not a path from start; report as-is
        nodes.append(nxt)
    return nodes


def reference_normalize(layout: SlotLayout, flat: np.ndarray) -> tuple[np.ndarray, list[str]]:
    sums = np.add.reduceat(flat, layout.starts)
    degenerate = [k for k, s in zip(layout.keys, sums) if s <= 0.0]
    out = np.empty_like(flat)
    for k, s in zip(layout.keys, sums):
        lo = layout.offsets[k]
        hi = lo + len(layout.decls[k].values)
        if s <= 0.0:
            out[lo:hi] = 1.0 / (hi - lo)
        else:
            out[lo:hi] = flat[lo:hi] / s
    return out, degenerate


def reference_derivations(comp, sel: np.ndarray, goals, use: np.ndarray) -> list[tuple]:
    used = np.flatnonzero(use > 0)
    nodes: dict[int, tuple] = {}
    for g in used[np.argsort(comp.level[used], kind="stable")].tolist():
        b = sel[g]
        c0 = comp.body_cstart[b]
        children = comp.cpart_child[c0 : c0 + comp.body_ccount[b]].tolist()
        kids = tuple(node for c in children for node in nodes[c])
        nodes[g] = kids if comp.tags[b] is None else ((comp.tags[b], kids),)
    return [nodes[int(g)] for g in goals]


def reference_extract_viterbi(graph, sel: np.ndarray, best: np.ndarray, goal) -> ViterbiResult:
    comp = graph.compiled()
    seeds = np.zeros(graph.n_goals, dtype=np.int64)
    seeds[goal] = 1
    eta, use = comp.selected_counts_pass(sel, seeds)
    trace = {
        int(g): int(comp.body_local[sel[g]]) for g in np.nonzero(use > 0)[0]
    }
    derivation = reference_derivations(comp, sel, [goal], use)[0] if comp.tagged else None
    slots = np.nonzero(eta)[0]
    explanation = Explanation(
        (SwitchInstance(*comp.layout.slot_pairs[s], int(m)) for s, m in zip(slots, eta[slots])),
        derivation,
    )
    return ViterbiResult(goal, float(best[goal]), explanation, trace)


def reference_brackets(tree: ParseTree, start: int = 0) -> list[tuple[int, int]]:
    spans = []
    pos = start
    for c in tree.children:
        if isinstance(c, str):
            pos += 1
        else:
            spans.extend(reference_brackets(c, pos))
            pos += len(c.tokens())
    spans.append((start, pos))
    return spans


def reference_tokens(tree: ParseTree) -> list[str]:
    out = []
    for c in tree.children:
        if isinstance(c, str):
            out.append(c)
        else:
            out.extend(reference_tokens(c))
    return out


def reference_walk(tree: ParseTree):
    yield tree
    for c in tree.children:
        if isinstance(c, ParseTree):
            yield from reference_walk(c)


def reference_render(tree: ParseTree) -> str:
    inner = " ".join(
        c if isinstance(c, str) else reference_render(c) for c in tree.children
    )
    return f"({tree.label} {inner})"


def reference_parse(text: str) -> ParseTree:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def walk():
        nonlocal pos
        if tokens[pos] != "(":
            raise ExplGraphError(f"expected '(' in tree text {text!r}")
        pos += 1
        label = tokens[pos]
        pos += 1
        children = []
        while pos < len(tokens) and tokens[pos] != ")":
            if tokens[pos] == "(":
                children.append(walk())
            else:
                children.append(tokens[pos])
                pos += 1
        if pos >= len(tokens):
            raise ExplGraphError(f"unbalanced tree text {text!r}")
        pos += 1
        return ParseTree(label, tuple(children))

    tree = walk()
    if pos != len(tokens):
        raise ExplGraphError(f"trailing tree text in {text!r}")
    return tree


# -- Viterbi read-off -------------------------------------------------------------


def assert_read_off_equals_the_reference(graph, theta, goals) -> int:
    """Check, for each of ``goals`` with a nonzero Viterbi value, that
    ``extract_viterbi`` returns what the reference returns, bit for bit,
    and that the walk's use counts are the whole-graph pass's, wherever the
    reference's float counts are exact (below 2**53).  Returns the number
    of goals compared."""
    comp = graph.compiled()
    best, sel = comp.viterbi_pass(log_theta_vector(graph, theta))
    compared = 0
    for goal in goals:
        if np.isneginf(best[goal]):
            continue
        seeds = np.zeros(graph.n_goals, dtype=np.int64)
        seeds[goal] = 1
        eta, use = comp.selected_counts_pass(sel, seeds)
        if max(eta.max(initial=0.0), use.max()) >= 2**53:
            continue
        want = reference_extract_viterbi(graph, sel, best, goal)
        got = extract_viterbi(graph, sel, best, goal)
        assert got.goal == want.goal
        assert got.log_prob.hex() == want.log_prob.hex()
        assert got.explanation.items() == want.explanation.items()
        assert [type(m) for _, m in got.explanation.items()] == [int] * len(got.explanation)
        assert got.explanation.render() == want.explanation.render()
        assert got.explanation.derivation == want.explanation.derivation
        assert list(got.choice_trace.items()) == list(want.choice_trace.items())
        walk = comp.selected_derivation(sel, [goal])
        assert walk.use == {g: int(use[g]) for g in walk.use}
        assert sorted(walk.use) == np.flatnonzero(use).tolist()
        compared += 1
    return compared


@pytest.fixture(scope="module")
def demo20_graphs():
    """Per mode, the demo20 N=200 corpus graph with its roots, and three
    parameter tables: learned by VT on the corpus, learned by VT on its
    first 50 sentences, and random."""
    demo20 = load_grammar(DEMO20)
    sentences = [
        t.tokens() for t in gen_corpus(demo20, demo20.pcfg_parameter_table(), 200, seed=1).trees()
    ]
    out = {}
    for mode, compile_corpus in (("pcfg", compile_pcfg_corpus), ("plcg", compile_plcg_corpus)):
        graph, roots = compile_corpus(demo20, sentences)
        config = LearnConfig(method="vt", delta=1.0, seed=1)
        thetas = [
            learn(graph, roots, config).final_theta,
            learn(*compile_corpus(demo20, sentences[:50]), config).final_theta,
            random_theta(np.random.default_rng(27), graph),
        ]
        out[mode] = graph, roots, thetas
    return demo20, sentences, out


def test_viterbi_read_off_equals_the_reference_on_every_demo20_corpus_root(demo20_graphs):
    _, _, graphs = demo20_graphs
    for mode, (graph, roots, thetas) in graphs.items():
        assert len(set(roots)) > 150
        for theta in thetas:
            assert assert_read_off_equals_the_reference(graph, theta, sorted(set(roots))) == len(
                set(roots)
            )


def test_viterbi_read_off_equals_the_reference_on_one_sentence_graphs(demo20_graphs):
    demo20, sentences, graphs = demo20_graphs
    for mode, compile_one in (("pcfg", compile_pcfg), ("plcg", compile_plcg)):
        thetas = graphs[mode][2]
        for k, tokens in enumerate(sentences):
            graph = compile_one(demo20, tokens)
            assert assert_read_off_equals_the_reference(graph, thetas[k % 3], graph.roots) == 1


def test_viterbi_read_off_equals_the_reference_on_the_session_path_graph():
    eg = six_node_demo_graph()
    graph, _ = compile_path_queries(eg, SESSION_QUERIES)
    rng = np.random.default_rng(8)
    for theta in [eg.parameter_table()] + [random_theta(rng, graph) for _ in range(10)]:
        # every goal, not only the roots: each path goal is some route's tail
        assert assert_read_off_equals_the_reference(graph, theta, range(graph.n_goals)) > 0


def test_viterbi_read_off_equals_the_reference_on_an_nbh_fold_graph():
    rng = np.random.default_rng(11)
    spec = _wide_spec(3)
    graph, roots = compile_nbh_corpus(spec, _random_rows(rng, spec, 300, missing=0.2))
    for theta in [random_theta(rng, graph) for _ in range(3)]:
        assert assert_read_off_equals_the_reference(graph, theta, range(graph.n_goals)) > 0


def test_slot_rank_orders_items_as_rendering_does(demo20_graphs):
    # the rank is computed once per layout, on first use, and frontend
    # graphs share their grammar's layout
    demo20, sentences, graphs = demo20_graphs
    for mode, compile_one in (("pcfg", compile_pcfg), ("plcg", compile_plcg)):
        layout = graphs[mode][0].slots()
        assert compile_one(demo20, sentences[0]).slots() is layout
        names = [(render_term(s), render_term(v)) for s, v in layout.slot_pairs]
        assert sorted(range(layout.n_slots), key=layout.rank.__getitem__) == sorted(
            range(layout.n_slots), key=names.__getitem__
        )


# -- brackets ---------------------------------------------------------------------


def test_brackets_equal_the_recursive_walk_on_demo20_trees():
    demo20 = load_grammar(DEMO20)
    trees = gen_corpus(demo20, demo20.pcfg_parameter_table(), 200, seed=1).trees()
    for k, tree in enumerate(trees):
        assert tree.brackets() == reference_brackets(tree)
        assert tree.brackets(k) == reference_brackets(tree, k)


def test_brackets_of_a_600_deep_tree_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    tree = ParseTree("A", ("w",))
    for _ in range(599):
        tree = ParseTree("A", ("a", tree))
    assert tree.brackets() == [(k, 600) for k in range(599, -1, -1)]
    assert tree.brackets(7) == [(k + 7, 607) for k in range(599, -1, -1)]


def _sample_trees() -> list[ParseTree]:
    """The demo20 N=200 treebank and 60 trees of random grammars."""
    demo20 = load_grammar(DEMO20)
    trees = gen_corpus(demo20, demo20.pcfg_parameter_table(), 200, seed=1).trees()
    rng = np.random.default_rng(12)
    for _ in range(6):
        grammar = random_grammar(rng, n_nonterminals=4)
        theta = random_theta(rng, SimpleNamespace(switches=grammar._pcfg_decls))
        seed = int(rng.integers(1 << 16))
        trees += gen_corpus(grammar, theta, 10, seed=seed, max_depth=12).trees()
    return trees


def test_tokens_and_walk_equal_the_recursive_reference():
    for tree in _sample_trees():
        assert tree.tokens() == reference_tokens(tree)
        assert [id(node) for node in tree.walk()] == [id(node) for node in reference_walk(tree)]


def test_render_and_parse_equal_the_recursive_reference():
    for tree in _sample_trees() + [ParseTree("X", ()), ParseTree("S", (ParseTree("A", ()), "b"))]:
        text = tree.render()
        assert text == str(tree) == reference_render(tree)
        assert ParseTree.parse(text) == reference_parse(text) == tree
    # malformed texts fail as the reference fails: same type, same message
    for text in (
        "", "(", "(S", "(S (", "(S a", "(S (A a)", "a (S b)", "(S a))", "(S a) b",
        "(S ())", "((a))", "(S (A a) (B b)) (C c)", ")", "(S a ( b)",
    ):
        with pytest.raises(Exception) as want:
            reference_parse(text)
        with pytest.raises(Exception) as got:
            ParseTree.parse(text)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def _deep_tree(n: int) -> ParseTree:
    """``S -> l S r`` nested ``n`` deep around a ``S -> w`` leaf, with each
    level's words numbered, built without recursion."""
    tree = ParseTree("S", ("w",))
    for k in range(n - 1, 0, -1):
        tree = ParseTree("S", (f"l{k}", tree, f"r{k}"))
    return tree


def test_tree_readers_on_a_1200_deep_tree_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    n = 1200
    tree = _deep_tree(n)
    left, right = [f"l{k}" for k in range(1, n)], [f"r{k}" for k in range(n - 1, 0, -1)]
    assert tree.tokens() == left + ["w"] + right
    nodes = list(tree.walk())
    assert len(nodes) == n and nodes[0] is tree
    assert all(child is node.children[1] for node, child in zip(nodes, nodes[1:]))
    counts = tree.rule_counts()
    assert counts[("S", ("w",))] == 1 and len(counts) == n
    grammar = Grammar("S", [CFGRule("S", ("w",))] + [
        CFGRule("S", (f"l{k}", "S", f"r{k}")) for k in range(1, n)
    ])
    grammar.validate_tree(tree)
    theta = count_ml(grammar, [tree])
    assert np.array_equal(theta.vector("S"), np.full(n, 1.0 / n))


def test_render_parse_round_trip_of_a_1200_deep_tree_at_the_default_recursion_limit():
    # compared by text and brackets: ==, hash and shape still recurse
    assert sys.getrecursionlimit() <= 1000
    n = 1200
    tree = _deep_tree(n)
    text = tree.render()
    left = "".join(f"(S l{k} " for k in range(1, n))
    right = "".join(f" r{k})" for k in range(n - 1, 0, -1))
    assert text == str(tree) == left + "(S w)" + right
    again = ParseTree.parse(text)
    assert again.render() == text
    assert again.brackets() == tree.brackets()
    assert again.tokens() == tree.tokens()


# -- trees ------------------------------------------------------------------------


def _verdict(read, grammar, tokens, explanation, mode, **kw):
    """The tree ``read`` returns, or the type of what it raised."""
    try:
        return read(grammar, tokens, explanation, mode, **kw)
    except (InconsistentExplanation, ExplosionLimit) as e:
        return type(e)


def _preorder(derivation) -> list[tuple]:
    out = []
    for node in derivation:
        out.append(node)
        out += _preorder(node[1])
    return out


def _mutated(derivation, k: int, change) -> tuple:
    """``derivation`` with its k-th node in preorder replaced by ``change(node)``."""
    seen = -1

    def walk(nodes):
        nonlocal seen
        out = []
        for tag, kids in nodes:
            seen += 1
            out.append(change((tag, kids)) if seen == k else (tag, walk(kids)))
        return tuple(out)

    return walk(derivation)


def _demo20_test_parses():
    """Per mode, the Viterbi parses of the demo20 N=200 corpus's sentences,
    each under VT parameters learned on the other three of four folds."""
    demo20 = load_grammar(DEMO20)
    trees = gen_corpus(demo20, demo20.pcfg_parameter_table(), 200, seed=1).trees()
    parts = fold_partition(len(trees), 4, 0)
    parses = {"pcfg": [], "plcg": []}
    for f, test_idx in enumerate(parts):
        train = [trees[i].tokens() for p, part in enumerate(parts) if p != f for i in part]
        for mode, compile_corpus in (("pcfg", compile_pcfg_corpus), ("plcg", compile_plcg_corpus)):
            graph, goals = compile_corpus(demo20, train)
            theta = learn(graph, goals, LearnConfig(method="vt", delta=1.0, seed=1)).final_theta
            for i in test_idx:
                tokens = trees[i].tokens()
                sg = (compile_pcfg if mode == "pcfg" else compile_plcg)(demo20, tokens)
                parses[mode].append((tokens, viterbi(sg, sg.roots[0], theta).explanation))
    return demo20, parses


@pytest.fixture(scope="module")
def demo20_parses():
    return _demo20_test_parses()


def test_trees_equal_the_reference_walk_on_demo20(demo20_parses):
    demo20, parses = demo20_parses
    searched = 0
    for mode, parsed in parses.items():
        assert len(parsed) == 200
        for tokens, expl in parsed:
            tree = tree_from_explanation(demo20, tokens, expl, mode)
            assert tree == reference_tree_from_explanation(demo20, tokens, expl, mode)
            assert tree.tokens() == tokens
            stripped = Explanation(expl.instances)
            got = _verdict(tree_from_explanation, demo20, tokens, stripped, mode, limit=2000)
            ref = _verdict(reference_tree_from_explanation, demo20, tokens, stripped, mode, limit=2000)
            assert got == ref
            searched += isinstance(got, ParseTree)
    assert searched == 400  # the bounded search finds every tree


def test_mutated_inputs_are_rejected_as_the_reference_rejects_them(demo20_parses):
    demo20, parses = demo20_parses
    n_rules = len(demo20.rules)
    rejected = {"sentence": 0, "mode": 0, "tag": 0, "subtree": 0}
    other = {"pcfg": "plcg", "plcg": "pcfg"}
    for mode, parsed in parses.items():
        for k, (tokens, expl) in enumerate(parsed):
            nodes = _preorder(expl.derivation)
            with_kids = [j for j, (_, kids) in enumerate(nodes) if kids]
            swapped = _mutated(
                expl.derivation, k % len(nodes), lambda n: ((n[0] + 1) % n_rules, n[1])
            )
            drop = with_kids[k % len(with_kids)]
            dropped = _mutated(expl.derivation, drop, lambda n: (n[0], n[1][:-1]))
            another = next(w for w, _ in parsed[k + 1 :] + parsed[:k] if w != tokens)
            cases = {
                "sentence": (another, expl, mode),
                "mode": (tokens, expl, other[mode]),
                "tag": (tokens, Explanation(expl.instances, swapped), mode),
                "subtree": (tokens, Explanation(expl.instances, dropped), mode),
            }
            for name, (words, e, m) in cases.items():
                got = _verdict(tree_from_explanation, demo20, words, e, m)
                assert got == _verdict(reference_tree_from_explanation, demo20, words, e, m)
                rejected[name] += got is InconsistentExplanation
    assert rejected == dict.fromkeys(rejected, 400)


def test_reading_a_derivation_builds_no_term_instance_or_explanation(monkeypatch, demo20_parses):
    demo20, parses = demo20_parses
    tokens = parses["pcfg"][0][0]
    one = {mode: parsed[0][1] for mode, parsed in parses.items()}

    def refuse(self, *args, **kw):
        raise AssertionError(f"{type(self).__name__} built")

    for cls in (Term, SwitchInstance):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    monkeypatch.setattr(Explanation, "__init__", refuse)
    for mode, parsed in parses.items():
        for words, expl in parsed:
            assert tree_from_explanation(demo20, words, expl, mode).tokens() == words
    # a derivation read in the other mode is refused without building any either
    with pytest.raises(InconsistentExplanation):
        tree_from_explanation(demo20, tokens, one["pcfg"], "plcg")
    with pytest.raises(InconsistentExplanation):
        tree_from_explanation(demo20, tokens, one["plcg"], "pcfg")
    with pytest.raises(AssertionError, match="Explanation built"):
        Explanation()


# -- counting ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_count_ml_is_the_learners_m_step_on_complete_data(seed):
    demo20 = load_grammar(DEMO20)
    trees = gen_corpus(demo20, demo20.pcfg_parameter_table(), 20, seed=seed).trees()
    graph, goals = tree_goals_graph(demo20, trees)
    want = count_ml(demo20, trees)
    assert learn(graph, goals, LearnConfig(method="em")).final_theta == want
    assert want == reference_count_ml(demo20, trees)
    for delta in (0.1, 1 / 3, 0.5, 1.0):
        pseudo = PseudoCountTable.constant(graph, delta)
        want = count_ml(demo20, trees, pseudo)
        for method in ("vt", "map"):
            assert learn(graph, goals, LearnConfig(method=method, delta=delta)).final_theta == want
        ref = reference_count_ml(demo20, trees, pseudo)
        for k, vec in ref.data.items():
            # the former loop summed each switch in another order; its sum of
            # n entries and the divisions by it stay within n epsilons
            tol = len(vec) * np.finfo(float).eps * vec
            assert np.all(np.abs(want.data[k] - vec) <= tol), k
        if delta in (0.5, 1.0):
            assert want == ref


def test_count_ml_warns_and_refuses_as_the_reference():
    demo20 = load_grammar(DEMO20)
    one_tree = gen_corpus(demo20, demo20.pcfg_parameter_table(), 1, seed=0).trees()
    for trees in ([], one_tree):
        messages = []
        for count in (count_ml, reference_count_ml):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                theta = count(demo20, trees)
            assert [w.filename for w in caught] == [__file__]
            messages.append(str(caught[0].message))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert theta == reference_count_ml(demo20, trees) == count_ml(demo20, trees)
        assert messages[0] == messages[1]
    assert messages[0].endswith(": PP")
    decls = dict(list(demo20._pcfg_decls.items())[:-1])
    partial = PseudoCountTable.constant(decls.values(), 1.0)
    raised = []
    for count in (count_ml, reference_count_ml):
        with pytest.raises(MissingParameter) as e:
            count(demo20, one_tree, partial)
        raised.append(str(e.value))
    assert raised[0] == raised[1]


# -- session routes ---------------------------------------------------------------


def test_routes_read_off_the_derivation_equal_the_edge_walk():
    eg = six_node_demo_graph()
    queries = [(u, v) for u in eg.nodes for v in eg.nodes if u != v]
    graph, goals = compile_path_queries(eg, queries)
    rng = np.random.default_rng(5)
    thetas = [eg.parameter_table()] + [random_theta(rng, graph) for _ in range(20)]
    for theta in thetas:
        for (frm, to), goal in zip(queries, goals):
            expl = viterbi(graph, goal, theta).explanation
            route = _route(expl, frm)
            assert route == reference_path_nodes(expl, frm)
            assert route[0] == frm and route[-1] == to
    assert set(SESSION_QUERIES) <= set(queries)


# -- slot normalisation -----------------------------------------------------------


def test_normalize_equals_the_per_switch_loop():
    rng = np.random.default_rng(30)
    layouts = [SlotLayout({})]
    for _ in range(300):
        sizes = rng.integers(1, 7, rng.integers(1, 9))
        layouts.append(
            SlotLayout(
                {
                    f"s{k}": SwitchDecl(f"s{k}", tuple(f"v{j}" for j in range(n)))
                    for k, n in enumerate(sizes.tolist())
                }
            )
        )
    for layout in layouts:
        n = layout.n_slots
        # zero, tiny and huge entries, and whole switches of zeros
        flat = rng.random(n) * 10.0 ** rng.integers(-320, 300, n)
        flat[rng.random(n) < 0.3] = 0.0
        for k in np.flatnonzero(rng.random(len(layout.keys)) < 0.3).tolist():
            flat[layout.starts[k] : layout.starts[k] + layout.sizes[k]] = 0.0
        got, want = layout.normalize(flat), reference_normalize(layout, flat)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

import bisect
import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from explgraph.errors import (
    ExplGraphError,
    ExplosionLimit,
    InconsistentExplanation,
    LengthMismatch,
    Unparseable,
    VanishingAcceptance,
)
from explgraph.grammar import (
    CFGRule,
    CorpusSample,
    Grammar,
    ParseTree,
    compile_pcfg,
    compile_pcfg_corpus,
    compile_plcg,
    compile_plcg_corpus,
    count_ml,
    gen_corpus,
    metrics,
    tree_from_explanation,
    tree_goals_graph,
)
from explgraph.grammar import (
    _LeftCornerSwitches,
    _check_sentence,
    _search_derivation,
)
from explgraph.graph import (
    Explanation,
    GraphBuilder,
    SwitchInstance,
    enumerate_explanations,
    explanation_prob,
)
from explgraph.harness import fold_partition
from explgraph.inference import extract_viterbi, goal_prob, log_theta_vector, viterbi
from explgraph.io import load_grammar
from explgraph.learning import LearnConfig, em_map_learn, vt_learn
from explgraph.tables import ParameterTable, PseudoCountTable
from explgraph.terms import Term, render_term

from conftest import random_grammar, random_theta, toy_grammar

DEMO20 = Path(__file__).resolve().parent.parent / "data" / "demo20.grammar"


def all_parses(grammar, tokens):
    """Brute-force exhaustive parser, independent of the compile path."""
    memo = {}

    def nt(a, i, j):
        key = (a, i, j)
        if key not in memo:
            memo[key] = []
            out = []
            for ridx in grammar.rules_for[a]:
                for kids in seq(grammar.rules[ridx].rhs, i, j):
                    out.append(ParseTree(a, tuple(kids)))
            memo[key] = out
        return memo[key]

    def seq(syms, i, j):
        if not syms:
            if i == j:
                yield []
            return
        s, rest = syms[0], syms[1:]
        if s in grammar.nonterminals:
            for k in range(i + 1, j - len(rest) + 1):
                for t in nt(s, i, k):
                    for tail in seq(rest, k, j):
                        yield [t] + tail
        else:
            if i < j and tokens[i] == s:
                for tail in seq(rest, i + 1, j):
                    yield [s] + tail

    return nt(grammar.start, 0, len(tokens))


def np_vp_grammar():
    """Small grammar whose trees have pairwise distinct rule multisets on
    short sentences (several nonterminals, including a ternary rule)."""
    rules = [
        CFGRule("S", ("NP", "VP")),
        CFGRule("NP", ("det", "N")),
        CFGRule("NP", ("N",)),
        CFGRule("N", ("noun",)),
        CFGRule("N", ("adj", "N")),
        CFGRule("VP", ("verb",)),
        CFGRule("VP", ("verb", "NP")),
        CFGRule("VP", ("verb", "NP", "prep")),
    ]
    return Grammar("S", rules)


def _demo20_corpus(n=200, seed=1):
    demo20 = load_grammar(DEMO20)
    return demo20, gen_corpus(demo20, demo20.pcfg_parameter_table(), n, seed=seed)


def _viterbi_parse(grammar, tokens, theta, mode):
    sg = (compile_pcfg if mode == "pcfg" else compile_plcg)(grammar, tokens)
    return viterbi(sg, sg.roots[0], theta)


# -- grammar structure -------------------------------------------------------


def test_grammar_rejects_epsilon_rules():
    with pytest.raises(ExplGraphError):
        CFGRule("A", ())


def test_grammar_rejects_unit_cycles():
    with pytest.raises(ExplGraphError, match="unit-rule cycle"):
        Grammar("A", [CFGRule("A", ("B",)), CFGRule("B", ("A",)), CFGRule("B", ("b",))])
    with pytest.raises(ExplGraphError, match="unit-rule cycle"):
        Grammar("A", [CFGRule("A", ("A",)), CFGRule("A", ("a",))])


def test_unit_cycle_message_is_independent_of_the_hash_seed():
    # the nonterminals are a set; the cycle is named from their sorted order
    script = "\n".join([
        "from explgraph.grammar import CFGRule, Grammar",
        "rules = [('S', 'A'), ('A', 'B'), ('B', 'A'), ('B', 'b')]",
        "try:",
        "    Grammar('S', [CFGRule(lhs, (rhs,)) for lhs, rhs in rules])",
        "except Exception as e:",
        "    print(e)",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = []
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        out.append(done.stdout)
    assert out == ["unit-rule cycle: A -> B -> A\n"] * 2


def test_left_corner_relation_is_reflexive_transitive(grammar):
    assert grammar.left_corner["S"][0] == "S"
    assert set(grammar.left_corner["S"]) == {"S", "a", "b"}
    assert grammar.first["S"] == ["a", "b"]


# -- top-down chart -----------------------------------------------------------


def test_pcfg_single_token(grammar):
    g = compile_pcfg(grammar, ["a"])
    expls = enumerate_explanations(g, g.roots[0])
    assert [e.render() for e in expls] == ["{S=[a]}"]
    assert goal_prob(g, g.roots[0], grammar.pcfg_parameter_table()) == pytest.approx(
        0.3, rel=1e-12
    )


def test_pcfg_two_tokens(grammar):
    g = compile_pcfg(grammar, ["a", "b"])
    theta = grammar.pcfg_parameter_table()
    assert goal_prob(g, g.roots[0], theta) == pytest.approx(0.036, rel=1e-12)


def test_pcfg_unparseable_token(grammar):
    with pytest.raises(Unparseable):
        compile_pcfg(grammar, ["c"])


@pytest.mark.parametrize(
    "compile_corpus", [compile_pcfg_corpus, compile_plcg_corpus], ids=["pcfg", "plcg"]
)
def test_corpus_refusal_names_the_first_failing_sentence(compile_corpus):
    # every sentence is checked and charted before any is walked, yet the
    # error raised is still the first in corpus order: a sentence without
    # a derivation before a token the grammar lacks, and the other way round
    demo20 = load_grammar(DEMO20)
    ok, unparseable, bad_token = ["pro", "verb"], ["verb", "pro"], ["pro", "flies"]
    with pytest.raises(Unparseable, match="derivation of: verb pro$"):
        compile_corpus(demo20, [ok, unparseable, bad_token])
    with pytest.raises(Unparseable, match="^token 'flies' is not a terminal"):
        compile_corpus(demo20, [ok, bad_token, unparseable])


def test_pcfg_chart_orders_narrow_spans_first(grammar):
    g = compile_pcfg(grammar, ["a", "b"])
    pos = {lab: i for i, lab in enumerate(g.labels)}
    order = {g.labels[goal]: i for i, goal in enumerate(g.topo_order)}
    assert order["S([a])"] < order["S([a,b])"]
    assert order["S([b])"] < order["S([a,b])"]


def test_pcfg_inside_sums_all_derivations(grammar):
    theta = grammar.pcfg_parameter_table()
    for tokens in (["a", "b", "a"], ["b", "b", "a", "b"]):
        g = compile_pcfg(grammar, tokens)
        trees = all_parses(grammar, tokens)
        want = 0.0
        table = theta
        for t in trees:
            p = 1.0
            for (lhs, rhs), c in t.rule_counts().items():
                p *= table.get(lhs, tuple(rhs)) ** c
            want += p
        assert goal_prob(g, g.roots[0], theta) == pytest.approx(want, rel=1e-10)


def test_pcfg_explanations_biject_with_parse_forest():
    grammar = np_vp_grammar()
    sentences = [
        ["noun", "verb"],
        ["det", "noun", "verb"],
        ["adj", "noun", "verb", "noun"],
        ["noun", "verb", "noun", "prep"],
        ["det", "adj", "noun", "verb"],
    ]
    for tokens in sentences:
        g = compile_pcfg(grammar, tokens)
        expls = enumerate_explanations(g, g.roots[0])
        trees = all_parses(grammar, tokens)
        multisets = {
            tuple(sorted((l, r, c) for (l, r), c in t.rule_counts().items()))
            for t in trees
        }
        assert len(trees) >= 1
        assert len(multisets) == len(trees), "grammar must be collision-free here"
        assert len(expls) == len(trees)
        recovered = {
            tree_from_explanation(grammar, tokens, e, "pcfg").render() for e in expls
        }
        assert recovered == {t.render() for t in trees}


def test_pcfg_corpus_shares_repeated_sentences(grammar):
    graph, goals = compile_pcfg_corpus(grammar, [["a"], ["a", "b"], ["a"]])
    assert goals[0] == goals[2] != goals[1]
    theta = grammar.pcfg_parameter_table()
    assert goal_prob(graph, goals[0], theta) == pytest.approx(0.3, rel=1e-12)


def _reachable_from_roots(graph):
    seen, stack = set(), list(graph.roots)
    while stack:
        g = stack.pop()
        if g not in seen:
            seen.add(g)
            stack.extend(s for b in graph.formulas[g].bodies for s in b.subgoals)
    return seen


def test_frontends_compile_only_goals_reachable_from_a_root(grammar):
    demo20 = load_grammar(DEMO20)
    sentences = gen_corpus(demo20, demo20.pcfg_parameter_table(), 60, seed=4).sentences()
    singles = [(grammar, ["b", "a", "b", "a"]), (np_vp_grammar(), ["noun", "verb", "noun", "prep"])]
    singles += [(demo20, s) for s in sentences[:10]]
    for compile_one, compile_corpus in [
        (compile_pcfg, compile_pcfg_corpus),
        (compile_plcg, compile_plcg_corpus),
    ]:
        for gram, tokens in singles:
            g = compile_one(gram, tokens)
            assert len(_reachable_from_roots(g)) == g.n_goals, tokens
        graph, goals = compile_corpus(demo20, sentences)
        assert set(graph.roots) == set(goals)
        assert len(_reachable_from_roots(graph)) == graph.n_goals


def _graph_digest(graph, goals):
    """SHA-256 over switch order and values, goal labels, bodies and roots."""
    h = hashlib.sha256()
    for key, decl in graph.switches.items():
        h.update(f"switch {key} {render_term(decl.values)}\n".encode())
    for label, formula in zip(graph.labels, graph.formulas):
        parts = [label]
        for body in formula.bodies:
            inst = ";".join(
                f"{render_term(i.switch)}={render_term(i.value)}*{i.mult}" for i in body.instances
            )
            parts.append(",".join(map(str, body.subgoals)) + "|" + inst)
        h.update((" ".join(parts) + "\n").encode())
    h.update(f"roots {graph.roots} goals {goals}\n".encode())
    return h.hexdigest()


def test_corpus_graphs_pinned_for_both_frontends():
    # pins taken from the compilers that declared every switch once per
    # sentence; declaring them once per compile call must not change them.
    # The plcg pin was re-taken when the left-corner compiler stopped
    # emitting goals that no root reaches, and again when chart-filtered
    # recognition changed the order in which it creates goals (the labelled
    # graph is checked against the former compiler in
    # test_plcg_keeps_the_reachable_part_of_the_former_graph).  Both pins
    # were re-taken when goals came to be keyed by the words they span
    # instead of per-sentence token positions (each labelled graph is
    # checked against the positional one, root by root, in
    # test_tabled_corpus_matches_positional_graph_per_root).  The pcfg pin
    # was re-taken when PCFG recognition came to store each goal after the
    # goals its bodies use (a post-order walk of the chart instead of a
    # top-down sweep), which moves goal ids only: the labelled graph is
    # checked against the positional one in the same test.  The plcg pin
    # was re-taken when left-corner keys came to be read off the chart by
    # the walk both frontends share, which moves goal ids only: the
    # labelled graph is checked against the positional one in the same
    # test and in tests/test_properties.py
    demo20, sample = _demo20_corpus()
    pins = {
        "pcfg": (
            compile_pcfg_corpus,
            "27ebd2c1f5451ba66da8616f7d75f151d4a7430931babac12f2cf54929922b6b",
        ),
        "plcg": (
            compile_plcg_corpus,
            "6dc12e902d9d83abf72fa7a2a9743d7af3c89e6c343375e30a49eb92bc6cd407",
        ),
    }
    for mode, (compile_corpus, digest) in pins.items():
        graph, goals = compile_corpus(demo20, sample.sentences())
        assert _graph_digest(graph, goals) == digest, mode


def test_pcfg_ternary_rule_uses_dotted_goals():
    grammar = np_vp_grammar()
    tokens = ["noun", "verb", "noun", "prep"]
    g = compile_pcfg(grammar, tokens)
    assert any(lab.startswith("dot(") for lab in g.labels)
    # probability still matches the exhaustive forest under random theta
    rng = np.random.default_rng(0)
    data = {}
    for key, decl in g.switches.items():
        w = rng.uniform(0.1, 1.0, len(decl.values))
        data[key] = w / w.sum()
    theta = ParameterTable(g.switches, data)
    want = 0.0
    for t in all_parses(grammar, tokens):
        p = 1.0
        for (lhs, rhs), c in t.rule_counts().items():
            p *= theta.get(lhs, tuple(rhs)) ** c
        want += p
    assert goal_prob(g, g.roots[0], theta) == pytest.approx(want, rel=1e-10)


# -- left-corner chart ---------------------------------------------------------


def test_plcg_single_token_trace(grammar):
    g = compile_plcg(grammar, ["a"])
    expls = enumerate_explanations(g, g.roots[0])
    assert [e.render() for e in expls] == [
        "{att(S)=att, first(S)=a, lc(S,a)=rule(S,[a])}"
    ]


def test_plcg_two_tokens_single_projection(grammar):
    g = compile_plcg(grammar, ["a", "b"])
    expls = enumerate_explanations(g, g.roots[0])
    assert len(expls) == 1
    (e,) = expls
    from explgraph.terms import Term

    assert e.count(Term("lc", ("S", "S")), Term("rule", ("S", ("S", "S")))) == 1
    assert e.count(Term("att", ("S",)), "att") == 2
    assert e.count(Term("att", ("S",)), "pro") == 1


def test_plcg_no_self_left_corner_means_no_att_switch():
    grammar = Grammar(
        "S", [CFGRule("S", ("A", "B")), CFGRule("A", ("a",)), CFGRule("B", ("b",))]
    )
    g = compile_plcg(grammar, ["a", "b"])
    assert not any(k.startswith("att(") for k in g.switches)
    for e in enumerate_explanations(g, g.roots[0]):
        assert all(not str(s).startswith("att(") for (s, v), m in e.items())


def _lc_derivation_instances(grammar, goal, tree, out):
    """Switch uses of the unique left-corner derivation of ``tree``.

    Simulates the machine on a known tree: shift the leftmost token,
    then walk the spine upward, choosing the rule that grows the
    finished constituent, deriving non-leftmost children recursively,
    and attaching or projecting at each spine node.
    """
    from explgraph.terms import Term

    if goal not in grammar.nonterminals:
        return
    spine = [tree]
    while isinstance(spine[-1].children[0], ParseTree):
        spine.append(spine[-1].children[0])
    leftmost = spine[-1].children[0]
    out.append((Term("first", (goal,)), leftmost))
    current = leftmost
    for node in reversed(spine):
        rhs = tuple(c if isinstance(c, str) else c.label for c in node.children)
        out.append((Term("lc", (goal, current)), Term("rule", (node.label, rhs))))
        for child in node.children[1:]:
            if isinstance(child, ParseTree):
                _lc_derivation_instances(grammar, child.label, child, out)
        is_root = node is tree
        if is_root:
            if grammar.lc_rule_values(goal, goal):
                out.append((Term("att", (goal,)), "att"))
        elif node.label == goal:
            out.append((Term("att", (goal,)), "pro"))
        current = node.label


def test_plcg_inside_sums_tree_derivations(grammar):
    # every parse tree has exactly one left-corner derivation; the root
    # inside value must equal the sum of their probabilities
    rng = np.random.default_rng(31)
    for tokens in (["a"], ["a", "b"], ["a", "b", "a"], ["b", "a", "b", "a"]):
        g = compile_plcg(grammar, tokens)
        data = {}
        for key, decl in g.switches.items():
            w = rng.uniform(0.1, 1.0, len(decl.values))
            data[key] = w / w.sum()
        theta = ParameterTable(g.switches, data)
        want = 0.0
        per_tree = []
        for t in all_parses(grammar, tokens):
            uses = []
            _lc_derivation_instances(grammar, "S", t, uses)
            p = 1.0
            for sw, v in uses:
                p *= theta.get(sw, v)
            per_tree.append((uses, p))
            want += p
        assert goal_prob(g, g.roots[0], theta) == pytest.approx(want, rel=1e-10)
        # and the enumerated multisets are exactly the per-tree multisets
        from collections import Counter
        from explgraph.terms import render_term

        tree_multisets = {
            tuple(sorted(Counter((render_term(s), render_term(v)) for s, v in uses).items()))
            for uses, _ in per_tree
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expls = enumerate_explanations(g, g.roots[0])
        expl_multisets = {
            tuple(sorted(((render_term(s), render_term(v)), m) for (s, v), m in e.items()))
            for e in expls
        }
        assert expl_multisets == tree_multisets


def test_plcg_unparseable(grammar):
    with pytest.raises(Unparseable):
        compile_plcg(grammar, ["c"])


def _reference_compile_plcg_into(builder, grammar, tokens, ns, lc):
    """The former left-corner compiler: it creates each goal as soon as
    the goal's own bodies succeed, so goals that no root reaches stay in
    the graph.  It reads the switch slots of ``lc`` and hands them to the
    builder as they are.  (It also raised the interpreter's recursion limit to
    10,000 while it ran; that block is left out here.)"""
    n = len(tokens)
    nts = grammar.nonterminals
    memo = {}

    def build_g(syms, i, j):
        key = ("g", syms, i, j)
        if key in memo:
            return memo[key]
        memo[key] = None  # cycle guard; construction below must not re-enter
        bodies = []
        if not syms:
            if i == j:
                bodies.append(([], ()))
        else:
            g0, rest = syms[0], syms[1:]
            if g0 not in nts:
                if i < j and tokens[i] == g0:
                    sub = build_g(rest, i + 1, j)
                    if sub is not None:
                        bodies.append(([sub], ()))
            elif i < j:
                shift = lc.first.get((g0, tokens[i]))
                if shift is not None:
                    for k in range(i + 1, j + 1):
                        lc_goal = build_lc(g0, tokens[i], i + 1, k)
                        if lc_goal is None:
                            continue
                        g_goal = build_g(rest, k, j)
                        if g_goal is not None:
                            bodies.append(([lc_goal, g_goal], (shift,)))
        if not bodies:
            return None
        gid = builder.goal(f"{ns}g({render_term(tuple(syms))},{i},{j})")
        for subs, slots in bodies:
            builder.add_slot_body(gid, subs, slots)
        memo[key] = gid
        return gid

    def build_lc(g0, b, k, j):
        key = ("lc", g0, b, k, j)
        if key in memo:
            return memo[key]
        memo[key] = None
        bodies = []
        attach = lc.attach.get(g0)
        for ridx, choose in lc.grow.get((g0, b), ()):
            rule = grammar.rules[ridx]
            beta = rule.rhs[1:]
            if rule.lhs == g0:
                done = build_g(beta, k, j)
                if done is not None:
                    inst = (choose,) if attach is None else (choose, attach[0])
                    bodies.append(([done], inst, ridx))
                if attach is not None:
                    for m in range(k, j + 1):
                        mid = build_g(beta, k, m)
                        if mid is None:
                            continue
                        nxt = build_lc(g0, g0, m, j)
                        if nxt is not None:
                            bodies.append(([mid, nxt], (choose, attach[1]), ridx))
            else:
                for m in range(k, j + 1):
                    mid = build_g(beta, k, m)
                    if mid is None:
                        continue
                    nxt = build_lc(g0, rule.lhs, m, j)
                    if nxt is not None:
                        bodies.append(([mid, nxt], (choose,), ridx))
        if not bodies:
            return None
        gid = builder.goal(f"{ns}lc({g0},{b},{k},{j})")
        for subs, slots, ridx in bodies:
            builder.add_slot_body(gid, subs, slots, ridx)
        memo[key] = gid
        return gid

    root = build_g((grammar.start,), 0, n)
    if root is None:
        raise Unparseable(f"no left-corner derivation of: {' '.join(tokens)}")
    return root


def _cky_chart(bits, tokens):
    """The former bitmask CKY, kept as the chart's reference.

    ``chart[i][j]`` is the mask of every bit (``_SymbolBits``) whose
    symbol, prefix or suffix derives the span ``(i, j)``; the empty
    spans hold ``()`` alone.  Cell by cell, in O(n^3), with the binary
    steps and the unit closure memoised per cell mask.
    """
    up_memo, close_memo = {}, {}

    def combine(left, right):
        """Parent bits of every binary step over a (left, right) cell pair."""
        key = (left, right)
        out = up_memo.get(key)
        if out is None:
            out = 0
            for lb, rb, pb in bits.pairs:
                if left >> lb & 1 and right >> rb & 1:
                    out |= 1 << pb
            up_memo[key] = out
        return out

    def close(mask):
        """``mask`` plus every nonterminal it derives through unit rules."""
        out = close_memo.get(mask)
        if out is None:
            out = mask
            changed = True
            while changed:
                changed = False
                for cb, pb in bits.units:
                    if out >> cb & 1 and not out >> pb & 1:
                        out |= 1 << pb
                        changed = True
            close_memo[mask] = out
        return out

    n, empty = len(tokens), 1 << bits.bit[()]
    chart = [[0] * (n + 1) for _ in range(n + 1)]
    for i, row in enumerate(chart):
        row[i] = empty  # the empty suffix derives every span of no tokens
    for i, tok in enumerate(tokens):
        chart[i][i + 1] = close(1 << bits.bit[tok])
    for w in range(2, n + 1):
        for i in range(0, n - w + 1):
            j = i + w
            row = chart[i]
            acc = 0
            for k in range(i + 1, j):
                left, right = row[k], chart[k][j]
                if left and right:
                    acc |= combine(left, right)
            row[j] = close(acc) if acc else 0
    return chart


def _reach_sweep(bits, start, tokens, chart):
    """Per span, the bits of the chart goals reachable from ``(start, 0, n)``.

    A top-down sweep over the CKY ``chart`` from the full span that keeps
    only the symbols some derivation of the sentence uses.  ``reach[i][j]``
    is the mask of span ``(i, j)``.
    """
    close_memo, split_memo = {}, {}

    def close_down(need, cell):
        """``need`` plus the unit-rule children in ``cell`` that it uses."""
        key = (need, cell)
        out = close_memo.get(key)
        if out is None:
            out = need
            changed = True
            while changed:
                changed = False
                for cb, pb in bits.units:
                    if out >> pb & 1 and cell >> cb & 1 and not out >> cb & 1:
                        out |= 1 << cb
                        changed = True
            close_memo[key] = out
        return out

    def split_needs(need, left, right):
        """Left and right bits that binary steps into ``need`` use at one split."""
        key = (need, left, right)
        out = split_memo.get(key)
        if out is None:
            lo = ro = 0
            for lb, rb, pb in bits.pairs:
                if need >> pb & 1 and left >> lb & 1 and right >> rb & 1:
                    lo |= 1 << lb
                    ro |= 1 << rb
            out = split_memo[key] = (lo, ro)
        return out

    n = len(tokens)
    if not chart[0][n] >> bits.bit[start] & 1:
        raise Unparseable(f"no derivation of: {' '.join(tokens)}")
    reach = [[0] * (n + 1) for _ in range(n + 1)]
    reach[0][n] = 1 << bits.bit[start]
    for w in range(n, 0, -1):
        for i in range(0, n - w + 1):
            j = i + w
            if not reach[i][j]:
                continue
            need = reach[i][j] = close_down(reach[i][j], chart[i][j])
            row, rrow = chart[i], reach[i]
            for k in range(i + 1, j):
                left, right = row[k], chart[k][j]
                if left and right:
                    lo, ro = split_needs(need, left, right)
                    rrow[k] |= lo
                    reach[k][j] |= ro
    return reach


def _reference_compile_pcfg_into(builder, grammar, tokens, ns):
    """The former PCFG compiler: goals labelled by token positions,
    ``A(i,j)`` and ``dot(r,t,i,j)``, built once per sentence, from the
    top-down sweep of the CKY chart into the goals the root reaches."""
    n = len(tokens)
    nts = grammar.nonterminals
    bits = grammar._symbol_bits
    reach = _reach_sweep(bits, grammar.start, tokens, _cky_chart(bits, tokens))
    bit = bits.bit
    rule_inst = [(SwitchInstance(r.lhs, r.rhs),) for r in grammar.rules]

    def span_goal(a, i, j):
        return builder.goal(f"{ns}{a}({i},{j})")

    def dot_kept(ridx, t, i, j):
        return bool(reach[i][j] >> bit[(ridx, t)] & 1)

    def sym_subgoals(s, i, j):
        if s in nts:
            return [span_goal(s, i, j)] if reach[i][j] >> bit[s] & 1 else None
        return [] if (j == i + 1 and tokens[i] == s) else None

    built_dots = set()

    def build_dot(ridx, t, i, j):
        gid = builder.goal(f"{ns}dot({ridx},{t},{i},{j})")
        if (ridx, t, i, j) in built_dots:
            return gid
        built_dots.add((ridx, t, i, j))
        rhs = grammar.rules[ridx].rhs
        for k in range(i + t - 1, j):
            last = sym_subgoals(rhs[t - 1], k, j)
            if last is None:
                continue
            if t == 2:
                first = sym_subgoals(rhs[0], i, k)
                if first is not None:
                    builder.add_body(gid, first + last)
            elif dot_kept(ridx, t - 1, i, k):
                builder.add_body(gid, [build_dot(ridx, t - 1, i, k)] + last)
        return gid

    for w in range(1, n + 1):
        for i in range(0, n - w + 1):
            j = i + w
            for a in sorted(nts):
                if not reach[i][j] >> bit[a] & 1:
                    continue
                gid = span_goal(a, i, j)
                for ridx in grammar.rules_for[a]:
                    rhs = grammar.rules[ridx].rhs
                    m = len(rhs)
                    inst = rule_inst[ridx]
                    if m == 1:
                        subs = sym_subgoals(rhs[0], i, j)
                        if subs is not None:
                            builder.add_body(gid, subs, inst, ridx)
                    elif m == 2:
                        for k in range(i + 1, j):
                            left = sym_subgoals(rhs[0], i, k)
                            right = sym_subgoals(rhs[1], k, j)
                            if left is not None and right is not None:
                                builder.add_body(gid, left + right, inst, ridx)
                    else:
                        for k in range(i + m - 1, j):
                            if not dot_kept(ridx, m - 1, i, k):
                                continue
                            last = sym_subgoals(rhs[m - 1], k, j)
                            if last is not None:
                                builder.add_body(
                                    gid, [build_dot(ridx, m - 1, i, k)] + last, inst, ridx
                                )
    return span_goal(grammar.start, 0, n)


def _reference_compile_corpus(grammar, sentences, mode):
    """The former corpus compile: each distinct sentence ``u`` compiled by
    the positional reference compiler of ``mode`` in its own namespace
    ``s{u}:``, so phrases are never shared between or within sentences."""
    builder = GraphBuilder()
    if mode == "pcfg":
        builder.declare_switches(grammar._pcfg_decls)
        compile_into = _reference_compile_pcfg_into
    else:
        lc = _LeftCornerSwitches(grammar)
        builder.declare_switches(lc.decls)
        compile_into = partial(_reference_compile_plcg_into, lc=lc)
    root_of, goals = {}, []
    for sent in sentences:
        tokens = _check_sentence(grammar, sent)
        if tokens not in root_of:
            root_of[tokens] = compile_into(builder, grammar, tokens, f"s{len(root_of)}:")
            builder.add_root(root_of[tokens])
        goals.append(root_of[tokens])
    return builder.build(), goals


_POSITIONAL = re.compile(r"s(\d+):(.*?)(\d+),(\d+)\)")


def _word_label(label, distinct):
    """The word label of a positional reference label: ``s{u}:X(...,i,j)``
    becomes ``X(...,[w_i,...])`` over the words i..j of ``distinct[u]``."""
    u, head, i, j = _POSITIONAL.fullmatch(label).groups()
    return f"{head}{render_term(distinct[int(u)][int(i) : int(j)])})"


def _assert_reachable_part_equal(graph, goals, ref, ref_goals, sentences):
    """``graph`` is ``ref`` restricted to the goals a root reaches, with
    ``ref``'s positional labels mapped to word labels: the same label set,
    levels, bodies in order (subgoal labels, instances, tags), roots and
    observed goals, and the same switch declarations in the same order.
    Every reference goal that maps to one word label must agree on its
    level and bodies, which is what lets the tabled compilers build it
    once.  Goal ids may differ from ``ref``'s, but every goal must come
    after the goals its bodies use."""
    distinct = list(dict.fromkeys(tuple(s) for s in sentences))
    word = [_word_label(label, distinct) for label in ref.labels]
    assert list(graph.switches.items()) == list(ref.switches.items())
    level, ref_level = graph.compiled().level, ref.compiled().level

    def bodies(g, labels, x):
        return [([labels[s] for s in b.subgoals], b.instances, b.tag) for b in g.formulas[x].bodies]

    ref_of = {}
    for x in _reachable_from_roots(ref):
        seen = ref_of.setdefault(word[x], (ref_level[x], bodies(ref, word, x)))
        assert seen == (ref_level[x], bodies(ref, word, x)), ref.labels[x]
    assert sorted(graph.labels) == sorted(ref_of)
    for x, label in enumerate(graph.labels):
        assert (level[x], bodies(graph, graph.labels, x)) == ref_of[label], label
        assert all(s < x for b in graph.formulas[x].bodies for s in b.subgoals), label
    assert [graph.labels[r] for r in graph.roots] == [word[r] for r in ref.roots]
    assert [graph.labels[x] for x in goals] == [word[x] for x in ref_goals]


def _equals_reference(grammar, sentences, mode="plcg"):
    """Compare the tabled corpus graph of ``mode`` with the positional
    reference (and, for one sentence, the single-sentence graph); False
    when both refuse the corpus as unparseable."""
    compile_corpus, compile_one = {
        "pcfg": (compile_pcfg_corpus, compile_pcfg),
        "plcg": (compile_plcg_corpus, compile_plcg),
    }[mode]
    try:
        ref, ref_goals = _reference_compile_corpus(grammar, sentences, mode)
    except Unparseable as refused:
        with pytest.raises(Unparseable, match=re.escape(str(refused))):
            compile_corpus(grammar, sentences)
        return False
    _assert_reachable_part_equal(*compile_corpus(grammar, sentences), ref, ref_goals, sentences)
    if len(sentences) == 1:
        graph = compile_one(grammar, sentences[0])
        _assert_reachable_part_equal(graph, graph.roots, ref, ref.roots, sentences)
    return True


def _assert_per_root_equal(graph, ref, theta):
    """Every root of the tabled ``graph`` has the inside value, Viterbi log
    probability, explanation and derivation of its root in the positional
    ``ref``, bitwise (the roots correspond in order)."""
    comp, ref_comp = graph.compiled(), ref.compiled()
    lt, ref_lt = log_theta_vector(graph, theta), log_theta_vector(ref, theta)
    roots, ref_roots = np.array(graph.roots), np.array(ref.roots)
    assert np.array_equal(comp.inside_pass(lt)[0][roots], ref_comp.inside_pass(ref_lt)[0][ref_roots])
    best, sel = comp.viterbi_pass(lt)
    ref_best, ref_sel = ref_comp.viterbi_pass(ref_lt)
    assert np.array_equal(best[roots], ref_best[ref_roots])
    for r, ref_r in zip(graph.roots, ref.roots):
        got = extract_viterbi(graph, sel, best, r).explanation
        want = extract_viterbi(ref, ref_sel, ref_best, ref_r).explanation
        assert (got, got.derivation) == (want, want.derivation), graph.labels[r]


def test_plcg_keeps_the_reachable_part_of_the_former_graph(grammar):
    demo20, sample = _demo20_corpus()
    sentences = sample.sentences()
    assert _equals_reference(demo20, sentences)
    singles = [
        (grammar, ["b", "a", "b", "a"]),
        (np_vp_grammar(), ["noun", "verb", "noun", "prep"]),
        (np_vp_grammar(), ["adj", "noun", "verb", "det", "adj", "noun"]),
    ] + [(demo20, s) for s in sorted(sentences, key=len)[::40]]
    for gram, tokens in singles:
        assert _equals_reference(gram, [tokens]), tokens
    rng = np.random.default_rng(3)
    parsed = 0
    for _ in range(40):
        gram = random_grammar(rng)
        for _ in range(4):
            tokens = [str(t) for t in rng.choice(["a", "b"], size=int(rng.integers(1, 7)))]
            parsed += _equals_reference(gram, [tokens])
    assert parsed >= 40


def test_plcg_long_right_branching_sentence_equals_reference():
    # each aux opens a new right-branching constituent, so unfiltered
    # recognition probes every split of every one of them
    demo20 = load_grammar(DEMO20)
    assert _equals_reference(demo20, [["pro"] + ["aux"] * 40 + ["verb"]])


@pytest.mark.parametrize("mode", ["pcfg", "plcg"])
@pytest.mark.parametrize("n, seed", [(200, 1), (200, 2), (1000, 1)])
def test_tabled_corpus_matches_positional_graph_per_root(mode, n, seed):
    # goals keyed by the words they span are shared between and within
    # sentences; per root, and for learning on the whole corpus, the shared
    # graph must give what the former graph, one namespace per sentence,
    # gave: bitwise, except EM, whose sums over goals run in another order
    demo20, sample = _demo20_corpus(n, seed)
    sentences = sample.sentences()
    compile_corpus = compile_pcfg_corpus if mode == "pcfg" else compile_plcg_corpus
    graph, goals = compile_corpus(demo20, sentences)
    ref, ref_goals = _reference_compile_corpus(demo20, sentences, mode)
    _assert_reachable_part_equal(graph, goals, ref, ref_goals, sentences)
    _assert_per_root_equal(graph, ref, random_theta(np.random.default_rng(seed), graph))
    vt_config = LearnConfig(method="vt", delta=1.0, restarts=2, seed=seed)
    vt, vt_ref = vt_learn(graph, goals, vt_config), vt_learn(ref, ref_goals, vt_config)
    assert (vt.iterations, vt.termination) == (vt_ref.iterations, vt_ref.termination)
    for key, values in vt_ref.final_theta.data.items():
        assert np.array_equal(vt.final_theta.data[key], values), key
    assert [e.render() for e in vt.per_goal_viterbi] == [e.render() for e in vt_ref.per_goal_viterbi]
    em_config = LearnConfig(method="em", seed=seed)
    em, em_ref = em_map_learn(graph, goals, em_config), em_map_learn(ref, ref_goals, em_config)
    assert (em.iterations, em.termination) == (em_ref.iterations, em_ref.termination)
    for key, values in em_ref.final_theta.data.items():
        np.testing.assert_allclose(em.final_theta.data[key], values, rtol=0, atol=1e-12)


@pytest.mark.parametrize("compile_one", [compile_pcfg, compile_plcg], ids=["pcfg", "plcg"])
def test_compiles_without_changing_the_recursion_limit(monkeypatch, compile_one):
    demo20 = load_grammar(DEMO20)
    sentences = gen_corpus(demo20, demo20.pcfg_parameter_table(), 1000, seed=1).sentences()
    longest = max(sentences, key=len)
    assert len(longest) == 68

    def refuse(limit):
        raise AssertionError(f"sys.setrecursionlimit({limit}) called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    graph = compile_one(demo20, longest)
    assert len(_reachable_from_roots(graph)) == graph.n_goals


@pytest.mark.parametrize("compile_one", [compile_pcfg, compile_plcg], ids=["pcfg", "plcg"])
def test_long_right_branching_sentence_compiles(compile_one):
    # 602 tokens, each aux opening a new constituent: the chart's width
    # loop runs to 602 (no time is asserted), and every goal must be
    # reachable from the root
    demo20 = load_grammar(DEMO20)
    graph = compile_one(demo20, ["pro"] + ["aux"] * 600 + ["verb"])
    assert len(_reachable_from_roots(graph)) == graph.n_goals > 600


def test_deep_sentences_compile_without_recursion():
    # the child interpreter lowers its own recursion limit far below the
    # sentence's nesting depth; this one keeps its own.  Both frontends
    # recognise by an explicit-stack walk of the chart, so the sentence
    # compiles, with every goal reachable from the root
    script = "\n".join([
        "import sys",
        "from explgraph.grammar import compile_pcfg, compile_plcg",
        "from explgraph.io import load_grammar",
        f"grammar = load_grammar({str(DEMO20)!r})",
        "tokens = ['pro'] + ['aux'] * 150 + ['verb']",
        "sys.setrecursionlimit(200)",
        "for compile_one in (compile_pcfg, compile_plcg):",
        "    graph = compile_one(grammar, tokens)",
        "    seen, stack = set(graph.roots), list(graph.roots)",
        "    while stack:",
        "        for body in graph.formulas[stack.pop()].bodies:",
        "            stack.extend(s for s in body.subgoals if s not in seen)",
        "            seen.update(body.subgoals)",
        "    print(len(seen), graph.n_goals)",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().split("\n")
    assert len(lines) == 2
    for line in lines:
        n_reached, n_goals = map(int, line.split())
        assert n_reached == n_goals > 0


def test_probability_mass_bounded_for_both_frontends(grammar):
    theta_pcfg = grammar.pcfg_parameter_table()
    total_pcfg = 0.0
    total_plcg = 0.0
    theta_plcg = None
    for length in range(1, 5):
        for tokens in itertools.product("ab", repeat=length):
            g = compile_pcfg(grammar, list(tokens))
            total_pcfg += goal_prob(g, g.roots[0], theta_pcfg)
            gp = compile_plcg(grammar, list(tokens))
            if theta_plcg is None:
                theta_plcg = ParameterTable.uniform(gp)
            total_plcg += goal_prob(gp, gp.roots[0], theta_plcg)
    assert total_pcfg <= 1.0 + 1e-9
    assert total_plcg <= 1.0 + 1e-9


# -- trees from explanations ----------------------------------------------------


def test_tree_round_trip_single_token(grammar):
    g = compile_pcfg(grammar, ["a"])
    (e,) = enumerate_explanations(g, g.roots[0])
    t = tree_from_explanation(grammar, ["a"], e, "pcfg")
    assert t.render() == "(S a)"


def test_tree_from_viterbi_two_tokens(grammar):
    g = compile_pcfg(grammar, ["a", "b"])
    res = viterbi(g, g.roots[0], grammar.pcfg_parameter_table())
    t = tree_from_explanation(grammar, ["a", "b"], res.explanation, "pcfg")
    assert t.render() == "(S (S a) (S b))"


def test_tree_from_explanation_wrong_sentence(grammar):
    g = compile_pcfg(grammar, ["a", "b"])
    (e,) = enumerate_explanations(g, g.roots[0])
    with pytest.raises(InconsistentExplanation):
        tree_from_explanation(grammar, ["a", "a"], e, "pcfg")
    with pytest.raises(InconsistentExplanation):
        tree_from_explanation(grammar, ["a"], e, "pcfg")


def test_plcg_tree_round_trip(grammar):
    for tokens in (["a", "b"], ["a", "b", "a"]):
        g = compile_plcg(grammar, tokens)
        res = viterbi(g, g.roots[0], ParameterTable.uniform(g))
        t = tree_from_explanation(grammar, tokens, res.explanation, "plcg")
        assert t.tokens() == tokens
        grammar.validate_tree(t)


def test_tree_reproduces_rule_counts(grammar):
    tokens = ["a", "b", "a", "b"]
    g = compile_pcfg(grammar, tokens)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expls = enumerate_explanations(g, g.roots[0])
    for e in expls:
        t = tree_from_explanation(grammar, tokens, e, "pcfg")
        for (lhs, rhs), c in t.rule_counts().items():
            assert e.count(lhs, tuple(rhs)) == c


def test_viterbi_explanation_carries_its_derivation(grammar):
    res = _viterbi_parse(grammar, ["a", "b"], grammar.pcfg_parameter_table(), "pcfg")
    # rule indices: 0 is S -> S S, 1 is S -> a, 2 is S -> b
    assert res.explanation.derivation == ((0, ((1, ()), (2, ()))),)
    g = compile_plcg(grammar, ["a", "b"])
    res = viterbi(g, g.roots[0], ParameterTable.uniform(g))
    # shift a, apply S -> a and project; the finished S grows by S -> S S,
    # whose second S is shift b, S -> b, attach; then S -> S S attaches
    assert res.explanation.derivation == ((1, ((0, ((2, ()),)),)),)


def test_tree_from_stripped_derivation_uses_the_bounded_search():
    demo20, sample = _demo20_corpus()
    theta = demo20.pcfg_parameter_table()
    sentences = [s for s in sample.sentences() if len(s) <= 12][:25]
    for mode in ("pcfg", "plcg"):
        if mode == "plcg":
            g = compile_plcg(demo20, sentences[0])
            theta = ParameterTable.uniform(g)
        for tokens in sentences:
            res = _viterbi_parse(demo20, tokens, theta, mode)
            stripped = Explanation(res.explanation.instances)
            assert stripped.derivation is None
            read = tree_from_explanation(demo20, tokens, res.explanation, mode)
            searched = tree_from_explanation(demo20, tokens, stripped, mode)
            assert searched.tokens() == read.tokens() == tokens
            assert searched.rule_counts() == read.rule_counts()


def test_derivation_search_is_bounded_on_long_sentences():
    demo20, sample = _demo20_corpus()
    tokens = next(s for s in sample.sentences() if len(s) >= 40)
    res = _viterbi_parse(demo20, tokens, demo20.pcfg_parameter_table(), "pcfg")
    tree_from_explanation(demo20, tokens, res.explanation, "pcfg", limit=50)  # no search
    stripped = Explanation(res.explanation.instances)
    t0 = time.perf_counter()
    with pytest.raises(ExplosionLimit):
        tree_from_explanation(demo20, tokens, stripped, "pcfg", limit=50)
    assert time.perf_counter() - t0 < 5.0


def test_derivation_search_needs_the_whole_multiset():
    b = GraphBuilder()
    b.declare_switch("s", ("a",))
    b.declare_switch("t", ("b",))
    leaf = b.goal("leaf")
    b.add_body(leaf, [], [], tag="leaf")
    root = b.goal("root")
    b.add_body(root, [leaf], [SwitchInstance("s", "a")], tag="short")
    b.add_body(root, [leaf], [SwitchInstance("s", "a"), SwitchInstance("t", "b")], tag="long")
    b.add_root(root)
    graph = b.build()
    whole = Explanation([SwitchInstance("s", "a"), SwitchInstance("t", "b")])
    # the first body fits inside the multiset but leaves t=b unused
    assert _search_derivation(graph, whole, 100) == (("long", (("leaf", ()),)),)
    with pytest.raises(InconsistentExplanation):
        _search_derivation(graph, Explanation([SwitchInstance("t", "b")]), 100)


def test_derivation_of_another_sentence_or_mode_is_inconsistent(grammar):
    theta = grammar.pcfg_parameter_table()
    res = _viterbi_parse(grammar, ["a", "b", "a"], theta, "pcfg")
    assert res.explanation.derivation is not None
    for tokens in (["a", "b", "b"], ["a", "b"], ["a", "b", "a", "a"]):
        with pytest.raises(InconsistentExplanation):
            tree_from_explanation(grammar, tokens, res.explanation, "pcfg")
    with pytest.raises(InconsistentExplanation):
        tree_from_explanation(grammar, ["a", "b", "a"], res.explanation, "plcg")
    g = compile_plcg(grammar, ["a", "b", "a"])
    lc = viterbi(g, g.roots[0], ParameterTable.uniform(g))
    assert lc.explanation.derivation is not None
    with pytest.raises(InconsistentExplanation):
        tree_from_explanation(grammar, ["a", "b", "a"], lc.explanation, "pcfg")
    with pytest.raises(InconsistentExplanation):
        tree_from_explanation(grammar, ["b", "b", "a"], lc.explanation, "plcg")
    # a single-token derivation reads as a valid tree in the other mode,
    # but its switch multiset is not the explanation's
    one = _viterbi_parse(grammar, ["a"], theta, "pcfg")
    with pytest.raises(InconsistentExplanation):
        tree_from_explanation(grammar, ["a"], one.explanation, "plcg")


# The exhaustive tree searches that tree_from_explanation used before trees
# were read off the Viterbi derivation, kept as the reference it must agree
# with.  Both replay derivations in canonical order (rule order, leftmost
# split first) and return the first that consumes the explanation exactly.


def _reference_pcfg_tree_search(grammar, tokens, explanation):
    remaining = {i: 0 for i in range(len(grammar.rules))}
    rule_of = {
        (r.lhs, render_term(tuple(r.rhs))): i for i, r in enumerate(grammar.rules)
    }
    total = 0
    for (s, v), m in explanation.items():
        key = (render_term(s), render_term(v))
        if key not in rule_of:
            return None
        remaining[rule_of[key]] += m
        total += m
    state = {"left": total}

    def seq(syms, i, j):
        if not syms:
            if i == j:
                yield []
            return
        s, rest = syms[0], syms[1:]
        if s not in grammar.nonterminals:
            if i < j and tokens[i] == s:
                for tail in seq(rest, i + 1, j):
                    yield [s] + tail
            return
        for k in range(i + 1, j - len(rest) + 1):
            for t in nt(s, i, k):
                for tail in seq(rest, k, j):
                    yield [t] + tail

    def nt(a, i, j):
        for ridx in grammar.rules_for.get(a, ()):
            if remaining[ridx] <= 0:
                continue
            remaining[ridx] -= 1
            state["left"] -= 1
            for kids in seq(grammar.rules[ridx].rhs, i, j):
                yield ParseTree(a, tuple(kids))
            remaining[ridx] += 1
            state["left"] += 1

    for tree in nt(grammar.start, 0, len(tokens)):
        if state["left"] == 0:
            return tree
    return None


def _reference_plcg_tree_search(grammar, tokens, explanation):
    counts = {}
    for (s, v), m in explanation.items():
        counts[f"{render_term(s)}={render_term(v)}"] = m
    state = {"left": sum(counts.values())}

    def rule_value(rule):
        return Term("rule", (rule.lhs, tuple(rule.rhs)))

    def take(switch, value):
        key = f"{render_term(switch)}={render_term(value)}"
        if counts.get(key, 0) <= 0:
            return False
        counts[key] -= 1
        state["left"] -= 1
        return True

    def put(switch, value):
        counts[f"{render_term(switch)}={render_term(value)}"] += 1
        state["left"] += 1

    def g_seq(syms, i, j):
        if not syms:
            if i == j:
                yield []
            return
        s, rest = syms[0], syms[1:]
        if s not in grammar.nonterminals:
            if i < j and tokens[i] == s:
                for tail in g_seq(rest, i + 1, j):
                    yield [s] + tail
            return
        if i >= j:
            return
        w = tokens[i]
        if w not in grammar.first.get(s, ()):
            return
        if not take(Term("first", (s,)), w):
            return
        for k in range(i + 1, j + 1):
            for stree in lc(s, w, w, i + 1, k):
                for tail in g_seq(rest, k, j):
                    yield [stree] + tail
        put(Term("first", (s,)), w)

    def lc(g0, b, btree, k, j):
        for ridx in grammar.lc_rule_values(g0, b):
            rule = grammar.rules[ridx]
            if not take(Term("lc", (g0, b)), rule_value(rule)):
                continue
            beta = tuple(rule.rhs[1:])
            if rule.lhs == g0:
                if grammar.lc_rule_values(g0, g0):
                    if take(Term("att", (g0,)), "att"):
                        for kids in g_seq(beta, k, j):
                            yield ParseTree(g0, tuple([btree] + kids))
                        put(Term("att", (g0,)), "att")
                    if take(Term("att", (g0,)), "pro"):
                        for m in range(k, j + 1):
                            for kids in g_seq(beta, k, m):
                                atree = ParseTree(g0, tuple([btree] + kids))
                                yield from lc(g0, g0, atree, m, j)
                        put(Term("att", (g0,)), "pro")
                else:
                    for kids in g_seq(beta, k, j):
                        yield ParseTree(g0, tuple([btree] + kids))
            else:
                for m in range(k, j + 1):
                    for kids in g_seq(beta, k, m):
                        atree = ParseTree(rule.lhs, tuple([btree] + kids))
                        yield from lc(g0, rule.lhs, atree, m, j)
            put(Term("lc", (g0, b)), rule_value(rule))

    for trees in g_seq((grammar.start,), 0, len(tokens)):
        if state["left"] == 0 and len(trees) == 1 and isinstance(trees[0], ParseTree):
            return trees[0]
    return None


def _tree_switch_uses(grammar, tree, mode):
    """Switch instances of the one derivation of ``tree`` in ``mode``."""
    if mode == "pcfg":
        return [
            SwitchInstance(lhs, tuple(rhs), c) for (lhs, rhs), c in tree.rule_counts().items()
        ]
    uses = []
    _lc_derivation_instances(grammar, grammar.start, tree, uses)
    return [SwitchInstance(s, v) for s, v in uses]


def test_tree_read_off_viterbi_agrees_with_reference_search():
    """Demo20 N=200, fold 0 of 4 under VT, every test sentence of <= 10 tokens.

    Where the Viterbi explanation has one derivation the two trees are
    equal; where several derivations share its multiset, the trees may
    differ but have the same yield, multiset and probability.
    """
    demo20, sample = _demo20_corpus()
    trees = sample.trees()
    test_idx, *train_parts = fold_partition(len(trees), 4, 0)
    train = [trees[i].tokens() for i in np.concatenate(train_parts)]
    tested = [trees[i].tokens() for i in test_idx if len(trees[i].tokens()) <= 10]
    config = LearnConfig(method="vt", delta=1.0, seed=1)
    tally = {}
    for mode, compile_corpus, search in (
        ("pcfg", compile_pcfg_corpus, _reference_pcfg_tree_search),
        ("plcg", compile_plcg_corpus, _reference_plcg_tree_search),
    ):
        graph, goals = compile_corpus(demo20, train)
        theta = vt_learn(graph, goals, config).final_theta
        equal = ties = 0
        for tokens in tested:
            res = _viterbi_parse(demo20, tokens, theta, mode)
            read = tree_from_explanation(demo20, tokens, res.explanation, mode)
            ref = search(demo20, tuple(tokens), res.explanation)
            same_multiset = [
                t
                for t in all_parses(demo20, tokens)
                if Explanation(_tree_switch_uses(demo20, t, mode)) == res.explanation
            ]
            assert read in same_multiset and ref in same_multiset
            if len(same_multiset) == 1:
                assert read == ref
            else:
                assert read.tokens() == ref.tokens() == tokens
                assert read.rule_counts() == ref.rule_counts()
                logp = [
                    sum(
                        u.mult * math.log(theta.get(u.switch, u.value))
                        for u in _tree_switch_uses(demo20, t, mode)
                    )
                    for t in (read, ref)
                ]
                assert logp[0] == pytest.approx(res.log_prob, rel=1e-12)
                assert logp[1] == pytest.approx(res.log_prob, rel=1e-12)
            equal += read == ref
            ties += len(same_multiset) > 1
        tally[mode] = (len(tested), equal, ties)
    # (sentences, equal trees, multisets shared by several derivations)
    assert tally == {"pcfg": (40, 40, 1), "plcg": (40, 40, 0)}


# -- counting -------------------------------------------------------------------


def test_count_ml_single_tree(grammar):
    tree = ParseTree.parse("(S (S a) (S b))")
    theta = count_ml(grammar, [tree])
    assert theta.vector("S") == pytest.approx([1 / 3, 1 / 3, 1 / 3], rel=1e-12)


def test_count_ml_empty_treebank_prior_only(grammar):
    delta = PseudoCountTable.constant(
        [type(d)(d.id, d.values) for d in _pcfg_decls(grammar)], 1.0
    )
    theta = count_ml(grammar, [], delta)
    assert theta.vector("S") == pytest.approx([1 / 3, 1 / 3, 1 / 3], rel=1e-12)


def _pcfg_decls(grammar):
    from explgraph.graph import SwitchDecl

    return [SwitchDecl(a, rhss) for a, rhss in grammar.pcfg_switches().items()]


def test_count_ml_single_rule_forced(grammar):
    trees = [ParseTree.parse("(S a)"), ParseTree.parse("(S a)")]
    theta = count_ml(grammar, trees)
    assert theta.get("S", ("a",)) == pytest.approx(1.0, rel=1e-12)


def test_count_ml_rejects_foreign_tree(grammar):
    with pytest.raises(ExplGraphError):
        count_ml(grammar, [ParseTree.parse("(S (X a) (S b))")])


# -- metrics ---------------------------------------------------------------------


def test_metrics_identity():
    trees = [ParseTree.parse(t) for t in ["(S a)", "(S (S a) (S b))", "(S b)"]]
    m = metrics(trees, trees)
    assert (m.lt, m.bt, m.zero_cb) == (100.0, 100.0, 100.0)
    assert m.n == 3


def test_metrics_relabelled_node_counts_for_bt_not_lt():
    pred = [ParseTree.parse("(S (X a) (S b))")]
    ref = [ParseTree.parse("(S (S a) (S b))")]
    m = metrics(pred, ref)
    assert m.lt == 0.0
    assert m.bt == 100.0
    assert m.zero_cb == 100.0


def test_metrics_crossing_bracket_case():
    # over four tokens: predicted groups tokens 1..3, reference groups 2..4
    pred = [ParseTree.parse("(S (A (B w x) y) z)").children and ParseTree.parse("(S (A w x y) z)")]
    ref = [ParseTree.parse("(S w (A x y z))")]
    m = metrics(pred, ref)
    assert m.zero_cb == 0.0
    assert m.lt == 0.0 and m.bt == 0.0


def test_metrics_nested_brackets_do_not_cross():
    pred = [ParseTree.parse("(S (A w x) y z)")]
    ref = [ParseTree.parse("(S w x y z)")]
    m = metrics(pred, ref)
    assert m.zero_cb == 100.0
    assert m.bt == 0.0


def test_metrics_length_mismatch():
    t = ParseTree.parse("(S a)")
    with pytest.raises(LengthMismatch):
        metrics([t], [t, t])


def _random_tree(rng, tokens):
    if len(tokens) == 1:
        return ParseTree(rng.choice(["S", "A", "B"]), (tokens[0],))
    k = int(rng.integers(1, len(tokens)))
    return ParseTree(
        rng.choice(["S", "A", "B"]),
        (_random_tree(rng, tokens[:k]), _random_tree(rng, tokens[k:])),
    )


def test_metrics_lt_at_most_bt_on_random_pairs():
    rng = np.random.default_rng(30)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        tokens = [f"w{i}" for i in range(n)]
        batch = int(rng.integers(1, 5))
        pred = [_random_tree(rng, tokens) for _ in range(batch)]
        ref = [_random_tree(rng, tokens) for _ in range(batch)]
        m = metrics(pred, ref)
        assert m.lt <= m.bt
        assert 0.0 <= m.zero_cb <= 100.0


# -- sampling -------------------------------------------------------------------


def test_gen_corpus_deterministic_grammar():
    grammar = Grammar("S", [CFGRule("S", ("a",))], [1.0])
    sample = gen_corpus(grammar, grammar.pcfg_parameter_table(), 5, seed=3)
    assert all(s == ["a"] for s, _ in sample.samples)
    assert sample.rejected == 0


def test_gen_corpus_same_seed_identical(grammar):
    theta = grammar.pcfg_parameter_table()
    s1 = gen_corpus(grammar, theta, 50, seed=11, max_depth=12)
    s2 = gen_corpus(grammar, theta, 50, seed=11, max_depth=12)
    assert s1.samples == s2.samples
    s3 = gen_corpus(grammar, theta, 50, seed=12, max_depth=12)
    assert s1.samples != s3.samples


def test_gen_corpus_pinned_samples():
    # pins taken from the numpy-searchsorted sampler this one replaced
    demo20 = load_grammar(DEMO20)
    theta = demo20.pcfg_parameter_table()
    pins = [
        ((200, 1, 20), "cbd0f90e9e3b171b023879e0bdd294e63acce08ea53ad2ec674349bbd0a1e7ad", 0, 200),
        ((300, 5, 10), "c30ffc63635b542e89fe89203fcbd1a8befeca8f00273ef4fca6ecab8df06142", 6, 306),
    ]
    for (n, seed, max_depth), digest, rejected, attempted in pins:
        sample = gen_corpus(demo20, theta, n, seed=seed, max_depth=max_depth)
        text = "\n".join(t.render() for t in sample.trees())
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert (sample.rejected, sample.attempted) == (rejected, attempted)
        assert all(tokens == tree.tokens() for tokens, tree in sample.samples)


def test_gen_corpus_vanishing_acceptance():
    grammar = Grammar("S", [CFGRule("S", ("S", "S")), CFGRule("S", ("a",))], [0.99, 0.01])
    with pytest.raises(VanishingAcceptance):
        gen_corpus(grammar, grammar.pcfg_parameter_table(), 10, seed=0, max_depth=3)


def _reference_gen_corpus(grammar, theta, n, seed=0, max_depth=20):
    """The sampler before it drew its uniforms in blocks: one
    ``rng.random()`` call per rule choice."""
    rng = np.random.default_rng(seed)
    cum = {
        a: np.cumsum(theta.vector(a, len(grammar.rules_for[a]))).tolist()
        for a in grammar.rules_for
    }

    class TooDeep(Exception):
        pass

    def sample(a, depth, tokens):
        if depth >= max_depth:
            raise TooDeep()
        pick = min(bisect.bisect_right(cum[a], rng.random()), len(cum[a]) - 1)
        kids = []
        for s in grammar.rules[grammar.rules_for[a][pick]].rhs:
            if s in grammar.nonterminals:
                kids.append(sample(s, depth + 1, tokens))
            else:
                kids.append(s)
                tokens.append(s)
        return ParseTree(a, tuple(kids))

    samples = []
    rejected = attempted = 0
    while len(samples) < n:
        attempted += 1
        tokens = []
        try:
            tree = sample(grammar.start, 0, tokens)
        except TooDeep:
            rejected += 1
            if attempted >= 100 and rejected / attempted > 0.99:
                raise VanishingAcceptance(
                    f"rejected {rejected} of {attempted} draws at max_depth={max_depth}"
                ) from None
            continue
        samples.append((tokens, tree))
    return CorpusSample(samples, rejected, attempted)


@pytest.mark.parametrize("n, max_depth", [(1, 20), (1000, 20), (300, 6), (500, 4)])
def test_block_draws_equal_the_scalar_sampler(n, max_depth):
    demo20 = load_grammar(DEMO20)
    theta = demo20.pcfg_parameter_table()
    rejections = 0
    for seed in range(5):
        sample = gen_corpus(demo20, theta, n, seed=seed, max_depth=max_depth)
        want = _reference_gen_corpus(demo20, theta, n, seed=seed, max_depth=max_depth)
        assert sample.samples == want.samples
        assert (sample.rejected, sample.attempted) == (want.rejected, want.attempted)
        rejections += sample.rejected
    assert (rejections > 0) == (max_depth < 20)


def test_block_draws_vanish_where_the_scalar_sampler_does():
    grammar = Grammar("S", [CFGRule("S", ("S", "S")), CFGRule("S", ("a",))], [0.99, 0.01])
    theta = grammar.pcfg_parameter_table()

    def outcome(sampler, seed):
        try:
            sample = sampler(grammar, theta, 10, seed=seed, max_depth=3)
        except VanishingAcceptance as e:
            return str(e)
        return sample.samples, sample.rejected, sample.attempted

    outcomes = [outcome(gen_corpus, seed) for seed in range(8)]
    assert outcomes == [outcome(_reference_gen_corpus, seed) for seed in range(8)]
    assert sum(isinstance(o, str) for o in outcomes) >= 4


def _depth(tree):
    kids = [c for c in tree.children if isinstance(c, ParseTree)]
    return 1 + (max(map(_depth, kids)) if kids else 0)


def test_gen_corpus_frequency_matches_truncated_enumeration(grammar):
    # condition on acceptance at a small depth bound and compare the
    # empirical frequency of sentence "a" against exact enumeration
    max_depth = 4
    theta = grammar.pcfg_parameter_table()

    def trees_to_depth(a, depth):
        if depth > max_depth:
            return []
        out = []
        for ridx in grammar.rules_for[a]:
            rule = grammar.rules[ridx]
            child_options = []
            for s in rule.rhs:
                if s in grammar.nonterminals:
                    opts = trees_to_depth(s, depth + 1)
                    if not opts:
                        child_options = None
                        break
                    child_options.append(opts)
                else:
                    child_options.append([s])
            if child_options is None:
                continue
            for combo in itertools.product(*child_options):
                out.append(ParseTree(a, tuple(combo)))
        return out

    trees = trees_to_depth("S", 1)
    assert all(_depth(t) <= max_depth for t in trees)

    def tree_prob(t):
        p = 1.0
        for (lhs, rhs), c in t.rule_counts().items():
            p *= theta.get(lhs, tuple(rhs)) ** c
        return p

    accept_mass = sum(tree_prob(t) for t in trees)
    p_a = sum(tree_prob(t) for t in trees if t.tokens() == ["a"]) / accept_mass

    n = 10000
    sample = gen_corpus(grammar, theta, n, seed=5, max_depth=max_depth)
    freq = np.mean([s == ["a"] for s, _ in sample.samples])
    se = np.sqrt(p_a * (1 - p_a) / n)
    assert abs(freq - p_a) <= 3 * se
    # and the rejection rate should match the acceptance mass roughly
    emp_accept = len(sample.samples) / sample.attempted
    assert abs(emp_accept - accept_mass) <= 4 * np.sqrt(accept_mass * (1 - accept_mass) / sample.attempted)


# -- complete-data graphs ---------------------------------------------------------


def test_tree_goals_learning_agrees_with_counting(grammar):
    sample = gen_corpus(grammar, grammar.pcfg_parameter_table(), 50, seed=8, max_depth=10)
    trees = sample.trees()
    graph, goals = tree_goals_graph(grammar, trees)
    for delta in (0.5, 1.0):
        dt = PseudoCountTable.constant(_pcfg_decls(grammar), delta)
        want = count_ml(grammar, trees, dt)
        vt = vt_learn(graph, goals, LearnConfig(method="vt", delta=delta))
        mp = em_map_learn(graph, goals, LearnConfig(method="map", delta=delta))
        assert np.max(np.abs(vt.final_theta.vector("S") - want.vector("S"))) < 1e-15
        assert np.max(np.abs(mp.final_theta.vector("S") - want.vector("S"))) < 1e-15
    em = em_map_learn(graph, goals, LearnConfig(method="em"))
    want0 = count_ml(grammar, trees)
    assert np.max(np.abs(em.final_theta.vector("S") - want0.vector("S"))) < 1e-15


# -- corpus learning ---------------------------------------------------------------

# Final parameters on the demo20 N=200 corpus (seed 1), as hex floats.  They
# were taken from the compiler that emitted every recognised chart goal;
# emitting only the reachable ones must reproduce them bit for bit.
DEMO20_VT_THETA = {
    "N": ["0x1.563c8039cab92p-1", "0x1.5723ab1e401cep-3", "0x1.4fea53fa94feap-3"],
    "NP": [
        "0x1.0fc3f0fc3f0fcp-2", "0x1.00c0300c0300cp-2", "0x1.4751d4751d475p-3",
        "0x1.8c6318c6318c6p-4", "0x1.6b5ad6b5ad6b6p-3", "0x1.9866198661986p-5",
    ],
    "PP": ["0x1.0000000000000p+0"],
    "S": ["0x1.69b02593f69b0p-1", "0x1.8a919d5b98a92p-3", "0x1.9d5b98a919d5cp-4"],
    "VP": [
        "0x1.e79e79e79e79ep-3", "0x1.2b12b12b12b13p-2", "0x1.4514514514514p-3",
        "0x1.a01a01a01a01ap-7", "0x1.1e11e11e11e12p-3", "0x1.5f15f15f15f16p-4",
        "0x1.2b12b12b12b13p-4",
    ],
}
DEMO20_EM_THETA = {
    "N": ["0x1.373e36c2097c4p-1", "0x1.f404d1dc22183p-3", "0x1.2f02531bb7f71p-3"],
    "NP": [
        "0x1.65e720ddc8402p-2", "0x1.ffaf4326110e3p-3", "0x1.4511fa788f5a6p-3",
        "0x1.a1e3fc30a0815p-4", "0x1.765596b4def57p-4", "0x1.8d4edccc3d6e4p-5",
    ],
    "PP": ["0x1.0000000000000p+0"],
    "S": ["0x1.6b74f0329161fp-1", "0x1.87e6b74f03294p-3", "0x1.948b0fcd6e9dfp-4"],
    "VP": [
        "0x1.f4ad65ffe89d0p-3", "0x1.58917c68d294fp-2", "0x1.63acdc34677bap-4",
        "0x1.3e782d4585c4cp-4", "0x1.0a48f1e5b229ep-3", "0x1.da5c2059126b7p-5",
        "0x1.107a44eb09a80p-4",
    ],
}
# The EM pins were re-taken when corpus goals came to be keyed by the words
# they span: EM's sums over goals run in goal-id order, so the last bits
# moved (by at most 1e-15); the VT pins, exact counts, did not move.  The
# EM pins were re-taken again (12 entries, by at most 5.6e-17) when PCFG
# recognition came to store each goal after the goals its bodies use, for
# the same reason.


def test_demo20_corpus_learning_pinned_theta():
    demo20 = load_grammar(DEMO20)
    sentences = gen_corpus(demo20, demo20.pcfg_parameter_table(), 200, seed=1).sentences()
    graph, goals = compile_pcfg_corpus(demo20, sentences)
    vt = vt_learn(graph, goals, LearnConfig(method="vt", delta=1.0, restarts=2, seed=1))
    em = em_map_learn(graph, goals, LearnConfig(method="em", seed=1))
    assert (vt.iterations, vt.termination) == (2, "fixed_point")
    assert (em.iterations, em.termination) == (14, "tol_reached")
    for report, pins in ((vt, DEMO20_VT_THETA), (em, DEMO20_EM_THETA)):
        got = {k: [float(x).hex() for x in v] for k, v in report.final_theta.data.items()}
        assert got == pins, report.method

"""Seeded property tests over the random generators in ``conftest``."""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    interleaved,
    random_exclusive_graph,
    random_general_graph,
    random_grammar,
    random_theta,
)
from explgraph.grammar import (  # noqa: E402
    CFGRule,
    Grammar,
    _chart_corpus,
    _SymbolBits,
    compile_pcfg_corpus,
    compile_plcg_corpus,
)
from explgraph.io import emit_expl_graph, load_expl_graph  # noqa: E402
from test_grammar import (  # noqa: E402
    _assert_per_root_equal,
    _cky_chart,
    _equals_reference,
    _reference_compile_corpus,
)

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def _derive(grammar, rng, depth, shared=None):
    """A random sentence of ``grammar``: rules drawn uniformly down to
    ``depth``, then each nonterminal's ``N -> a`` rule (``random_grammar``
    gives every nonterminal one).  With a dict ``shared``, a nonterminal
    met after one of its expansions has finished reuses that expansion's
    words, so the sentence repeats a phrase wherever a nonterminal recurs
    in its derivation."""

    def expand(sym, d):
        if sym not in grammar.nonterminals:
            return [sym]
        if shared is not None and sym in shared:
            return shared[sym]
        if d > 0:
            options = grammar.rules_for[sym]
            rhs = grammar.rules[options[int(rng.integers(len(options)))]].rhs
        else:
            rhs = ("a",)
        words = [t for s in rhs for t in expand(s, d - 1)]
        if shared is not None:
            shared.setdefault(sym, words)
        return words

    return expand(grammar.start, depth)


@SEEDED
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nonterminals=st.integers(1, 4),
    depth=st.integers(1, 4),
    tokens=st.none() | st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=8),
)
def test_chart_filtered_plcg_equals_reference(seed, n_nonterminals, depth, tokens):
    # for each frontend, the positional reference compiler (for PLCG, one
    # that probes every split; for PCFG, the top-down sweep of the chart),
    # restricted to the goals a root reaches, must equal the compiled graph
    # by label, and both must refuse the same sentences.  ``tokens=None``
    # draws a sentence of the grammar, which both must parse.
    rng = np.random.default_rng(seed)
    grammar = random_grammar(rng, n_nonterminals)
    derived = tokens is None
    if derived:
        tokens = _derive(grammar, rng, depth)
        assume(len(tokens) <= 10)
    for mode in ("pcfg", "plcg"):
        assert _equals_reference(grammar, [tokens], mode) or not derived


@SEEDED
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nonterminals=st.integers(1, 4),
    depth=st.integers(1, 4),
    n_sentences=st.integers(2, 6),
)
def test_tabled_corpus_equals_positional_reference(seed, n_nonterminals, depth, n_sentences):
    # a corpus of drawn sentences over the words a and b, so they share
    # phrases, plus one sentence that repeats a phrase inside itself: for
    # both frontends the graph tabled by words must be the positional
    # reference graph with its labels mapped to words, and every root must
    # keep its inside value, Viterbi value, explanation and derivation
    rng = np.random.default_rng(seed)
    grammar = random_grammar(rng, n_nonterminals)
    sentences = [_derive(grammar, rng, depth) for _ in range(n_sentences - 1)]
    sentences.append(_derive(grammar, rng, depth, shared={}))
    assume(all(len(s) <= 10 for s in sentences))
    for mode in ("pcfg", "plcg"):
        assert _equals_reference(grammar, sentences, mode)
        graph, _ = (compile_pcfg_corpus if mode == "pcfg" else compile_plcg_corpus)(
            grammar, sentences
        )
        ref, _ = _reference_compile_corpus(grammar, sentences, mode)
        _assert_per_root_equal(graph, ref, random_theta(rng, graph))


def _derivability(grammar, tokens):
    """``derives(syms, i, j)``: whether the symbols ``syms`` derive
    ``tokens[i:j]``, by plain memoised recursion over the rules, with no
    chart and no bits.  It terminates because no rule is empty and no
    unit rules form a cycle."""

    @lru_cache(maxsize=None)
    def derives(syms, i, j):
        if not syms:
            return i == j
        s, rest = syms[0], syms[1:]
        if s not in grammar.nonterminals:
            return i < j and tokens[i] == s and derives(rest, i + 1, j)
        ends = range(i + 1, j - len(rest) + 1) if rest else (j,)
        return any(
            derives(grammar.rules[r].rhs, i, k) and derives(rest, k, j)
            for k in ends
            for r in grammar.rules_for[s]
        )

    return derives


@SEEDED
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nonterminals=st.integers(1, 4),
    tokens=st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=7),
)
def test_suffix_chart_bits_equal_derivability(seed, n_nonterminals, tokens):
    # the left-corner frontend trusts one chart bit per rule suffix rhs[t:]
    # (t >= 1, the empty suffix included) to say whether the suffix derives
    # a span: over every span of the sentence, empty spans included, that
    # bit must equal the derivability oracle's answer.
    # One more rule joins two drawn right-hand sides, so suffixes of three
    # or more symbols, built on shorter suffixes, occur too
    rng = np.random.default_rng(seed)
    drawn = random_grammar(rng, n_nonterminals).rules
    joined = drawn[int(rng.integers(len(drawn)))].rhs + drawn[int(rng.integers(len(drawn)))].rhs
    grammar = Grammar("N0", list(dict.fromkeys(drawn + [CFGRule("N0", joined)])))
    tokens = tuple(t if t in grammar.terminals else "a" for t in tokens)
    bits = _SymbolBits(grammar)
    suffixes = {r.rhs[t:] for r in grammar.rules for t in range(1, len(r.rhs) + 1)}
    assert set(bits.suffix) == suffixes
    ref = _cky_chart(bits, tokens)
    chart, off = _chart_corpus(bits, [tokens])[tokens]
    derives = _derivability(grammar, tokens)
    n = len(tokens)
    for tail, bit in bits.suffix.items():
        for i in range(n + 1):
            for j in range(i, n + 1):
                assert bool(ref[i][j] >> bit & 1) == derives(tail, i, j), (tail, i, j)
                assert bool(chart[j - i][bit] >> (off + i) & 1) == derives(tail, i, j), (tail, i, j)


@SEEDED
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nonterminals=st.integers(1, 4),
    budget=st.integers(2, 16),
    drawn=st.lists(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=12), max_size=5),
)
def test_chunked_chart_equals_cell_chart(seed, n_nonterminals, budget, drawn):
    # every chart row, read at a sentence's offset in its chunk, must equal
    # the former cell-by-cell chart on every span, empty spans included.
    # The chunk budget is lowered to a few tokens so that a small corpus
    # fills several chunks; each corpus holds a one-token sentence, a
    # repeated sentence and a sentence longer than the budget
    rng = np.random.default_rng(seed)
    grammar = random_grammar(rng, n_nonterminals)
    bits = _SymbolBits(grammar)
    longer = [str(t) for t in rng.choice(["a", "b"], size=budget + int(rng.integers(1, 4)))]
    corpus = [
        tuple(t if t in grammar.terminals else "a" for t in s)
        for s in [["b"], longer, *drawn, longer]
    ]
    with mock.patch("explgraph.grammar._CHUNK_TOKENS", budget):
        charts = _chart_corpus(bits, dict.fromkeys(corpus))
    assert set(charts) == set(corpus)
    assert len({id(chart) for chart, _ in charts.values()}) >= 2
    for tokens, (chart, off) in charts.items():
        ref, n = _cky_chart(bits, tokens), len(tokens)
        for i in range(n + 1):
            for j in range(i, n + 1):
                cell = sum((chart[j - i][b] >> (off + i) & 1) << b for b in range(len(bits.bit)))
                assert cell == ref[i][j], (tokens, i, j)


@SEEDED
@given(seed=st.integers(0, 2**32 - 1), general=st.booleans())
def test_text_format_round_trips_random_graphs(seed, general):
    # bodies arrive interleaved across goals; the writer reads them back
    # per goal through the lazy ``formulas`` view, and the loaded graph
    # must hold the same goals, roots, switches and formulas
    rng = np.random.default_rng(seed)
    graph, _ = (random_general_graph if general else random_exclusive_graph)(rng)
    graph = interleaved(graph, rng)
    text = emit_expl_graph(graph)
    again = load_expl_graph(text)
    assert again.labels == graph.labels and again.roots == graph.roots
    assert again.switches == graph.switches
    assert again.formulas == graph.formulas and list(again.formulas) == list(graph.formulas)
    assert emit_expl_graph(again) == text

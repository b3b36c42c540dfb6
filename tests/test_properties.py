"""Seeded property tests over the random generators in ``conftest``."""

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
from explgraph.grammar import compile_pcfg_corpus, compile_plcg_corpus  # noqa: E402
from explgraph.io import emit_expl_graph, load_expl_graph  # noqa: E402
from test_grammar import (  # noqa: E402
    _assert_per_root_equal,
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

"""Seeded property tests over the random generators in ``conftest``."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from conftest import random_grammar  # noqa: E402
from test_grammar import _plcg_equals_reference  # noqa: E402

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def _derive(grammar, rng, depth):
    """A random sentence of ``grammar``: rules drawn uniformly down to
    ``depth``, then each nonterminal's ``N -> a`` rule (``random_grammar``
    gives every nonterminal one)."""

    def expand(sym, d):
        if sym not in grammar.nonterminals:
            return [sym]
        if d > 0:
            options = grammar.rules_for[sym]
            rhs = grammar.rules[options[int(rng.integers(len(options)))]].rhs
        else:
            rhs = ("a",)
        return [t for s in rhs for t in expand(s, d - 1)]

    return expand(grammar.start, depth)


@SEEDED
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nonterminals=st.integers(1, 4),
    depth=st.integers(1, 4),
    tokens=st.none() | st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=8),
)
def test_chart_filtered_plcg_equals_reference(seed, n_nonterminals, depth, tokens):
    # the reference compiler probes every split; restricted to the goals a
    # root reaches, its graph must equal the chart-filtered one by label,
    # and both must refuse the same sentences.  ``tokens=None`` draws a
    # sentence of the grammar, which both must parse.
    rng = np.random.default_rng(seed)
    grammar = random_grammar(rng, n_nonterminals)
    derived = tokens is None
    if derived:
        tokens = _derive(grammar, rng, depth)
        assume(len(tokens) <= 10)
    assert _plcg_equals_reference(grammar, [tokens]) or not derived

"""Grammar frontends: top-down (rule-expansion) and left-corner parsing.

Both frontends compile a corpus (one sentence is a corpus of one) into an
explanation graph with one root per distinct sentence, whose explanations
correspond to derivations:

* ``compile_pcfg`` builds a chart over spans.  A goal ``A([the,dog])``
  means "nonterminal A derives the words the dog"; each body applies one
  rule through a switch named after the nonterminal whose values are the
  possible right-hand sides.  Longer rules go through dotted prefix goals
  ``dot(rule,t,[...])`` so the graph stays linear in rule length.
* ``compile_plcg`` builds the bottom-up left-corner chart of goals
  ``g([syms],[words])`` and ``lc(G,B,[words])`` with three switch
  families: ``first(G)`` picks the word shifted for goal G, ``lc(G,B)``
  picks the rule ``A -> B beta`` that grows a finished B-constituent, and
  ``att(A)`` decides attach versus project where A can be its own left
  corner.

A goal is keyed by its symbols and the words it spans, not by token
positions, because what it derives depends on those words alone: a phrase
that recurs within or across sentences is one goal, built once, as
PRISM's tabling shares recurring subgoals.  The labels are unambiguous
because no token contains ``,``, ``[`` or ``]`` (``terms._RESERVED``).

Both frontends recognise a sentence before they emit any goal, by one
core: a position-major CKY chart of the symbols, dotted prefixes and rule
suffixes that derive each span, one explicit-stack post-order walk
(``_walk``) from the root that reads each key's bodies off the chart,
with one bit test per split side, into a memo that lists every key after
the keys its bodies use, and one emission loop (``_emit``) for the keys a
root reaches.  A frontend supplies only how a key's bodies are read off
the chart.  Both tag every body that applies a rule with the rule's
index, so a Viterbi explanation carries its derivation and the parse
tree is read off it in one walk.  The module also learns parameters from
treebanks by counting, samples corpora, and scores predictions with
exact-labelled / unlabelled-bracketing / zero-crossing metrics.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .compiled import _topo_levels
from .errors import (
    CyclicGraph,
    ExplGraphError,
    ExplGraphWarning,
    ExplosionLimit,
    InconsistentExplanation,
    LengthMismatch,
    Unparseable,
    VanishingAcceptance,
)
from .graph import (
    Explanation,
    ExplanationGraph,
    GoalId,
    GraphBuilder,
    SwitchDecl,
    SwitchInstance,
)
from .inference import log_theta_vector
from .tables import ParameterTable, PseudoCountTable, SlotLayout
from .terms import Term, check_symbol, render_term

__all__ = [
    "CFGRule",
    "Grammar",
    "ParseTree",
    "MetricsReport",
    "compile_pcfg",
    "compile_pcfg_corpus",
    "compile_plcg",
    "compile_plcg_corpus",
    "tree_from_explanation",
    "parse_corpus",
    "count_ml",
    "metrics",
    "gen_corpus",
    "CorpusSample",
    "tree_goals_graph",
]


@dataclass(frozen=True)
class CFGRule:
    lhs: str
    rhs: tuple[str, ...]

    def __post_init__(self):
        check_symbol(self.lhs)
        if not self.rhs:
            raise ExplGraphError(f"empty right-hand side for {self.lhs} (no epsilon rules)")
        for s in self.rhs:
            check_symbol(s)

    def __str__(self) -> str:
        return f"{self.lhs} -> {' '.join(self.rhs)}"


class Grammar:
    """A CFG with derived tables for both parsing styles.

    ``probs``, when given, assigns one probability per rule (aligned with
    ``rules``); absent probabilities mean the grammar is to be learned.
    Unit-rule cycles are rejected because they would make chart goals
    mutually recursive.
    """

    def __init__(
        self,
        start: str,
        rules: Sequence[CFGRule],
        probs: Optional[Sequence[Optional[float]]] = None,
    ):
        self.start = start
        self.rules = list(rules)
        self.probs = list(probs) if probs is not None else [None] * len(self.rules)
        if len(self.probs) != len(self.rules):
            raise ExplGraphError("probs must align with rules")
        self.nonterminals = {r.lhs for r in self.rules}
        if start not in self.nonterminals:
            raise ExplGraphError(f"start symbol {start} has no rules")
        self.terminals = {
            s for r in self.rules for s in r.rhs if s not in self.nonterminals
        }
        self.rules_for: dict[str, list[int]] = {}
        for i, r in enumerate(self.rules):
            self.rules_for.setdefault(r.lhs, []).append(i)
        self._check_unit_cycles()
        self.left_corner = self._left_corner_closure()
        self.first = {
            a: [s for s in self._lc_order(a) if s in self.terminals]
            for a in self.nonterminals
        }
        self._rule_set = {(r.lhs, r.rhs) for r in self.rules}
        self._lc_values: dict[tuple[str, str], tuple[int, ...]] = {}

    @cached_property
    def _pcfg_decls(self) -> dict[str, SwitchDecl]:
        """The PCFG switch of each nonterminal, keyed by name, built once."""
        return {a: SwitchDecl(a, rhss) for a, rhss in self.pcfg_switches().items()}

    @cached_property
    def _symbol_bits(self) -> "_SymbolBits":
        """CKY chart bit tables, built on the first compile call and kept."""
        return _SymbolBits(self)

    @cached_property
    def _lc_switches(self) -> "_LeftCornerSwitches":
        """Left-corner switch tables, built on the first compile call and kept."""
        return _LeftCornerSwitches(self)

    def _check_unit_cycles(self) -> None:
        """Reject a cycle of unit rules, named from the first nonterminal
        in sorted order whose depth-first search meets it."""
        order = sorted(self.nonterminals)
        index = {a: k for k, a in enumerate(order)}
        unit = [[] for _ in order]
        for r in self.rules:
            if len(r.rhs) == 1 and r.rhs[0] in index:
                unit[index[r.lhs]].append(index[r.rhs[0]])
        try:
            _topo_levels(unit, order)
        except CyclicGraph as e:
            raise ExplGraphError("unit-rule cycle: " + " -> ".join(e.cycle)) from None

    def _lc_order(self, a: str) -> list[str]:
        """Left-corner closure of one nonterminal, in discovery order."""
        out = [a]
        seen = {a}
        i = 0
        while i < len(out):
            x = out[i]
            i += 1
            for ridx in self.rules_for.get(x, ()):
                head = self.rules[ridx].rhs[0]
                if head not in seen:
                    seen.add(head)
                    out.append(head)
        return out

    def _left_corner_closure(self) -> dict[str, list[str]]:
        return {a: self._lc_order(a) for a in self.nonterminals}

    # -- switch naming ----------------------------------------------------

    def pcfg_switches(self) -> dict[str, tuple]:
        """Per nonterminal, the ordered tuple of right-hand sides."""
        return {
            a: tuple(self.rules[i].rhs for i in self.rules_for[a])
            for a in sorted(self.rules_for)
        }

    def pcfg_parameter_table(self) -> ParameterTable:
        """ParameterTable from the per-rule probabilities, if complete."""
        if any(p is None for p in self.probs):
            raise ExplGraphError("grammar has unassigned rule probabilities")
        data = {a: [self.probs[i] for i in self.rules_for[a]] for a in self._pcfg_decls}
        return ParameterTable(self._pcfg_decls, data)

    def lc_rule_values(self, g: str, b: str) -> tuple[int, ...]:
        """Rule indices usable when a finished B grows toward goal G.

        Rules ``A -> B beta`` where A is in the left-corner closure of G,
        so no declared value is doomed by the reachability guard.
        Computed once per (G, B) pair.
        """
        out = self._lc_values.get((g, b))
        if out is None:
            lc = set(self.left_corner[g])
            out = self._lc_values[(g, b)] = tuple(
                i for i, r in enumerate(self.rules) if r.rhs[0] == b and r.lhs in lc
            )
        return out

    def validate_tree(self, tree: "ParseTree") -> None:
        for node in tree.walk():
            key = (node.label, tuple(c if isinstance(c, str) else c.label for c in node.children))
            if key not in self._rule_set:
                raise ExplGraphError(
                    f"tree node {node.label} -> {key[1]} matches no grammar rule"
                )


@dataclass(frozen=True, eq=False)
class ParseTree:
    """Labelled tree; children are subtrees or terminal strings.  ``==`` and
    ``hash`` walk it with an explicit stack, so depth costs no recursion."""

    label: str
    children: tuple

    def __post_init__(self):
        if not isinstance(self.children, tuple):
            object.__setattr__(self, "children", tuple(self.children))

    def tokens(self) -> list[str]:
        """The tree's yield, in one explicit-stack walk, so depth costs no
        recursion."""
        out = []
        stack = [iter(self.children)]  # per open node: its children to go
        while stack:
            for c in stack[-1]:
                if isinstance(c, str):
                    out.append(c)
                else:
                    stack.append(iter(c.children))
                    break
            else:
                stack.pop()
        return out

    def walk(self):
        """Every node, each before its children, left to right, in one
        explicit-stack walk."""
        stack = [iter((self,))]
        while stack:
            for c in stack[-1]:
                if not isinstance(c, str):
                    yield c
                    stack.append(iter(c.children))
                    break
            else:
                stack.pop()

    def _same(self, other: "ParseTree", labels: bool = True) -> bool:
        """Whether ``other`` has this tree's nodes and terminals, and its
        labels unless ``labels`` is false, in one explicit-stack walk."""
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if (labels and a.label != b.label) or len(a.children) != len(b.children):
                return False
            for c, d in zip(a.children, b.children):
                if not (isinstance(c, str) or isinstance(d, str)):
                    stack.append((c, d))
                elif c != d:
                    return False
        return True

    def __eq__(self, other) -> bool:
        return self._same(other) if isinstance(other, ParseTree) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.render())

    def brackets(self, start: int = 0) -> list[tuple[int, int]]:
        """Token spans (i, j), half-open, of every internal node, children
        before their parent, in one explicit-stack walk, so depth costs no
        recursion."""
        spans = []
        pos = start
        stack = [(start, iter(self.children))]  # per open node: its start, its children to go
        while stack:
            begin, todo = stack[-1]
            for c in todo:
                if isinstance(c, str):
                    pos += 1
                else:
                    stack.append((pos, iter(c.children)))
                    break
            else:
                stack.pop()
                spans.append((begin, pos))
        return spans

    def rule_counts(self) -> dict[tuple[str, tuple], int]:
        counts: dict[tuple[str, tuple], int] = {}
        for node in self.walk():
            key = (
                node.label,
                tuple(c if isinstance(c, str) else c.label for c in node.children),
            )
            counts[key] = counts.get(key, 0) + 1
        return counts

    def render(self) -> str:
        """The bracketed text ``(label child ...)``, in one explicit-stack
        walk, so depth costs no recursion."""
        out = [f"({self.label} "]
        stack = [enumerate(self.children)]  # per open node: its children to go
        while stack:
            for k, c in stack[-1]:
                if k:
                    out.append(" ")
                if isinstance(c, str):
                    out.append(c)
                else:
                    out.append(f"({c.label} ")
                    stack.append(enumerate(c.children))
                    break
            else:
                stack.pop()
                out.append(")")
        return "".join(out)

    def __str__(self) -> str:
        return self.render()

    @staticmethod
    def parse(text: str) -> "ParseTree":
        """The tree of bracketed ``text``, read in one pass with an
        explicit stack of open nodes, so depth costs no recursion.  Text
        that ends before every bracket closes is unbalanced; a bracket
        right after ``(`` stands where a label belongs."""
        tokens = text.replace("(", " ( ").replace(")", " ) ").split()
        if tokens and tokens[0] != "(":
            raise ExplGraphError(f"expected '(' in tree text {text!r}")
        stack: list = []  # per open node: its label, its children so far
        pos = 0
        while True:
            if pos >= len(tokens):
                raise ExplGraphError(f"unbalanced tree text {text!r}")
            token = tokens[pos]
            if token == "(":
                if pos + 1 == len(tokens):
                    raise ExplGraphError(f"unbalanced tree text {text!r}")
                label = tokens[pos + 1]
                if label in ("(", ")"):
                    raise ExplGraphError(
                        f"bracket {label!r} where a label belongs in tree text {text!r}"
                    )
                stack.append((label, []))
                pos += 2
                continue
            pos += 1
            if token == ")":
                label, children = stack.pop()
                token = ParseTree(label, tuple(children))
                if not stack:
                    break
            stack[-1][1].append(token)
        if pos != len(tokens):
            raise ExplGraphError(f"trailing tree text in {text!r}")
        return token


# ---------------------------------------------------------------------------
# chart recognition and emission, shared by both frontends
# ---------------------------------------------------------------------------


def _check_sentence(grammar: Grammar, sentence: Sequence[str]) -> tuple[str, ...]:
    tokens = tuple(sentence)
    if not tokens:
        raise Unparseable("empty sentence")
    for t in tokens:
        if t not in grammar.terminals:
            raise Unparseable(f"token {t!r} is not a terminal of the grammar")
    return tokens


class _SymbolBits:
    """Bit-per-symbol tables for the position-major CKY chart of one grammar.

    Every nonterminal, every terminal, the empty sequence ``()``, every
    dotted prefix ``(rule, t)`` (the first ``t`` symbols of a rule longer
    than ``t``, for ``t >= 2``: the grammar's implicit binarisation) and
    every distinct rule suffix ``rhs[t:]`` of at least two symbols, for
    ``t >= 1`` (the mirror image of the prefixes), owns one bit, a row of
    each chart width (``_chart_corpus``).  ``pairs`` lists the binary
    steps (left bit, right bit, parent bit): a prefix grows by its next
    symbol, a suffix is its first symbol before the rest; ``by_left``
    groups them by left bit.  ``units`` lists the unit rules (child bit,
    parent bit), children first, so one pass closes a chart row.  ``suffix`` maps every rule suffix ``rhs[t:]``, ``t >=
    1``, to its bit (a one-symbol suffix to its symbol's, the empty one to
    the bit of ``()``, which only the empty spans hold), so one chart bit
    says whether the symbols of a left-corner goal derive a span.  Built
    once per grammar (``Grammar._symbol_bits``).

    ``layout`` is the slot layout of ``Grammar._pcfg_decls`` and
    ``rule_slot[r]`` the slot of rule ``r``.  ``steps`` serves the PCFG
    frontend.  Per goal head, ``("A",)`` for nonterminal ``A`` or
    ``("dot", "r,t")`` for the dotted prefix ``(r, t)``, it lists the
    head's rule steps in body order as (switch slots, rule tag, ``t``,
    first bit, last bit, first side, last side), the steps of ``pairs``
    for the head's rules.  A step over ``t`` symbols splits a span into
    its first ``t - 1`` symbols and its last one; a unit rule (``t ==
    1``) splits it at its end, into the rule's symbol and ``()``.  A side
    is ``None`` for a terminal or ``()``, else its goal head.
    """

    def __init__(self, grammar: Grammar):
        self.bit: dict = {}
        for s in sorted(grammar.nonterminals) + sorted(grammar.terminals) + [()]:
            self.bit[s] = len(self.bit)
        for ridx, rule in enumerate(grammar.rules):
            for t in range(2, len(rule.rhs)):
                self.bit[(ridx, t)] = len(self.bit)
        self.pairs: list[tuple[int, int, int]] = []
        self.units: list[tuple[int, int]] = []
        self.steps: dict[tuple, list[tuple]] = {(a,): [] for a in grammar.nonterminals}
        side = {a: (a,) for a in grammar.nonterminals}
        self.layout = SlotLayout(grammar._pcfg_decls)
        self.rule_slot = [self.layout.slot(r.lhs, r.rhs) for r in grammar.rules]
        for ridx, rule in enumerate(grammar.rules):
            rhs, m = rule.rhs, len(rule.rhs)
            inst = (self.rule_slot[ridx],)
            left, first = self.bit[rhs[0]], side.get(rhs[0])
            if m == 1:
                self.units.append((left, self.bit[rule.lhs]))
                self.steps[rule.lhs,].append((inst, ridx, 1, left, self.bit[()], first, None))
            for t in range(2, m + 1):
                right, last = self.bit[rhs[t - 1]], side.get(rhs[t - 1])
                if t == m:
                    parent = self.bit[rule.lhs]
                    self.steps[rule.lhs,].append((inst, ridx, t, left, right, first, last))
                else:
                    parent, head = self.bit[(ridx, t)], ("dot", f"{ridx},{t}")
                    self.steps[head] = [((), None, t, left, right, first, last)]
                    first = head
                self.pairs.append((left, right, parent))
                left = parent
        self.suffix: dict[tuple[str, ...], int] = {(): self.bit[()]}
        for rule in grammar.rules:
            for t in range(len(rule.rhs) - 1, 0, -1):
                tail = rule.rhs[t:]
                if len(tail) == 1:
                    self.suffix[tail] = self.bit[tail[0]]
                elif tail not in self.suffix:
                    self.suffix[tail] = self.bit[tail] = len(self.bit)
                    self.pairs.append((self.bit[tail[0]], self.suffix[tail[1:]], self.bit[tail]))
        below: list[list[int]] = [[] for _ in self.bit]
        for cb, pb in self.units:
            below[pb].append(cb)
        level = _topo_levels(below, list(self.bit))[1]  # no cycle: the grammar rejects them
        self.units.sort(key=lambda unit: level[unit[0]])
        by_left: dict[int, list[tuple[int, int]]] = {}
        for lb, rb, pb in self.pairs:
            by_left.setdefault(lb, []).append((rb, pb))
        self.by_left = list(by_left.items())


# Tokens per chart chunk: a chunk's rows are ints of about this many bits.
_CHUNK_TOKENS = 2048


def _chart_corpus(
    bits: _SymbolBits, sentences: Iterable[tuple[str, ...]]
) -> dict[tuple[str, ...], tuple[list[list[int]], int]]:
    """Per sentence, its chunk's position-major chart and its offset there.

    The sentences, sorted by length, are laid end to end in chunks of
    about ``_CHUNK_TOKENS`` tokens, each followed by one position that
    holds no token.  In a chunk's chart, bit ``p`` of ``chart[w][b]``
    says that bit ``b``'s symbol, prefix or suffix derives the ``w``
    tokens from position ``p`` on, so a sentence at offset ``off`` holds
    span ``(i, k)`` as ``chart[k - i][b] >> (off + i) & 1``.  Width 0 holds
    only ``()``, at every position; width 1 the tokens, closed under the
    unit rules; each wider row ORs ``chart[w1][lb] & chart[w - w1][rb] >>
    w1`` over the binary steps and their splits and is then closed.  A
    span across two sentences would need a side that starts at the empty
    position between them, which no row holds at width 1 or more.  Sorting
    keeps a short sentence out of a long one's width loop.
    """
    charts: dict[tuple[str, ...], tuple[list[list[int]], int]] = {}
    chunk: list[tuple[str, ...]] = []
    size = 0
    for tokens in sorted(sentences, key=len):
        if chunk and size + len(tokens) >= _CHUNK_TOKENS:
            _chart(bits, chunk, charts)
            chunk, size = [], 0
        chunk.append(tokens)
        size += len(tokens) + 1
    if chunk:
        _chart(bits, chunk, charts)
    return charts


def _chart(bits: _SymbolBits, chunk: list[tuple[str, ...]], charts: dict) -> None:
    """Chart one chunk of sentences, shortest first, into ``charts`` (``_chart_corpus``)."""
    bit, units, n_bits = bits.bit, bits.units, len(bits.bit)
    chart: list[list[int]] = []
    row = [0] * n_bits
    p = 0
    for tokens in chunk:
        charts[tokens] = chart, p
        for tok in tokens:
            row[bit[tok]] |= 1 << p
            p += 1
        p += 1  # the empty position after each sentence
    empty = [0] * n_bits
    empty[bit[()]] = (1 << p) - 1
    chart.append(empty)
    lefts: list[list] = [[]]  # per width, the non-zero rows of left bits with their steps
    for w in range(1, len(chunk[-1]) + 1):
        if w > 1:  # width 1 is the token row
            row = [0] * n_bits
            for w1 in range(1, w):
                rights = chart[w - w1]
                for left, steps in lefts[w1]:
                    for rb, pb in steps:
                        right = rights[rb]
                        if right:
                            row[pb] |= left & right >> w1
        for cb, pb in units:  # close under the unit rules, children first
            if row[cb]:
                row[pb] |= row[cb]
        chart.append(row)
        lefts.append([(row[lb], steps) for lb, steps in bits.by_left if row[lb]])


def _walk(memo: dict[tuple, list], root: tuple, expand) -> None:
    """Recognise the frame ``root`` and every key below it into ``memo``.

    A frame is a key and the token span ``(i, j)`` it covers.
    ``expand(key, i, j)`` returns the key's candidate bodies (subgoal keys,
    switch slots, rule tag), read off the chart, and one frame per
    subgoal in body order.  The walk is an explicit-stack post-order walk,
    so depth costs no recursion: a key is stored after the keys its
    bodies use, with the bodies whose subgoals all derive (``[]`` when
    none does), so ``memo`` lists every key after the keys its bodies use.
    """
    stack = [root]
    while stack:
        key, i, j = stack.pop()
        if j is None:  # the finish frame: ``i`` holds the key's bodies
            if not all(memo[sub] for subs, _, _ in i for sub in subs):
                i = [body for body in i if all(memo[sub] for sub in body[0])]
            memo[key] = i
        elif key not in memo:
            bodies, kids = expand(key, i, j)
            stack.append((key, bodies, None))
            stack.extend(reversed(kids))  # walk the subgoals left to right


def _emit(
    builder: GraphBuilder, memo: dict[tuple, list], roots: list[tuple], words: list[tuple]
) -> list[GoalId]:
    """Emit the recognised keys the ``roots`` reach; return the roots' goal ids.

    ``memo`` maps each key ``(kind, *args, w)`` to its bodies (subgoal keys,
    switch slots, rule tag) and lists every key after the keys its
    bodies use, so each goal is emitted after its subgoals.  A key's label
    is ``kind(args,[words])``, with the words of intern id ``w`` in
    ``words`` and a symbol-tuple argument rendered as a list.
    """
    live = set(roots)
    for key in reversed(memo):  # each key before the keys its bodies use
        if key in live:
            live.update(sub for subs, _, _ in memo[key] for sub in subs)
    gid: dict[tuple, GoalId] = {}
    for key, bodies in memo.items():  # each key after the keys its bodies use
        if key in live:
            kind, *args = key
            args[-1] = "[" + ",".join(words[args[-1]]) + "]"
            if isinstance(args[0], tuple):
                args[0] = render_term(args[0])
            gid[key] = head = builder.goal(f"{kind}({','.join(args)})")
            for subs, inst, tag in bodies:
                builder.add_slot_body(head, [gid[sub] for sub in subs], inst, tag)
    return [gid[root] for root in roots]


def _compile_corpus(
    grammar: Grammar, sentences: Iterable[Sequence[str]], head: tuple, expander, refusal: str, layout
) -> tuple[ExplanationGraph, list[GoalId]]:
    """One graph whose roots are the sentences' goals, in corpus order.

    A goal key is a frontend's head and the compile call's intern id ``w``
    of the words it spans; a sentence's root is ``head + (w,)``.  The
    sentences are checked in corpus order up to the first that fails
    ``_check_sentence``, and those before it are charted in one call
    (``_chart_corpus``).  The first of them whose chart lacks the start
    symbol over the whole sentence is refused with ``refusal``, else the
    failed check is raised, so the error is the first in corpus order.  A
    sentence whose root is not yet recognised is then walked from its root
    with ``expander(grammar, tokens, chart, off, span)``, where ``span(i,
    j)`` interns ``tokens[i:j]`` on first use.  Every key a sentence tests
    lies inside the span it covers, so a key's bodies depend on its words
    alone and one memo serves the whole corpus; ``_emit`` then emits the
    keys the roots reach.  The graph shares the frontend's slot ``layout``,
    built once per grammar.
    """
    bits = grammar._symbol_bits
    start_bit = bits.bit[grammar.start]
    checked: list[tuple[str, ...]] = []
    failed = None
    for sentence in sentences:
        try:
            checked.append(_check_sentence(grammar, sentence))
        except Unparseable as e:
            failed = e
            break
    charts = _chart_corpus(bits, dict.fromkeys(checked))
    for tokens in checked:
        chart, off = charts[tokens]
        if not chart[len(tokens)][start_bit] >> off & 1:
            raise Unparseable(f"{refusal}: {' '.join(tokens)}")
    if failed is not None:
        raise failed
    span_id: dict[tuple[str, ...], int] = {}
    memo: dict[tuple, list] = {}
    roots: list[tuple] = []

    def span(i: int, j: int) -> int:
        """Intern id of ``tokens[i:j]``, looked up once per span of a sentence."""
        w = sp[i][j]
        if w is None:
            w = sp[i][j] = span_id.setdefault(tokens[i:j], len(span_id))
        return w

    for tokens in checked:
        n = len(tokens)
        root = head + (span_id.setdefault(tokens, len(span_id)),)
        if root not in memo:
            sp: list[list[Optional[int]]] = [[None] * (n + 1) for _ in range(n + 1)]
            _walk(memo, (root, 0, n), expander(grammar, tokens, *charts[tokens], span))
        roots.append(root)
    del charts  # free the charts before _emit and build() lay out the graph
    builder = GraphBuilder()
    builder.declare_layout(layout)
    goals = _emit(builder, memo, roots, list(span_id))
    del memo, span_id  # free the recognition tables before build() lays out the graph
    for goal in goals:
        builder.add_root(goal)
    return builder.build(), goals


# ---------------------------------------------------------------------------
# top-down chart compilation
# ---------------------------------------------------------------------------


def _pcfg_expand(grammar: Grammar, tokens: tuple[str, ...], chart: list[list[int]], off: int, span):
    """Rule-expansion bodies of a PCFG key, read off a sentence's chart at ``off``.

    A key is ``("NP", w)`` for a nonterminal, labelled ``NP([the,dog])``,
    or ``("dot", "4,2", w)`` for a dotted prefix, labelled
    ``dot(4,2,[the,big])``.  Its bodies are its head's steps
    (``_SymbolBits.steps``) at every split whose two sides the chart
    holds, in rule order, then ascending split, so every body derives.
    """
    steps_of = grammar._symbol_bits.steps

    def expand(key: tuple, i: int, j: int) -> tuple[list, list]:
        bodies, kids = [], []
        at = off + i
        for inst, tag, t, fb, lb, first, last in steps_of[key[:-1]]:
            for k in range(i + t - 1, j) if t > 1 else (j,):
                if chart[k - i][fb] >> at & 1 and chart[j - k][lb] >> (off + k) & 1:
                    subs = []
                    if first is not None:
                        sub = first + (span(i, k),)
                        subs.append(sub)
                        kids.append((sub, i, k))
                    if last is not None:
                        sub = last + (span(k, j),)
                        subs.append(sub)
                        kids.append((sub, k, j))
                    bodies.append((subs, inst, tag))
        return bodies, kids

    return expand


def compile_pcfg(grammar: Grammar, sentence: Sequence[str]) -> ExplanationGraph:
    """Chart-style explanation graph for one sentence, root = full span."""
    return compile_pcfg_corpus(grammar, [sentence])[0]


def compile_pcfg_corpus(
    grammar: Grammar, sentences: Iterable[Sequence[str]]
) -> tuple[ExplanationGraph, list[GoalId]]:
    """One shared graph for a corpus; sentences share the goals of their common phrases."""
    head, refusal, layout = (grammar.start,), "no derivation of", grammar._symbol_bits.layout
    return _compile_corpus(grammar, sentences, head, _pcfg_expand, refusal, layout)


# ---------------------------------------------------------------------------
# left-corner compilation
# ---------------------------------------------------------------------------


class _LeftCornerSwitches:
    """The left-corner encoding's switches for one grammar.

    Built once per grammar (``Grammar._lc_switches``).  ``decls`` holds
    the switch declarations by rendered name, in declaration order, and
    the tables hold slots of their ``layout``: ``first[g, w]`` shifts word
    ``w`` for goal ``g``; ``grow[g, b]`` pairs each rule index usable when
    a finished ``b`` grows toward ``g`` with its ``lc(g,b)`` slot; and
    ``attach[g]`` holds the ``att(g)`` slots (attach, project) where ``g``
    is its own left corner.
    """

    def __init__(self, grammar: Grammar):
        rule_value = [Term("rule", (r.lhs, tuple(r.rhs))) for r in grammar.rules]
        self.decls: dict[str, SwitchDecl] = {}
        first, grow, attach = {}, {}, {}  # the tables, as (switch, value) pairs
        order = sorted(grammar.nonterminals)
        for g in order:
            if grammar.first[g]:
                switch = Term("first", (g,))
                self.decls[render_term(switch)] = SwitchDecl(switch, tuple(grammar.first[g]))
                for w in grammar.first[g]:
                    first[g, w] = switch, w
            for b in grammar.left_corner[g]:
                ridxs = grammar.lc_rule_values(g, b)
                if ridxs:
                    switch = Term("lc", (g, b))
                    values = tuple(rule_value[i] for i in ridxs)
                    self.decls[render_term(switch)] = SwitchDecl(switch, values)
                    grow[g, b] = [(i, (switch, rule_value[i])) for i in ridxs]
        for a in order:
            if grammar.lc_rule_values(a, a):
                switch = Term("att", (a,))
                self.decls[render_term(switch)] = SwitchDecl(switch, ("att", "pro"))
                attach[a] = (switch, "att"), (switch, "pro")
        self.layout = SlotLayout(self.decls)
        slot = self.layout.slot
        self.first = {key: slot(*pair) for key, pair in first.items()}
        self.grow = {key: [(i, slot(*pair)) for i, pair in v] for key, v in grow.items()}
        self.attach = {key: (slot(*att), slot(*pro)) for key, (att, pro) in attach.items()}


def _plcg_expand(grammar: Grammar, tokens: tuple[str, ...], chart: list[list[int]], off: int, span):
    """Left-corner bodies of a key, read off a sentence's chart at ``off``.

    A key is ``("g", syms, w)`` (the symbols ``syms`` derive the words
    ``w``) or ``("lc", g0, b, w)`` (a finished ``b`` followed by the words
    ``w`` grows into ``g0``).  Every ``syms`` is ``(start,)`` or a rule
    suffix ``rhs[t:]``, ``t >= 1``, whose chart bit (``_SymbolBits.suffix``)
    says whether it derives a span.  A ``g`` key is walked only where it
    derives; it shifts ``tokens[i]`` and splits at every ``k`` where the
    chart holds ``syms[0]`` over ``i..k`` and the rest over ``k..j``, the
    splits where ``lc(syms[0], tokens[i])`` derives ``i+1..k``.  An ``lc``
    key applies each rule ``A -> b beta`` at every ``m`` where the chart
    holds ``beta`` over ``i..m``: it attaches where ``A`` is ``g0`` and
    ``m`` is ``j``, and grows ``A`` over ``m..j``, the only body that can
    fail to derive.  Bodies are in rule order, then ascending split.
    """
    nts, rules = grammar.nonterminals, grammar.rules
    lc, bits = grammar._lc_switches, grammar._symbol_bits
    bit, suffix = bits.bit, bits.suffix

    def expand(key: tuple, i: int, j: int) -> tuple[list, list]:
        bodies, kids = [], []
        at = off + i
        if key[0] == "g":
            syms = key[1]
            if not syms:
                bodies.append(([], (), None))
            elif syms[0] not in nts:  # the key derives, so tokens[i] is syms[0]
                sub = ("g", syms[1:], span(i + 1, j))
                bodies.append(([sub], (), None))
                kids.append((sub, i + 1, j))
            else:
                g0, rest = syms[0], syms[1:]
                shift, gb, rb = lc.first[g0, tokens[i]], bit[g0], suffix[rest]
                for k in range(i + 1, j + 1):
                    if chart[k - i][gb] >> at & 1 and chart[j - k][rb] >> (off + k) & 1:
                        grown, tail = ("lc", g0, tokens[i], span(i + 1, k)), ("g", rest, span(k, j))
                        bodies.append(([grown, tail], (shift,), None))
                        kids += (grown, i + 1, k), (tail, k, j)
            return bodies, kids
        g0 = key[1]
        attach = lc.attach.get(g0)
        for ridx, choose in lc.grow.get((g0, key[2]), ()):
            rule = rules[ridx]
            beta = rule.rhs[1:]
            fb = suffix[beta]
            if rule.lhs == g0:
                if chart[j - i][fb] >> at & 1:
                    done = ("g", beta, span(i, j))
                    inst = (choose,) if attach is None else (choose, attach[0])
                    bodies.append(([done], inst, ridx))
                    kids.append((done, i, j))
                if attach is None:
                    continue
                inst = (choose, attach[1])
            else:
                inst = (choose,)
            for m in range(i, j + 1):
                if chart[m - i][fb] >> at & 1:
                    mid, grown = ("g", beta, span(i, m)), ("lc", g0, rule.lhs, span(m, j))
                    bodies.append(([mid, grown], inst, ridx))
                    kids += (mid, i, m), (grown, m, j)
        return bodies, kids

    return expand


def compile_plcg(grammar: Grammar, sentence: Sequence[str]) -> ExplanationGraph:
    """Left-corner explanation graph for one sentence."""
    return compile_plcg_corpus(grammar, [sentence])[0]


def compile_plcg_corpus(
    grammar: Grammar, sentences: Iterable[Sequence[str]]
) -> tuple[ExplanationGraph, list[GoalId]]:
    """One shared left-corner graph for a corpus, tabled by words as ``compile_pcfg_corpus``."""
    head, refusal = ("g", (grammar.start,)), "no left-corner derivation of"
    layout = grammar._lc_switches.layout
    return _compile_corpus(grammar, sentences, head, _plcg_expand, refusal, layout)


# ---------------------------------------------------------------------------
# trees from explanations
# ---------------------------------------------------------------------------


def tree_from_explanation(
    grammar: Grammar,
    sentence: Sequence[str],
    explanation: Explanation,
    mode: str = "pcfg",
    *,
    limit: int = 100_000,
) -> ParseTree:
    """Parse tree of the derivation behind ``explanation``.

    An explanation returned by :func:`explgraph.inference.viterbi` on a
    ``compile_pcfg`` / ``compile_plcg`` graph carries its derivation, and
    the tree is read off it in one left-to-right walk, in time linear in
    the tree's size.  That tree is the Viterbi derivation's own: at every
    goal, the lowest-index body among those of maximal score.  Distinct
    derivations with one multiset have equal probability, so another
    tie-break could only pick another tree of the same multiset.

    An explanation without a derivation (enumerated, loaded from a file,
    built by hand) falls back to compiling the sentence and searching its
    derivations in body order (rule order, then leftmost split) for the
    first that uses the multiset exactly.  That search is exponential in
    the worst case, so it raises :class:`ExplosionLimit` after ``limit``
    body trials.

    Raises :class:`InconsistentExplanation` when the tree's yield is not
    the sentence or its switch multiset is not the explanation, e.g. for
    an explanation of another sentence or of the other ``mode``.
    """
    tokens = tuple(sentence)
    if mode not in ("pcfg", "plcg"):
        raise ExplGraphError(f"unknown mode {mode!r}")
    derivation = explanation.derivation
    if derivation is None:
        try:
            graph = (compile_pcfg if mode == "pcfg" else compile_plcg)(grammar, tokens)
        except Unparseable as e:
            raise InconsistentExplanation(f"explanation of an unparseable sentence: {e}") from e
        derivation = _search_derivation(graph, explanation, limit)
    walk = _TreeWalk(grammar, tokens, mode)
    tree = walk.build(derivation)
    pairs = walk.tables.layout.slot_pairs
    if {pairs[s]: m for s, m in walk.uses.items()} != dict(explanation.items()):
        raise InconsistentExplanation("derivation does not reproduce the explanation")
    return tree


def parse_corpus(
    grammar: Grammar, sentences: Iterable[Sequence[str]], theta: ParameterTable, mode: str = "pcfg"
) -> list[Optional[ParseTree]]:
    """The Viterbi parse tree of each sentence under ``theta``, or ``None``
    where every derivation has probability 0.

    One corpus graph of ``mode`` (its compiler raises :class:`Unparseable`),
    one Viterbi pass and one walk of the selected derivations serve all
    sentences (``_viterbi_trees``).  The trees are those of ``viterbi`` and
    :func:`tree_from_explanation` on each sentence alone, and a tree may be
    deeper than the interpreter's recursion limit.
    """
    if mode not in ("pcfg", "plcg"):
        raise ExplGraphError(f"unknown mode {mode!r}")
    sentences = [tuple(s) for s in sentences]
    if not sentences:
        return []
    compile_corpus = compile_pcfg_corpus if mode == "pcfg" else compile_plcg_corpus
    graph, roots = compile_corpus(grammar, sentences)
    return _viterbi_trees(grammar, mode, graph, roots, sentences, theta)


def _viterbi_trees(
    grammar: Grammar,
    mode: str,
    graph: ExplanationGraph,
    roots: Sequence[GoalId],
    sentences: Sequence[tuple[str, ...]],
    theta: ParameterTable,
) -> list[Optional[ParseTree]]:
    """The Viterbi tree of ``sentences[k]`` read off ``roots[k]`` of a
    ``mode`` graph under ``theta``, or ``None`` where the root has
    probability 0.

    One Viterbi pass scores the whole graph, and ``selected_derivation``
    walks down from the live roots alone, so other roots of the graph (a
    cross-validation fold's training sentences) are scored but not read.
    Each tree is read off its root's derivation; the tests check it against
    the root's switch-count row, which comes from the same selection.
    """
    comp = graph.compiled()
    best, sel = comp.viterbi_pass(log_theta_vector(graph, theta))
    live = [k for k, g in enumerate(roots) if not np.isneginf(best[g])]
    derivations = comp.selected_derivation(sel, [roots[k] for k in live]).derivations
    trees: list[Optional[ParseTree]] = [None] * len(sentences)
    for k, derivation in zip(live, derivations):
        trees[k] = _TreeWalk(grammar, sentences[k], mode).build(derivation)
    return trees


def _search_derivation(graph: ExplanationGraph, explanation: Explanation, limit: int) -> tuple:
    """First derivation of the root, in body order, using ``explanation`` exactly.

    Every chosen body draws its switch instances from the explanation's
    multiset; a body the rest of the multiset cannot pay for is skipped.
    Raises :class:`ExplosionLimit` after ``limit`` body trials.
    """
    need = dict(explanation.items())
    state = {"left": sum(need.values()), "trials": 0}

    def pay(instances, sign: int) -> None:
        for inst in instances:
            need[(inst.switch, inst.value)] -= sign * inst.mult
        state["left"] -= sign * sum(inst.mult for inst in instances)

    def goal(g):
        for body in graph.formulas[g].bodies:
            state["trials"] += 1
            if state["trials"] > limit:
                raise ExplosionLimit(f"derivation search exceeds {limit} body trials")
            if any(need.get((i.switch, i.value), 0) < i.mult for i in body.instances):
                continue
            pay(body.instances, 1)
            for kids in goals(body.subgoals):
                yield kids if body.tag is None else ((body.tag, kids),)
            pay(body.instances, -1)

    def goals(gs):
        if not gs:
            yield ()
            return
        for head in goal(gs[0]):
            for tail in goals(gs[1:]):
                yield head + tail

    for nodes in goal(graph.roots[0]):
        if state["left"] == 0:
            return nodes
    raise InconsistentExplanation("explanation does not match any derivation of the sentence")


class _TreeWalk:
    """One left-to-right walk of a derivation over a sentence, with an
    explicit stack, so depth costs no recursion: ``sequence``, ``expand``
    and ``left_corner`` are generators that yield ``(symbol, node)`` for
    each subtree they need and are sent it back, and ``build`` drives a
    stack of them in the order of a recursive walk.

    ``pos`` is the next token to consume and ``uses`` counts the slots of
    the derivation's switch instances, in the layout of ``tables``, for a
    caller to compare with an explanation: a PCFG node's rule slot
    (``_SymbolBits.rule_slot``) or a left-corner chain's slots
    (``_LeftCornerSwitches``).  A step that the grammar or the sentence
    does not allow raises :class:`InconsistentExplanation`.
    """

    def __init__(self, grammar: Grammar, tokens: tuple[str, ...], mode: str):
        self.grammar = grammar
        self.tokens = tokens
        self.pos = 0
        self.uses: dict[int, int] = {}
        if mode == "pcfg":
            self.tables, self.subtree = grammar._symbol_bits, self.expand
        else:
            self.tables, self.subtree = grammar._lc_switches, self.left_corner

    def build(self, derivation: tuple) -> ParseTree:
        """The tree of ``derivation``; it must cover the whole sentence."""
        stack, sent = [self.sequence((self.grammar.start,), derivation)], None
        while stack:
            try:
                symbol, node = stack[-1].send(sent)
            except StopIteration as done:
                stack.pop()
                sent = done.value
            else:
                stack.append(self.subtree(symbol, node))
                sent = None
        if self.pos != len(self.tokens):
            raise InconsistentExplanation("derivation does not cover the sentence")
        return sent[0]

    def use(self, slot: Optional[int], refusal: str = "") -> None:
        """Count one use of ``slot``; ``None``, a switch the grammar lacks,
        raises ``refusal``."""
        if slot is None:
            raise InconsistentExplanation(refusal)
        self.uses[slot] = self.uses.get(slot, 0) + 1

    def token(self) -> str:
        if self.pos >= len(self.tokens):
            raise InconsistentExplanation("derivation runs past the end of the sentence")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def rule(self, node) -> tuple[int, CFGRule, tuple]:
        ridx, kids = node
        if not 0 <= ridx < len(self.grammar.rules):
            raise InconsistentExplanation(f"derivation names no rule {ridx}")
        return ridx, self.grammar.rules[ridx], kids

    def sequence(self, symbols: Sequence[str], nodes: tuple) -> list:
        """Children covering ``symbols``, one node per nonterminal, in order."""
        out, k = [], 0
        for s in symbols:
            if s in self.grammar.nonterminals:
                if k == len(nodes):
                    raise InconsistentExplanation(f"derivation lacks a subtree for {s}")
                out.append((yield s, nodes[k]))
                k += 1
            elif self.token() == s:
                out.append(s)
            else:
                raise InconsistentExplanation(f"derivation expects token {s!r}")
        if k != len(nodes):
            raise InconsistentExplanation("derivation has subtrees that no rule uses")
        return out

    def expand(self, symbol: str, node) -> ParseTree:
        """Rule-expansion node: its rule rewrites ``symbol``."""
        ridx, rule, kids = self.rule(node)
        if rule.lhs != symbol:
            raise InconsistentExplanation(f"derivation expands {rule.lhs} where {symbol} stands")
        self.use(self.tables.rule_slot[ridx])
        return ParseTree(symbol, tuple((yield from self.sequence(rule.rhs, kids))))

    def left_corner(self, goal: str, node) -> ParseTree:
        """Left-corner chain for ``goal``: shift a word, then grow it.

        Each chain node applies ``A -> B beta`` to the finished
        B-constituent threaded along.  A node with one child per
        nonterminal of ``beta`` attaches (A is the goal); one more child is
        the chain's next node.
        """
        lc, nts = self.tables, self.grammar.nonterminals
        label = done = self.token()
        self.use(lc.first.get((goal, label)), f"derivation shifts {label!r} for {goal}")
        attach = lc.attach.get(goal)
        while True:
            ridx, rule, kids = self.rule(node)
            grow = dict(lc.grow.get((goal, label), ()))
            self.use(grow.get(ridx), f"derivation applies {rule} to a finished {label}")
            beta = rule.rhs[1:]
            arity = sum(s in nts for s in beta)
            if len(kids) == arity and rule.lhs == goal:
                if attach is not None:
                    self.use(attach[0])
                return ParseTree(goal, (done, *(yield from self.sequence(beta, kids))))
            if len(kids) != arity + 1:
                raise InconsistentExplanation(f"derivation does not finish {rule.lhs} as {goal}")
            if rule.lhs == goal:
                self.use(None if attach is None else attach[1], f"derivation projects {goal}")
            done = ParseTree(rule.lhs, (done, *(yield from self.sequence(beta, kids[:-1]))))
            label, node = rule.lhs, kids[-1]


# ---------------------------------------------------------------------------
# counting, metrics, sampling
# ---------------------------------------------------------------------------


def count_ml(
    grammar: Grammar,
    treebank: Sequence[ParseTree],
    delta: Optional[PseudoCountTable] = None,
) -> ParameterTable:
    """Rule-expansion probabilities by (pseudo-)counting over a treebank.

    The counts fill the slots of the PCFG layout and are normalised as the
    learners' M-step normalises them (:meth:`SlotLayout.normalize`), so on
    complete data counting and learning agree bit for bit.
    """
    layout = grammar._symbol_bits.layout
    counts = np.zeros(layout.n_slots)
    for tree in treebank:
        grammar.validate_tree(tree)
        for (lhs, rhs), c in tree.rule_counts().items():
            counts[layout.slot(lhs, rhs)] += c
    if delta is not None:
        counts += layout.flatten(delta)
    theta, flagged = layout.normalize(counts)
    if flagged:
        warnings.warn(
            "nonterminals unseen in the treebank got uniform probabilities: "
            + ", ".join(flagged),
            ExplGraphWarning,
            stacklevel=2,
        )
    return ParameterTable.from_flat(layout, theta)


@dataclass
class MetricsReport:
    """Exact labelled match, unlabelled bracketing match, zero crossing."""

    lt: float
    bt: float
    zero_cb: float
    n: int


def _crossing(pred_spans, ref_spans) -> bool:
    for (i, j) in pred_spans:
        for (s, t) in ref_spans:
            # half-open spans; proper overlap without containment
            if s < i < t < j or i < s < j < t:
                return True
    return False


def metrics(predicted: Sequence[ParseTree], reference: Sequence[ParseTree]) -> MetricsReport:
    """Score aligned tree lists; all three metrics are percentages."""
    if len(predicted) != len(reference):
        raise LengthMismatch(
            f"{len(predicted)} predictions vs {len(reference)} references"
        )
    n = len(predicted)
    if n == 0:
        raise LengthMismatch("empty tree lists")
    lt = bt = cb = 0
    for p, r in zip(predicted, reference):
        if p == r:
            lt += 1
        if p._same(r, labels=False):
            bt += 1
        if not _crossing(p.brackets(), r.brackets()):
            cb += 1
    return MetricsReport(100.0 * lt / n, 100.0 * bt / n, 100.0 * cb / n, n)


@dataclass
class CorpusSample:
    """Accepted samples plus rejection bookkeeping."""

    samples: list[tuple[list[str], ParseTree]]
    rejected: int
    attempted: int

    def sentences(self) -> list[list[str]]:
        return [s for s, _ in self.samples]

    def trees(self) -> list[ParseTree]:
        return [t for _, t in self.samples]


def _uniforms(rng: np.random.Generator, block: int = 1024):
    """Successive ``rng.random()`` values, drawn ``block`` at a time: a
    block of PCG64 doubles equals as many successive scalar draws."""
    while True:
        yield from rng.random(block).tolist()


def gen_corpus(
    grammar: Grammar,
    theta: ParameterTable,
    n: int,
    seed: int = 0,
    max_depth: int = 20,
) -> CorpusSample:
    """Sample sentence/tree pairs from the rule-expansion process.

    Derivations nesting rules deeper than ``max_depth`` are rejected and
    resampled, which conditions the distribution on bounded depth rather
    than renormalising it.  Raises :class:`VanishingAcceptance` when the
    rejection rate exceeds 99%.
    """
    draw = _uniforms(np.random.default_rng(seed)).__next__
    # plain float lists: bisect_right compares the same float64 values as
    # np.searchsorted(side="right") without a numpy call per draw
    cum = {
        a: np.cumsum(theta.vector(a, len(grammar.rules_for[a]))).tolist()
        for a in grammar.rules_for
    }
    nts = grammar.nonterminals

    class TooDeep(Exception):
        pass

    def sample(a: str, depth: int, tokens: list[str]) -> ParseTree:
        if depth >= max_depth:
            raise TooDeep()
        pick = min(bisect_right(cum[a], draw()), len(cum[a]) - 1)
        ridx = grammar.rules_for[a][pick]
        kids = []
        for s in grammar.rules[ridx].rhs:
            if s in nts:
                kids.append(sample(s, depth + 1, tokens))
            else:
                kids.append(s)
                tokens.append(s)
        return ParseTree(a, tuple(kids))

    samples: list[tuple[list[str], ParseTree]] = []
    rejected = attempted = 0
    while len(samples) < n:
        attempted += 1
        tokens: list[str] = []
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


def tree_goals_graph(
    grammar: Grammar, treebank: Sequence[ParseTree]
) -> tuple[ExplanationGraph, list[GoalId]]:
    """Complete-data goals: one single-explanation goal per distinct tree.

    The goal's only explanation is the tree's rule multiset, so learning
    on these goals must agree with direct counting.
    """
    builder = GraphBuilder()
    builder.declare_switches(grammar._pcfg_decls)
    goals: list[GoalId] = []
    seen: dict[str, GoalId] = {}
    for tree in treebank:
        grammar.validate_tree(tree)
        label = f"tree:{tree.render().replace(' ', '.')}"
        gid = seen.get(label)
        if gid is None:
            gid = builder.goal(label)
            inst = [
                SwitchInstance(lhs, tuple(rhs), c)
                for (lhs, rhs), c in sorted(
                    tree.rule_counts().items(),
                    key=lambda kv: (kv[0][0], render_term(tuple(kv[0][1]))),
                )
            ]
            builder.add_body(gid, [], inst)
            builder.add_root(gid)
            seen[label] = gid
        goals.append(gid)
    return builder.build(), goals

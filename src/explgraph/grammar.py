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

Both frontends recognise a sentence before they emit any goal.  Both
recognise from one bitmask CKY chart of the symbols that derive each
span, into a memo that maps each goal key to its bodies and lists every
key after the keys its bodies use; one emission loop (``_emit``) then
emits the keys a root reaches.  PCFG recognition walks the chart down
from the root and keeps each rule step at every split whose two sides
the chart holds; left-corner recognition tries a split only where the
chart says the goal being grown derives the words up to it.  Both tag
every body that applies a rule with the rule's index, so a Viterbi
explanation carries its derivation and the parse tree is read off it in
one walk.  The module also learns parameters from treebanks by
counting, samples corpora, and scores predictions with
exact-labelled / unlabelled-bracketing / zero-crossing metrics.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
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
from .tables import ParameterTable, PseudoCountTable
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
        """Bitmask CKY tables, built on the first compile call and kept."""
        return _SymbolBits(self)

    @cached_property
    def _lc_switches(self) -> "_LeftCornerSwitches":
        """Left-corner switch tables, built on the first compile call and kept."""
        return _LeftCornerSwitches(self)

    def _check_unit_cycles(self) -> None:
        unit = {a: set() for a in self.nonterminals}
        for r in self.rules:
            if len(r.rhs) == 1 and r.rhs[0] in self.nonterminals:
                unit[r.lhs].add(r.rhs[0])
        seen: dict[str, int] = {}
        for a in self.nonterminals:
            if a in seen:
                continue
            stack, path = [a], []
            state = {}
            while stack:
                x = stack[-1]
                if state.get(x, 0) == 0:
                    state[x] = 1
                    path.append(x)
                    for y in unit[x]:
                        if state.get(y, 0) == 1:
                            cyc = path[path.index(y):] + [y]
                            raise ExplGraphError(
                                "unit-rule cycle: " + " -> ".join(cyc)
                            )
                        if state.get(y, 0) == 0:
                            stack.append(y)
                else:
                    if state[x] == 1:
                        state[x] = 2
                        path.pop()
                    stack.pop()
            seen.update(state)

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


@dataclass(frozen=True)
class ParseTree:
    """Labelled tree; children are subtrees or terminal strings."""

    label: str
    children: tuple

    def __post_init__(self):
        if not isinstance(self.children, tuple):
            object.__setattr__(self, "children", tuple(self.children))

    def tokens(self) -> list[str]:
        out = []
        for c in self.children:
            if isinstance(c, str):
                out.append(c)
            else:
                out.extend(c.tokens())
        return out

    def walk(self):
        yield self
        for c in self.children:
            if isinstance(c, ParseTree):
                yield from c.walk()

    def shape(self):
        """Unlabelled copy: nested tuples of terminals."""
        return tuple(
            c if isinstance(c, str) else c.shape() for c in self.children
        )

    def brackets(self, start: int = 0) -> list[tuple[int, int]]:
        """Token spans (i, j), half-open, of every internal node."""
        spans = []
        pos = start
        for c in self.children:
            if isinstance(c, str):
                pos += 1
            else:
                spans.extend(c.brackets(pos))
                pos += len(c.tokens())
        spans.append((start, pos))
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
        inner = " ".join(
            c if isinstance(c, str) else c.render() for c in self.children
        )
        return f"({self.label} {inner})"

    def __str__(self) -> str:
        return self.render()

    @staticmethod
    def parse(text: str) -> "ParseTree":
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


# ---------------------------------------------------------------------------
# top-down chart compilation
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
    """Bit-per-symbol tables for bitmask CKY over one grammar.

    Every nonterminal, every terminal and every dotted prefix ``(rule, t)``
    (the first ``t`` symbols of a rule longer than ``t``, for ``t >= 2``:
    the grammar's implicit binarisation) owns one bit, so a chart cell is
    one int.  ``pairs`` lists the binary steps (left bit, right bit,
    parent bit) and ``units`` the unit rules (child bit, parent bit).  The
    step functions are memoised per cell mask; built once per grammar
    (``Grammar._symbol_bits``), the memos serve every sentence compiled
    with it.

    ``steps`` serves the PCFG frontend.  Per goal head, ``("A",)`` for
    nonterminal ``A`` or ``("dot", "r,t")`` for the dotted prefix ``(r, t)``,
    it lists the head's rule steps in body order as (switch instances,
    rule tag, ``t``, first bit, last bit, first side, last side), the
    steps of ``pairs`` for the head's rules.  A step over ``t`` symbols
    splits a span into its first ``t - 1`` symbols and its last one; a
    unit rule (``t == 1``) has only a first side, over the whole span.  A
    side is ``None`` for a terminal, else the pair (its goal head, the
    head's steps).
    """

    def __init__(self, grammar: Grammar):
        self.bit: dict = {}
        for s in sorted(grammar.nonterminals) + sorted(grammar.terminals):
            self.bit[s] = len(self.bit)
        for ridx, rule in enumerate(grammar.rules):
            for t in range(2, len(rule.rhs)):
                self.bit[(ridx, t)] = len(self.bit)
        self.pairs: list[tuple[int, int, int]] = []
        self.units: list[tuple[int, int]] = []
        self.steps: dict[tuple, list[tuple]] = {(a,): [] for a in grammar.nonterminals}
        side = {a: ((a,), self.steps[a,]) for a in grammar.nonterminals}
        for ridx, rule in enumerate(grammar.rules):
            rhs, m = rule.rhs, len(rule.rhs)
            inst = (SwitchInstance(rule.lhs, rhs),)
            left, first = self.bit[rhs[0]], side.get(rhs[0])
            if m == 1:
                self.units.append((left, self.bit[rule.lhs]))
                self.steps[rule.lhs,].append((inst, ridx, 1, left, 0, first, None))
            for t in range(2, m + 1):
                right, last = self.bit[rhs[t - 1]], side.get(rhs[t - 1])
                if t == m:
                    parent = self.bit[rule.lhs]
                    self.steps[rule.lhs,].append((inst, ridx, t, left, right, first, last))
                else:
                    parent, head = self.bit[(ridx, t)], ("dot", f"{ridx},{t}")
                    self.steps[head] = [((), None, t, left, right, first, last)]
                    first = (head, self.steps[head])
                self.pairs.append((left, right, parent))
                left = parent
        self._up: dict[tuple[int, int], int] = {}
        self._close: dict[int, int] = {}

    def combine(self, left: int, right: int) -> int:
        """Parent bits of every binary step over a (left, right) cell pair."""
        key = (left, right)
        out = self._up.get(key)
        if out is None:
            out = 0
            for lb, rb, pb in self.pairs:
                if left >> lb & 1 and right >> rb & 1:
                    out |= 1 << pb
            self._up[key] = out
        return out

    def close(self, mask: int) -> int:
        """``mask`` plus every nonterminal it derives through unit rules."""
        out = self._close.get(mask)
        if out is None:
            out = mask
            changed = True
            while changed:
                changed = False
                for cb, pb in self.units:
                    if out >> cb & 1 and not out >> pb & 1:
                        out |= 1 << pb
                        changed = True
            self._close[mask] = out
        return out


def _cky_chart(bits: _SymbolBits, tokens: tuple[str, ...]) -> list[list[int]]:
    """Per span, the bits of every symbol that derives it: bitmask CKY.

    ``chart[i][j]`` is the mask of span ``(i, j)``; a terminal's bit is set
    only in the width-1 cell of a token equal to it.  Both frontends build
    it first and then recognise a sentence's goals from its root, probing
    only the splits whose sides it holds.
    """
    n = len(tokens)
    chart = [[0] * (n + 1) for _ in range(n + 1)]
    for i, tok in enumerate(tokens):
        chart[i][i + 1] = bits.close(1 << bits.bit[tok])
    for w in range(2, n + 1):
        for i in range(0, n - w + 1):
            j = i + w
            row = chart[i]
            acc = 0
            for k in range(i + 1, j):
                left, right = row[k], chart[k][j]
                if left and right:
                    acc |= bits.combine(left, right)
            row[j] = bits.close(acc) if acc else 0
    return chart


def _compile_pcfg_into(
    builder: GraphBuilder, grammar: Grammar, sentences: Iterable[tuple[str, ...]]
) -> list[GoalId]:
    """Recognise every sentence's chart goals from its root, then emit them.

    A goal key is a head and the compile call's intern id ``w`` of the
    words it spans: ``("NP", w)`` for a nonterminal, labelled ``NP([the,
    dog])``, or ``("dot", "4,2", w)`` for a dotted prefix, labelled
    ``dot(4,2,[the,big])``.  Recognition walks the CKY chart down from the
    root ``(start, w)`` in post-order, without recursion.  A key's bodies
    are its head's steps (``_SymbolBits.steps``) at every split whose two
    sides the chart holds, in rule order, then ascending split: every side
    it tests lies inside the span, so a key's bodies depend on its words
    alone.  A key is stored in ``memo`` when its walk finishes, so ``memo``
    lists every key after the keys its bodies use, across sentences too,
    and a sentence whose root is stored is not charted again.
    """
    bits = grammar._symbol_bits
    start_bit, start_steps = bits.bit[grammar.start], bits.steps[grammar.start,]
    span_id: dict[tuple[str, ...], int] = {}
    memo: dict[tuple, list[tuple[list[tuple], tuple[SwitchInstance, ...], Optional[int]]]] = {}
    roots: list[tuple] = []

    def span(i: int, j: int) -> int:
        """Intern id of ``tokens[i:j]``, looked up once per span of a sentence."""
        w = sp[i][j]
        if w is None:
            w = sp[i][j] = span_id.setdefault(tokens[i:j], len(span_id))
        return w

    for tokens in sentences:
        n = len(tokens)
        root = (grammar.start, span_id.setdefault(tokens, len(span_id)))
        if root not in memo:
            chart = _cky_chart(bits, tokens)
            if not chart[0][n] >> start_bit & 1:
                raise Unparseable(f"no derivation of: {' '.join(tokens)}")
            sp: list[list[Optional[int]]] = [[None] * (n + 1) for _ in range(n + 1)]
            stack = [(root, 0, n, start_steps)]
            while stack:
                key, i, j, steps = stack.pop()
                if steps is None:  # the finish frame: ``i`` holds the key's bodies
                    memo[key] = i
                    continue
                if key in memo:
                    continue
                bodies = []
                stack.append((key, bodies, None, None))
                kids = []
                row = chart[i]
                for inst, tag, t, fb, lb, first, last in steps:
                    if t == 1:  # a unit rule: one side, over the whole span
                        if row[j] >> fb & 1:
                            subs = []
                            if first is not None:
                                sub = first[0] + (key[-1],)
                                subs.append(sub)
                                if sub not in memo:
                                    kids.append((sub, i, j, first[1]))
                            bodies.append((subs, inst, tag))
                        continue
                    for k in range(i + t - 1, j):
                        if row[k] >> fb & 1 and chart[k][j] >> lb & 1:
                            subs = []
                            if first is not None:
                                sub = first[0] + (span(i, k),)
                                subs.append(sub)
                                if sub not in memo:
                                    kids.append((sub, i, k, first[1]))
                            if last is not None:
                                sub = last[0] + (span(k, j),)
                                subs.append(sub)
                                if sub not in memo:
                                    kids.append((sub, k, j, last[1]))
                            bodies.append((subs, inst, tag))
                stack.extend(reversed(kids))  # walk the subgoals left to right
        roots.append(root)
    return _emit(builder, memo, roots, list(span_id))


def _emit(
    builder: GraphBuilder, memo: dict[tuple, list], roots: list[tuple], words: list[tuple]
) -> list[GoalId]:
    """Emit the recognised keys the ``roots`` reach; return the roots' goal ids.

    ``memo`` maps each key ``(kind, *args, w)`` to its bodies (subgoal keys,
    switch instances, rule tag) and lists every key after the keys its
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
                builder.add_body(head, [gid[sub] for sub in subs], inst, tag)
    return [gid[root] for root in roots]


def _compile_corpus(
    grammar: Grammar, sentences: Iterable[Sequence[str]], compile_into, decls
) -> tuple[ExplanationGraph, list[GoalId]]:
    """One graph whose roots are the sentences' goals, in corpus order."""
    builder = GraphBuilder()
    builder.declare_switches(decls)
    goals = compile_into(builder, grammar, (_check_sentence(grammar, s) for s in sentences))
    for goal in goals:
        builder.add_root(goal)
    return builder.build(), goals


def compile_pcfg(grammar: Grammar, sentence: Sequence[str]) -> ExplanationGraph:
    """Chart-style explanation graph for one sentence, root = full span."""
    return compile_pcfg_corpus(grammar, [sentence])[0]


def compile_pcfg_corpus(
    grammar: Grammar, sentences: Iterable[Sequence[str]]
) -> tuple[ExplanationGraph, list[GoalId]]:
    """One shared graph for a corpus; sentences share the goals of their common phrases."""
    return _compile_corpus(grammar, sentences, _compile_pcfg_into, grammar._pcfg_decls)


# ---------------------------------------------------------------------------
# left-corner compilation
# ---------------------------------------------------------------------------


class _LeftCornerSwitches:
    """The left-corner encoding's switches for one grammar.

    Built once per grammar (``Grammar._lc_switches``).  ``decls`` holds
    the switch declarations by rendered name, in declaration order;
    ``first[g, w]`` is the instance shifting word ``w`` for goal ``g``;
    ``grow[g, b]`` pairs each rule index usable when a finished ``b``
    grows toward ``g`` with its ``lc(g,b)`` instance; and ``attach[g]``
    holds the ``att(g)`` instances (attach, project) where ``g`` is its
    own left corner.
    """

    def __init__(self, grammar: Grammar):
        rule_value = [Term("rule", (r.lhs, tuple(r.rhs))) for r in grammar.rules]
        self.decls: dict[str, SwitchDecl] = {}
        self.first: dict[tuple[str, str], SwitchInstance] = {}
        self.grow: dict[tuple[str, str], list[tuple[int, SwitchInstance]]] = {}
        self.attach: dict[str, tuple[SwitchInstance, SwitchInstance]] = {}
        order = sorted(grammar.nonterminals)
        for g in order:
            if grammar.first[g]:
                switch = Term("first", (g,))
                self.decls[render_term(switch)] = SwitchDecl(switch, tuple(grammar.first[g]))
                for w in grammar.first[g]:
                    self.first[g, w] = SwitchInstance(switch, w)
            for b in grammar.left_corner[g]:
                ridxs = grammar.lc_rule_values(g, b)
                if ridxs:
                    switch = Term("lc", (g, b))
                    values = tuple(rule_value[i] for i in ridxs)
                    self.decls[render_term(switch)] = SwitchDecl(switch, values)
                    self.grow[g, b] = [(i, SwitchInstance(switch, rule_value[i])) for i in ridxs]
        for a in order:
            if grammar.lc_rule_values(a, a):
                switch = Term("att", (a,))
                self.decls[render_term(switch)] = SwitchDecl(switch, ("att", "pro"))
                self.attach[a] = (SwitchInstance(switch, "att"), SwitchInstance(switch, "pro"))


def _compile_plcg_into(
    builder: GraphBuilder, grammar: Grammar, sentences: Iterable[tuple[str, ...]]
) -> list[GoalId]:
    """Recognise every sentence's left-corner goals, then emit those a root reaches.

    Recognition is a memoised recursion over goal keys ``("g", syms, w)``
    (``syms`` derive the words ``w``) and ``("lc", g0, b, w)`` (a finished
    ``b`` followed by the words ``w`` grows into ``g0``) and makes no
    builder call.  ``w`` is the compile call's intern id of a word tuple,
    and ``sp[i][j]`` that of ``tokens[i:j]`` in the sentence at hand.  A
    key maps to its derivable bodies (subgoal keys, instances, rule tag),
    ``[]`` when it derives nothing, and is stored when its recognition
    finishes, so ``memo`` lists every key after the keys its bodies use,
    across sentences too.  ``g(syms,i,j)`` probes a split ``k`` only where
    the CKY chart says ``syms[0]`` derives tokens i..k, the one condition
    under which ``lc(syms[0], tokens[i], i+1, k)`` can derive.  That cell
    lies inside the span, so a key's bodies depend on its words alone.
    """
    nts = grammar.nonterminals
    lc = grammar._lc_switches
    bits = grammar._symbol_bits
    span_id: dict[tuple[str, ...], int] = {}
    memo: dict[tuple, list[tuple[list[tuple], tuple[SwitchInstance, ...], Optional[int]]]] = {}

    def recognise_g(syms: tuple[str, ...], i: int, j: int) -> Optional[tuple]:
        key = ("g", syms, sp[i][j])
        bodies = memo.get(key)
        if bodies is None:
            bodies = []
            if not syms:
                if i == j:
                    bodies.append(([], (), None))
            else:
                g0, rest = syms[0], syms[1:]
                if g0 not in nts:
                    if i < j and tokens[i] == g0:
                        sub = recognise_g(rest, i + 1, j)
                        if sub is not None:
                            bodies.append(([sub], (), None))
                elif i < j:
                    shift = lc.first.get((g0, tokens[i]))
                    if shift is not None:
                        row, g_bit = chart[i], bits.bit[g0]
                        for k in range(i + 1, j + 1):
                            if not row[k] >> g_bit & 1:
                                continue
                            lc_key = recognise_lc(g0, tokens[i], i + 1, k)
                            g_key = lc_key and recognise_g(rest, k, j)
                            if g_key:
                                bodies.append(([lc_key, g_key], (shift,), None))
            memo[key] = bodies
        return key if bodies else None

    def recognise_lc(g0: str, b: str, k: int, j: int) -> Optional[tuple]:
        key = ("lc", g0, b, sp[k][j])
        bodies = memo.get(key)
        if bodies is None:
            # one body per rule application, tagged with the rule index: one
            # subgoal finishes g0 (attach), two grow the rule's lhs further
            bodies = []
            attach = lc.attach.get(g0)
            for ridx, choose in lc.grow.get((g0, b), ()):
                rule = grammar.rules[ridx]
                beta = rule.rhs[1:]
                if rule.lhs == g0:
                    done = recognise_g(beta, k, j)
                    if done is not None:
                        inst = (choose,) if attach is None else (choose, attach[0])
                        bodies.append(([done], inst, ridx))
                    if attach is None:
                        continue
                    inst = (choose, attach[1])
                else:
                    inst = (choose,)
                for m in range(k, j + 1):
                    mid = recognise_g(beta, k, m)
                    nxt = mid and recognise_lc(g0, rule.lhs, m, j)
                    if nxt:
                        bodies.append(([mid, nxt], inst, ridx))
            memo[key] = bodies
        return key if bodies else None

    roots: list[tuple] = []
    for tokens in sentences:
        n = len(tokens)
        sp = [[span_id.setdefault(tokens[i:j], len(span_id)) for j in range(n + 1)]
              for i in range(n + 1)]
        root = ("g", (grammar.start,), sp[0][n])
        if root not in memo:
            chart = _cky_chart(bits, tokens)
            try:
                recognise_g((grammar.start,), 0, n)
            except RecursionError:
                raise ExplosionLimit(
                    f"left-corner recognition of a {n}-token sentence exceeds the recursion limit"
                ) from None
        if not memo[root]:
            raise Unparseable(f"no left-corner derivation of: {' '.join(tokens)}")
        roots.append(root)
    return _emit(builder, memo, roots, list(span_id))


def compile_plcg(grammar: Grammar, sentence: Sequence[str]) -> ExplanationGraph:
    """Left-corner explanation graph for one sentence."""
    return compile_plcg_corpus(grammar, [sentence])[0]


def compile_plcg_corpus(
    grammar: Grammar, sentences: Iterable[Sequence[str]]
) -> tuple[ExplanationGraph, list[GoalId]]:
    """One shared left-corner graph for a corpus, tabled by words as ``compile_pcfg_corpus``."""
    return _compile_corpus(grammar, sentences, _compile_plcg_into, grammar._lc_switches.decls)


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
    (tree,) = walk.sequence((grammar.start,), derivation)
    if walk.pos != len(tokens):
        raise InconsistentExplanation("derivation does not cover the sentence")
    if Explanation(walk.uses) != explanation:
        raise InconsistentExplanation("derivation does not reproduce the explanation")
    return tree


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
    """One left-to-right walk of a derivation over a sentence.

    ``pos`` is the next token to consume and ``uses`` collects the
    derivation's switch instances, to be compared with the explanation.
    A step that the grammar or the sentence does not allow raises
    :class:`InconsistentExplanation`.
    """

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
        """Children covering ``symbols``, one node per nonterminal, in order."""
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
        """Rule-expansion node: its rule rewrites ``symbol``."""
        rule, kids = self.rule(node)
        if rule.lhs != symbol:
            raise InconsistentExplanation(f"derivation expands {rule.lhs} where {symbol} stands")
        self.uses.append(SwitchInstance(rule.lhs, rule.rhs))
        return ParseTree(symbol, tuple(self.sequence(rule.rhs, kids)))

    def left_corner(self, goal: str, node) -> ParseTree:
        """Left-corner chain for ``goal``: shift a word, then grow it.

        Each chain node applies ``A -> B beta`` to the finished
        B-constituent threaded along.  A node with one child per
        nonterminal of ``beta`` attaches (A is the goal); one more child is
        the chain's next node.
        """
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


# ---------------------------------------------------------------------------
# counting, metrics, sampling
# ---------------------------------------------------------------------------


def count_ml(
    grammar: Grammar,
    treebank: Sequence[ParseTree],
    delta: Optional[PseudoCountTable] = None,
) -> ParameterTable:
    """Rule-expansion probabilities by (pseudo-)counting over a treebank."""
    from .graph import SwitchDecl

    switches = grammar.pcfg_switches()
    decls = {a: SwitchDecl(a, rhss) for a, rhss in switches.items()}
    counts = {a: np.zeros(len(rhss)) for a, rhss in switches.items()}
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
        if p.shape() == r.shape():
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
    rng = np.random.default_rng(seed)
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
        pick = min(bisect_right(cum[a], rng.random()), len(cum[a]) - 1)
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

"""Non-grammar model frontends.

``compile_nbh`` encodes a naive-Bayes model with a hidden per-class
cluster variable: the class draw, a per-class hidden-cluster draw, and one
attribute draw per attribute conditioned on (class, cluster).  Missing
attribute values branch over the whole attribute domain, i.e. they are
marginalised.

``compile_path_graph`` encodes probabilistic reachability in an edge-
labelled graph: each goal is a (current node, target, visited set) state,
bodies follow an incident edge in either direction, and the visited set
keeps paths simple (and the goal relation acyclic).  Distinct simple
paths can share edges without conflicting on any switch, so the root's
explanations overlap: sum-product values over this frontend are scores,
while Viterbi inference and Viterbi training remain exact.

The NBH frontend hands the builder slot ids, from a table built once per
:class:`NBHSpec`; the path frontend hands it switch instances and tags
each move with the node it moves to, so a Viterbi explanation's
derivation is its route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import AllZero, ExplGraphError, InvalidRow, NoPath
from .graph import ExplanationGraph, GoalId, GraphBuilder, SwitchDecl, SwitchInstance
from .inference import inside_prob
from .tables import ParameterTable, SlotLayout
from .terms import Term, render_term

__all__ = [
    "NBHSpec",
    "DataRow",
    "EdgeGraph",
    "compile_nbh",
    "compile_nbh_corpus",
    "nbh_classify",
    "nbh_classify_rows",
    "compile_path_graph",
    "compile_path_queries",
    "six_node_demo_graph",
]

MISSING = "?"


@dataclass(frozen=True)
class NBHSpec:
    """Classes, number of hidden clusters per class, attribute domains."""

    classes: tuple[str, ...]
    n_hidden: int
    attributes: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        if not self.classes:
            raise ExplGraphError("need at least one class")
        if self.n_hidden < 1:
            raise ExplGraphError("n_hidden must be >= 1")
        for name, domain in self.attributes:
            if not domain:
                raise ExplGraphError(f"attribute {name} has an empty domain")

    @property
    def hidden_values(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_hidden + 1))

    def class_switch(self):
        return "class"

    def hclass_switch(self, c: str) -> Term:
        return Term("hclass", (c,))

    def attr_switch(self, j: int, c: str, h: int) -> Term:
        """Switch for attribute ``j`` (1-based) in cluster (c, h)."""
        return Term("attr", (j, c, h))

    @cached_property
    def _decls(self) -> dict[str, SwitchDecl]:
        """The switch declarations keyed by rendered name, built on the
        first compile call and kept."""
        decls = [SwitchDecl(self.class_switch(), self.classes)]
        for c in self.classes:
            decls.append(SwitchDecl(self.hclass_switch(c), self.hidden_values))
            for j, (_, domain) in enumerate(self.attributes, start=1):
                for h in self.hidden_values:
                    decls.append(SwitchDecl(self.attr_switch(j, c, h), domain))
        return {render_term(d.id): d for d in decls}

    @cached_property
    def _slots(self) -> dict:
        """Per (class, cluster) pair, the slots of its class and cluster
        draws and, per attribute, of each value in domain order, in the
        layout of ``_decls``; built on the first compile call and kept."""
        slot = SlotLayout(self._decls).slot
        return {
            (c, h): (
                [slot(self.class_switch(), c), slot(self.hclass_switch(c), h)],
                [
                    {v: slot(self.attr_switch(j, c, h), v) for v in domain}
                    for j, (_, domain) in enumerate(self.attributes, start=1)
                ],
            )
            for c in self.classes
            for h in self.hidden_values
        }

    def check_row(self, row: "DataRow", need_class: bool) -> None:
        missing = row.cls is None
        if (missing and need_class) or (not missing and row.cls not in self.classes):
            raise InvalidRow(f"row class {row.cls!r} not in {self.classes}")
        if len(row.values) != len(self.attributes):
            raise InvalidRow(
                f"row has {len(row.values)} attributes, expected {len(self.attributes)}"
            )
        for v, (name, domain) in zip(row.values, self.attributes):
            if v is not None and v not in domain:
                raise InvalidRow(f"value {v!r} not in domain of attribute {name}")


@dataclass(frozen=True)
class DataRow:
    """One observation; ``None`` marks a missing value ('?' on disk)."""

    cls: Optional[str]
    values: tuple[Optional[str], ...]

    @staticmethod
    def parse(text: str) -> "DataRow":
        fields = [f.strip() for f in text.split(",")]
        if not fields:
            raise InvalidRow("empty row")
        cls = None if fields[0] == MISSING else fields[0]
        vals = tuple(None if f == MISSING else f for f in fields[1:])
        return DataRow(cls, vals)

    def render(self) -> str:
        first = MISSING if self.cls is None else self.cls
        return ",".join([first] + [MISSING if v is None else v for v in self.values])

    def without_class(self) -> "DataRow":
        return DataRow(None, self.values)


def _row_label(row: DataRow, observed_class: bool) -> str:
    cls = row.cls if observed_class else MISSING
    vals = ",".join([MISSING if v is None else v for v in row.values])
    return f"nbh({cls}|{vals})"


def _compile_nbh_into(
    builder: GraphBuilder,
    spec: NBHSpec,
    row: DataRow,
    label: str,
    observed_class: bool,
    anys: dict,
) -> GoalId:
    """Add a row's goal, labelled ``label``, to ``builder``.  ``anys``, one
    per compile call, keeps the ``any(j,c,h)`` goals built so far."""
    root = builder.goal(label)
    present = [(j, v) for j, v in enumerate(row.values) if v is not None]
    missing = [j for j, v in enumerate(row.values) if v is None]
    for c in (row.cls,) if observed_class else spec.classes:
        for h in spec.hidden_values:
            head, by_value = spec._slots[c, h]
            subgoals: list[GoalId] = []
            for j in missing:
                goal = anys.get((j, c, h))
                if goal is None:
                    goal = anys[j, c, h] = builder.goal(f"any({j + 1},{c},{h})")
                    for s in by_value[j].values():
                        builder.add_slot_body(goal, (), (s,))
                subgoals.append(goal)
            builder.add_slot_body(root, subgoals, head + [by_value[j][v] for j, v in present])
    return root


def compile_nbh(spec: NBHSpec, row: DataRow, observed_class: bool = True) -> ExplanationGraph:
    """Explanation graph of one row; branches over hidden cluster, any
    missing attributes, and (when the class is unobserved) the class."""
    return compile_nbh_corpus(spec, [row], observed_class)[0]


def compile_nbh_corpus(
    spec: NBHSpec, rows: Sequence[DataRow], observed_class: bool = True
) -> tuple[ExplanationGraph, list[GoalId]]:
    """Shared graph over many rows; identical rows share one goal."""
    builder = GraphBuilder()
    builder.declare_switches(spec._decls)
    goals: list[GoalId] = []
    anys: dict = {}
    seen: dict[str, GoalId] = {}
    for row in rows:
        spec.check_row(row, need_class=observed_class)
        label = _row_label(row, observed_class)
        gid = seen.get(label)
        if gid is None:
            gid = _compile_nbh_into(builder, spec, row, label, observed_class, anys)
            builder.add_root(gid)
            seen[label] = gid
        goals.append(gid)
    return builder.build(), goals


def nbh_classify_rows(
    spec: NBHSpec, theta: ParameterTable, rows: Sequence[DataRow]
) -> list[tuple[str, np.ndarray]]:
    """Most probable class and posterior vector over classes, per row.

    Every (row, class) pair is a root of one shared graph, so the
    ``any(j,c,h)`` goals and repeated rows are compiled once, and one
    inside pass scores them all.  The hidden cluster (and any missing
    attribute) is summed out; posteriors are the per-class joint scores
    normalised across classes, and ties break toward the earlier entry of
    the declared class list.  Row classes are ignored.  Raises
    :class:`AllZero` naming the first row whose class scores are all zero.
    """
    if not rows:
        return []
    graph, roots = compile_nbh_corpus(
        spec, [DataRow(c, row.values) for row in rows for c in spec.classes]
    )
    logs = inside_prob(graph, theta).log[roots].reshape(len(rows), len(spec.classes))
    out = []
    for i, row_logs in enumerate(logs):
        if np.all(np.isneginf(row_logs)):
            raise AllZero(f"all class scores are zero for row {i}")
        post = np.exp(row_logs - row_logs.max())
        post /= post.sum()
        out.append((spec.classes[int(np.argmax(post))], post))
    return out


def nbh_classify(
    spec: NBHSpec, theta: ParameterTable, row: DataRow
) -> tuple[str, np.ndarray]:
    """:func:`nbh_classify_rows` for a single row."""
    try:
        return nbh_classify_rows(spec, theta, [row])[0]
    except AllZero:
        raise AllZero("all class scores are zero for this row") from None


# ---------------------------------------------------------------------------
# probabilistic graph reachability
# ---------------------------------------------------------------------------


@dataclass
class EdgeGraph:
    """Directed probabilistic edges; traversal may use either direction."""

    edges: list[tuple[int, int, float]] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for u, v, p in self.edges:
            if u == v:
                raise ExplGraphError(f"self-loop on node {u}")
            if not (0.0 <= p <= 1.0):
                raise ExplGraphError(f"edge ({u},{v}) probability {p} outside [0,1]")
            if (u, v) in seen:
                raise ExplGraphError(f"duplicate edge ({u},{v})")
            seen.add((u, v))

    @property
    def nodes(self) -> list[int]:
        out = []
        for u, v, _ in self.edges:
            for x in (u, v):
                if x not in out:
                    out.append(x)
        return sorted(out)

    def switch(self, u: int, v: int) -> Term:
        return Term("d_e", (u, v))

    @cached_property
    def _decls(self) -> dict[str, SwitchDecl]:
        """One on/off switch per edge, keyed by rendered name, built from
        ``edges`` on first use and kept."""
        return {
            render_term(self.switch(u, v)): SwitchDecl(self.switch(u, v), ("on", "off"))
            for u, v, _ in self.edges
        }

    def parameter_table(self) -> ParameterTable:
        data = {render_term(self.switch(u, v)): [p, 1.0 - p] for u, v, p in self.edges}
        return ParameterTable(self._decls, data)

    def moves(self, u: int) -> list[tuple[int, Term]]:
        """Edge moves leaving ``u`` in either direction.

        Ordered by descending neighbour node, out-edge before in-edge
        between the same pair.  The order fixes the body order of compiled
        path goals and hence which path wins argmax ties.
        """
        out = [(v, self.switch(u, v)) for (x, v, _) in self.edges if x == u]
        inc = [(x, self.switch(x, u)) for (x, v, _) in self.edges if v == u]
        keyed = [(z, 0, sw) for z, sw in out] + [(z, 1, sw) for z, sw in inc]
        keyed.sort(key=lambda t: (-t[0], t[1]))
        return [(z, sw) for z, _, sw in keyed]


def _path_label(u: int, target: int, visited: frozenset) -> str:
    inner = ",".join(str(x) for x in sorted(visited))
    return f"path({u},{target},[{inner}])"


def _compile_path_into(
    builder: GraphBuilder, graph: EdgeGraph, frm: int, target: int, memo: dict
) -> Optional[GoalId]:
    # states are shared across queries: (u, target, visited) determines the
    # goal completely, so the memo must outlive a single query

    def build(u: int, visited: frozenset) -> Optional[GoalId]:
        key = (u, target, visited)
        if key in memo:
            return memo[key]
        memo[key] = None
        if u == target:
            gid = builder.goal(_path_label(u, target, visited))
            builder.add_body(gid, [], [])
            memo[key] = gid
            return gid
        bodies = []
        for z, sw in graph.moves(u):
            if z in visited:
                continue
            child = build(z, visited | {z})
            if child is not None:
                bodies.append(([child], [SwitchInstance(sw, "on")], z))
        if not bodies:
            return None
        gid = builder.goal(_path_label(u, target, visited))
        for subs, inst, z in bodies:
            builder.add_body(gid, subs, inst, z)
        memo[key] = gid
        return gid

    return build(frm, frozenset({frm}))


def compile_path_graph(graph: EdgeGraph, frm: int, to: int) -> ExplanationGraph:
    """Explanation graph whose root explanations are the simple paths
    between two nodes (edges usable in either direction)."""
    return compile_path_queries(graph, [(frm, to)])[0]


def compile_path_queries(
    graph: EdgeGraph, queries: Sequence[tuple[int, int]]
) -> tuple[ExplanationGraph, list[GoalId]]:
    """One shared graph for several reachability queries."""
    nodes = graph.nodes
    builder = GraphBuilder()
    builder.declare_switches(graph._decls)
    goals = []
    memo: dict = {}
    for frm, to in queries:
        if frm not in nodes or to not in nodes:
            raise ExplGraphError(f"unknown node in query ({frm},{to})")
        root = _compile_path_into(builder, graph, frm, to, memo)
        if root is None:
            raise NoPath(f"no path from {frm} to {to}")
        builder.add_root(root)
        goals.append(root)
    return builder.build(), goals


def six_node_demo_graph() -> EdgeGraph:
    """The bundled six-node demo graph used by the CLI session command."""
    return EdgeGraph(
        [
            (1, 2, 0.9),
            (2, 3, 0.8),
            (3, 4, 0.6),
            (1, 6, 0.7),
            (2, 6, 0.5),
            (6, 5, 0.4),
            (5, 3, 0.7),
            (5, 4, 0.2),
        ]
    )

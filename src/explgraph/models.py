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

The NBH frontend maps the rows of one compile call to a matrix of value
indices in one pass, deduplicating them, and gathers every body from slot
arrays built once per :class:`NBHSpec`, handing them to the builder in
one :meth:`GraphBuilder.add_bodies` call; classification compiles the
(row, class) pairs of a batch the same way.  The path frontend hands the
builder switch instances and tags each move with the node it moves to, so
a Viterbi explanation's derivation is its route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
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
        if MISSING in self.classes:
            raise ExplGraphError(f"class {MISSING!r} is the missing-value marker")
        for name, domain in self.attributes:
            if not domain:
                raise ExplGraphError(f"attribute {name} has an empty domain")
            if MISSING in domain:
                raise ExplGraphError(
                    f"attribute {name} declares the missing-value marker {MISSING!r}"
                )

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
    def _slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Slot ids in the layout of ``_decls``, indexed by class and
        cluster index: ``[C, H, 2]`` of the class and cluster draws, and
        ``[C, H, A, V]`` of each attribute's values in domain order (V the
        largest domain, -1 past the end of a smaller one); built on the
        first compile call and kept."""
        slot = SlotLayout(self._decls).slot
        width = max((len(domain) for _, domain in self.attributes), default=0)
        heads, values = [], np.full(
            (len(self.classes), self.n_hidden, len(self.attributes), width), -1, dtype=np.int64
        )
        for ci, c in enumerate(self.classes):
            for hi, h in enumerate(self.hidden_values):
                heads.append([slot(self.class_switch(), c), slot(self.hclass_switch(c), h)])
                for j, (_, domain) in enumerate(self.attributes):
                    sw = self.attr_switch(j + 1, c, h)
                    values[ci, hi, j, : len(domain)] = [slot(sw, v) for v in domain]
        return np.array(heads, dtype=np.int64).reshape(len(self.classes), self.n_hidden, 2), values

    @cached_property
    def _index(self) -> tuple[dict, list[dict]]:
        """The index of each class, and per attribute of each value in
        domain order; ``None`` (no class, a missing value) has index -1."""
        return (
            {None: -1, **{c: i for i, c in enumerate(self.classes)}},
            [{None: -1, **{v: i for i, v in enumerate(d)}} for _, d in self.attributes],
        )

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


def compile_nbh(spec: NBHSpec, row: DataRow, observed_class: bool = True) -> ExplanationGraph:
    """Explanation graph of one row; branches over hidden cluster, any
    missing attributes, and (when the class is unobserved) the class."""
    return compile_nbh_corpus(spec, [row], observed_class)[0]


def compile_nbh_corpus(
    spec: NBHSpec, rows: Sequence[DataRow], observed_class: bool = True
) -> tuple[ExplanationGraph, list[GoalId]]:
    """Shared graph over many rows; identical rows share one goal."""
    # the keys are built in the call, so that they are freed before the graph is built
    ids, values, cls, codes = _encode_rows(spec, [(r.cls, r.values) for r in rows], observed_class)
    if not observed_class:
        # rows that differ only in class share one goal, which branches over every class
        merged: dict = {}
        remap = np.array([merged.setdefault(v, len(merged)) for v in values], dtype=np.int64)
        ids, codes = remap[ids], codes[np.unique(remap, return_index=True)[1]]
        values, cls = list(merged), np.full(len(merged), -1)
    graph, goals = _compile_rows(spec, values, cls, codes)
    return graph, goals[ids].tolist()


def _encode_rows(spec: NBHSpec, keys: list[tuple], need_class: bool) -> tuple:
    """Index ``keys``, one ``(class, values)`` pair per row, in one pass.

    Returns each row's index among the distinct keys (numbered in order of
    first occurrence), the distinct keys' values, their class indices and the
    ``[keys, attributes]`` matrix of their value indices, -1 standing for
    no class or a missing value.  The distinct keys are checked all at
    once; only when one fails are the rows checked one by one, so that
    :meth:`NBHSpec.check_row` names the first bad row in corpus order.
    """
    class_index, value_index = spec._index
    first: dict = {}
    try:
        ids = np.array([first.setdefault(key, len(first)) for key in keys], dtype=np.int64)
        classes, values = zip(*first) if first else ((), ())
        cls = np.array(list(map(class_index.get, classes, repeat(-2))), dtype=np.int64)
        ok = set(map(len, values)) <= {len(value_index)}
        if ok:  # one column per attribute, looked up in that attribute's index
            columns = zip(value_index, zip(*values))
            codes = np.array(
                [list(map(index.get, column, repeat(-2))) for index, column in columns],
                dtype=np.int64,
            ).reshape(len(value_index), len(values)).T
    except TypeError:  # an unhashable class or value, which no index holds
        ok = False
    if not ok or np.any(codes < -1) or np.any(cls < (0 if need_class else -1)):
        for c, row_values in keys:
            spec.check_row(DataRow(c, row_values), need_class)
        raise InvalidRow("row classes and values must be hashable")
    return ids, values, cls, codes


def _compile_rows(
    spec: NBHSpec, values: Sequence[tuple], cls: np.ndarray, codes: np.ndarray
) -> tuple[ExplanationGraph, np.ndarray]:
    """The graph of one goal per row of ``codes``, and the ids of those goals.

    Row k holds the values ``values[k]``, whose indices are ``codes[k]``,
    and the class of index ``cls[k]``, or no class where that is -1.  Its
    goal has one body per (class, cluster) pair, over every class when it
    has none: the class and cluster draws, a draw of each present value
    and, per missing attribute j, a subgoal ``any(j,c,h)`` whose bodies
    draw each value of the domain.  Goal ids are those of adding the rows
    one by one: each row's goal, then the ``any`` goals it is first to
    use, in (class, cluster, attribute) order.  The bodies are gathered
    from the slot arrays of ``NBHSpec._slots`` by the rows' codes.
    """
    n_classes, n_hidden, n_attrs, _ = spec._slots[1].shape
    # (row, class) pairs, in row order and then class order
    n_pair = np.where(cls < 0, n_classes, 1)
    pair_row = np.repeat(np.arange(len(codes)), n_pair)
    nth = np.arange(len(pair_row)) - (np.cumsum(n_pair) - n_pair)[pair_row]
    pair_cls = np.where(cls[pair_row] < 0, nth, cls[pair_row])
    # each any(j,c) goal is first used by the row of its first missing (row, c, j) cell
    at, any_j = np.nonzero(codes[pair_row] < 0)
    used, first = np.unique(pair_cls[at] * n_attrs + any_j, return_index=True)
    any_row, any_c, any_j = pair_row[at[first]], pair_cls[at[first]], any_j[first]
    any_row, any_c, any_j = (np.repeat(x, n_hidden) for x in (any_row, any_c, any_j))
    any_h = np.tile(np.arange(n_hidden), len(used))
    order = np.lexsort((any_j, any_h, any_c, any_row))
    any_row, any_c, any_h, any_j = (x[order] for x in (any_row, any_c, any_h, any_j))
    # a goal's id counts the goals made before it: the rows up to its own
    # row and the any goals first used before it
    any_id = np.arange(len(order)) + any_row + 1
    row_id = np.arange(len(codes)) + np.searchsorted(any_row, np.arange(len(codes)))
    any_goals = (any_id, any_c, any_h, any_j)
    builder = GraphBuilder()
    builder.declare_switches(spec._decls)
    for name in _goal_names(spec, values, cls, row_id, any_goals):
        builder.goal(name)
    builder.add_bodies(*_bodies(spec, codes, pair_row, pair_cls, row_id, any_goals))
    for goal in row_id.tolist():
        builder.add_root(goal)
    return builder.build(), row_id


def _goal_names(spec: NBHSpec, values, cls, row_id, any_goals) -> list[str]:
    """The labels of ``_compile_rows``'s goals, in goal-id order."""
    any_id, any_c, any_h, any_j = any_goals
    names = np.empty(len(row_id) + len(any_id), dtype=object)
    texts = (",".join([MISSING if v is None else v for v in vs]) for vs in values)
    names[row_id] = [
        f"nbh({MISSING if c < 0 else spec.classes[c]}|{text})"
        for c, text in zip(cls.tolist(), texts)
    ]
    names[any_id] = [
        f"any({j + 1},{spec.classes[c]},{h + 1})"
        for c, h, j in zip(any_c.tolist(), any_h.tolist(), any_j.tolist())
    ]
    return names.tolist()


def _bodies(spec: NBHSpec, codes, pair_row, pair_cls, row_id, any_goals) -> tuple:
    """The five arrays :meth:`GraphBuilder.add_bodies` takes for
    ``_compile_rows``'s bodies: the rows' bodies, one per (row, class,
    cluster), then the any goals' bodies, one per domain value.  Gathered
    here so that their temporaries are freed before the graph is built."""
    head_slots, value_slots = spec._slots
    _, n_hidden, n_attrs, _ = value_slots.shape
    any_id, any_c, any_h, any_j = any_goals
    any_goal = np.full(value_slots.shape[:3], -1, dtype=np.int64)
    any_goal[any_c, any_h, any_j] = any_id
    # the rows' bodies, one per (row, class, cluster)
    body_row, body_c = np.repeat(pair_row, n_hidden), np.repeat(pair_cls, n_hidden)
    body_h = np.tile(np.arange(n_hidden), len(pair_row))
    body_codes = codes[body_row]
    missing = body_codes < 0
    c, h, j = body_c[:, None], body_h[:, None], np.arange(n_attrs)
    slots = np.concatenate(
        (head_slots[body_c, body_h], value_slots[c, h, j, body_codes]), axis=1
    )
    present = np.concatenate((np.ones((len(body_row), 2), dtype=bool), ~missing), axis=1)
    # the any goals' bodies, one per domain value
    domain = value_slots[any_c, any_h, any_j]
    in_domain = domain >= 0
    n_any = int(in_domain.sum())
    return (
        np.concatenate((row_id[body_row], np.repeat(any_id, in_domain.sum(axis=1)))),
        np.concatenate((missing.sum(axis=1), np.zeros(n_any, dtype=np.int64))),
        any_goal[c, h, j][missing],
        np.concatenate((present.sum(axis=1), np.ones(n_any, dtype=np.int64))),
        np.concatenate((slots[present], domain[in_domain])),
    )


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
    ids, values, _, codes = _encode_rows(spec, [(None, row.values) for row in rows], False)
    n_classes = len(spec.classes)
    graph, roots = _compile_rows(
        spec,
        [v for v in values for _ in spec.classes],
        np.tile(np.arange(n_classes), len(values)),
        np.repeat(codes, n_classes, axis=0),
    )
    logs = inside_prob(graph, theta).log[roots].reshape(len(values), n_classes)[ids]
    zero = np.all(np.isneginf(logs), axis=1)
    if zero.any():
        raise AllZero(f"all class scores are zero for row {int(np.argmax(zero))}")
    post = np.exp(logs - logs.max(axis=1, keepdims=True))
    post /= post.sum(axis=1, keepdims=True)
    return [(spec.classes[k], p) for k, p in zip(np.argmax(post, axis=1).tolist(), post)]


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

    @cached_property
    def _adjacency(self) -> dict[int, list[tuple[int, Term]]]:
        """Each node's moves (see ``moves``), built from ``edges`` on first
        use and kept."""
        keyed: dict[int, list[tuple[int, int, Term]]] = {}
        for u, v, _ in self.edges:
            sw = self.switch(u, v)
            keyed.setdefault(u, []).append((v, 0, sw))
            keyed.setdefault(v, []).append((u, 1, sw))
        return {
            u: [(z, sw) for z, _, sw in sorted(moves, key=lambda t: (-t[0], t[1]))]
            for u, moves in keyed.items()
        }

    def moves(self, u: int) -> list[tuple[int, Term]]:
        """Edge moves leaving ``u`` in either direction (a shared list).

        Ordered by descending neighbour node, out-edge before in-edge
        between the same pair.  The order fixes the body order of compiled
        path goals and hence which path wins argmax ties.
        """
        return self._adjacency.get(u, [])


def _path_label(u: int, target: int, visited: frozenset) -> str:
    inner = ",".join(str(x) for x in sorted(visited))
    return f"path({u},{target},[{inner}])"


def _compile_path_into(
    builder: GraphBuilder, graph: EdgeGraph, frm: int, target: int, memo: dict
) -> Optional[GoalId]:
    """The goal whose explanations are the simple paths from ``frm`` to
    ``target``, or None if there is none.

    A goal stands for a state (u, target, visited).  The target's state
    has one empty body; any other state has one body per move to an
    unvisited node whose state has a goal, in :meth:`EdgeGraph.moves`
    order.  A depth-first walk with an explicit stack creates each goal
    once all its moves are tried, so goals come children first.  States
    are shared across queries: (u, target, visited) determines the goal
    completely, so the memo must outlive a single query.
    """

    def enter(u: int, visited: frozenset) -> list:
        # a state's frame: key, moves, index of the next move to try, bodies
        key = (u, target, visited)
        memo[key] = None
        if u == target:
            return [key, (), 0, [((), (), None)]]
        return [key, graph.moves(u), 0, []]

    start = (frm, target, frozenset({frm}))
    stack = [] if start in memo else [enter(frm, start[2])]
    while stack:
        frame = stack[-1]
        key, moves, _, bodies = frame
        u, _, visited = key
        for k in range(frame[2], len(moves)):
            z, sw = moves[k]
            if z in visited:
                continue
            child = (z, target, visited | {z})
            if child not in memo:
                frame[2] = k  # back to this move once the child is done
                stack.append(enter(z, child[2]))
                break
            if memo[child] is not None:
                bodies.append(((memo[child],), (SwitchInstance(sw, "on"),), z))
        else:
            stack.pop()
            if bodies:
                gid = memo[key] = builder.goal(_path_label(u, target, visited))
                for subs, insts, z in bodies:
                    builder.add_body(gid, subs, insts, z)
    return memo[start]


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

"""Core explanation-graph data model.

An explanation graph is an acyclic AND/OR structure: every *defined goal*
has a defining formula ``H <-> B_1 v ... v B_h`` whose bodies conjoin
references to other defined goals with instances of *random switches*
(named discrete choices over declared finite value sets).  An
*explanation* of a goal is a multiset of switch instances obtained by
picking one body per goal encountered; the graph shares substructure so
that sum-product and argmax dynamic programming run in time linear in its
size (see :mod:`explgraph.inference`).

A graph holds its bodies as flat arrays, in the order they arrived: per
body its head goal, subgoal count, switch-part count and tag, plus the
concatenated subgoal ids and, per switch part, its slot and multiplicity.
The frontends hand :class:`GraphBuilder` slot ids; :class:`SwitchInstance`
objects given to the builder or the constructor are resolved to slots by
value.  :mod:`explgraph.compiled` lays the arrays out for the passes.
``formulas`` is a lazy view that builds a goal's
:class:`DefiningFormula`, instances included, when read, for the readers
that walk bodies one by one (the text writer, the enumeration oracle,
:func:`merge_graphs`).

This module owns the data model, the validation entry point (whose
checks run while :mod:`explgraph.compiled` flattens the graph), a
desk-scale brute-force enumerator used as an oracle in tests, and the
exclusiveness diagnostic.
"""

from __future__ import annotations

import itertools
import warnings
from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    ExplGraphError,
    ExplosionLimit,
    ExplGraphWarning,
    UndeclaredValue,
)
from .terms import TermLike, render_term

__all__ = [
    "SwitchDecl",
    "SwitchInstance",
    "Explanation",
    "Body",
    "DefiningFormula",
    "ExplanationGraph",
    "GraphBuilder",
    "validate_graph",
    "enumerate_explanations",
    "check_exclusiveness",
    "explanation_prob",
    "merge_graphs",
]

GoalId = int


@dataclass(frozen=True)
class SwitchDecl:
    """A switch name together with its ordered, distinct outcome values."""

    id: TermLike
    values: tuple

    def __post_init__(self):
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) < 1:
            raise ExplGraphError(f"switch {render_term(self.id)} declares no values")
        rendered = [render_term(v) for v in self.values]
        if len(set(rendered)) != len(rendered):
            raise ExplGraphError(
                f"switch {render_term(self.id)} declares duplicate values"
            )

    def value_index(self, value: TermLike) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise UndeclaredValue(
                f"value {render_term(value)} not declared for switch "
                f"{render_term(self.id)}"
            ) from None


@dataclass(frozen=True)
class SwitchInstance:
    """One switch outcome occurring ``mult`` times in a conjunction."""

    switch: TermLike
    value: TermLike
    mult: int = 1

    def __post_init__(self):
        if self.mult < 1:
            raise ExplGraphError("switch instance multiplicity must be >= 1")


class Explanation:
    """An immutable multiset of switch instances keyed by (switch, value).

    ``derivation``, when set, is the proof the multiset was read from: a
    tuple of nodes ``(tag, children)``, one per tagged body, whose
    ``children`` are again such tuples (see :meth:`GraphBuilder.add_body`).
    It holds no reference to the graph.  Equality, hashing, rendering and
    :meth:`merge` ignore it.
    """

    __slots__ = ("_items", "_hash", "derivation")

    def __init__(
        self, instances: Iterable[SwitchInstance] = (), derivation: Optional[tuple] = None
    ):
        self.derivation = derivation
        counts: dict = {}
        for inst in instances:
            key = (inst.switch, inst.value)
            counts[key] = counts.get(key, 0) + inst.mult
        self._items = tuple(
            sorted(
                counts.items(),
                key=lambda kv: (render_term(kv[0][0]), render_term(kv[0][1])),
            )
        )
        self._hash = hash(self._items)

    @classmethod
    def _of_items(cls, items: tuple, derivation: Optional[tuple] = None) -> "Explanation":
        """The explanation whose :meth:`items` are ``items``, which hold
        distinct keys already in the order the constructor sorts them to."""
        expl = cls.__new__(cls)
        expl._items, expl._hash, expl.derivation = items, hash(items), derivation
        return expl

    @property
    def instances(self) -> tuple[SwitchInstance, ...]:
        return tuple(SwitchInstance(s, v, m) for (s, v), m in self._items)

    def items(self) -> tuple:
        """Sorted ((switch, value), mult) pairs."""
        return self._items

    def count(self, switch: TermLike, value: TermLike) -> int:
        for (s, v), m in self._items:
            if s == switch and v == value:
                return m
        return 0

    def merge(self, other: "Explanation") -> "Explanation":
        return Explanation(self.instances + other.instances)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Explanation) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self):
        return iter(self.instances)

    def render(self) -> str:
        if not self._items:
            return "{}"
        parts = []
        for (s, v), m in self._items:
            star = f"*{m}" if m > 1 else ""
            parts.append(f"{render_term(s)}={render_term(v)}{star}")
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:
        return f"Explanation({self.render()})"


@dataclass(frozen=True)
class Body:
    """One disjunct of a defining formula: subgoal refs plus switch instances.

    ``tag`` is the provenance a frontend records for the body (a rule
    index, or the node a path move reaches); it takes no part in equality.
    """

    subgoals: tuple[GoalId, ...] = ()
    instances: tuple[SwitchInstance, ...] = ()
    tag: object = field(default=None, compare=False)

    def __post_init__(self):
        if not isinstance(self.subgoals, tuple):
            object.__setattr__(self, "subgoals", tuple(self.subgoals))
        if not isinstance(self.instances, tuple):
            object.__setattr__(self, "instances", tuple(self.instances))


@dataclass(frozen=True)
class DefiningFormula:
    """A defined goal with its ordered, nonempty list of bodies."""

    head: GoalId
    bodies: tuple[Body, ...]

    def __post_init__(self):
        if not isinstance(self.bodies, tuple):
            object.__setattr__(self, "bodies", tuple(self.bodies))
        if not self.bodies:
            raise ExplGraphError(f"goal {self.head} has no bodies")


class ExplanationGraph:
    """Switch declarations plus the bodies of every defined goal.

    The bodies are flat (see the module docstring): body k belongs to goal
    ``heads[k]``; its subgoal ids are the next ``n_subgoals[k]`` entries of
    ``subgoals`` and its switch parts the next ``n_instances[k]`` entries
    of ``part_slot`` (each part's slot, -1 where its instance did not
    resolve) and ``part_mult`` (its multiplicity), after those of bodies
    0..k-1; ``tags[k]`` is its tag.  A goal's bodies keep their order of
    arrival.

    Instances are built through :class:`GraphBuilder` or the file loader
    and are immutable once validated; all inference and learning routines
    treat them as shared read-only inputs.
    """

    def __init__(
        self,
        switches: dict,
        labels: Sequence[str],
        formulas: Sequence[DefiningFormula],
        roots: Sequence[GoalId],
    ):
        builder = GraphBuilder()
        builder.declare_switches(switches)
        builder._labels, builder._roots = list(labels), list(roots)
        for g, f in enumerate(formulas):
            for body in f.bodies:
                builder.add_body(g, body.subgoals, body.instances, body.tag)
        self._init(builder)

    def _init(self, b: "GraphBuilder") -> None:
        """Take the goals and flat bodies of ``b``, resolving the switch
        parts ``b`` holds as instances."""
        self.switches = dict(b._switches)  # rendered switch name -> SwitchDecl
        self.labels = list(b._labels)
        self.roots = list(b._roots)
        self.heads, self.n_subgoals, self.subgoals, self.n_instances, self.part_slot = (
            np.array(x, dtype=np.int64)
            for x in (b._heads, b._nsub, b._subgoals, b._ninst, b._slots)
        )
        self.part_mult = np.ones(len(self.part_slot))
        self.tags = list(b._tags)
        self.exclusiveness: Optional[str] = None  # cached diagnostic verdict
        self._compiled = None
        shared = b._layout is not None and list(self.switches) == b._layout.keys
        self._slots = b._layout if shared else None
        self._formulas = None
        # part index -> (instance, what resolving it raised)
        self._unresolved: dict[int, tuple[SwitchInstance, ExplGraphError]] = {}
        if b._pending:
            at, instances = map(list, zip(*b._pending))
            slots, mults, errors = _resolve(instances, self.slots().slot)
            self.part_slot[at], self.part_mult[at] = slots, mults
            self._unresolved = {at[k]: (instances[k], e) for k, e in errors.items()}

    # -- basic accessors ------------------------------------------------

    @property
    def n_goals(self) -> int:
        return len(self.labels)

    @property
    def formulas(self) -> Sequence[DefiningFormula]:
        """One :class:`DefiningFormula` per goal, built from the flat bodies
        each time it is read."""
        if self._formulas is None:
            self._formulas = _Formulas(self)
        return self._formulas

    def goal_index(self, label: str) -> GoalId:
        matches = [i for i, lab in enumerate(self.labels) if lab == label]
        if not matches:
            raise KeyError(f"no goal labelled {label!r}")
        if len(matches) > 1:
            raise KeyError(f"goal label {label!r} is ambiguous")
        return matches[0]

    @property
    def validated(self) -> bool:
        return self._compiled is not None

    @property
    def topo_order(self) -> Optional[list[GoalId]]:
        """Bottom-up topological order, once the graph is validated."""
        return self._compiled.topo_order if self.validated else None

    def require_validated(self) -> None:
        self.compiled()

    def body_size(self) -> int:
        """Total number of atoms across all bodies (graph size)."""
        return len(self.subgoals) + len(self.part_slot)

    # -- slot layout shared by inference/learning -----------------------

    def slots(self):
        """Flat (switch, value) slot layout; see :mod:`explgraph.tables`."""
        if self._slots is None:
            from .tables import SlotLayout

            self._slots = SlotLayout(self.switches)
        return self._slots

    def compiled(self):
        """Array form of the graph for vectorised passes (cached); building
        it validates the graph (see :func:`validate_graph`)."""
        if self._compiled is None:
            from .compiled import CompiledGraph

            self._compiled = CompiledGraph(self)
        return self._compiled


def _resolve(instances: Sequence[SwitchInstance], slot) -> tuple[np.ndarray, np.ndarray, dict]:
    """Slot and multiplicity of every switch instance, resolved by value.

    ``slot(switch, value)`` is called for each instance in turn, so no term
    is hashed.  An instance whose switch or value is not declared gets slot
    -1, and what ``slot`` raised is returned under the instance's index,
    so validation can report the first one in goal-id order.
    """
    slots, errors = np.full(len(instances), -1, dtype=np.int64), {}
    for k, inst in enumerate(instances):
        try:
            slots[k] = slot(inst.switch, inst.value)
        except ExplGraphError as e:
            errors[k] = e
    return slots, np.array([inst.mult for inst in instances], dtype=np.float64), errors


class _Formulas(SequenceABC):
    """A graph's defining formulas, indexed by goal id.  Reading one builds
    it from the flat bodies; no formula is kept, only one instance object
    per (slot, multiplicity)."""

    def __init__(self, graph: ExplanationGraph):
        self._graph = graph
        self._order = np.argsort(graph.heads, kind="stable")  # by goal, then arrival
        self._bounds = np.searchsorted(graph.heads[self._order], np.arange(graph.n_goals + 1))
        self._cstart = np.cumsum(graph.n_subgoals) - graph.n_subgoals
        self._sstart = np.cumsum(graph.n_instances) - graph.n_instances
        self._made: dict[tuple[int, float], SwitchInstance] = {}

    def __len__(self) -> int:
        return self._graph.n_goals

    def _instances(self, lo: int, hi: int) -> tuple[SwitchInstance, ...]:
        """The switch instances of parts lo..hi-1."""
        g, out = self._graph, []
        slots, mults = (x[lo:hi].tolist() for x in (g.part_slot, g.part_mult))
        for part, slot, mult in zip(range(lo, hi), slots, mults):
            inst = g._unresolved[part][0] if slot < 0 else self._made.get((slot, mult))
            if inst is None:
                m = int(mult) if mult.is_integer() else mult
                inst = self._made[slot, mult] = SwitchInstance(*g.slots().slot_pairs[slot], m)
            out.append(inst)
        return tuple(out)

    def __getitem__(self, goal):
        g = self._graph
        goal = range(len(self))[goal]
        b = self._order[self._bounds[goal] : self._bounds[goal + 1]]
        parts = (b, self._cstart[b], g.n_subgoals[b], self._sstart[b], g.n_instances[b])
        bodies = (
            Body(tuple(g.subgoals[c : c + nc].tolist()), self._instances(s, s + ns), g.tags[k])
            for k, c, nc, s, ns in zip(*(x.tolist() for x in parts))
        )
        return DefiningFormula(goal, tuple(bodies))

    def __eq__(self, other) -> bool:
        return isinstance(other, SequenceABC) and list(self) == list(other)


class GraphBuilder:
    """Incremental construction of an :class:`ExplanationGraph`.

    Bodies are appended to flat arrays as they arrive (see
    :class:`ExplanationGraph`); resolving their switch instances and
    checking them waits for :meth:`build`.
    """

    def __init__(self):
        self._switches: dict = {}
        self._labels: list[str] = []
        self._roots: list[GoalId] = []
        self._root_set: set[GoalId] = set()
        self._index: dict = {}
        # per body: head, subgoal count, switch-part count, tag
        self._heads, self._nsub, self._ninst = array("q"), array("q"), array("q")
        self._tags: list = []
        self._layout = None  # the slot layout a built graph shares (declare_layout)
        # the bodies' subgoal ids and switch-part slots, concatenated
        self._subgoals, self._slots = array("q"), array("q")
        # (part index, instance) of each part given as an instance, resolved by build()
        self._pending: list[tuple[int, SwitchInstance]] = []

    def declare_switch(self, switch: TermLike, values: Iterable[TermLike]) -> None:
        decl = SwitchDecl(switch, tuple(values))
        self.declare_switches({render_term(switch): decl})

    def declare_switches(self, decls: Mapping[str, SwitchDecl]) -> None:
        """Declare built switches keyed by their rendered names, as
        ``ExplanationGraph.switches`` holds them, so a frontend can declare
        one grammar's switches in every compile call without rebuilding them."""
        for key, decl in decls.items():
            old = self._switches.get(key)
            if old is not None and old.values != decl.values:
                raise ExplGraphError(f"conflicting declarations for switch {key}")
            self._switches.setdefault(key, decl)

    def declare_layout(self, layout) -> None:
        """Declare the switches of ``layout``, a
        :class:`explgraph.tables.SlotLayout`.  A graph built with exactly
        these switches, in this order, shares ``layout`` instead of building
        one of its own, so a frontend's graphs share its layout."""
        self.declare_switches(layout.decls)
        self._layout = layout

    def goal(self, label: str) -> GoalId:
        """Return the goal id for ``label``, creating the goal if new."""
        gid = self._index.get(label)
        if gid is None:
            gid = len(self._labels)
            self._index[label] = gid
            self._labels.append(label)
        return gid

    def add_body(
        self,
        head: GoalId,
        subgoals: Iterable[GoalId] = (),
        instances: Iterable[SwitchInstance] = (),
        tag: object = None,
    ) -> None:
        """Append a body to ``head``'s formula.

        A body with a ``tag`` becomes one node of the derivation that a
        Viterbi explanation carries; the children of an untagged body are
        spliced into the node of the nearest tagged body above it.  The
        instances' switches may be declared later, up to :meth:`build`.
        """
        instances, at = list(instances), len(self._slots)
        self.add_slot_body(head, subgoals, [-1] * len(instances), tag)
        self._pending += enumerate(instances, at)

    def add_slot_body(
        self, head: GoalId, subgoals: Iterable[GoalId], slots: Iterable[int], tag: object = None
    ) -> None:
        """:meth:`add_body` with one switch part of multiplicity 1 per slot
        id of ``slots``, in the :class:`explgraph.tables.SlotLayout` of the
        switches declared so far (later declarations do not move it)."""
        if not 0 <= head < len(self._labels):
            raise IndexError(f"no goal with id {head}")
        n_sub, n_inst = len(self._subgoals), len(self._slots)
        self._subgoals.extend(subgoals)
        self._slots.extend(slots)
        self._heads.append(head)
        self._nsub.append(len(self._subgoals) - n_sub)
        self._ninst.append(len(self._slots) - n_inst)
        self._tags.append(tag)

    def add_bodies(self, heads, n_subgoals, subgoals, n_slots, slots) -> None:
        """:meth:`add_slot_body` for many untagged bodies, from int arrays:
        body k has head ``heads[k]``, the next ``n_subgoals[k]`` ids of
        ``subgoals`` and the next ``n_slots[k]`` slot ids of ``slots``."""
        heads, n_subgoals, subgoals, n_slots, slots = (
            np.asarray(x, dtype=np.int64) for x in (heads, n_subgoals, subgoals, n_slots, slots)
        )
        bad = (heads < 0) | (heads >= len(self._labels))
        if bad.any():
            raise IndexError(f"no goal with id {heads[bad][0]}")
        if not len(heads) == len(n_subgoals) == len(n_slots) or (
            n_subgoals.sum() != len(subgoals) or n_slots.sum() != len(slots)
        ):
            raise ValueError("body part counts do not match the parts given")
        for out, x in zip(
            (self._heads, self._nsub, self._subgoals, self._ninst, self._slots),
            (heads, n_subgoals, subgoals, n_slots, slots),
        ):
            out.frombytes(x.tobytes())
        self._tags += [None] * len(heads)

    def add_root(self, goal: GoalId) -> None:
        if goal not in self._root_set:
            self._root_set.add(goal)
            self._roots.append(goal)

    def build(self) -> ExplanationGraph:
        """The validated graph (see :func:`validate_graph`)."""
        graph = ExplanationGraph.__new__(ExplanationGraph)
        graph._init(self)
        validate_graph(graph)
        return graph


def validate_graph(graph: ExplanationGraph) -> list[GoalId]:
    """Check structural invariants and compute a bottom-up topological order.

    Every goal must have a body, every referenced subgoal must exist,
    every switch instance must use a declared value, and the
    head-calls-body relation must be acyclic.  The
    returned order lists each goal after all goals it references.

    Validating a graph compiles it, so a validated graph is a compiled one
    and ``graph.compiled()`` returns that one cached state.  The checks
    report the first offending body in goal-id order (a body's subgoal ids
    before its switch instances), then a depth-first search over the
    goals' child lists orders them or raises ``CyclicGraph``; see
    :class:`explgraph.compiled.CompiledGraph`.  Idempotent: a validated
    graph returns its cached order.
    """
    return graph.compiled().topo_order


def enumerate_explanations(
    graph: ExplanationGraph, goal: GoalId, limit: int = 100_000
) -> list[Explanation]:
    """All explanations of ``goal`` by brute-force expansion, bottom-up.

    Disjunctions are distributed over conjunctions and switch-instance
    multiplicities merged.  The result is duplicate-free and sorted by
    canonical rendering; a warning is emitted if distinct derivations
    collapsed onto the same multiset (the sum of their probabilities then
    exceeds the probability of the merged set).  Desk-scale only: raises
    :class:`ExplosionLimit` when any goal accumulates more than ``limit``
    explanations.
    """
    graph.require_validated()
    memo: dict[GoalId, list[Explanation]] = {}
    merged_duplicates = False

    for g in graph.topo_order:
        out: set[Explanation] = set()
        n_raw = 0
        for body in graph.formulas[g].bodies:
            base = Explanation(body.instances)
            parts = [memo[s] for s in body.subgoals]
            for combo in itertools.product(*parts):
                e = base
                for sub in combo:
                    e = e.merge(sub)
                n_raw += 1
                out.add(e)
                if len(out) > limit:
                    raise ExplosionLimit(
                        f"goal {graph.labels[g]} exceeds {limit} explanations"
                    )
        if n_raw > len(out):
            merged_duplicates = True
        memo[g] = sorted(out, key=lambda e: e.render())

    if merged_duplicates:
        warnings.warn(
            "distinct derivations produced identical explanations; "
            "duplicates were merged",
            ExplGraphWarning,
            stacklevel=2,
        )
    return memo[goal]


def diagnose_exclusiveness(graph: ExplanationGraph, limit: int = 100_000) -> str:
    """Check every root's explanation set and cache a verdict on the graph.

    Exclusiveness is a per-goal condition, so roots are checked
    separately: one overlapping root makes the graph overlapping, an
    undecidable root leaves it unknown, otherwise it is exclusive.
    Inference then flags inside tables computed on overlapping graphs.
    Desk-scale only (delegates to enumeration).
    """
    verdicts = {
        check_exclusiveness(enumerate_explanations(graph, root, limit))
        for root in graph.roots
    }
    if "overlapping" in verdicts:
        graph.exclusiveness = "overlapping"
    elif "unknown" in verdicts:
        graph.exclusiveness = "unknown"
    else:
        graph.exclusiveness = "exclusive"
    return graph.exclusiveness


def check_exclusiveness(explanations: Iterable[Explanation]) -> str:
    """Sound-but-incomplete pairwise exclusiveness diagnostic.

    Returns ``"exclusive"`` when every pair of explanations assigns
    conflicting values to some shared switch, ``"overlapping"`` when some
    pair does not (both conjunctions are then satisfiable at once), and
    ``"unknown"`` when any explanation uses a switch more than once in
    total, in which case the hidden trial structure is not recoverable
    from multisets alone.
    """
    expls = list(explanations)
    per_expl = []
    for e in expls:
        totals: dict = {}
        values: dict = {}
        for (s, v), m in e.items():
            key = render_term(s)
            totals[key] = totals.get(key, 0) + m
            values[key] = v
        if any(t > 1 for t in totals.values()):
            return "unknown"
        per_expl.append(values)
    for a, b in itertools.combinations(per_expl, 2):
        shared = a.keys() & b.keys()
        if not any(a[s] != b[s] for s in shared):
            return "overlapping"
    return "exclusive"


def explanation_prob(e: Explanation, theta) -> float:
    """Probability of an explanation: product of theta factors with counts."""
    p = 1.0
    for (s, v), m in e.items():
        p *= theta.get(s, v) ** m
    return p


def merge_graphs(graphs: Sequence[ExplanationGraph]) -> tuple[ExplanationGraph, list[list[GoalId]]]:
    """Union of graphs with disjoint goal tables and shared switch space.

    Switch declarations must agree where names coincide.  Returns the
    merged graph and, per input graph, the remapped ids of its roots.
    """
    builder = GraphBuilder()
    root_maps: list[list[GoalId]] = []
    for k, g in enumerate(graphs):
        builder.declare_switches(g.switches)
        offsetted: dict[GoalId, GoalId] = {}
        for gid, label in enumerate(g.labels):
            offsetted[gid] = builder.goal(f"g{k}:{label}")
        for f in g.formulas:
            for body in f.bodies:
                builder.add_body(
                    offsetted[f.head],
                    [offsetted[s] for s in body.subgoals],
                    body.instances,
                    body.tag,
                )
        root_maps.append([offsetted[r] for r in g.roots])
        for r in g.roots:
            builder.add_root(offsetted[r])
    return builder.build(), root_maps

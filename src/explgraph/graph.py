"""Core explanation-graph data model.

An explanation graph is an acyclic AND/OR structure: every *defined goal*
has a defining formula ``H <-> B_1 v ... v B_h`` whose bodies conjoin
references to other defined goals with instances of *random switches*
(named discrete choices over declared finite value sets).  An
*explanation* of a goal is a multiset of switch instances obtained by
picking one body per goal encountered; the graph shares substructure so
that sum-product and argmax dynamic programming run in time linear in its
size (see :mod:`explgraph.inference`).

:class:`GraphBuilder` is the only way to make a graph.  It collects the
bodies as flat arrays, in the order they arrive: per body its head goal,
subgoal count, switch-part count and tag, plus the concatenated subgoal
ids and, per switch part, its slot and multiplicity.  The frontends hand
it slot ids; :class:`SwitchInstance` objects given to it are resolved to
slots by value when it builds.  The built graph keeps its bodies only in
the level-order arrays that :mod:`explgraph.compiled` lays out from the
flat ones.  ``formulas`` is a lazy view that reads a goal's
:class:`DefiningFormula`, instances included, off those arrays, for the
readers that walk bodies one by one (the text writer, the enumeration
oracle, the derivation search of ``tree_from_explanation``).

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

from .compiled import CompiledGraph, FlatBodies
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
    """Switch declarations, goal labels, roots and the cached exclusiveness
    verdict, plus the slot layout and the bodies of every defined goal in
    their array form, :class:`explgraph.compiled.CompiledGraph`.

    Instances are built, and so validated, by :meth:`GraphBuilder.build`
    (the file loader builds through it too) and hold no body array of
    their own.  All inference and learning routines treat them as shared
    read-only inputs.
    """

    def __init__(
        self, switches: dict, labels: list[str], roots: list[GoalId], compiled: CompiledGraph
    ):
        self.switches = switches  # rendered switch name -> SwitchDecl
        self.labels = labels
        self.roots = roots
        self.exclusiveness: Optional[str] = None  # cached diagnostic verdict
        self._compiled = compiled
        self._formulas = None

    # -- basic accessors ------------------------------------------------

    @property
    def n_goals(self) -> int:
        return len(self.labels)

    @property
    def formulas(self) -> Sequence[DefiningFormula]:
        """One :class:`DefiningFormula` per goal, built from the compiled
        arrays each time it is read."""
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
    def topo_order(self) -> list[GoalId]:
        """Bottom-up topological order."""
        return self._compiled.topo_order

    def body_size(self) -> int:
        """Total number of atoms across all bodies (graph size)."""
        return len(self._compiled.cpart_child) + len(self._compiled.spart_slot)

    # -- slot layout shared by inference/learning -----------------------

    def slots(self):
        """Flat (switch, value) slot layout; see :mod:`explgraph.tables`."""
        return self._compiled.layout

    def compiled(self) -> CompiledGraph:
        """Array form of the graph for vectorised passes, built with the
        graph (see :func:`validate_graph`)."""
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
    it from the compiled arrays, where a goal's bodies lie next to each
    other in their order of arrival; no formula is kept, only one instance
    object per (slot, multiplicity)."""

    def __init__(self, graph: ExplanationGraph):
        c = self._comp = graph.compiled()
        self._pairs = graph.slots().slot_pairs
        starts = np.flatnonzero(c.body_local == 0)  # each goal's first body
        self._first = starts[np.argsort(c.body_head[starts])].tolist()  # in goal-id order
        self._n_bodies = np.bincount(c.body_head, minlength=c.n_goals).tolist()
        self._made: dict[tuple[int, float], SwitchInstance] = {}

    def __len__(self) -> int:
        return self._comp.n_goals

    def _instances(self, lo: int, hi: int) -> tuple[SwitchInstance, ...]:
        """The switch instances of parts lo..hi-1."""
        c, out = self._comp, []
        for slot, mult in zip(c.spart_slot[lo:hi].tolist(), c.spart_mult[lo:hi].tolist()):
            inst = self._made.get((slot, mult))
            if inst is None:
                m = int(mult) if mult.is_integer() else mult
                inst = self._made[slot, mult] = SwitchInstance(*self._pairs[slot], m)
            out.append(inst)
        return tuple(out)

    def __getitem__(self, goal):
        c = self._comp
        goal = range(len(self))[goal]
        lo = self._first[goal]
        b = slice(lo, lo + self._n_bodies[goal])
        parts = (c.body_cstart[b], c.body_ccount[b], c.body_sstart[b], c.body_scount[b])
        bodies = (
            Body(tuple(c.cpart_child[cs : cs + nc].tolist()), self._instances(ss, ss + ns), tag)
            for tag, cs, nc, ss, ns in zip(c.tags[b], *(x.tolist() for x in parts))
        )
        return DefiningFormula(goal, tuple(bodies))

    def __eq__(self, other) -> bool:
        return isinstance(other, SequenceABC) and list(self) == list(other)


class GraphBuilder:
    """Incremental construction of an :class:`ExplanationGraph`.

    Bodies are appended to flat arrays as they arrive (see
    :class:`explgraph.compiled.FlatBodies`); resolving their switch
    instances and checking them waits for :meth:`build`.
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
        if not 0 <= goal < len(self._labels):
            raise IndexError(f"no goal with id {goal}")
        if goal not in self._root_set:
            self._root_set.add(goal)
            self._roots.append(goal)

    def build(self) -> ExplanationGraph:
        """The validated graph (see :func:`validate_graph`).  The switch
        parts given as instances are resolved by value, then the flat
        bodies are handed to :class:`explgraph.compiled.CompiledGraph`,
        which checks them and lays them out; the graph keeps only that."""
        from .tables import SlotLayout

        switches = dict(self._switches)
        shared = self._layout is not None and list(switches) == self._layout.keys
        layout = self._layout if shared else SlotLayout(switches)
        heads, n_subgoals, subgoals, n_instances, part_slot = (
            np.array(x, dtype=np.int64)
            for x in (self._heads, self._nsub, self._subgoals, self._ninst, self._slots)
        )
        part_mult, unresolved = np.ones(len(part_slot)), {}
        if self._pending:
            at, instances = map(list, zip(*self._pending))
            slots, mults, errors = _resolve(instances, layout.slot)
            part_slot[at], part_mult[at] = slots, mults
            unresolved = {at[k]: e for k, e in errors.items()}
        flat = FlatBodies(
            heads, n_subgoals, subgoals, n_instances, part_slot, part_mult, self._tags, unresolved
        )
        compiled = CompiledGraph(layout, self._labels, flat)
        return ExplanationGraph(switches, list(self._labels), list(self._roots), compiled)


def validate_graph(graph: ExplanationGraph) -> list[GoalId]:
    """Check structural invariants and compute a bottom-up topological order.

    Every goal must have a body, every referenced subgoal must exist,
    every switch instance must use a declared value, and the
    head-calls-body relation must be acyclic.  The
    returned order lists each goal after all goals it references.

    The checks run when :meth:`GraphBuilder.build` compiles the graph, so
    every graph is a validated one, and this returns the order that
    ``graph.compiled()`` holds.  The checks report the first offending
    body in goal-id order (a body's subgoal ids before its switch
    instances), then a depth-first search over the goals' child lists
    orders them or raises ``CyclicGraph``; see
    :class:`explgraph.compiled.CompiledGraph`.
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

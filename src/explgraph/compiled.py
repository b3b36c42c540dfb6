"""Array form of an explanation graph, the only form a built graph keeps.

:meth:`explgraph.graph.GraphBuilder.build` hands over the bodies as flat
arrays in their order of arrival (:class:`FlatBodies`), and building the
array form from them is the graph's validation, done in numpy.  A stable
sort by head puts the bodies in goal-id order, and repeat/cumsum gathers
reorder their subgoal ids and switch parts (slot ids and multiplicities,
resolved by the builder) to match.  The checks report the first
offending body in goal-id order (a goal without bodies first, then a
body's subgoal ids before its switch instances).  A depth-first search
over the goals' child lists gives the topological order, rejects cycles
and sets each goal's level (every body's subgoals live in strictly lower
levels).  A stable sort by level then lays out goals, bodies and parts
level by level.  A goal's bodies stay next to each other in their order
of arrival (``body_local`` counts them), so ``graph.formulas`` reads
them off the laid-out arrays.

Every dynamic programme is one of two level loops, each taking one
vectorised step per level:

* the upward loop scores each body from its switch factors and its
  subgoals' values and reduces each goal's body scores to the goal's
  value.  Log-sum-exp gives the inside pass; max gives the Viterbi pass,
  whose selected body is the lowest-index body attaining the max.
* the downward loop pushes occurrence counts from the seeded goals
  through weighted bodies to subgoals and switch slots.  The weight
  occ(head) * P(body | head) gives expected counts (EM, MAP); the weight
  occ(head) * [body is the selected one] gives Viterbi counts (VT).

A third bottom-up loop, in ``selected_multisets``, reads explanation
multisets off a selection: each used goal's row of exact integer counts
per slot is its selected body's switch parts plus its subgoals' rows.
It stays apart from the upward loop, which carries one float per goal,
because a multiset is a vector of exact integers.

Each pass costs O(total body size) numpy work, matching the linear-time
contract of the sum-product and argmax recurrences, plus a fixed number
of numpy calls per level; the per-level work is kept to the steps that
must follow the level order:

* ``-inf`` guards sit per goal or once per pass, never over a level's
  bodies.  The log-sum-exp replaces a dead goal's max by 0 (its bodies
  then give ``exp(-inf) = 0`` and its value ``log(0) = -inf``), and a
  live goal's max body gives exactly ``exp(0) = 1``, so no clamp is
  needed.  The expected-counts pass takes a dead head's inside value as
  0 and computes every body's posterior once; the Viterbi-counts pass
  marks the selected bodies once.  Each pass enters ``np.errstate`` once.
* the body offset of each child part within its level is laid out once,
  with the levels; switch parts are read through their global body ids,
  so no per-graph array grows with the number of switch parts.
* the downward scatters into goal occurrences and switch counts stay
  per level ``np.add.at`` calls in part order: a single ``np.bincount``
  over all parts would be faster but would change the order of the
  float additions, and so EM and MAP results by ulps.  The exact integer
  rows of ``selected_multisets`` may be summed in any order; they are
  scattered by flat index into the rows' 1-D view.  Reading the
explanations of a few goals off a selection costs less:
``selected_derivation`` walks only the selected sub-DAG below them, in
Python, and gives exact integer use and slot counts, the choice trace and
the tagged derivations in work linear in the size of that sub-DAG.

All probability accumulation is done in log space; ``-inf`` encodes
probability zero.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import CyclicGraph, DanglingReference, ExplGraphError

NEG_INF = float("-inf")
# the largest float64 below 2**63, so a saturated use count fits int64
_USE_CAP = np.nextafter(2.0**63, 0.0)


def _log_sum_exp(scores: np.ndarray, lv: "_Level") -> np.ndarray:
    """Inside reduction: per goal, the log of its bodies' summed probability.

    A dead goal (every body ``-inf``) takes 0 as its max, so its bodies
    contribute ``exp(-inf) = 0`` and its value is ``0 + log(0) = -inf``; a
    live goal's max body contributes exactly ``exp(0) = 1``, so its sum is
    at least 1.  The caller ignores the divide warning of ``log(0)``.
    """
    m = np.maximum.reduceat(scores, lv.seg_starts)
    m[m == NEG_INF] = 0.0
    sums = np.bincount(lv.seg_ids, weights=np.exp(scores - m[lv.seg_ids]), minlength=len(m))
    return m + np.log(sums)


def _max(scores: np.ndarray, lv: "_Level") -> np.ndarray:
    """Viterbi reduction: per goal, its best body score."""
    return np.maximum.reduceat(scores, lv.seg_starts)


class Selection(NamedTuple):
    """What :meth:`CompiledGraph.selected_derivation` reads off a selection:
    per used goal its use count (in level order), per used slot its count,
    per used goal (in goal-id order) the index of its selected body within
    the goal, and per goal asked for its derivation (``None`` on a graph
    without tags)."""

    use: dict[int, int]
    counts: dict[int, int]
    trace: dict[int, int]
    derivations: Optional[list[tuple]]


class FlatBodies(NamedTuple):
    """A graph's bodies in their order of arrival: body k belongs to goal
    ``heads[k]``; its subgoal ids are the next ``n_subgoals[k]`` entries of
    ``subgoals`` and its switch parts the next ``n_instances[k]`` entries
    of ``part_slot`` (each part's slot, -1 where its instance did not
    resolve) and ``part_mult`` (its multiplicity), after those of bodies
    0..k-1; ``tags[k]`` is its tag.  ``unresolved`` maps the index of each
    part whose instance did not resolve to what resolving it raised."""

    heads: np.ndarray
    n_subgoals: np.ndarray
    subgoals: np.ndarray
    n_instances: np.ndarray
    part_slot: np.ndarray
    part_mult: np.ndarray
    tags: list
    unresolved: dict


class _Level(NamedTuple):
    """One topological level: its goals, where each goal's bodies start
    within the level, each body's goal within the level, the slices of
    the flat body, child-part and switch-part arrays that the level owns,
    and each of its child parts' body counted within the level."""

    goals: np.ndarray
    seg_starts: np.ndarray
    seg_ids: np.ndarray
    bodies: slice
    cparts: slice
    sparts: slice
    cbody: np.ndarray


def _part_order(counts: np.ndarray, bodies: np.ndarray) -> np.ndarray:
    """Indices that gather the parts of bodies stored one after another,
    ``counts[k]`` parts for body k, into the body order ``bodies``."""
    starts = np.cumsum(counts) - counts
    c = counts[bodies]
    return np.repeat(starts[bodies] - (np.cumsum(c) - c), c) + np.arange(int(c.sum()))


def _first_error(flat: FlatBodies, labels, walk, child, dangling) -> Exception:
    """What the checks report for the first offending body in goal-id
    order: its first dangling subgoal id, else what resolving its first
    unresolved switch part raised.  ``child`` and ``dangling`` hold the
    subgoal ids in goal-id order (``walk``)."""
    sorder = _part_order(flat.n_instances, walk)
    first = [np.flatnonzero(bad)[:1] for bad in (dangling, flat.part_slot[sorder] < 0)]
    bc, bs = (
        np.searchsorted(np.cumsum(counts[walk]), k, side="right")
        for counts, k in zip((flat.n_subgoals, flat.n_instances), first)
    )
    if len(bc) and (not len(bs) or bc[0] <= bs[0]):
        return DanglingReference(
            f"goal {labels[flat.heads[walk[bc[0]]]]} references "
            f"missing goal id {child[first[0][0]]}"
        )
    return flat.unresolved[int(sorder[first[1][0]])]


def _topo_levels(kids: list[list[int]], labels) -> tuple[list[int], list[int]]:
    """Children-first order and topological level of every goal.

    An iterative depth-first search from each unvisited goal in id order
    over the child lists ``kids``.  A goal's level, set when the goal
    finishes, is one more than its highest child's (0 for a goal without
    subgoals).  A child met again while still on the stack closes a cycle,
    reported with the labels along it.
    """
    n = len(kids)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * n
    level = [0] * n
    order: list[int] = []
    for start in range(n):
        if color[start] != WHITE:
            continue
        color[start] = GRAY
        stack = [(start, iter(kids[start]))]  # (goal, its children not yet visited)
        while stack:
            goal, todo = stack[-1]
            for child in todo:
                if color[child] == WHITE:
                    color[child] = GRAY
                    stack.append((child, iter(kids[child])))
                    break
                if color[child] == GRAY:
                    path = [fr[0] for fr in stack]
                    cycle = [labels[g] for g in path[path.index(child):]] + [labels[child]]
                    raise CyclicGraph(cycle)
            else:
                stack.pop()
                color[goal] = BLACK
                if kids[goal]:
                    level[goal] = 1 + max([level[c] for c in kids[goal]])
                order.append(goal)
    return order, level


class CompiledGraph:
    """Flattened goal/body/part arrays plus the vectorised passes.

    Building one validates the bodies ``flat`` of a graph whose goals are
    labelled ``labels`` and whose switches ``layout`` lays out (see the
    module docstring); ``flat`` itself is not kept.
    """

    def __init__(self, layout, labels, flat: FlatBodies):
        self.layout = layout
        n = len(labels)
        goal_nbodies = np.bincount(flat.heads, minlength=n)
        if not goal_nbodies.all():
            raise ExplGraphError(f"goal {int(np.argmin(goal_nbodies))} has no bodies")
        # the bodies in goal-id order, each goal's in order of arrival
        walk = np.argsort(flat.heads, kind="stable")
        child = flat.subgoals[_part_order(flat.n_subgoals, walk)]
        dangling = (child < 0) | (child >= n)
        if dangling.any() or flat.unresolved:
            raise _first_error(flat, labels, walk, child, dangling)
        bounds = np.concatenate(([0], np.cumsum(flat.n_subgoals[walk])))[
            np.concatenate(([0], np.cumsum(goal_nbodies)))
        ].tolist()
        ids = child.tolist()
        kids = [ids[a:b] for a, b in zip(bounds, bounds[1:])]  # per goal, all its subgoals
        self.topo_order, level = _topo_levels(kids, labels)

        # Stable sorts by level: goals, and the bodies of each level, keep
        # goal-id order; gathers keep each body's parts contiguous.
        self.level = level = np.array(level, dtype=np.int64)
        body_level = np.repeat(level, goal_nbodies)
        goals = np.argsort(level, kind="stable")
        bodies = np.argsort(body_level, kind="stable")
        arrival = walk[bodies]  # each laid-out body's index in the flat arrays
        sparts = _part_order(flat.n_instances, arrival)

        self.n_goals = n
        self.n_bodies = len(bodies)
        body_ids = np.arange(self.n_bodies, dtype=np.int64)
        self.body_head = np.repeat(goals, goal_nbodies[goals])
        self.body_local = bodies - (np.cumsum(goal_nbodies) - goal_nbodies)[self.body_head]
        self.body_ccount = flat.n_subgoals[arrival]
        self.body_cstart = np.cumsum(self.body_ccount) - self.body_ccount
        self.body_scount = flat.n_instances[arrival]
        self.body_sstart = np.cumsum(self.body_scount) - self.body_scount
        self.cpart_body = np.repeat(body_ids, self.body_ccount)
        self.cpart_child = flat.subgoals[_part_order(flat.n_subgoals, arrival)]
        self.spart_body = np.repeat(body_ids, self.body_scount)
        self.spart_slot = flat.part_slot[sparts]
        self.spart_mult = flat.part_mult[sparts]
        self.tags = list(map(flat.tags.__getitem__, arrival.tolist()))
        self.tagged = any(t is not None for t in flat.tags)  # some body carries a frontend tag

        # Per goal, per body and per child part, in layout order: where the
        # goal's bodies start, which goal a body has and which body a child
        # part has, all counted within the level.
        n_levels = int(level.max()) + 1 if n else 0
        gs, bs = (
            np.concatenate(([0], np.cumsum(np.bincount(x, minlength=n_levels))))
            for x in (level, body_level)
        )
        cs, ss = (
            np.concatenate(([0], np.cumsum(counts)))[bs]
            for counts in (self.body_ccount, self.body_scount)
        )
        nb, goal_level = goal_nbodies[goals], level[goals]
        seg_starts = np.cumsum(nb) - nb - bs[goal_level]
        seg_ids = np.repeat(np.arange(n, dtype=np.int64) - gs[goal_level], nb)
        cbody = self.cpart_body - np.repeat(bs[:-1], np.diff(cs))
        gs, bs, cs, ss = gs.tolist(), bs.tolist(), cs.tolist(), ss.tolist()
        self.levels = [
            _Level(
                goals[gs[k] : gs[k + 1]],
                seg_starts[gs[k] : gs[k + 1]],
                seg_ids[bs[k] : bs[k + 1]],
                slice(bs[k], bs[k + 1]),
                slice(cs[k], cs[k + 1]),
                slice(ss[k], ss[k + 1]),
                cbody[cs[k] : cs[k + 1]],
            )
            for k in range(n_levels)
        ]

    # -- the two level loops ----------------------------------------------

    def body_constants(self, log_theta: np.ndarray) -> np.ndarray:
        """Per-body sum of switch log factors (counts included)."""
        if len(self.spart_body) == 0:
            return np.zeros(self.n_bodies)
        with np.errstate(invalid="ignore"):
            w = self.spart_mult * log_theta[self.spart_slot]
        return np.bincount(self.spart_body, weights=w, minlength=self.n_bodies)

    def _upward(self, log_theta: np.ndarray, reduce) -> tuple[np.ndarray, np.ndarray]:
        """Bottom-up level loop: score every body, then reduce per goal.

        A body's log score is its switch log factors plus its subgoals'
        values; ``reduce(scores, level)`` turns one level's body scores
        into its goals' values.  Returns (per-goal value, per-body score).
        """
        values = np.full(self.n_goals, NEG_INF)
        scores = self.body_constants(log_theta)
        for lv in self.levels:
            s = scores[lv.bodies]
            s += np.bincount(lv.cbody, weights=values[self.cpart_child[lv.cparts]], minlength=len(s))
            values[lv.goals] = reduce(s, lv)
        return values, scores

    def _downward(self, seeds: np.ndarray, weigh) -> tuple[np.ndarray, np.ndarray]:
        """Top-down level loop: push occurrence counts from heads to parts.

        Per-goal occurrence counts start at ``seeds``.  Level by level from
        the top, ``weigh(out, occ_of_heads, bodies)`` writes into ``out``
        the number of uses of each body in the slice ``bodies``; that is
        added to the count of every subgoal and, times the multiplicity, to
        every switch slot of the body.  Both scatters run per level, in
        part order.
        Returns (flat switch counts, per-goal occurrence counts).
        """
        occ = seeds.astype(float)
        eta = np.zeros(self.layout.n_slots)
        w = np.zeros(self.n_bodies)
        for lv in reversed(self.levels):
            weigh(w[lv.bodies], occ[self.body_head[lv.bodies]], lv.bodies)
            np.add.at(occ, self.cpart_child[lv.cparts], w[self.cpart_body[lv.cparts]])
            sp = lv.sparts
            np.add.at(eta, self.spart_slot[sp], self.spart_mult[sp] * w[self.spart_body[sp]])
        return eta, occ

    # -- passes -----------------------------------------------------------

    def inside_pass(self, log_theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log-space sum-product over all goals.

        Returns (per-goal log inside value, per-body log score).
        """
        with np.errstate(divide="ignore"):
            return self._upward(log_theta, _log_sum_exp)

    def viterbi_pass(self, log_theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log-space argmax over all goals.

        Returns (per-goal best log value, per-goal selected global body
        index).  Ties go to the lowest body index within each goal.
        """
        best, scores = self._upward(log_theta, _max)
        bodies = np.arange(self.n_bodies, dtype=np.int64)
        cand = np.where(scores == best[self.body_head], bodies, self.n_bodies)
        sel = np.full(self.n_goals, self.n_bodies, dtype=np.int64)
        np.minimum.at(sel, self.body_head, cand)
        return best, sel

    def expected_counts_pass(
        self, inside: np.ndarray, scores: np.ndarray, seeds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior-weighted occurrence propagation (generalized outside).

        ``seeds`` holds, per goal, the observation count of that goal.  The
        return is (flat expected switch counts, per-goal expected number of
        times the goal is proven).  The per-body weight is the expected
        number of uses of the body: occ(head) * P(body | head), which keeps
        all quantities in count magnitude and avoids underflow.  A dead
        head's inside value is taken as 0, so its bodies get
        ``exp(-inf - 0) = 0``.
        """
        live = np.where(inside == NEG_INF, 0.0, inside)
        with np.errstate(over="ignore", invalid="ignore"):
            posterior = np.exp(scores - live[self.body_head])
            return self._downward(
                seeds, lambda out, h, bodies: np.multiply(h, posterior[bodies], out=out)
            )

    def selected_counts_pass(
        self, sel: np.ndarray, seeds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Switch counts along the selected-body sub-DAG.

        ``seeds`` holds per-goal observation counts; flow follows only the
        selected body of each goal.  Returns (flat switch counts, per-goal
        use counts); a goal's use count is the number of times it occurs in
        the selected derivations of all seeded goals.  Counts are whole
        numbers, exact below 2**53, so summation order cannot change them;
        int64 use counts saturate just below 2**63, so every goal the
        derivations use has a positive count.
        """
        chosen = np.zeros(self.n_bodies, dtype=bool)
        chosen[sel] = True
        eta, use = self._downward(
            seeds, lambda out, h, bodies: np.copyto(out, h, where=chosen[bodies])
        )
        return eta, np.minimum(use, _USE_CAP).astype(np.int64)

    def selected_multisets(
        self, sel: np.ndarray, eta: np.ndarray, use: np.ndarray, goals
    ) -> np.ndarray:
        """Exact switch counts of the selected derivations of ``goals``.

        ``eta`` and ``use`` are what :meth:`selected_counts_pass` returns
        for ``sel``, and every goal of ``goals`` must be used.  Row k counts,
        per slot, the switch instances in the derivation of ``goals[k]``
        along the selected bodies, so two derivations have the same
        explanation multiset exactly when their rows are equal.  Only the
        used goals get rows: each starts at its selected body's switch
        parts, and one step per level, bottom-up, adds its subgoals' rows.
        No entry exceeds ``eta``, so int64 rows cannot wrap while ``eta``
        stays below 2**62; beyond that the rows hold Python ints.
        """
        used = use > 0
        row = np.cumsum(used) - 1  # row of each used goal, in goal-id order
        dtype = np.int64 if eta.max(initial=0.0) < 2.0**62 else object
        n_slots = self.layout.n_slots
        rows = np.zeros((int(used.sum()), n_slots), dtype=dtype)
        flat = rows.reshape(-1)  # the rows as one view, scattered into by flat index
        chosen = used[self.body_head] & (sel[self.body_head] == np.arange(self.n_bodies))
        sp = np.flatnonzero(chosen[self.spart_body])
        mult = self.spart_mult[sp].astype(np.int64).astype(dtype)
        np.add.at(flat, row[self.body_head[self.spart_body[sp]]] * n_slots + self.spart_slot[sp], mult)
        cp = np.flatnonzero(chosen[self.cpart_body])  # in level order
        heads = row[self.body_head[self.cpart_body[cp]]] * n_slots
        kids = row[self.cpart_child[cp]]
        cols = np.arange(n_slots)
        lo = 0
        for hi in np.searchsorted(cp, [lv.cparts.stop for lv in self.levels]).tolist():
            np.add.at(flat, (heads[lo:hi, None] + cols).reshape(-1), rows[kids[lo:hi]].reshape(-1))
            lo = hi
        return rows[row[np.asarray(goals, dtype=np.int64)]]

    def selected_explanations_pass(self, sel: np.ndarray) -> list[tuple]:
        """Per goal id, the (slot, count) pairs of its selected derivation's
        multiset, read off :meth:`selected_multisets` in slot order."""
        eta, use = self.selected_counts_pass(sel, np.ones(self.n_goals, dtype=np.int64))
        rows = self.selected_multisets(sel, eta, use, range(self.n_goals))
        return [tuple((s, int(row[s])) for s in np.flatnonzero(row).tolist()) for row in rows]

    @cached_property
    def _walk_lists(self) -> tuple[list, ...]:
        """Per goal its level, per body its child-part start and count, its
        switch-part start and count and its index within its goal, and per
        part its child, its slot and its multiplicity, as Python lists for
        :meth:`selected_derivation`.  Built on first use and kept."""
        return tuple(
            x.tolist()
            for x in (
                self.level, self.body_cstart, self.body_ccount, self.body_sstart,
                self.body_scount, self.body_local, self.cpart_child, self.spart_slot,
                self.spart_mult.astype(np.int64),
            )
        )

    def selected_derivation(self, sel: np.ndarray, goals) -> Selection:
        """What the selected derivations of ``goals`` use, in one walk of the
        selected sub-DAG below them.

        The walk follows ``sel`` down from ``goals`` and collects the used
        goals, then orders them by level.  From the top, each used goal
        passes its use count (``goals`` count one each) to the subgoals of
        its selected body and, times the multiplicity, to the body's slots.
        From the bottom, on a tagged graph, each used goal's derivation is
        built from its subgoals': a tagged body gives one node ``(tag,
        children)``; an untagged body splices its subgoals' nodes into its
        parent's children.  Subgoals keep body order, so the nodes read left
        to right.  The counts are exact Python ints, and the work is linear
        in the size of the sub-DAG, not of the graph.
        """
        level, cstart, ccount, sstart, scount, local, child, slot, mult = self._walk_lists
        goals = [int(g) for g in goals]
        body: dict[int, int] = {}  # per used goal, its selected body
        stack = list(goals)
        while stack:
            g = stack.pop()
            if g not in body:
                b = body[g] = int(sel[g])
                stack += child[cstart[b] : cstart[b] + ccount[b]]
        order = sorted(body, key=level.__getitem__)  # children first
        use = dict.fromkeys(order, 0)
        for g in goals:
            use[g] += 1
        counts: dict[int, int] = {}
        for g in reversed(order):
            u, b = use[g], body[g]
            for c in child[cstart[b] : cstart[b] + ccount[b]]:
                use[c] += u
            for k in range(sstart[b], sstart[b] + scount[b]):
                counts[slot[k]] = counts.get(slot[k], 0) + u * mult[k]
        derivations = None
        if self.tagged:
            nodes: dict[int, tuple] = {}
            for g in order:
                b = body[g]
                kids = tuple(n for c in child[cstart[b] : cstart[b] + ccount[b]] for n in nodes[c])
                nodes[g] = kids if self.tags[b] is None else ((self.tags[b], kids),)
            derivations = [nodes[g] for g in goals]
        trace = {g: local[body[g]] for g in sorted(body)}
        return Selection(use, counts, trace, derivations)

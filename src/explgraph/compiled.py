"""Array form of a validated explanation graph.

Goals are grouped into topological levels (every body's subgoals live in
strictly lower levels), bodies and their parts are flattened into dense
arrays, and every dynamic programme is one of two level loops, each
taking one vectorised step per level:

* the upward loop scores each body from its switch factors and its
  subgoals' values and reduces each goal's body scores to the goal's
  value.  Log-sum-exp gives the inside pass; max gives the Viterbi pass,
  whose selected body is the lowest-index body attaining the max.
* the downward loop pushes occurrence counts from the seeded goals
  through weighted bodies to subgoals and switch slots.  The weight
  occ(head) * P(body | head) gives expected counts (EM, MAP); the weight
  occ(head) * [body is the selected one] gives Viterbi counts (VT).

Each pass costs O(total body size) numpy work, matching the linear-time
contract of the sum-product and argmax recurrences.

All probability accumulation is done in log space; ``-inf`` encodes
probability zero.
"""

from __future__ import annotations

import numpy as np

from .graph import per_instance_memo

NEG_INF = float("-inf")


def _repeat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for each (s, c) pair."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    base = np.repeat(starts, counts)
    cum = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return base + (np.arange(total, dtype=np.int64) - np.repeat(cum, counts))


def _log_sum_exp(scores: np.ndarray, lv: "_Level") -> np.ndarray:
    """Inside reduction: per goal, the log of its bodies' summed probability."""
    m = np.maximum.reduceat(scores, lv.seg_starts)
    with np.errstate(invalid="ignore"):
        contrib = np.where(np.isneginf(scores), 0.0, np.exp(scores - m[lv.seg_ids]))
    sums = np.bincount(lv.seg_ids, weights=contrib, minlength=len(lv.goals))
    with np.errstate(divide="ignore"):
        return np.where(np.isneginf(m), NEG_INF, m + np.log(np.maximum(sums, 1e-300)))


def _max(scores: np.ndarray, lv: "_Level") -> np.ndarray:
    """Viterbi reduction: per goal, its best body score."""
    return np.maximum.reduceat(scores, lv.seg_starts)


def _posterior(bodies: slice, heads, h, inside, scores) -> np.ndarray:
    """Expected-counts body weight: occ(head) * P(body | head)."""
    sc = scores[bodies]
    with np.errstate(invalid="ignore", over="ignore"):
        return h * np.where(np.isneginf(sc), 0.0, np.exp(sc - inside[heads]))


def _selected(bodies: slice, heads, h, sel) -> np.ndarray:
    """Viterbi-counts body weight: occ(head) on the head's selected body, else 0."""
    return np.where(sel[heads] == np.arange(bodies.start, bodies.stop), h, 0.0)


class _Level:
    """One topological level: its goals, where each goal's bodies start
    within the level, and the slices of the flat body, child-part and
    switch-part arrays that the level owns."""

    def __init__(self, goals, seg_starts, bodies: slice, cparts: slice, sparts: slice):
        self.goals = goals
        self.seg_starts = seg_starts
        self.seg_ids = np.repeat(
            np.arange(len(seg_starts), dtype=np.int64),
            np.diff(np.concatenate((seg_starts, [bodies.stop - bodies.start]))),
        )
        self.bodies = bodies
        self.cparts = cparts
        self.sparts = sparts


class CompiledGraph:
    """Flattened goal/body/part arrays plus the vectorised passes."""

    def __init__(self, graph):
        self.graph = graph
        self.layout = graph.slots()
        n = graph.n_goals

        level = np.zeros(n, dtype=np.int64)
        for g in graph.topo_order:
            lv = 0
            for body in graph.formulas[g].bodies:
                for s in body.subgoals:
                    lv = max(lv, int(level[s]) + 1)
            level[g] = lv
        self.level = level
        n_levels = int(level.max()) + 1 if n else 0
        goals_by_level: list[list[int]] = [[] for _ in range(n_levels)]
        for g in range(n):
            goals_by_level[int(level[g])].append(g)

        body_head: list[int] = []
        body_local: list[int] = []
        cpart_body: list[int] = []
        cpart_child: list[int] = []
        spart_body: list[int] = []
        spart_slot: list[int] = []
        spart_mult: list[int] = []
        tagged = False
        sel_index: dict[tuple[int, int], int] = {}
        levels: list[_Level] = []
        slot_of = per_instance_memo(self.layout.slot)

        for goals in goals_by_level:
            body_lo = len(body_head)
            cpart_lo = len(cpart_body)
            spart_lo = len(spart_body)
            seg_starts = []
            for g in goals:
                seg_starts.append(len(body_head) - body_lo)
                for li, body in enumerate(graph.formulas[g].bodies):
                    bid = len(body_head)
                    sel_index[(g, li)] = bid
                    body_head.append(g)
                    body_local.append(li)
                    tagged = tagged or body.tag is not None
                    for s in body.subgoals:
                        cpart_body.append(bid)
                        cpart_child.append(s)
                    for inst in body.instances:
                        spart_body.append(bid)
                        spart_slot.append(slot_of(inst))
                        spart_mult.append(inst.mult)
            levels.append(
                _Level(
                    np.array(goals, dtype=np.int64),
                    np.array(seg_starts, dtype=np.int64),
                    slice(body_lo, len(body_head)),
                    slice(cpart_lo, len(cpart_body)),
                    slice(spart_lo, len(spart_body)),
                )
            )

        self.n_goals = n
        self.n_bodies = len(body_head)
        self.body_head = np.array(body_head, dtype=np.int64)
        self.body_local = np.array(body_local, dtype=np.int64)
        self.cpart_body = np.array(cpart_body, dtype=np.int64)
        self.cpart_child = np.array(cpart_child, dtype=np.int64)
        self.spart_body = np.array(spart_body, dtype=np.int64)
        self.spart_slot = np.array(spart_slot, dtype=np.int64)
        self.spart_mult = np.array(spart_mult, dtype=np.float64)
        # each body's parts are contiguous, in body order
        self.body_ccount = np.bincount(self.cpart_body, minlength=self.n_bodies)
        self.body_cstart = np.cumsum(self.body_ccount) - self.body_ccount
        self.body_scount = np.bincount(self.spart_body, minlength=self.n_bodies)
        self.body_sstart = np.cumsum(self.body_scount) - self.body_scount
        self.levels = levels
        self.sel_index = sel_index
        self.tagged = tagged  # whether any body carries a frontend tag

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
            cb = self.cpart_body[lv.cparts] - lv.bodies.start
            cv = values[self.cpart_child[lv.cparts]]
            scores[lv.bodies] += np.bincount(cb, weights=cv, minlength=len(lv.seg_ids))
            values[lv.goals] = reduce(scores[lv.bodies], lv)
        return values, scores

    def _downward(self, seeds: np.ndarray, body_weight, *args) -> tuple[np.ndarray, np.ndarray]:
        """Top-down level loop: push occurrence counts from heads to parts.

        Per-goal occurrence counts start at ``seeds``.  Level by level from
        the top, ``body_weight(bodies, heads, occ_of_heads, *args)`` gives
        the number of uses of each body in the slice ``bodies``; that is
        added to the count of every subgoal and, times the multiplicity, to
        every switch slot of the body.
        Returns (flat switch counts, per-goal occurrence counts).
        """
        occ = seeds.astype(float)
        eta = np.zeros(self.layout.n_slots)
        for lv in reversed(self.levels):
            heads = self.body_head[lv.bodies]
            h = occ[heads]
            if not np.any(h > 0.0):
                continue
            w = body_weight(lv.bodies, heads, h, *args)
            cb = self.cpart_body[lv.cparts] - lv.bodies.start
            np.add.at(occ, self.cpart_child[lv.cparts], w[cb])
            sb = self.spart_body[lv.sparts] - lv.bodies.start
            np.add.at(eta, self.spart_slot[lv.sparts], self.spart_mult[lv.sparts] * w[sb])
        return eta, occ

    # -- passes -----------------------------------------------------------

    def inside_pass(self, log_theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log-space sum-product over all goals.

        Returns (per-goal log inside value, per-body log score).
        """
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
        all quantities in count magnitude and avoids underflow.
        """
        return self._downward(seeds, _posterior, inside, scores)

    def selected_counts_pass(
        self, sel: np.ndarray, seeds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Switch counts along the selected-body sub-DAG.

        ``seeds`` holds per-goal observation counts; flow follows only the
        selected body of each goal.  Returns (flat switch counts, per-goal
        use counts); a goal's use count is the number of times it occurs in
        the selected derivations of all seeded goals.  Counts are whole
        numbers, exact below 2**53, so summation order cannot change them.
        """
        eta, use = self._downward(seeds, _selected, sel)
        return eta, use.astype(np.int64)

    def selected_explanations_pass(self, sel: np.ndarray) -> list[tuple]:
        """:meth:`selected_explanations` of every goal, as a list by goal id."""
        return list(self.selected_explanations(sel, range(self.n_goals)).values())

    def selected_explanations(self, sel: np.ndarray, goals) -> dict[int, tuple]:
        """Explanation multisets of ``goals`` along the selected bodies.

        Returns, for each goal, a canonical sorted tuple of (slot, count)
        pairs.  Distinct selected derivations that merge to one multiset
        compare equal here, which is what the fixed-point test of Viterbi
        training needs.  One vectorised downward pass finds the selected
        sub-DAGs below ``goals``; the Python merging then costs their size
        rather than the graph's.
        """
        expl: dict[int, tuple] = {}
        for g in self._selected_below(sel, goals):
            expl[g] = self._merge_selected(int(sel[g]), expl)
        return {int(g): expl[int(g)] for g in goals}

    def _selected_below(self, sel: np.ndarray, goals) -> list[int]:
        """Goals of the selected sub-DAGs below ``goals``, children first:
        those the downward loop reaches from ``goals`` along selected bodies."""
        seeds = np.zeros(self.n_goals)
        seeds[np.asarray(goals, dtype=np.int64)] = 1.0
        below = np.flatnonzero(self._downward(seeds, _selected, sel)[1])
        return below[np.argsort(self.level[below], kind="stable")].tolist()

    def _selected_children(self, sel: np.ndarray, g: int) -> list[int]:
        b = int(sel[g])
        c0 = int(self.body_cstart[b])
        return self.cpart_child[c0 : c0 + int(self.body_ccount[b])].tolist()

    def selected_derivation(self, sel: np.ndarray, goal: int) -> tuple:
        """The derivation of ``goal`` along the selected bodies, as nested tuples.

        A tagged body gives one node ``(tag, children)``; an untagged body
        splices its subgoals' nodes into its parent's children.  Subgoals
        keep body order, so the nodes read left to right.  Built bottom-up
        over the selected sub-DAG below ``goal``: one vectorised downward
        pass finds it, and the Python work is linear in its size.
        """
        nodes: dict[int, tuple] = {}
        for g in self._selected_below(sel, [goal]):
            kids = tuple(node for c in self._selected_children(sel, g) for node in nodes[c])
            tag = self.graph.formulas[g].bodies[int(self.body_local[sel[g]])].tag
            nodes[g] = kids if tag is None else ((tag, kids),)
        return nodes[int(goal)]

    def _merge_selected(self, b: int, expl) -> tuple:
        """Canonical (slot, count) multiset of body ``b`` given its children's."""
        counts: dict[int, int] = {}
        c0 = int(self.body_cstart[b])
        for k in range(c0, c0 + int(self.body_ccount[b])):
            for slot, m in expl[int(self.cpart_child[k])]:
                counts[slot] = counts.get(slot, 0) + m
        s0 = int(self.body_sstart[b])
        for k in range(s0, s0 + int(self.body_scount[b])):
            slot = int(self.spart_slot[k])
            counts[slot] = counts.get(slot, 0) + int(self.spart_mult[k])
        return tuple(sorted(counts.items()))

    def changed_derivations(self, sel: np.ndarray, prev_sel: np.ndarray) -> np.ndarray:
        """Per goal, whether its selected derivation differs between two selections.

        A goal's derivation changed when its own selected body changed or
        when a subgoal of its (unchanged) selected body changed; the flag
        is propagated bottom-up one level at a time.
        """
        changed = sel != prev_sel
        for lv in self.levels:
            bs = sel[lv.goals]
            ccnt = self.body_ccount[bs]
            if not ccnt.any():
                continue
            idx = _repeat_ranges(self.body_cstart[bs], ccnt)
            owner = np.repeat(np.arange(len(bs), dtype=np.int64), ccnt)
            hits = np.bincount(owner, weights=changed[self.cpart_child[idx]], minlength=len(bs))
            changed[lv.goals] |= hits > 0
        return changed

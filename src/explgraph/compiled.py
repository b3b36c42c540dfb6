"""Array form of a validated explanation graph.

Goals are grouped into topological levels (every body's subgoals live in
strictly lower levels), bodies and their parts are flattened into dense
arrays, and the dynamic-programming passes run one vectorised step per
level.  Each pass costs O(total body size) numpy work, matching the
linear-time contract of the sum-product and argmax recurrences.

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


class _Level:
    __slots__ = (
        "goals",
        "body_lo",
        "body_hi",
        "seg_starts",
        "seg_ids",
        "cpart_lo",
        "cpart_hi",
        "spart_lo",
        "spart_hi",
    )

    def __init__(self, goals, body_lo, body_hi, seg_starts, cpart_lo, cpart_hi, spart_lo, spart_hi):
        self.goals = goals
        self.body_lo = body_lo
        self.body_hi = body_hi
        self.seg_starts = seg_starts
        self.seg_ids = np.repeat(
            np.arange(len(seg_starts), dtype=np.int64),
            np.diff(np.concatenate((seg_starts, [body_hi - body_lo]))),
        )
        self.cpart_lo = cpart_lo
        self.cpart_hi = cpart_hi
        self.spart_lo = spart_lo
        self.spart_hi = spart_hi


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
        body_cstart: list[int] = []
        body_ccount: list[int] = []
        body_sstart: list[int] = []
        body_scount: list[int] = []
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
                    body_cstart.append(len(cpart_body))
                    body_ccount.append(len(body.subgoals))
                    for s in body.subgoals:
                        cpart_body.append(bid)
                        cpart_child.append(s)
                    body_sstart.append(len(spart_body))
                    body_scount.append(len(body.instances))
                    for inst in body.instances:
                        spart_body.append(bid)
                        spart_slot.append(slot_of(inst))
                        spart_mult.append(inst.mult)
            levels.append(
                _Level(
                    np.array(goals, dtype=np.int64),
                    body_lo,
                    len(body_head),
                    np.array(seg_starts, dtype=np.int64),
                    cpart_lo,
                    len(cpart_body),
                    spart_lo,
                    len(spart_body),
                )
            )

        self.n_goals = n
        self.n_bodies = len(body_head)
        self.body_head = np.array(body_head, dtype=np.int64)
        self.body_local = np.array(body_local, dtype=np.int64)
        self.body_cstart = np.array(body_cstart, dtype=np.int64)
        self.body_ccount = np.array(body_ccount, dtype=np.int64)
        self.body_sstart = np.array(body_sstart, dtype=np.int64)
        self.body_scount = np.array(body_scount, dtype=np.int64)
        self.cpart_body = np.array(cpart_body, dtype=np.int64)
        self.cpart_child = np.array(cpart_child, dtype=np.int64)
        self.spart_body = np.array(spart_body, dtype=np.int64)
        self.spart_slot = np.array(spart_slot, dtype=np.int64)
        self.spart_mult = np.array(spart_mult, dtype=np.float64)
        self.levels = levels
        self.sel_index = sel_index
        self.tagged = tagged  # whether any body carries a frontend tag

    # -- shared helpers --------------------------------------------------

    def body_constants(self, log_theta: np.ndarray) -> np.ndarray:
        """Per-body sum of switch log factors (counts included)."""
        if len(self.spart_body) == 0:
            return np.zeros(self.n_bodies)
        with np.errstate(invalid="ignore"):
            w = self.spart_mult * log_theta[self.spart_slot]
        return np.bincount(self.spart_body, weights=w, minlength=self.n_bodies)

    def _body_scores(self, const: np.ndarray, values: np.ndarray, lv: _Level) -> np.ndarray:
        scores = const[lv.body_lo : lv.body_hi].copy()
        if lv.cpart_hi > lv.cpart_lo:
            cb = self.cpart_body[lv.cpart_lo : lv.cpart_hi] - lv.body_lo
            cv = values[self.cpart_child[lv.cpart_lo : lv.cpart_hi]]
            scores += np.bincount(cb, weights=cv, minlength=lv.body_hi - lv.body_lo)
        return scores

    # -- passes -----------------------------------------------------------

    def inside_pass(self, log_theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log-space sum-product over all goals.

        Returns (per-goal log inside value, per-body log score).
        """
        inside = np.full(self.n_goals, NEG_INF)
        all_scores = np.empty(self.n_bodies)
        const = self.body_constants(log_theta)
        for lv in self.levels:
            scores = self._body_scores(const, inside, lv)
            all_scores[lv.body_lo : lv.body_hi] = scores
            m = np.maximum.reduceat(scores, lv.seg_starts)
            mseg = m[lv.seg_ids]
            with np.errstate(invalid="ignore"):
                contrib = np.where(np.isneginf(scores), 0.0, np.exp(scores - mseg))
            sums = np.bincount(lv.seg_ids, weights=contrib, minlength=len(lv.goals))
            with np.errstate(divide="ignore"):
                vals = np.where(np.isneginf(m), NEG_INF, m + np.log(np.maximum(sums, 1e-300)))
            inside[lv.goals] = vals
        return inside, all_scores

    def viterbi_pass(self, log_theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log-space argmax over all goals.

        Returns (per-goal best log value, per-goal selected global body
        index).  Ties go to the lowest body index within each goal.
        """
        best = np.full(self.n_goals, NEG_INF)
        sel = np.zeros(self.n_goals, dtype=np.int64)
        const = self.body_constants(log_theta)
        for lv in self.levels:
            scores = self._body_scores(const, best, lv)
            m = np.maximum.reduceat(scores, lv.seg_starts)
            pos = np.arange(lv.body_lo, lv.body_hi, dtype=np.int64)
            cand = np.where(scores == m[lv.seg_ids], pos, np.iinfo(np.int64).max)
            sel[lv.goals] = np.minimum.reduceat(cand, lv.seg_starts)
            best[lv.goals] = m
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
        occ = seeds.astype(float).copy()
        eta = np.zeros(self.layout.n_slots)
        for lv in reversed(self.levels):
            h = occ[self.body_head[lv.body_lo : lv.body_hi]]
            if not np.any(h > 0.0):
                continue
            sc = scores[lv.body_lo : lv.body_hi]
            denom = inside[self.body_head[lv.body_lo : lv.body_hi]]
            with np.errstate(invalid="ignore", over="ignore"):
                ratio = np.where(np.isneginf(sc), 0.0, np.exp(sc - denom))
            w = h * ratio
            if lv.cpart_hi > lv.cpart_lo:
                cb = self.cpart_body[lv.cpart_lo : lv.cpart_hi] - lv.body_lo
                np.add.at(occ, self.cpart_child[lv.cpart_lo : lv.cpart_hi], w[cb])
            if lv.spart_hi > lv.spart_lo:
                sb = self.spart_body[lv.spart_lo : lv.spart_hi] - lv.body_lo
                np.add.at(
                    eta,
                    self.spart_slot[lv.spart_lo : lv.spart_hi],
                    self.spart_mult[lv.spart_lo : lv.spart_hi] * w[sb],
                )
        return eta, occ

    def selected_explanations_pass(self, sel: np.ndarray) -> list[tuple]:
        """Per-goal explanation multisets along the selected bodies.

        Returns, for every goal, a canonical sorted tuple of (slot, count)
        pairs.  Distinct selected derivations that merge to one multiset
        compare equal here, which is what the fixed-point test of Viterbi
        training needs.
        """
        expl: list[tuple] = [()] * self.n_goals
        for lv in self.levels:
            for g in lv.goals:
                expl[int(g)] = self._merge_selected(int(sel[g]), expl)
        return expl

    def selected_explanations(self, sel: np.ndarray, goals) -> dict[int, tuple]:
        """The multisets of :meth:`selected_explanations_pass` for ``goals`` only.

        Walks just the selected sub-DAGs below ``goals``, so the cost is
        their size rather than the graph's.
        """
        expl: dict[int, tuple] = {}
        for g in self._selected_below(sel, goals):
            expl[g] = self._merge_selected(int(sel[g]), expl)
        return {int(g): expl[int(g)] for g in goals}

    def _selected_below(self, sel: np.ndarray, goals) -> list[int]:
        """Goals of the selected sub-DAGs below ``goals``, children first."""
        below: set[int] = set()
        stack = [int(g) for g in goals]
        while stack:
            g = stack.pop()
            if g not in below:
                below.add(g)
                stack.extend(self._selected_children(sel, g))
        return sorted(below, key=self.level.__getitem__)

    def _selected_children(self, sel: np.ndarray, g: int) -> list[int]:
        b = int(sel[g])
        c0 = int(self.body_cstart[b])
        return self.cpart_child[c0 : c0 + int(self.body_ccount[b])].tolist()

    def selected_derivation(self, sel: np.ndarray, goal: int) -> tuple:
        """The derivation of ``goal`` along the selected bodies, as nested tuples.

        A tagged body gives one node ``(tag, children)``; an untagged body
        splices its subgoals' nodes into its parent's children.  Subgoals
        keep body order, so the nodes read left to right.  Built bottom-up
        over the selected sub-DAG below ``goal``, in time linear in its
        size.
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

    def selected_counts_pass(
        self, sel: np.ndarray, seeds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Switch counts along the selected-body sub-DAG.

        ``seeds`` holds per-goal observation counts; flow follows only the
        selected body of each goal.  Returns (flat switch counts, per-goal
        use counts); a goal's use count is the number of times it occurs in
        the selected derivations of all seeded goals.
        """
        use = seeds.astype(np.int64).copy()
        eta = np.zeros(self.layout.n_slots)
        for lv in reversed(self.levels):
            u = use[lv.goals]
            mask = u > 0
            if not mask.any():
                continue
            bs = sel[lv.goals[mask]]
            uu = u[mask]
            ccnt = self.body_ccount[bs]
            if ccnt.sum():
                idx = _repeat_ranges(self.body_cstart[bs], ccnt)
                np.add.at(use, self.cpart_child[idx], np.repeat(uu, ccnt))
            scnt = self.body_scount[bs]
            if scnt.sum():
                idx = _repeat_ranges(self.body_sstart[bs], scnt)
                np.add.at(eta, self.spart_slot[idx], self.spart_mult[idx] * np.repeat(uu, scnt))
        return eta, use

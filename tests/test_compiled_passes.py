"""The two level loops of ``CompiledGraph`` against the passes they replaced.

``ReferencePasses`` keeps the four hand-written level loops (inside,
Viterbi, expected counts, selected counts) and the level-order explanation
walk as they stood before the passes became reductions of one upward and
one downward loop.  Every array the new passes return must be bitwise
equal to the reference's, on random graphs (with and without zero
parameters) and on the demo20 N=200 corpus graphs.
"""

from pathlib import Path

import numpy as np
import pytest

from explgraph.grammar import compile_pcfg_corpus, compile_plcg_corpus, gen_corpus
from explgraph.graph import GraphBuilder
from explgraph.inference import log_theta_vector
from explgraph.io import load_grammar

from conftest import random_exclusive_graph, random_general_graph, random_theta

NEG_INF = float("-inf")
DEMO20 = Path(__file__).resolve().parent.parent / "data" / "demo20.grammar"


def _repeat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for each (s, c) pair."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    base = np.repeat(starts, counts)
    cum = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return base + (np.arange(total, dtype=np.int64) - np.repeat(cum, counts))


class ReferenceLevel:
    """A level of ``comp`` with its slices as the (lo, hi) bounds the
    reference passes read."""

    def __init__(self, lv):
        self.goals, self.seg_starts, self.seg_ids = lv.goals, lv.seg_starts, lv.seg_ids
        self.body_lo, self.body_hi = lv.bodies.start, lv.bodies.stop
        self.cpart_lo, self.cpart_hi = lv.cparts.start, lv.cparts.stop
        self.spart_lo, self.spart_hi = lv.sparts.start, lv.sparts.stop


class ReferencePasses:
    """The former ``CompiledGraph`` passes, reading the arrays of ``comp``."""

    def __init__(self, comp):
        self.comp = comp
        self.levels = [ReferenceLevel(lv) for lv in comp.levels]

    def __getattr__(self, name):
        return getattr(self.comp, name)

    def body_constants(self, log_theta: np.ndarray) -> np.ndarray:
        """Per-body sum of switch log factors (counts included)."""
        if len(self.spart_body) == 0:
            return np.zeros(self.n_bodies)
        with np.errstate(invalid="ignore"):
            w = self.spart_mult * log_theta[self.spart_slot]
        return np.bincount(self.spart_body, weights=w, minlength=self.n_bodies)

    def _body_scores(self, const: np.ndarray, values: np.ndarray, lv) -> np.ndarray:
        scores = const[lv.body_lo : lv.body_hi].copy()
        if lv.cpart_hi > lv.cpart_lo:
            cb = self.cpart_body[lv.cpart_lo : lv.cpart_hi] - lv.body_lo
            cv = values[self.cpart_child[lv.cpart_lo : lv.cpart_hi]]
            scores += np.bincount(cb, weights=cv, minlength=lv.body_hi - lv.body_lo)
        return scores

    def inside_pass(self, log_theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
        expl: list[tuple] = [()] * self.n_goals
        for lv in self.levels:
            for g in lv.goals:
                expl[int(g)] = self._merge_selected(int(sel[g]), expl)
        return expl

    def selected_counts_pass(
        self, sel: np.ndarray, seeds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
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


def assert_same(a, b):
    """Equal values, and the same dtype and bytes (so -0.0 differs from 0.0)."""
    assert np.array_equal(a, b)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_passes_equal(graph, log_theta, seeds):
    """Every array of the five passes equals the reference's bit for bit."""
    comp = graph.compiled()
    ref = ReferencePasses(comp)
    inside, scores = comp.inside_pass(log_theta)
    for new, old in zip((inside, scores), ref.inside_pass(log_theta)):
        assert_same(new, old)
    best, sel = comp.viterbi_pass(log_theta)
    for new, old in zip((best, sel), ref.viterbi_pass(log_theta)):
        assert_same(new, old)
    expected = comp.expected_counts_pass(inside, scores, seeds)
    for new, old in zip(expected, ref.expected_counts_pass(inside, scores, seeds)):
        assert_same(new, old)
    selected = comp.selected_counts_pass(sel, seeds)
    for new, old in zip(selected, ref.selected_counts_pass(sel, seeds)):
        assert_same(new, old)
    assert comp.selected_explanations_pass(sel) == ref.selected_explanations_pass(sel)


@pytest.mark.parametrize("make", [random_exclusive_graph, random_general_graph])
def test_passes_equal_reference_on_random_graphs(make):
    rng = np.random.default_rng(61)
    for trial in range(60):
        graph, root = make(rng)
        log_theta = log_theta_vector(graph, random_theta(rng, graph))
        if trial % 2:
            # zero parameters: some bodies, and possibly whole goals, get -inf
            log_theta[rng.random(len(log_theta)) < 0.3] = NEG_INF
        seeds = rng.integers(0, 3, graph.n_goals)
        seeds[root] += 1
        assert_passes_equal(graph, log_theta, seeds)


def test_passes_equal_reference_without_switches():
    # bodies with no switch parts, one of them with no parts at all
    b = GraphBuilder()
    g, h = b.goal("g"), b.goal("h")
    b.add_body(h, [])
    b.add_body(g, [h])
    b.add_body(g, [h, h])
    b.add_root(g)
    graph = b.build()
    assert_passes_equal(graph, np.zeros(0), np.array([1, 0]))


@pytest.mark.parametrize("compile_corpus", [compile_pcfg_corpus, compile_plcg_corpus])
def test_passes_equal_reference_on_demo20_corpus(compile_corpus):
    demo20 = load_grammar(DEMO20)
    sample = gen_corpus(demo20, demo20.pcfg_parameter_table(), 200, seed=1)
    graph, goals = compile_corpus(demo20, sample.sentences())
    seeds = np.bincount(np.asarray(goals, dtype=np.int64), minlength=graph.n_goals)
    rng = np.random.default_rng(7)
    for jitter in (0.0, 1.0):
        weights = 1.0 + rng.uniform(0.0, jitter, graph.slots().n_slots)
        theta, _ = graph.slots().normalize(weights)
        with np.errstate(divide="ignore"):
            assert_passes_equal(graph, np.log(theta), seeds)

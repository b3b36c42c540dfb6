"""``CompiledGraph`` against the flatten and the passes it replaced.

``ReferencePasses`` keeps the four hand-written level loops (inside,
Viterbi, expected counts, selected counts) as they stood before the passes
became reductions of one upward and one downward loop, and the level-order
walk that merged each goal's explanation multiset as a sorted tuple of
(slot, count) pairs.  Every array the new passes return must be bitwise
equal to the reference's, on random graphs (with and without zero
parameters) and on the demo20 N=200 corpus graphs, and the exact count
rows of ``selected_multisets`` must hold the walk's multisets.
``reference_flatten`` keeps the flatten that levelled the goals of a
validated graph and walked its bodies level by level; the one-walk
construction must lay out the same arrays.  ``FormulaWalkCompiled`` keeps
that one walk over a graph's formulas: the numpy construction over the
flat bodies that ``GraphBuilder.build`` hands over must lay out the same
arrays with the same dtypes, whatever order the bodies arrived in, and
must raise what the walk raised on corrupted bodies.  A graph the
frontends build from slot ids must compile to the same arrays as its
rebuild through ``GraphBuilder.add_body``, which resolves instances by
value.  ``ReferenceFormulas`` keeps the former ``graph.formulas``, which
read the flat bodies in their order of arrival; a built graph no longer
keeps those (``keep_flat`` makes it), and the ``formulas`` it reads off
its compiled arrays must equal the reference's.
"""

import warnings
from collections.abc import Sequence as SequenceABC
from pathlib import Path

import numpy as np
import pytest

from explgraph import graph as graph_module
from explgraph.compiled import CompiledGraph, _Level, _topo_levels
from explgraph.errors import (
    CyclicGraph,
    DanglingReference,
    ExplGraphError,
    MissingParameter,
    NoPath,
    UndeclaredValue,
)
from explgraph.grammar import (
    compile_pcfg,
    compile_pcfg_corpus,
    compile_plcg,
    compile_plcg_corpus,
    gen_corpus,
)
from explgraph.graph import Body, DefiningFormula, GraphBuilder, SwitchDecl, SwitchInstance
from explgraph.inference import log_theta_vector, viterbi
from explgraph.io import load_grammar
from explgraph.learning import LearnConfig, vt_learn
from explgraph.models import (
    DataRow,
    NBHSpec,
    compile_nbh_corpus,
    compile_path_graph,
    compile_path_queries,
    six_node_demo_graph,
)
from explgraph.tables import ParameterTable, SlotLayout

from conftest import (
    body_index,
    interleaved,
    random_exclusive_graph,
    random_general_graph,
    random_theta,
    rebuilder,
)

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

    def selected_explanations(self, sel: np.ndarray, use: np.ndarray) -> dict[int, tuple]:
        """The level-order walk over the goals of positive ``use`` only."""
        expl: dict[int, tuple] = {}
        for lv in self.levels:
            for g in lv.goals[use[lv.goals] > 0].tolist():
                expl[g] = self._merge_selected(int(sel[g]), expl)
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


def reference_topo_order(graph):
    """The depth-first search that validation ran over the formulas."""
    n = graph.n_goals

    def children(goal):
        return [s for b in graph.formulas[goal].bodies for s in b.subgoals]

    color = [0] * n
    order = []
    for start in range(n):
        if color[start]:
            continue
        stack = [[start, children(start), 0]]
        color[start] = 1
        while stack:
            frame = stack[-1]
            goal, kids, pos = frame
            if pos < len(kids):
                frame[2] = pos + 1
                child = kids[pos]
                if color[child] == 0:
                    color[child] = 1
                    stack.append([child, children(child), 0])
            else:
                color[goal] = 2
                order.append(goal)
                stack.pop()
    return order


def reference_flatten(graph):
    """The former ``CompiledGraph.__init__``: levels from the topological
    order, then the bodies flattened level by level in Python."""
    layout = graph.slots()
    n = graph.n_goals
    topo_order = reference_topo_order(graph)
    level = np.zeros(n, dtype=np.int64)
    for g in topo_order:
        lv = 0
        for body in graph.formulas[g].bodies:
            for s in body.subgoals:
                lv = max(lv, int(level[s]) + 1)
        level[g] = lv
    n_levels = int(level.max()) + 1 if n else 0
    goals_by_level = [[] for _ in range(n_levels)]
    for g in range(n):
        goals_by_level[int(level[g])].append(g)

    body_head, body_local, tags = [], [], []
    cpart_body, cpart_child = [], []
    spart_body, spart_slot, spart_mult = [], [], []
    sel_index = {}
    levels = []
    for goals in goals_by_level:
        body_lo, cpart_lo, spart_lo = len(body_head), len(cpart_body), len(spart_body)
        seg_starts = []
        for g in goals:
            seg_starts.append(len(body_head) - body_lo)
            for li, body in enumerate(graph.formulas[g].bodies):
                bid = len(body_head)
                sel_index[(g, li)] = bid
                body_head.append(g)
                body_local.append(li)
                tags.append(body.tag)
                for s in body.subgoals:
                    cpart_body.append(bid)
                    cpart_child.append(s)
                for inst in body.instances:
                    spart_body.append(bid)
                    spart_slot.append(layout.slot(inst.switch, inst.value))
                    spart_mult.append(inst.mult)
        levels.append(
            (
                np.array(goals, dtype=np.int64),
                np.array(seg_starts, dtype=np.int64),
                (body_lo, len(body_head)),
                (cpart_lo, len(cpart_body)),
                (spart_lo, len(spart_body)),
            )
        )
    arrays = {
        "level": level,
        "body_head": np.array(body_head, dtype=np.int64),
        "body_local": np.array(body_local, dtype=np.int64),
        "cpart_body": np.array(cpart_body, dtype=np.int64),
        "cpart_child": np.array(cpart_child, dtype=np.int64),
        "spart_body": np.array(spart_body, dtype=np.int64),
        "spart_slot": np.array(spart_slot, dtype=np.int64),
        "spart_mult": np.array(spart_mult, dtype=np.float64),
    }
    n_bodies = len(body_head)
    arrays["body_ccount"] = np.bincount(arrays["cpart_body"], minlength=n_bodies)
    arrays["body_cstart"] = np.cumsum(arrays["body_ccount"]) - arrays["body_ccount"]
    arrays["body_scount"] = np.bincount(arrays["spart_body"], minlength=n_bodies)
    arrays["body_sstart"] = np.cumsum(arrays["body_scount"]) - arrays["body_scount"]
    return {
        "arrays": arrays,
        "levels": levels,
        "sel_index": sel_index,
        "tags": tags,
        "tagged": any(t is not None for t in tags),
        "topo_order": topo_order,
        "n_bodies": n_bodies,
    }


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


def assert_flatten_equal(graph):
    """Every array, level and index of the compiled graph equals the
    former flatten's, with the same dtypes."""
    comp = graph.compiled()
    ref = reference_flatten(graph)
    for name, arr in ref["arrays"].items():
        assert_same(getattr(comp, name), arr)
    assert len(comp.levels) == len(ref["levels"])
    for lv, (goals, seg_starts, bodies, cparts, sparts) in zip(comp.levels, ref["levels"]):
        assert_same(lv.goals, goals)
        assert_same(lv.seg_starts, seg_starts)
        assert (lv.bodies.start, lv.bodies.stop) == bodies
        assert (lv.cparts.start, lv.cparts.stop) == cparts
        assert (lv.sparts.start, lv.sparts.stop) == sparts
        assert all(type(x) is int for x in (lv.bodies.start, lv.cparts.stop, lv.sparts.stop))
    assert comp.n_bodies == ref["n_bodies"]
    assert body_index(comp) == ref["sel_index"]
    assert comp.tags == ref["tags"] and comp.tagged == ref["tagged"]
    assert comp.topo_order == ref["topo_order"] == graph.topo_order
    assert not hasattr(comp, "graph")


def assert_rows_equal(graph, rng, pairs):
    """``selected_multisets`` holds the reference walk's multisets: for
    every goal under the first-body selection, and on random selection
    pairs for the sub-DAG used by about 16 goals spread over the graph.
    Each selection is walked once, over the goals it checks."""
    comp = graph.compiled()
    ref = ReferencePasses(comp)
    n = graph.n_goals
    n_local = np.bincount(comp.body_head, minlength=n)
    spread = np.zeros(n, dtype=np.int64)
    spread[:: max(1, n // 16)] = 1

    def check(sel, seeds):
        eta, use = comp.selected_counts_pass(sel, seeds)
        expl = ref.selected_explanations(sel, use)
        want = np.zeros((len(expl), comp.layout.n_slots), dtype=np.int64)
        for row, items in zip(want, expl.values()):
            for slot, m in items:
                row[slot] = m
        assert_same(comp.selected_multisets(sel, eta, use, list(expl)), want)

    index = body_index(comp)
    first = np.array([index[(g, 0)] for g in range(n)], dtype=np.int64)
    check(first, np.ones(n, dtype=np.int64))
    for _ in range(pairs):
        sel, prev = (
            np.array(
                [index[(g, int(rng.integers(n_local[g])))] for g in range(n)],
                dtype=np.int64,
            )
            for _ in range(2)
        )
        if rng.random() < 0.5:
            # a pass that moves only a few selections, as late VT passes do
            keep = rng.random(n) < 0.8
            prev = np.where(keep, sel, prev)
        check(sel, spread)
        check(prev, spread)


def _demo20_graphs():
    demo20 = load_grammar(DEMO20)
    sentences = gen_corpus(demo20, demo20.pcfg_parameter_table(), 200, seed=1).sentences()
    return [compile(demo20, sentences)[0] for compile in (compile_pcfg_corpus, compile_plcg_corpus)]


def _nbh_graph(rng):
    spec = NBHSpec(("pos", "neg", "mid"), 2, tuple((f"a{j}", ("x", "y", "z")) for j in range(4)))
    rows = [
        DataRow(
            str(rng.choice(spec.classes)),
            tuple(None if rng.random() < 0.3 else str(rng.choice(["x", "y", "z"])) for _ in range(4)),
        )
        for _ in range(150)
    ]
    assert any(None in row.values for row in rows)
    return compile_nbh_corpus(spec, rows)[0]


def _path_graphs():
    eg = six_node_demo_graph()
    queries = []
    for u in eg.nodes:
        for v in eg.nodes:
            if u == v:
                continue
            try:
                compile_path_graph(eg, u, v)
            except NoPath:
                continue
            queries.append((u, v))
    return [compile_path_queries(eg, queries)[0], compile_path_graph(eg, 1, 4)]


def test_one_walk_flatten_equals_reference_on_random_graphs():
    rng = np.random.default_rng(62)
    for make in (random_exclusive_graph, random_general_graph):
        for _ in range(60):
            graph, _ = make(rng)
            assert_flatten_equal(graph)
            assert_rows_equal(graph, rng, 4)


def test_one_walk_flatten_equals_reference_on_model_graphs():
    rng = np.random.default_rng(63)
    b = GraphBuilder()
    empty = b.build()
    for graph in _demo20_graphs() + [_nbh_graph(rng), empty] + _path_graphs():
        assert_flatten_equal(graph)
        assert_rows_equal(graph, rng, 20)


class KeepsFlat(CompiledGraph):
    """A ``CompiledGraph`` that also keeps the flat bodies it was built from."""

    def __init__(self, layout, labels, flat):
        super().__init__(layout, labels, flat)
        self.flat = flat


@pytest.fixture
def keep_flat(monkeypatch):
    """Graphs built while this fixture is active keep, as ``compiled().flat``,
    the flat bodies in their order of arrival that ``GraphBuilder.build``
    hands over."""
    monkeypatch.setattr(graph_module, "CompiledGraph", KeepsFlat)


class ReferenceFormulas(SequenceABC):
    """The former ``graph.formulas``: one ``DefiningFormula`` per goal, read
    off the flat bodies in their order of arrival (``keep_flat``), one
    instance object per (slot, multiplicity)."""

    def __init__(self, graph):
        self._flat = flat = graph.compiled().flat
        self._pairs = graph.slots().slot_pairs
        self._order = np.argsort(flat.heads, kind="stable")  # by goal, then arrival
        self._bounds = np.searchsorted(flat.heads[self._order], np.arange(graph.n_goals + 1))
        self._cstart = np.cumsum(flat.n_subgoals) - flat.n_subgoals
        self._sstart = np.cumsum(flat.n_instances) - flat.n_instances
        self._made = {}

    def __len__(self):
        return len(self._bounds) - 1

    def _instances(self, lo, hi):
        flat, out = self._flat, []
        for slot, mult in zip(flat.part_slot[lo:hi].tolist(), flat.part_mult[lo:hi].tolist()):
            inst = self._made.get((slot, mult))
            if inst is None:
                m = int(mult) if mult.is_integer() else mult
                inst = self._made[slot, mult] = SwitchInstance(*self._pairs[slot], m)
            out.append(inst)
        return tuple(out)

    def __getitem__(self, goal):
        flat = self._flat
        goal = range(len(self))[goal]
        b = self._order[self._bounds[goal] : self._bounds[goal + 1]]
        parts = (b, self._cstart[b], flat.n_subgoals[b], self._sstart[b], flat.n_instances[b])
        bodies = (
            Body(tuple(flat.subgoals[c : c + nc].tolist()), self._instances(s, s + ns), flat.tags[k])
            for k, c, nc, s, ns in zip(*(x.tolist() for x in parts))
        )
        return DefiningFormula(goal, tuple(bodies))


def formula_records(formulas):
    """Per goal its head and, per body, its subgoal ids, its switch
    instances with the type of their multiplicity, and its tag (which
    ``Body`` equality ignores)."""
    return [
        [(b.subgoals, [(i, type(i.mult)) for i in b.instances], b.tag) for b in f.bodies]
        for f in formulas
    ]


class FormulaWalkCompiled:
    """The former ``CompiledGraph.__init__``: one walk over ``formulas``, the
    defining formulas of goals labelled ``labels``, that checks each body in
    goal-id order (subgoal ids, then switch instances, each instance object
    resolved once by identity in ``layout``) while it appends the body's
    parts to flat lists, then the same level layout."""

    def __init__(self, layout, labels, formulas):
        self.layout = layout
        n = len(labels)
        memo = {}

        def slot_of(inst):
            hit = memo.get(id(inst))
            if hit is None:
                hit = memo[id(inst)] = (inst, self.layout.slot(inst.switch, inst.value))
            return hit[1]

        kids, goal_nbodies = [], []
        body_ccount, body_scount, tags = [], [], []
        spart_slot, spart_mult = [], []
        for f in formulas:
            goal_kids = []
            for body in f.bodies:
                for s in body.subgoals:
                    if not 0 <= s < n:
                        raise DanglingReference(
                            f"goal {labels[f.head]} references missing goal id {s}"
                        )
                goal_kids += body.subgoals
                body_ccount.append(len(body.subgoals))
                body_scount.append(len(body.instances))
                tags.append(body.tag)
                for inst in body.instances:
                    spart_slot.append(slot_of(inst))
                    spart_mult.append(inst.mult)
            goal_nbodies.append(len(f.bodies))
            kids.append(goal_kids)
        self.topo_order, level = _topo_levels(kids, labels)

        self.level = level = np.array(level, dtype=np.int64)
        goal_nbodies = np.array(goal_nbodies, dtype=np.int64)
        body_level = np.repeat(level, goal_nbodies)
        cpart_level = np.repeat(body_level, body_ccount)
        spart_level = np.repeat(body_level, body_scount)
        goals = np.argsort(level, kind="stable")
        bodies = np.argsort(body_level, kind="stable")
        cparts = np.argsort(cpart_level, kind="stable")
        sparts = np.argsort(spart_level, kind="stable")

        self.n_goals = n
        self.n_bodies = len(bodies)
        body_ids = np.arange(self.n_bodies, dtype=np.int64)
        self.body_head = np.repeat(goals, goal_nbodies[goals])
        self.body_local = bodies - (np.cumsum(goal_nbodies) - goal_nbodies)[self.body_head]
        self.body_ccount = np.array(body_ccount, dtype=np.int64)[bodies]
        self.body_cstart = np.cumsum(self.body_ccount) - self.body_ccount
        self.body_scount = np.array(body_scount, dtype=np.int64)[bodies]
        self.body_sstart = np.cumsum(self.body_scount) - self.body_scount
        self.cpart_body = np.repeat(body_ids, self.body_ccount)
        flat_kids = [c for goal_kids in kids for c in goal_kids]
        self.cpart_child = np.array(flat_kids, dtype=np.int64)[cparts]
        self.spart_body = np.repeat(body_ids, self.body_scount)
        self.spart_slot = np.array(spart_slot, dtype=np.int64)[sparts]
        self.spart_mult = np.array(spart_mult, dtype=np.float64)[sparts]
        self.tags = [tags[b] for b in bodies.tolist()]
        self.tagged = any(t is not None for t in tags)

        n_levels = int(level.max()) + 1 if n else 0
        gs, bs, cs, ss = (
            np.concatenate(([0], np.cumsum(np.bincount(x, minlength=n_levels)))).tolist()
            for x in (level, body_level, cpart_level, spart_level)
        )
        nb = goal_nbodies[goals]
        seg_starts = np.cumsum(nb) - nb
        self.levels = []
        for k in range(n_levels):
            starts = seg_starts[gs[k] : gs[k + 1]] - bs[k]
            seg_ids = np.repeat(
                np.arange(len(starts), dtype=np.int64),
                np.diff(np.concatenate((starts, [bs[k + 1] - bs[k]]))),
            )
            self.levels.append(
                _Level(
                    goals[gs[k] : gs[k + 1]],
                    starts,
                    seg_ids,
                    slice(bs[k], bs[k + 1]),
                    slice(cs[k], cs[k + 1]),
                    slice(ss[k], ss[k + 1]),
                )
            )


def assert_walk_equal(graph):
    """Every array of the compiled graph equals the formula walk's over the
    formulas of the flat bodies (``keep_flat``), with the same dtype, and
    so do its levels, tags and topological order."""
    comp = graph.compiled()
    ref = FormulaWalkCompiled(graph.slots(), graph.labels, ReferenceFormulas(graph))
    arrays = [k for k, v in vars(ref).items() if isinstance(v, np.ndarray)]
    assert len(arrays) == 12
    assert arrays == [k for k, v in vars(comp).items() if isinstance(v, np.ndarray)]
    for name in arrays:
        assert_same(getattr(comp, name), getattr(ref, name))
    assert len(comp.levels) == len(ref.levels)
    for lv, ref_lv in zip(comp.levels, ref.levels):
        for name in ("goals", "seg_starts", "seg_ids"):
            assert_same(getattr(lv, name), getattr(ref_lv, name))
        assert (lv.bodies, lv.cparts, lv.sparts) == (ref_lv.bodies, ref_lv.cparts, ref_lv.sparts)
    assert (comp.n_goals, comp.n_bodies) == (ref.n_goals, ref.n_bodies)
    assert comp.tags == ref.tags and comp.tagged == ref.tagged
    assert comp.topo_order == ref.topo_order == graph.topo_order


def test_flat_construction_equals_formula_walk_on_random_graphs(keep_flat):
    rng = np.random.default_rng(64)
    for make in (random_exclusive_graph, random_general_graph):
        for _ in range(60):
            graph, _ = make(rng)
            assert_walk_equal(graph)
            again = interleaved(graph, rng)
            assert again.formulas == graph.formulas
            assert_walk_equal(again)


def _nbh_fold_rows(rng, n):
    """Rows shaped like a cross-validation fold: 12 attributes over x, y
    and z with about one value in ten missing."""
    return [
        DataRow(
            str(rng.choice(["pos", "neg"])),
            tuple(
                None if rng.random() < 0.1 else str(rng.choice(["x", "y", "z"]))
                for _ in range(12)
            ),
        )
        for _ in range(n)
    ]


def test_flat_construction_equals_formula_walk_on_model_graphs(keep_flat):
    rng = np.random.default_rng(65)
    spec = NBHSpec(("pos", "neg"), 2, tuple((f"a{j}", ("x", "y", "z")) for j in range(1, 13)))
    rows = _nbh_fold_rows(rng, 600)
    nbh = [compile_nbh_corpus(spec, rows, observed)[0] for observed in (True, False)]
    graphs = _demo20_graphs() + nbh + _path_graphs() + [GraphBuilder().build()]
    assert graphs[0].compiled().tagged and not nbh[0].compiled().tagged
    for graph in graphs:
        assert_walk_equal(graph)
        assert_walk_equal(interleaved(graph, rng))


def assert_rebuilt_equal(graph):
    """``graph``, built from slot ids, rebuilt through ``add_body`` from its
    ``formulas`` (whose instances the builder resolves by value) compiles
    to the same arrays, dtypes, levels, tags and order, and reads back the
    same formulas."""
    again = rebuilder(graph).build()
    comp, ref = again.compiled(), graph.compiled()
    arrays = [k for k, v in vars(ref).items() if isinstance(v, np.ndarray)]
    assert arrays == [k for k, v in vars(comp).items() if isinstance(v, np.ndarray)]
    for name in arrays:
        assert_same(getattr(comp, name), getattr(ref, name))
    assert len(comp.levels) == len(ref.levels)
    for lv, ref_lv in zip(comp.levels, ref.levels):
        for name in ("goals", "seg_starts", "seg_ids"):
            assert_same(getattr(lv, name), getattr(ref_lv, name))
        assert (lv.bodies, lv.cparts, lv.sparts) == (ref_lv.bodies, ref_lv.cparts, ref_lv.sparts)
    assert comp.tags == ref.tags and comp.topo_order == ref.topo_order
    assert again.formulas == graph.formulas


def test_slot_built_graphs_equal_their_rebuild_from_formulas():
    demo20 = load_grammar(DEMO20)
    sentences = gen_corpus(demo20, demo20.pcfg_parameter_table(), 200, seed=1).sentences()
    one = [compile(demo20, s) for s in sentences[:20] for compile in (compile_pcfg, compile_plcg)]
    spec = NBHSpec(("pos", "neg"), 2, tuple((f"a{j}", ("x", "y", "z")) for j in range(1, 13)))
    rows = _nbh_fold_rows(np.random.default_rng(66), 300)
    nbh = [compile_nbh_corpus(spec, rows, observed)[0] for observed in (True, False)]
    for graph in _demo20_graphs() + one + nbh:
        assert_rebuilt_equal(graph)


def test_formulas_equal_the_flat_bodies_reference(keep_flat):
    # each graph as built, and rebuilt with its bodies arriving interleaved across goals
    rng = np.random.default_rng(67)
    demo20 = load_grammar(DEMO20)
    sentences = gen_corpus(demo20, demo20.pcfg_parameter_table(), 200, seed=1).sentences()
    one = [compile(demo20, s) for s in sentences[:20] for compile in (compile_pcfg, compile_plcg)]
    spec = NBHSpec(("pos", "neg"), 2, tuple((f"a{j}", ("x", "y", "z")) for j in range(1, 13)))
    rows = _nbh_fold_rows(rng, 300)
    nbh = [compile_nbh_corpus(spec, rows, observed)[0] for observed in (True, False)]
    makers = (random_exclusive_graph, random_general_graph)
    generated = [make(rng)[0] for make in makers for _ in range(20)]
    graphs = _demo20_graphs() + one + nbh + _path_graphs() + generated
    assert any(b.tag is not None for f in graphs[0].formulas for b in f.bodies)
    assert any(i.mult > 1 for f in generated[20].formulas for b in f.bodies for i in b.instances)
    for graph in graphs:
        for built in (graph, interleaved(graph, rng)):
            assert formula_records(built.formulas) == formula_records(ReferenceFormulas(built))


H, T = SwitchInstance("c", "h"), SwitchInstance("c", "t")
ZZZ, YYY = SwitchInstance("c", "zzz"), SwitchInstance("c", "yyy")


def _raised(build):
    with pytest.raises(Exception) as info:
        build()
    return info.value


def _assert_same_error(n_goals, bodies):
    """``bodies``, (head, subgoals, instances) in order of arrival, built
    by the builder must raise what the former build raised:
    ``DefiningFormula`` per goal, then the formula walk."""
    labels = [f"g{k}" for k in range(n_goals)]
    layout = SlotLayout({"c": SwitchDecl("c", ("h", "t"))})

    def build():
        b = GraphBuilder()
        b.declare_switch("c", ("h", "t"))
        for label in labels:
            b.goal(label)
        for head, subgoals, instances in bodies:
            b.add_body(head, subgoals, instances)
        b.add_root(0)
        return b.build()

    def formulas():
        return [
            DefiningFormula(g, tuple(Body(tuple(s), tuple(i)) for h, s, i in bodies if h == g))
            for g in range(n_goals)
        ]

    want = _raised(lambda: FormulaWalkCompiled(layout, labels, formulas()))
    got = _raised(build)
    assert (type(got), str(got)) == (type(want), str(want))
    if isinstance(want, CyclicGraph):
        assert got.cycle == want.cycle
    return want


def test_validation_raises_what_the_formula_walk_raised():
    ok = [(0, [1], [H]), (1, [2], [T]), (2, [], [H, T])]
    cases = [
        (DanglingReference, ok + [(1, [7], [H])]),
        (DanglingReference, [(2, [-1], [H])] + ok),
        (UndeclaredValue, ok + [(1, [], [ZZZ])]),
        (MissingParameter, ok + [(2, [], [SwitchInstance("d", "h")])]),
        (ExplGraphError, ok[:1] + ok[2:]),  # goal 1 has no bodies
        (ExplGraphError, [(0, [9], [ZZZ]), (2, [], [H])]),  # ... before any body check
        (CyclicGraph, ok + [(2, [0], [])]),
        (CyclicGraph, [(2, [1], []), (1, [2], [H]), (0, [0], [T])]),
        # a dangling id and a bad instance, in goal-id order and in arrival order
        (DanglingReference, ok + [(0, [5], [H]), (1, [], [ZZZ])]),
        (DanglingReference, ok + [(1, [], [ZZZ]), (0, [5], [H])]),
        (UndeclaredValue, ok + [(0, [], [ZZZ]), (1, [5], [H])]),
        (UndeclaredValue, ok + [(1, [5], [H]), (0, [], [ZZZ])]),
        # in one body the subgoals come first; in one goal, the earlier body
        (DanglingReference, ok + [(1, [5], [ZZZ])]),
        (UndeclaredValue, ok + [(1, [], [YYY]), (1, [5], [H])]),
        (UndeclaredValue, ok + [(2, [], [ZZZ]), (1, [], [H, YYY])]),
    ]
    for want, bodies in cases:
        assert type(_assert_same_error(3, bodies)) is want


def test_dangling_reference_precedes_a_later_undeclared_value():
    b = GraphBuilder()
    b.declare_switch("c", ("h",))
    g0, g1 = b.goal("g0"), b.goal("g1")
    b.add_body(g0, [7], [SwitchInstance("c", "h")])
    b.add_body(g1, [], [SwitchInstance("c", "zzz")])
    with pytest.raises(DanglingReference, match="g0"):
        b.build()


def _doubling_chain_builder(depth):
    """A chain of ``depth`` goals in which each goal's one body uses its
    child twice: goal k explains as 2**k instances of c=h and 2**k - 1 of
    c=t, so the bottom goal occurs 2**(depth - 1) times."""
    b = GraphBuilder()
    b.declare_switch("c", ("h", "t"))
    goals = [b.goal("g0")]
    b.add_body(goals[0], [], [SwitchInstance("c", "h")])
    for k in range(1, depth):
        goals.append(b.goal(f"g{k}"))
        b.add_body(goals[k], [goals[k - 1], goals[k - 1]], [SwitchInstance("c", "t")])
    b.add_root(goals[-1])
    return b, goals


def _doubling_chain(depth):
    b, goals = _doubling_chain_builder(depth)
    return b.build(), goals[-1]


def test_every_goal_of_a_doubling_chain_is_used():
    # the bottom goals occur 2**63 times or more; their use counts must
    # stay positive instead of wrapping when cast to int64
    graph, top = _doubling_chain(70)
    theta = ParameterTable.uniform(graph)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = viterbi(graph, top, theta)
        comp = graph.compiled()
        _, sel = comp.viterbi_pass(log_theta_vector(graph, theta))
        seeds = np.zeros(graph.n_goals, dtype=np.int64)
        seeds[top] = 1
        _, use = comp.selected_counts_pass(sel, seeds)
    assert len(result.choice_trace) == 70
    assert use.dtype == np.int64 and np.all(use > 0)
    assert result.explanation.count("c", "h") == 2**69


def test_viterbi_counts_a_tripling_chain_exactly():
    # goal k's one body uses goal k - 1 three times, and only the bottom
    # goal draws c=h, so the top explains as 3**34 instances of c=h: an odd
    # count above 2**53, which a float count would round to 3**34 - 1
    b = GraphBuilder()
    b.declare_switch("c", ("h", "t"))
    goals = [b.goal("g0")]
    b.add_body(goals[0], [], [SwitchInstance("c", "h")])
    for k in range(1, 35):
        goals.append(b.goal(f"g{k}"))
        b.add_body(goals[k], [goals[k - 1]] * 3)
    graph = b.build()
    result = viterbi(graph, goals[-1], ParameterTable.uniform(graph))
    assert result.explanation.items() == ((("c", "h"), 3**34),)
    assert len(result.choice_trace) == 35


def test_viterbi_counts_a_long_doubling_chain_exactly():
    # 2**1100 instances of a probability-1 switch: beyond any float, so a
    # count that passes through one overflows instead of reading the count
    b = GraphBuilder()
    b.declare_switch("c", ("h",))
    goals = [b.goal("g0")]
    b.add_body(goals[0], [], [SwitchInstance("c", "h")])
    for k in range(1, 1101):
        goals.append(b.goal(f"g{k}"))
        b.add_body(goals[k], [goals[k - 1], goals[k - 1]])
    graph = b.build()
    result = viterbi(graph, goals[-1], ParameterTable.uniform(graph))
    assert result.log_prob == 0.0
    assert result.explanation.items() == ((("c", "h"), 2**1100),)
    assert len(result.choice_trace) == 1101


def test_rows_stay_exact_beyond_int64():
    # g64 and g69 explain as 2**64 or 2**69 instances of c=h and one fewer
    # of c=t: the two multisets agree modulo 2**64, so rows that wrapped
    # would call a root choosing between them a fixed point
    b, goals = _doubling_chain_builder(70)
    r = b.goal("r")
    b.add_body(r, [goals[64]])
    b.add_body(r, [goals[69]])
    graph = b.build()
    comp = graph.compiled()
    h, t = (comp.layout.slot("c", v) for v in ("h", "t"))
    seeds = np.bincount([r], minlength=graph.n_goals)
    index = body_index(comp)
    rows = []
    for local, k in ((0, 64), (1, 69)):
        sel = np.array([index[(g, 0)] for g in range(graph.n_goals)], dtype=np.int64)
        sel[r] = index[(r, local)]
        (row,) = comp.selected_multisets(sel, *comp.selected_counts_pass(sel, seeds), [r])
        assert (row[h], row[t]) == (2**k, 2**k - 1)
        rows.append(row)
    assert not np.array_equal(rows[0], rows[1])

    graph, top = _doubling_chain(70)
    report = vt_learn(graph, [top], LearnConfig(method="vt", delta=1.0))
    assert report.per_goal_viterbi[0].count("c", "h") == 2**69
    assert report.per_goal_viterbi[0].count("c", "t") == 2**69 - 1

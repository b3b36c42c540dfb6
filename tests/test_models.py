import itertools
import sys
import warnings

import numpy as np
import pytest

from explgraph import models
from explgraph.errors import AllZero, ExplGraphError, FileFormatError, InvalidRow, NoPath
from explgraph.graph import (
    Body,
    DefiningFormula,
    GraphBuilder,
    SwitchInstance,
    check_exclusiveness,
    enumerate_explanations,
    explanation_prob,
)
from explgraph.harness import ExperimentConfig, cv_run
from explgraph.inference import goal_prob, inside_prob, viterbi
from explgraph.io import load_nbh_spec
from explgraph.learning import LearnConfig, learn
from explgraph.models import (
    DataRow,
    EdgeGraph,
    NBHSpec,
    compile_nbh,
    compile_nbh_corpus,
    compile_path_graph,
    compile_path_queries,
    nbh_classify,
    nbh_classify_rows,
    six_node_demo_graph,
)
from explgraph.tables import ParameterTable
from explgraph.terms import Term, render_term


def small_spec(n_hidden=2):
    return NBHSpec(
        ("c1", "c2"),
        n_hidden,
        (("a1", ("y", "n")), ("a2", ("y", "n"))),
    )


def random_nbh_theta(rng, graph):
    data = {}
    for key, decl in graph.switches.items():
        w = rng.uniform(0.1, 1.0, len(decl.values))
        data[key] = w / w.sum()
    return ParameterTable(graph.switches, data)


# -- NBH --------------------------------------------------------------------


def test_nbh_explanion_counts():
    spec = small_spec(2)
    g = compile_nbh(spec, DataRow("c1", ("y", "n")), observed_class=True)
    assert len(enumerate_explanations(g, g.roots[0])) == 2
    g = compile_nbh(spec, DataRow("c1", (None, "n")), observed_class=True)
    assert len(enumerate_explanations(g, g.roots[0])) == 4
    g = compile_nbh(spec, DataRow(None, (None, "n")), observed_class=False)
    assert len(enumerate_explanations(g, g.roots[0])) == 8
    spec0 = NBHSpec(("c1", "c2"), 3, ())
    g = compile_nbh(spec0, DataRow("c1", ()), observed_class=True)
    assert len(enumerate_explanations(g, g.roots[0])) == 3


def test_nbh_explanations_are_exclusive():
    spec = small_spec(2)
    g = compile_nbh(spec, DataRow("c1", (None, "n")), observed_class=True)
    assert check_exclusiveness(enumerate_explanations(g, g.roots[0])) == "exclusive"


def test_nbh_invalid_rows():
    spec = small_spec()
    with pytest.raises(InvalidRow):
        compile_nbh(spec, DataRow("zzz", ("y", "n")))
    with pytest.raises(InvalidRow):
        compile_nbh(spec, DataRow("c1", ("y",)))
    with pytest.raises(InvalidRow):
        compile_nbh(spec, DataRow("c1", ("y", "q")))
    with pytest.raises(InvalidRow):
        compile_nbh(spec, DataRow(None, ("y", "n")), observed_class=True)
    theta = ParameterTable.uniform(compile_nbh(spec, DataRow("c1", ("y", "n"))))
    with pytest.raises(InvalidRow):
        nbh_classify(spec, theta, DataRow(None, ("y", 3)))


def _reference_check_row(spec, row, need_class):
    """``NBHSpec.check_row`` as written before its class tests were merged."""
    if need_class and (row.cls is None or row.cls not in spec.classes):
        raise InvalidRow(f"row class {row.cls!r} not in {spec.classes}")
    if row.cls is not None and row.cls not in spec.classes:
        raise InvalidRow(f"row class {row.cls!r} not in {spec.classes}")
    if len(row.values) != len(spec.attributes):
        raise InvalidRow(
            f"row has {len(row.values)} attributes, expected {len(spec.attributes)}"
        )
    for v, (name, domain) in zip(row.values, spec.attributes):
        if v is not None and v not in domain:
            raise InvalidRow(f"value {v!r} not in domain of attribute {name}")


def test_check_row_rejects_exactly_the_former_inputs():
    # missing class when required, unknown class with and without
    # need_class, and bad attribute lists, in every combination
    spec = small_spec()
    for cls in (None, "c1", "c2", "zzz", ""):
        for values in (("y", "n"), (None, "n"), ("y",), ("y", "q"), ()):
            for need_class in (False, True):
                row = DataRow(cls, values)
                outcomes = []
                for check in (lambda: spec.check_row(row, need_class),
                              lambda: _reference_check_row(spec, row, need_class)):
                    try:
                        check()
                        outcomes.append(None)
                    except InvalidRow as e:
                        outcomes.append(str(e))
                assert outcomes[0] == outcomes[1], (cls, values, need_class)


def test_nbh_mixture_identity_against_assignment_oracle():
    # per-class inside value equals the exhaustive sum over hidden cluster
    # and missing-attribute assignments of the factor products
    rng = np.random.default_rng(40)
    spec = small_spec(3)
    g0 = compile_nbh(spec, DataRow("c1", ("y", "n")))
    for _ in range(20):
        theta = random_nbh_theta(rng, g0)
        for row in (DataRow("c1", ("y", "n")), DataRow("c2", (None, "y")), DataRow("c1", (None, None))):
            g = compile_nbh(spec, row)
            got = goal_prob(g, g.roots[0], theta)
            want = 0.0
            missing = [j for j, v in enumerate(row.values) if v is None]
            domains = [spec.attributes[j][1] for j in missing]
            for h in spec.hidden_values:
                for fill in itertools.product(*domains):
                    vals = list(row.values)
                    for j, v in zip(missing, fill):
                        vals[j] = v
                    p = theta.get("class", row.cls) * theta.get(
                        spec.hclass_switch(row.cls), h
                    )
                    for j, v in enumerate(vals, start=1):
                        p *= theta.get(spec.attr_switch(j, row.cls, h), v)
                    want += p
            assert got == pytest.approx(want, abs=1e-12)


def test_nbh_classify_matches_oracle_posterior():
    rng = np.random.default_rng(41)
    spec = small_spec(2)
    g0 = compile_nbh(spec, DataRow("c1", ("y", "n")))
    for _ in range(20):
        theta = random_nbh_theta(rng, g0)
        row = DataRow(None, (rng.choice(["y", "n"]), None))
        cls, post = nbh_classify(spec, theta, row)
        joint = []
        for c in spec.classes:
            g = compile_nbh(spec, DataRow(c, row.values))
            joint.append(goal_prob(g, g.roots[0], theta))
        want = np.array(joint) / sum(joint)
        assert np.allclose(post, want, atol=1e-12)
        assert cls == spec.classes[int(np.argmax(want))]
        assert post.sum() == pytest.approx(1.0, abs=1e-9)


def test_nbh_classify_tie_breaks_to_first_class():
    spec = small_spec(2)
    g = compile_nbh(spec, DataRow("c1", ("y", "n")))
    theta = ParameterTable.uniform(g)
    cls, post = nbh_classify(spec, theta, DataRow(None, ("y", "n")))
    assert cls == "c1"
    assert post == pytest.approx([0.5, 0.5], abs=1e-12)


def test_nbh_single_hidden_is_plain_naive_bayes():
    rng = np.random.default_rng(42)
    spec = small_spec(1)
    g0 = compile_nbh(spec, DataRow("c1", ("y", "n")))
    for _ in range(20):
        theta = random_nbh_theta(rng, g0)
        row = DataRow(None, ("y", "n"))
        cls, post = nbh_classify(spec, theta, row)
        # direct naive-Bayes computation ignoring the hidden draw (which
        # contributes a factor of exactly 1 when n_hidden = 1)
        joint = []
        for c in spec.classes:
            p = theta.get("class", c)
            for j, v in enumerate(row.values, start=1):
                p *= theta.get(spec.attr_switch(j, c, 1), v)
            joint.append(p)
        want = np.array(joint) / sum(joint)
        assert np.allclose(post, want, atol=1e-12)


def test_nbh_corpus_shares_identical_rows():
    spec = small_spec(2)
    rows = [DataRow("c1", ("y", "n")), DataRow("c2", ("n", "n")), DataRow("c1", ("y", "n"))]
    graph, goals = compile_nbh_corpus(spec, rows)
    assert goals[0] == goals[2] != goals[1]


# -- NBH batch classification against the former per-row compiler -------------


def _row_label(row: DataRow, observed_class: bool) -> str:
    """The label the former compiler gave a row's goal."""
    cls = row.cls if observed_class else "?"
    vals = ",".join(["?" if v is None else v for v in row.values])
    return f"nbh({cls}|{vals})"


def _reference_compile_nbh_into(
    builder: GraphBuilder, spec: NBHSpec, row: DataRow, observed_class: bool
):
    """``models._compile_nbh_into`` as written before it cached instances
    and ``any`` goals per compile call; the one change is that it asks
    whether the builder's flat body heads name the goal where it called
    the since-deleted ``GraphBuilder.has_bodies``."""
    root = builder.goal(_row_label(row, observed_class))
    classes = (row.cls,) if observed_class else spec.classes
    for c in classes:
        for h in spec.hidden_values:
            instances = [
                SwitchInstance(spec.class_switch(), c),
                SwitchInstance(spec.hclass_switch(c), h),
            ]
            subgoals = []
            for j, (name, domain) in enumerate(spec.attributes, start=1):
                v = row.values[j - 1]
                if v is None:
                    any_goal = builder.goal(f"any({j},{c},{h})")
                    if any_goal not in builder._heads:
                        for dv in domain:
                            builder.add_body(
                                any_goal, [], [SwitchInstance(spec.attr_switch(j, c, h), dv)]
                            )
                    subgoals.append(any_goal)
                else:
                    instances.append(SwitchInstance(spec.attr_switch(j, c, h), v))
            builder.add_body(root, subgoals, instances)
    return root


def _reference_compile_nbh_corpus(spec, rows, observed_class=True):
    builder = GraphBuilder()
    builder.declare_switches(spec._decls)
    goals, seen = [], {}
    for row in rows:
        spec.check_row(row, need_class=observed_class)
        label = _row_label(row, observed_class)
        gid = seen.get(label)
        if gid is None:
            gid = _reference_compile_nbh_into(builder, spec, row, observed_class)
            builder.add_root(gid)
            seen[label] = gid
        goals.append(gid)
    return builder.build(), goals


def test_nbh_learning_and_classification_build_no_formula_objects(monkeypatch):
    # the flat bodies, switch parts as slot ids, carry the NBH path from
    # rows to posteriors; only the lazy ``formulas`` view builds Body,
    # DefiningFormula and SwitchInstance objects
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built")

    for cls in (Body, DefiningFormula, SwitchInstance):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    rng = np.random.default_rng(91)
    spec = _wide_spec(2)
    rows = _random_rows(rng, spec, 60, 0.3)
    graph, goals = compile_nbh_corpus(spec, rows)
    report = learn(graph, goals, LearnConfig(method="map", delta=1.0))
    assert len(nbh_classify_rows(spec, report.final_theta, rows)) == len(rows)
    config = ExperimentConfig(
        task="nbh",
        method="map",
        folds=3,
        learn=LearnConfig(method="map", delta=1.0),
        nbh_spec=spec,
        nbh_rows=rows,
    )
    assert len(cv_run(config).folds) == 3
    with pytest.raises(AssertionError, match="SwitchInstance built"):
        graph.formulas[0]


def _reference_classify(spec, theta, row):
    """The former ``nbh_classify``: one two-root graph per row."""
    graph, roots = _reference_compile_nbh_corpus(
        spec, [DataRow(c, row.values) for c in spec.classes]
    )
    table = inside_prob(graph, theta)
    logs = np.array([table.log[r] for r in roots])
    if np.all(np.isneginf(logs)):
        raise AllZero("all class scores are zero for this row")
    shift = logs - logs.max()
    post = np.exp(shift)
    post /= post.sum()
    return spec.classes[int(np.argmax(post))], post


def _wide_spec(n_hidden):
    attrs = tuple((f"a{j}", ("x", "y", "z")) for j in range(4))
    return NBHSpec(("pos", "neg", "mid"), n_hidden, attrs)


def _random_rows(rng, spec, n, missing):
    """Rows with random classes and values, some values missing, and
    about one row in four a copy of an earlier one."""
    rows = []
    for _ in range(n):
        if rows and rng.random() < 0.25:
            rows.append(rows[int(rng.integers(len(rows)))])
            continue
        values = tuple(
            None if rng.random() < missing else str(rng.choice(domain))
            for _, domain in spec.attributes
        )
        rows.append(DataRow(str(rng.choice(spec.classes)), values))
    return rows


def _assert_former_graph(spec, rows, observed_class):
    """The compiler gives the reference's goal ids, labels, formulas and
    ``CompiledGraph`` arrays."""
    graph, goals = compile_nbh_corpus(spec, rows, observed_class)
    ref, ref_goals = _reference_compile_nbh_corpus(spec, rows, observed_class)
    assert goals == ref_goals
    assert graph.labels == ref.labels
    assert graph.formulas == ref.formulas
    assert graph.roots == ref.roots
    assert graph.switches == ref.switches
    comp, ref_comp = graph.compiled(), ref.compiled()
    arrays = [k for k, v in vars(ref_comp).items() if isinstance(v, np.ndarray)]
    assert "spart_slot" in arrays
    for name in arrays:
        assert np.array_equal(getattr(comp, name), getattr(ref_comp, name)), name
    for lv, ref_lv in zip(comp.levels, ref_comp.levels, strict=True):
        assert np.array_equal(lv.goals, ref_lv.goals)
        for part in ("bodies", "cparts", "sparts"):
            assert getattr(lv, part) == getattr(ref_lv, part)


def _uneven_spec(n_hidden):
    """Domains of one to four values, so the slot arrays are padded."""
    attrs = (("a1", ("x",)), ("a2", ("p", "q", "r", "s")), ("a3", ("u", "v")))
    return NBHSpec(("c1", "c2", "c3"), n_hidden, attrs)


@pytest.mark.parametrize("n_hidden", [1, 2, 3])
@pytest.mark.parametrize("observed_class", [True, False])
@pytest.mark.parametrize("missing", [0.0, 0.3, 1.0])
def test_cached_compiler_builds_the_former_graph(n_hidden, observed_class, missing):
    rng = np.random.default_rng(71 + n_hidden)
    specs = (small_spec(n_hidden), _wide_spec(n_hidden), _uneven_spec(n_hidden))
    for spec in specs:
        rows = _random_rows(rng, spec, 60, missing)
        assert (missing > 0) == any(None in row.values for row in rows)
        assert (missing == 1) == all(set(row.values) == {None} for row in rows)
        _assert_former_graph(spec, rows, observed_class)
        single = compile_nbh(spec, rows[0], observed_class)
        ref_single, _ = _reference_compile_nbh_corpus(spec, rows[:1], observed_class)
        assert single.labels == ref_single.labels and single.formulas == ref_single.formulas


@pytest.mark.parametrize("observed_class", [True, False])
def test_compiler_without_attributes_builds_the_former_graph(observed_class):
    spec = NBHSpec(("c1", "c2"), 2, ())
    rows = [DataRow("c2", ()), DataRow("c1", ()), DataRow("c2", ())]
    if not observed_class:
        rows.append(DataRow(None, ()))
    _assert_former_graph(spec, rows, observed_class)
    _assert_former_graph(spec, [], observed_class)


def test_unobserved_class_merges_rows_that_differ_only_in_class():
    rng = np.random.default_rng(77)
    for spec in (small_spec(2), _wide_spec(3), _uneven_spec(1)):
        rows = _random_rows(rng, spec, 40, 0.3)
        # each row again under every class and under none, interleaved
        rows += [DataRow(c, row.values) for row in rows[::3] for c in (None,) + spec.classes]
        _assert_former_graph(spec, rows, observed_class=False)
        graph, goals = compile_nbh_corpus(spec, rows, observed_class=False)
        assert len(graph.roots) == len({row.values for row in rows})


def test_missing_marker_is_refused_as_class_or_value():
    # a value '?' would share its row label, and so its goal, with a missing value
    with pytest.raises(ExplGraphError, match="missing-value marker"):
        NBHSpec(("c",), 1, (("a1", ("?", "x")),))
    with pytest.raises(ExplGraphError, match="missing-value marker"):
        NBHSpec(("c", "?"), 1, (("a1", ("x",)),))
    for text in ("class c\nattr a1 ? x\n", "class c ?\nattr a1 x\n"):
        with pytest.raises(FileFormatError, match="missing-value marker"):
            load_nbh_spec(text)


def _first_error(call):
    try:
        call()
    except InvalidRow as e:
        return str(e)
    return None


@pytest.mark.parametrize("observed_class", [True, False])
def test_first_bad_row_in_corpus_order_names_the_former_error(observed_class):
    spec = small_spec(2)
    good = [DataRow("c1", ("y", "n")), DataRow("c2", (None, "n")), DataRow(None, ("y", None))]
    bad = [
        DataRow("zzz", ("y", "n")),  # bad class
        DataRow("c1", ("y",)),  # bad length
        DataRow("c2", ("y", "q")),  # bad value
        DataRow("c1", ("y", ["n"])),  # unhashable value
    ]
    rng = np.random.default_rng(79)
    for _ in range(40):
        rows = [good[int(i)] for i in rng.integers(len(good), size=6)]
        for i in sorted(rng.choice(len(rows) + 1, size=2, replace=False), reverse=True):
            rows.insert(int(i), bad[int(rng.integers(len(bad)))])
        want = _first_error(lambda: _reference_compile_nbh_corpus(spec, rows, observed_class))
        assert want is not None
        assert _first_error(lambda: compile_nbh_corpus(spec, rows, observed_class)) == want


def test_batch_errors_equal_the_former_per_row_calls():
    spec = small_spec(2)
    g = compile_nbh(spec, DataRow("c1", ("y", "n")))
    theta = ParameterTable.uniform(g)
    # row classes are ignored; the first bad row of the batch is named
    rows = [DataRow("zzz", ("y", None)), DataRow(None, ("y", "q")), DataRow("c1", ("y",))]
    for k in range(len(rows)):
        batch = rows[k:] + rows[:k]

        def former():
            for row in batch:
                _reference_classify(spec, theta, row)

        assert _first_error(lambda: nbh_classify_rows(spec, theta, batch)) == _first_error(former)
        assert _first_error(former) is not None
    # a1 = y never occurs: the first row with a1 = y present is named
    data = {k: np.full(len(d.values), 1.0 / len(d.values)) for k, d in g.switches.items()}
    for c in spec.classes:
        for h in spec.hidden_values:
            data[str(spec.attr_switch(1, c, h))] = np.array([0.0, 1.0])
    theta = ParameterTable(g.switches, data)
    rows = [DataRow(None, v) for v in (("n", None), (None, None), ("n", "y"), ("y", "n"))]
    for k in range(len(rows)):
        batch = rows[k:] + rows[:k]
        want = next(i for i, row in enumerate(batch) if row.values[0] == "y")
        with pytest.raises(AllZero, match=rf"^all class scores are zero for row {want}$"):
            nbh_classify_rows(spec, theta, batch)
        for call in (nbh_classify, _reference_classify):
            with pytest.raises(AllZero, match=r"^all class scores are zero for this row$"):
                call(spec, theta, batch[want])


@pytest.mark.parametrize("n_hidden", [1, 2])
def test_batch_classification_equals_the_per_row_call_bitwise(n_hidden):
    rng = np.random.default_rng(83 + n_hidden)
    for spec in (small_spec(n_hidden), _wide_spec(n_hidden)):
        any_row = DataRow(spec.classes[0], (None,) * len(spec.attributes))
        theta = random_nbh_theta(rng, compile_nbh(spec, any_row))
        rows = _random_rows(rng, spec, 80, 0.3)
        batch = nbh_classify_rows(spec, theta, rows)
        assert len(batch) == len(rows)
        for row, (cls, post) in zip(rows, batch):
            for want_cls, want_post in (
                nbh_classify(spec, theta, row),
                _reference_classify(spec, theta, row),
            ):
                assert cls == want_cls
                assert post.dtype == want_post.dtype and post.tobytes() == want_post.tobytes()


def test_empty_batch_builds_no_graph(monkeypatch):
    spec = small_spec(2)
    theta = ParameterTable.uniform(compile_nbh(spec, DataRow("c1", ("y", "n"))))

    def no_graph(*args, **kwargs):
        raise AssertionError("an empty batch compiled a graph")

    monkeypatch.setattr(models, "compile_nbh_corpus", no_graph)
    assert nbh_classify_rows(spec, theta, []) == []


def test_batch_all_zero_row_is_named_by_its_index():
    spec = small_spec(2)
    g = compile_nbh(spec, DataRow("c1", ("y", "n")))
    data = {k: np.full(len(d.values), 1.0 / len(d.values)) for k, d in g.switches.items()}
    for c in spec.classes:
        for h in spec.hidden_values:
            data[str(spec.attr_switch(1, c, h))] = np.array([0.0, 1.0])  # a1 = y never occurs
    theta = ParameterTable(g.switches, data)
    rows = [DataRow(None, ("n", "y")), DataRow(None, (None, "n")), DataRow(None, ("y", "n")),
            DataRow(None, ("y", None))]
    with pytest.raises(AllZero, match=r"all class scores are zero for row 2$"):
        nbh_classify_rows(spec, theta, rows)
    assert [c for c, _ in nbh_classify_rows(spec, theta, rows[:2])] == ["c1", "c1"]
    with pytest.raises(AllZero, match=r"^all class scores are zero for this row$"):
        nbh_classify(spec, theta, rows[2])
    with pytest.raises(AllZero, match=r"^all class scores are zero for this row$"):
        _reference_classify(spec, theta, rows[2])


def test_batch_invalid_row_raises_the_per_row_error():
    spec = small_spec(2)
    theta = ParameterTable.uniform(compile_nbh(spec, DataRow("c1", ("y", "n"))))
    good = DataRow(None, ("y", "n"))
    for bad in (DataRow(None, ("y", 3)), DataRow(None, ("y",)), DataRow("c1", ("q", "n"))):
        with pytest.raises(InvalidRow) as single:
            nbh_classify(spec, theta, bad)
        with pytest.raises(InvalidRow) as batch:
            nbh_classify_rows(spec, theta, [good, bad, good])
        assert str(batch.value) == str(single.value)
    # the class of a row to classify is ignored, as before
    assert nbh_classify_rows(spec, theta, [DataRow("zzz", ("y", "n"))])[0][0] == "c1"


# -- path graphs --------------------------------------------------------------


def test_six_node_graph_has_eight_simple_paths():
    eg = six_node_demo_graph()
    g = compile_path_graph(eg, 1, 4)
    expls = enumerate_explanations(g, g.roots[0])
    assert len(expls) == 8
    # cross-check against an exhaustive simple-path search on the
    # undirected adjacency structure
    adj = {}
    prob = {}
    for u, v, p in eg.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
        prob[frozenset((u, v))] = p

    paths = []

    def walk(u, seen, acc):
        if u == 4:
            paths.append(tuple(acc))
            return
        for z in sorted(adj[u]):
            if z not in seen:
                walk(z, seen | {z}, acc + [(u, z)])

    walk(1, {1}, [])
    assert len(paths) == 8
    edge_sets = {frozenset(frozenset(e) for e in p) for p in paths}
    expl_sets = {
        frozenset(frozenset(s.args) for (s, v), m in e.items()) for e in expls
    }
    assert edge_sets == expl_sets


def test_path_explanations_are_simple_paths():
    eg = six_node_demo_graph()
    g = compile_path_graph(eg, 2, 5)
    for e in enumerate_explanations(g, g.roots[0]):
        nodes = []
        for (s, v), m in e.items():
            assert render_term(v) == "on"
            assert m == 1
            nodes.extend(s.args)
        # a simple path visits each interior node at most twice across its
        # two incident edges and each endpoint once
        counts = {n: nodes.count(n) for n in set(nodes)}
        assert counts[2] == 1 and counts[5] == 1
        assert all(c == 2 for n, c in counts.items() if n not in (2, 5))


def test_path_graph_viterbi_best_route():
    eg = six_node_demo_graph()
    theta = eg.parameter_table()
    g = compile_path_graph(eg, 1, 4)
    res = viterbi(g, g.roots[0], theta)
    assert res.prob == pytest.approx(0.432, rel=1e-9)
    assert res.explanation.render() == "{d_e(1,2)=on, d_e(2,3)=on, d_e(3,4)=on}"


def test_path_same_node_query():
    eg = six_node_demo_graph()
    g = compile_path_graph(eg, 3, 3)
    (e,) = enumerate_explanations(g, g.roots[0])
    assert len(e) == 0
    assert goal_prob(g, g.roots[0], eg.parameter_table()) == pytest.approx(1.0)


def test_path_no_path():
    eg = EdgeGraph([(1, 2, 0.5), (3, 4, 0.5)])
    with pytest.raises(NoPath):
        compile_path_graph(eg, 1, 4)


def test_path_unknown_node():
    eg = EdgeGraph([(1, 2, 0.5)])
    with pytest.raises(ExplGraphError):
        compile_path_graph(eg, 1, 9)


def test_edge_graph_validation():
    with pytest.raises(ExplGraphError):
        EdgeGraph([(1, 1, 0.5)])
    with pytest.raises(ExplGraphError):
        EdgeGraph([(1, 2, 1.5)])
    with pytest.raises(ExplGraphError):
        EdgeGraph([(1, 2, 0.5), (1, 2, 0.7)])


def test_path_overlap_is_diagnosed_and_inside_is_a_score():
    eg = six_node_demo_graph()
    graph, goals = compile_path_queries(eg, [(1, 4)])
    expls = enumerate_explanations(graph, goals[0])
    assert check_exclusiveness(expls) == "overlapping"
    theta = eg.parameter_table()
    total = sum(explanation_prob(e, theta) for e in expls)
    # the naive sum over overlapping explanations exceeds the true
    # reachability probability; the DP reproduces exactly that sum
    assert goal_prob(graph, goals[0], theta) == pytest.approx(total, rel=1e-9)
    graph.exclusiveness = "overlapping"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        from explgraph.inference import inside_prob

        table = inside_prob(graph, theta)
    assert table.note is not None
    assert caught


def test_shared_states_across_queries_have_single_bodies():
    eg = six_node_demo_graph()
    graph, goals = compile_path_queries(eg, [(1, 4), (2, 4), (1, 3), (2, 5), (3, 6)])
    # target states are shared between queries that can reach the same
    # (node, target, visited) triple; each still has exactly one body list
    for f in graph.formulas:
        seen = set()
        for body in f.bodies:
            key = (body.subgoals, body.instances)
            assert key not in seen
            seen.add(key)


def _reference_compile_path_into(builder, graph, frm, target, memo):
    """The former ``_compile_path_into``, one Python frame per path step,
    kept as the reference for the explicit-stack walk."""

    def build(u, visited):
        key = (u, target, visited)
        if key in memo:
            return memo[key]
        memo[key] = None
        if u == target:
            gid = builder.goal(models._path_label(u, target, visited))
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
        gid = builder.goal(models._path_label(u, target, visited))
        for subs, inst, z in bodies:
            builder.add_body(gid, subs, inst, z)
        memo[key] = gid
        return gid

    return build(frm, frozenset({frm}))


def _reference_path_queries(graph, queries):
    """``compile_path_queries`` over the recursive reference walk."""
    builder = GraphBuilder()
    builder.declare_switches(graph._decls)
    goals, memo = [], {}
    for frm, to in queries:
        root = _reference_compile_path_into(builder, graph, frm, to, memo)
        if root is None:
            raise NoPath(f"no path from {frm} to {to}")
        builder.add_root(root)
        goals.append(root)
    return builder.build(), goals


def _path_outcome(compile_queries, graph, queries):
    """Labels, goal ids, formulas with their tags, and roots of the graph
    ``compile_queries`` builds for ``queries``, or the message of the
    ``NoPath`` it raises."""
    try:
        built, goals = compile_queries(graph, queries)
    except NoPath as e:
        return str(e)
    formulas = [
        (f.head, [(b.subgoals, b.instances, b.tag) for b in f.bodies]) for f in built.formulas
    ]
    return built.labels, goals, formulas, built.roots


def test_path_walk_equals_the_recursive_reference():
    chain = EdgeGraph([(k, k + 1, 0.5) for k in range(7)])
    forked = EdgeGraph([(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (1, 4, 0.5), (5, 6, 0.5)])
    for eg in (six_node_demo_graph(), chain, forked):
        found = []
        for pair in itertools.product(eg.nodes, repeat=2):
            want = _path_outcome(_reference_path_queries, eg, [pair])
            assert _path_outcome(compile_path_queries, eg, [pair]) == want
            found += [] if isinstance(want, str) else [pair]
        # one graph for every query that has a path, its states shared across queries
        want = _path_outcome(_reference_path_queries, eg, found)
        assert _path_outcome(compile_path_queries, eg, found) == want
    assert isinstance(_path_outcome(compile_path_queries, forked, [(0, 5)]), str)


def _reference_moves(graph, u):
    """The former ``EdgeGraph.moves``, a scan of every edge per call."""
    out = [(v, graph.switch(u, v)) for (x, v, _) in graph.edges if x == u]
    inc = [(x, graph.switch(x, u)) for (x, v, _) in graph.edges if v == u]
    keyed = [(z, 0, sw) for z, sw in out] + [(z, 1, sw) for z, sw in inc]
    keyed.sort(key=lambda t: (-t[0], t[1]))
    return [(z, sw) for z, _, sw in keyed]


def test_moves_equal_the_edge_scan():
    rng = np.random.default_rng(8)
    graphs = [six_node_demo_graph()]
    for _ in range(30):
        # random directed edges over 9 nodes, with pairs joined both ways
        n = 9
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3]
        order = rng.permutation(len(pairs))
        graphs.append(EdgeGraph([(*pairs[k], 0.5) for k in order.tolist()]))
    both_ways = 0
    for eg in graphs:
        for u in eg.nodes + [max(eg.nodes) + 1]:
            moves = eg.moves(u)
            assert moves == _reference_moves(eg, u)
            both_ways += len({z for z, _ in moves}) < len(moves)
    assert both_ways > 0


def test_path_query_on_a_chain_deeper_than_the_recursion_limit():
    n = 1200
    assert sys.getrecursionlimit() < n
    eg = EdgeGraph([(k, k + 1, 0.5) for k in range(n - 1)])
    graph = compile_path_graph(eg, 0, n - 1)
    assert graph.n_goals == n and graph.labels[graph.roots[0]].startswith("path(0,")
    result = viterbi(graph, graph.roots[0], eg.parameter_table())
    assert len(result.explanation) == n - 1
    assert result.log_prob == pytest.approx((n - 1) * np.log(0.5), rel=1e-12)

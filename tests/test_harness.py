import numpy as np
import pytest

from explgraph.errors import ExplGraphError
from explgraph.grammar import gen_corpus
from explgraph.harness import (
    ExperimentConfig,
    cv_run,
    fold_partition,
    run_session,
)
from explgraph.learning import LearnConfig, learn
from explgraph.models import DataRow, NBHSpec, compile_nbh_corpus, nbh_classify

from conftest import toy_grammar


def test_fold_partition_disjoint_cover_balanced():
    for n, k, seed in [(10, 2, 0), (11, 3, 1), (200, 8, 2), (9, 9, 3)]:
        parts = fold_partition(n, k, seed)
        assert len(parts) == k
        allidx = np.concatenate(parts)
        assert sorted(allidx) == list(range(n))
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1


def test_fold_partition_deterministic():
    p1 = fold_partition(50, 5, 42)
    p2 = fold_partition(50, 5, 42)
    assert all(np.array_equal(a, b) for a, b in zip(p1, p2))


def _toy_treebank(n=24, seed=4):
    grammar = toy_grammar()
    sample = gen_corpus(grammar, grammar.pcfg_parameter_table(), n, seed=seed, max_depth=8)
    return grammar, sample.trees()


def test_cv_unambiguous_singleton_scores_perfectly():
    # train and test folds contain the same unambiguous sentence, so the
    # predicted tree must match exactly
    from explgraph.grammar import CFGRule, Grammar, ParseTree

    grammar = Grammar(
        "S", [CFGRule("S", ("A", "B")), CFGRule("A", ("a",)), CFGRule("B", ("b",))]
    )
    tree = ParseTree.parse("(S (A a) (B b))")
    config = ExperimentConfig(
        task="pcfg",
        method="vt",
        folds=2,
        seed=0,
        learn=LearnConfig(method="vt", delta=1.0),
        grammar=grammar,
        treebank=[tree, tree],
    )
    report = cv_run(config)
    assert report.means["lt"] == 100.0
    assert report.means["bt"] == 100.0
    assert report.means["zero_cb"] == 100.0


def test_cv_deterministic_repeat():
    grammar, trees = _toy_treebank()
    config = dict(
        task="pcfg",
        method="em",
        folds=3,
        seed=5,
        grammar=grammar,
        treebank=trees,
    )
    r1 = cv_run(ExperimentConfig(learn=LearnConfig(method="em", seed=5), **config))
    r2 = cv_run(ExperimentConfig(learn=LearnConfig(method="em", seed=5), **config))
    skip = {"learn_time", "total_time"}  # wall clock is nondeterministic
    assert {k: v for k, v in r1.means.items() if k not in skip} == {
        k: v for k, v in r2.means.items() if k not in skip
    }
    assert r1.iterations == r2.iterations
    assert [
        (m.lt, m.bt, m.zero_cb) for m in r1.folds
    ] == [(m.lt, m.bt, m.zero_cb) for m in r2.folds]


def test_cv_aggregates_match_recomputation():
    grammar, trees = _toy_treebank()
    config = ExperimentConfig(
        task="plcg",
        method="vt",
        folds=3,
        seed=1,
        learn=LearnConfig(method="vt", delta=1.0, seed=1),
        grammar=grammar,
        treebank=trees,
    )
    report = cv_run(config)
    for key, getter in (
        ("lt", lambda m: m.lt),
        ("bt", lambda m: m.bt),
        ("zero_cb", lambda m: m.zero_cb),
    ):
        vals = [getter(m) for m in report.folds]
        assert report.means[key] == pytest.approx(float(np.mean(vals)), abs=1e-12)
        assert report.sds[key] == pytest.approx(float(np.std(vals)), abs=1e-12)
    text = report.render()
    assert "task plcg" in text and "mean lt" in text


def test_cv_nbh_accuracy():
    rng = np.random.default_rng(9)
    spec = NBHSpec(("c1", "c2"), 1, (("a1", ("y", "n")), ("a2", ("y", "n"))))
    rows = []
    for _ in range(40):
        c = rng.choice(["c1", "c2"])
        bias = 0.9 if c == "c1" else 0.1
        vals = tuple("y" if rng.random() < bias else "n" for _ in range(2))
        rows.append(DataRow(c, vals))
    config = ExperimentConfig(
        task="nbh",
        method="em",
        folds=4,
        seed=2,
        learn=LearnConfig(method="em", seed=2),
        nbh_spec=spec,
        nbh_rows=rows,
    )
    report = cv_run(config)
    assert 0.0 <= report.means["accuracy"] <= 1.0
    assert report.means["accuracy"] > 0.6  # attributes are informative



def test_cv_nbh_reproduces_a_per_row_fold_loop():
    # two clusters per class with opposite polarities, as in demos/05,
    # and some values missing
    rng = np.random.default_rng(17)
    spec = NBHSpec(("pos", "neg"), 2, tuple((f"a{j}", ("x", "y", "z")) for j in range(6)))
    rows = []
    for _ in range(200):
        c, cluster = str(rng.choice(spec.classes)), int(rng.integers(2))
        vals = tuple(
            None if rng.random() < 0.1
            else "xz"[(cluster + (c == "neg") * j) % 2] if rng.random() < 0.7
            else str(rng.choice(["x", "y", "z"]))
            for j in range(6)
        )
        rows.append(DataRow(c, vals))
    learn_config = LearnConfig(method="map", delta=1.0, seed=3)
    config = ExperimentConfig(
        task="nbh", method="map", folds=4, seed=5, learn=learn_config,
        nbh_spec=spec, nbh_rows=rows,
    )
    report = cv_run(config)
    parts = fold_partition(len(rows), 4, 5)
    accuracies, iterations = [], []
    for f in range(4):
        train = [rows[int(i)] for p in range(4) if p != f for i in parts[p]]
        graph, goals = compile_nbh_corpus(spec, train, observed_class=True)
        trained = learn(graph, goals, learn_config)
        test = [rows[int(i)] for i in parts[f]]
        correct = sum(
            nbh_classify(spec, trained.final_theta, row.without_class())[0] == row.cls
            for row in test
        )
        accuracies.append(correct / len(test))
        iterations.append(trained.iterations)
    assert report.folds == accuracies
    assert report.iterations == iterations
    assert len(set(accuracies)) > 1 and min(accuracies) > 0.5


def test_cv_config_validation():
    grammar, trees = _toy_treebank(6)
    with pytest.raises(ExplGraphError):
        ExperimentConfig(task="path", folds=2, grammar=grammar, treebank=trees)
    with pytest.raises(ExplGraphError):
        ExperimentConfig(task="pcfg", folds=99, grammar=grammar, treebank=trees)
    with pytest.raises(ExplGraphError):
        ExperimentConfig(task="pcfg", folds=2, grammar=grammar)


SESSION_TRANSCRIPT = """\
?- viterbi path(1,4)
P = 0.432
VE = {d_e(1,2)=on, d_e(2,3)=on, d_e(3,4)=on}
route: 1 -> 2 -> 3 -> 4
exclusiveness of expl(path(1,4)): overlapping
?- learn([path(1,4), path(1,3), path(2,4), path(2,5), path(3,6)]) by vt
vt: 2 passes, fixed_point, objective -16.2086
?- viterbi path(1,4)
P = 0.355556
VE = {d_e(1,6)=on, d_e(5,4)=on, d_e(6,5)=on}
route: 1 -> 6 -> 5 -> 4
session ok
"""


def test_session_checks_pass():
    result = run_session()
    assert result.ok
    assert result.transcript == SESSION_TRANSCRIPT
    assert "P = 0.432" in result.transcript
    assert "route: 1 -> 2 -> 3 -> 4" in result.transcript
    assert "route: 1 -> 6 -> 5 -> 4" in result.transcript
    assert "overlapping" in result.transcript


def test_session_pre_learning_invariant_to_delta_and_seed():
    r1 = run_session(delta=1.0, seed=0)
    r2 = run_session(delta=2.5, seed=123)
    assert r1.pre.prob == r2.pre.prob
    assert r1.pre.explanation == r2.pre.explanation

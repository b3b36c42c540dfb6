import time
from pathlib import Path

import numpy as np
import pytest

import warnings

from explgraph import grammar as grammar_module
from explgraph import harness
from explgraph import models as models_module
from explgraph.errors import AllZero, ExplGraphError, ExplGraphWarning, InvalidRow, Unparseable
from explgraph.grammar import (
    CFGRule,
    Grammar,
    ParseTree,
    compile_pcfg,
    compile_pcfg_corpus,
    compile_plcg,
    compile_plcg_corpus,
    gen_corpus,
    metrics,
    parse_corpus,
    tree_from_explanation,
)
from explgraph.inference import viterbi
from explgraph.io import load_grammar
from explgraph.harness import (
    ExperimentConfig,
    cv_run,
    fold_partition,
    run_session,
)
from explgraph.learning import LearnConfig, learn
from explgraph.models import (
    DataRow,
    NBHSpec,
    compile_nbh_corpus,
    nbh_classify,
    nbh_classify_rows,
)

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


# -- a grammar fold's failure paths -------------------------------------------

DEMO20 = Path(__file__).resolve().parent.parent / "data" / "demo20.grammar"


def _demo20_treebank(n, seed):
    grammar = load_grammar(DEMO20)
    return grammar, gen_corpus(grammar, grammar.pcfg_parameter_table(), n, seed=seed).trees()


@pytest.mark.filterwarnings("ignore::explgraph.errors.ExplGraphWarning")
@pytest.mark.parametrize("mode", ["pcfg", "plcg"])
def test_cv_em_counts_all_zero_test_sentences_as_failures(mode):
    # EM without pseudo counts gives a rule no training tree uses
    # probability 0, so a test sentence that needs it has no parse.  Each
    # fold is replayed through the per-sentence path: compile, Viterbi
    # (AllZero is a failure) and the tree of the explanation; the fold's
    # metrics are those of the parsed sentences, scaled by their share
    grammar, trees = _demo20_treebank(16, 3)
    learn_config = LearnConfig(method="em", seed=0)
    config = ExperimentConfig(
        task=mode, method="em", folds=4, seed=0, learn=learn_config,
        grammar=grammar, treebank=trees,
    )
    report = cv_run(config)
    compile_corpus, compile_one = {
        "pcfg": (compile_pcfg_corpus, compile_pcfg),
        "plcg": (compile_plcg_corpus, compile_plcg),
    }[mode]
    parts = fold_partition(len(trees), 4, 0)
    failures = 0
    for f, fold in enumerate(report.folds):
        train = [trees[int(i)].tokens() for p in range(4) if p != f for i in parts[p]]
        theta = learn(*compile_corpus(grammar, train), learn_config).final_theta
        predicted, reference = [], []
        for i in parts[f]:
            tokens = trees[int(i)].tokens()
            graph = compile_one(grammar, tokens)
            try:
                res = viterbi(graph, graph.roots[0], theta)
            except AllZero:
                continue
            predicted.append(tree_from_explanation(grammar, tokens, res.explanation, mode))
            reference.append(trees[int(i)])
        m, n = metrics(predicted, reference), len(parts[f])
        assert (fold.lt, fold.bt, fold.zero_cb, fold.n) == (
            m.lt * (m.n / n), m.bt * (m.n / n), m.zero_cb * (m.n / n), n,
        )
        failures += n - m.n
    assert report.prediction_failures == failures > 0
    assert f"prediction_failures {failures}\n" in report.render()
    data = report.to_dict()
    assert data["prediction_failures"] == failures
    assert data["folds"] == [
        {"lt": m.lt, "bt": m.bt, "zero_cb": m.zero_cb, "n": m.n} for m in report.folds
    ]
    assert sum(fold["n"] for fold in data["folds"]) == len(trees)


def test_cv_fold_without_any_prediction_raises():
    # training on "a" alone gives S -> B probability 0 under EM, so the
    # fold whose test part is the one "b" can predict nothing
    grammar = Grammar(
        "S",
        [CFGRule("S", ("A",)), CFGRule("S", ("B",)), CFGRule("A", ("a",)), CFGRule("B", ("b",))],
    )
    trees = [ParseTree.parse(t) for t in ("(S (A a))", "(S (A a))", "(S (B b))")]
    config = ExperimentConfig(
        task="pcfg", method="em", folds=3, seed=0, learn=LearnConfig(method="em"),
        grammar=grammar, treebank=trees,
    )
    with pytest.warns(ExplGraphWarning), pytest.raises(
        ExplGraphError, match="no test sentence could be predicted in a fold"
    ):
        cv_run(config)


@pytest.mark.parametrize("mode", ["pcfg", "plcg"])
@pytest.mark.parametrize("bad", ["(S verb det)", "(S pro zzz)"], ids=["no-derivation", "unknown-token"])
def test_cv_unparseable_tree_raises_wherever_it_sits(mode, bad):
    # a tree without a derivation, and one with a token the grammar lacks:
    # cv_run raises the corpus compiler's Unparseable, with its message,
    # whether the tree sits in fold 0's test part or in its training part
    grammar, trees = _demo20_treebank(16, 1)
    bad = ParseTree.parse(bad)
    compile_corpus = compile_pcfg_corpus if mode == "pcfg" else compile_plcg_corpus
    with pytest.raises(Unparseable) as expected:
        compile_corpus(grammar, [bad.tokens()])
    parts = fold_partition(len(trees), 4, 0)
    for position in (int(parts[0][0]), int(parts[1][0])):
        treebank = trees[:position] + [bad] + trees[position + 1 :]
        config = ExperimentConfig(
            task=mode, method="vt", folds=4, seed=0,
            learn=LearnConfig(method="vt", delta=1.0), grammar=grammar, treebank=treebank,
        )
        with pytest.raises(Unparseable) as raised:
            cv_run(config)
        assert type(raised.value) is Unparseable
        assert str(raised.value) == str(expected.value)


# -- one graph per grammar run ------------------------------------------------


def _reference_cv_run(config):
    """The per-fold path ``cv_run`` took before it compiled its treebank
    once: each fold compiles its training sentences, learns on that graph,
    and parses its test sentences with ``parse_corpus``, which compiles
    them again.  Returns each fold's learn report and parsed trees, the
    report ``cv_run`` made of them (timings left out) and the warnings
    raised on the way."""
    trees = config.treebank
    compile_corpus = compile_pcfg_corpus if config.task == "pcfg" else compile_plcg_corpus
    parts = fold_partition(len(trees), config.folds, config.seed)
    learned, parsed_folds, scores = [], [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for f in range(config.folds):
            train_idx = np.concatenate([parts[i] for i in range(config.folds) if i != f])
            train = [trees[i].tokens() for i in train_idx]
            report = learn(*compile_corpus(config.grammar, train), config.learn)
            test = [trees[int(i)] for i in parts[f]]
            parsed = parse_corpus(
                config.grammar, [t.tokens() for t in test], report.final_theta, config.task
            )
            predicted = [p for p in parsed if p is not None]
            m = metrics(predicted, [t for t, p in zip(test, parsed) if p is not None])
            scale = m.n / len(test)
            scores.append(
                {"lt": m.lt * scale, "bt": m.bt * scale, "zero_cb": m.zero_cb * scale, "n": len(test)}
            )
            learned.append(report)
            parsed_folds.append(parsed)
    rows = {k: [fold[k] for fold in scores] for k in ("lt", "bt", "zero_cb")}
    rows["iterations"] = [float(r.iterations) for r in learned]
    summary = {
        "task": config.task,
        "method": config.method,
        "folds": scores,
        "means": {k: float(np.mean(v)) for k, v in rows.items()},
        "sds": {k: float(np.std(v)) for k, v in rows.items()},
        "iterations": [r.iterations for r in learned],
        "prediction_failures": sum(p is None for fold in parsed_folds for p in fold),
    }
    return learned, parsed_folds, summary, [str(w.message) for w in caught]


def _untimed(report) -> dict:
    data = report.to_dict()
    del data["learn_times"], data["fold_times"]
    for k in ("means", "sds"):
        del data[k]["learn_time"], data[k]["total_time"]
    return data


def _assert_equals_the_reference(config, monkeypatch):
    """``cv_run`` against ``_reference_cv_run``.  VT learns from exact
    integer counts and scores each body in its own part order, so its
    reports are the reference's bit for bit.  EM and MAP sum expected
    counts in goal-id order, which differs between the treebank graph and
    a fold's graph, so theta may move by ulps; a test tree may then flip
    only to another tree of the same rule multiset, whose probability is
    equal in exact arithmetic.  Returns the report and the warnings."""
    learned, parsed = [], []

    def recording_learn(*args):
        learned.append(learn(*args))
        return learned[-1]

    def recording_trees(*args):
        parsed.append(grammar_module._viterbi_trees(*args))
        return parsed[-1]

    monkeypatch.setattr(harness, "learn", recording_learn)
    monkeypatch.setattr(harness, "_viterbi_trees", recording_trees)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = cv_run(config)
    ref_learned, ref_parsed, ref_summary, ref_warnings = _reference_cv_run(config)
    assert [str(w.message) for w in caught] == ref_warnings
    assert [r.iterations for r in learned] == [r.iterations for r in ref_learned]
    assert [[p is None for p in fold] for fold in parsed] == [
        [p is None for p in fold] for fold in ref_parsed
    ]
    if config.method == "vt":
        assert _untimed(report) == ref_summary
        assert parsed == ref_parsed
        for r, ref in zip(learned, ref_learned):
            assert r.final_theta.data.keys() == ref.final_theta.data.keys()
            for key, values in ref.final_theta.data.items():
                assert np.array_equal(r.final_theta.data[key], values)
    else:
        assert report.iterations == ref_summary["iterations"]
        assert report.prediction_failures == ref_summary["prediction_failures"]
        for r, ref in zip(learned, ref_learned):
            for key, values in ref.final_theta.data.items():
                np.testing.assert_allclose(r.final_theta.data[key], values, rtol=1e-12, atol=0)
        for fold, ref_fold in zip(parsed, ref_parsed):
            for tree, ref in zip(fold, ref_fold):
                assert tree == ref or tree.rule_counts() == ref.rule_counts()
    return report, ref_warnings


@pytest.mark.parametrize("method", ["vt", "em", "map"])
@pytest.mark.parametrize("mode", ["pcfg", "plcg"])
def test_cv_run_on_one_treebank_graph_equals_the_per_fold_reference(mode, method, monkeypatch):
    grammar, trees = _demo20_treebank(200, 1)
    delta = None if method == "em" else 1.0
    config = ExperimentConfig(
        task=mode, method=method, folds=4, seed=0,
        learn=LearnConfig(method=method, delta=delta, seed=0), grammar=grammar, treebank=trees,
    )
    _assert_equals_the_reference(config, monkeypatch)


@pytest.mark.parametrize("mode", ["pcfg", "plcg"])
def test_cv_run_keeps_the_reference_failures_and_warnings(mode, monkeypatch):
    # EM gives rules that only test sentences use probability 0, so those
    # roots of the treebank graph have value -inf while the fold learns:
    # they add nothing, and the same test sentences fail.  Left-corner
    # switches that no training tree uses are flagged as degenerate, as
    # before; every PCFG switch is used by some training tree here
    grammar, trees = _demo20_treebank(16, 3)
    config = ExperimentConfig(
        task=mode, method="em", folds=4, seed=0, learn=LearnConfig(method="em", seed=0),
        grammar=grammar, treebank=trees,
    )
    report, caught = _assert_equals_the_reference(config, monkeypatch)
    assert report.prediction_failures > 0
    assert bool(caught) == (mode == "plcg")


@pytest.mark.parametrize("mode", ["pcfg", "plcg"])
def test_grammar_cv_run_compiles_its_treebank_once(mode, monkeypatch):
    grammar, trees = _demo20_treebank(40, 1)
    calls = []
    for module in (harness, grammar_module):
        for name in ("compile_pcfg_corpus", "compile_plcg_corpus"):

            def counted(g, sentences, _compile=getattr(module, name)):
                sentences = list(sentences)
                calls.append(len(sentences))
                return _compile(g, sentences)

            monkeypatch.setattr(module, name, counted)
    config = ExperimentConfig(
        task=mode, method="vt", folds=4, seed=0,
        learn=LearnConfig(method="vt", delta=1.0), grammar=grammar, treebank=trees,
    )
    cv_run(config)
    assert calls == [len(trees)]


# -- one graph per NBH run ----------------------------------------------------

NBH_VALUES = ("x", "y", "z")


def _nbh_data(seed, n=3000, k=12):
    """Rows in the style of the benchmark's nbh-cv workload and demos/05:
    each class mixes two clusters of opposite attribute polarity, so class
    marginals are confounded, and one value in ten is missing."""
    rng = np.random.default_rng(seed)
    is_pos = rng.random(n) < 0.5
    cluster = rng.random(n) < 0.5
    u = rng.random((n, k))
    missing = rng.random((n, k)) < 0.1
    # favoured value: index 0 or 2 with probability 0.7, the others 0.15
    flip = (~is_pos)[:, None] & (np.arange(k) % 2 == 1)[None, :]
    fav = np.where(cluster[:, None] ^ flip, 0, 2)
    value = np.where(u < 0.15, 1, np.where(u < 0.30, 2 - fav, fav))
    spec = NBHSpec(("pos", "neg"), 2, tuple((f"a{j}", NBH_VALUES) for j in range(1, k + 1)))
    rows = [
        DataRow("pos" if pos else "neg", tuple(None if m else NBH_VALUES[v] for m, v in zip(ms, vs)))
        for pos, ms, vs in zip(is_pos.tolist(), missing.tolist(), value.tolist())
    ]
    return spec, rows


def _reference_nbh_fold(config, train_idx, test_idx):
    """The NBH fold of ``cv_run`` before it compiled its rows once: each
    fold compiles its training rows, learns on that graph and classifies
    its labelled test rows in one batch.  Kept verbatim but for its name."""
    spec = config.nbh_spec
    rows = config.nbh_rows
    train = [rows[int(i)] for i in train_idx]
    graph, goals = compile_nbh_corpus(spec, train, observed_class=True)
    t0 = time.perf_counter()
    report = learn(graph, goals, config.learn)
    dt = time.perf_counter() - t0
    test = [rows[int(i)] for i in test_idx if rows[int(i)].cls is not None]
    if not test:
        raise ExplGraphError("fold contains no labelled test rows")
    predicted = nbh_classify_rows(spec, report.final_theta, test)
    correct = sum(pred == row.cls for (pred, _), row in zip(predicted, test))
    return correct / len(test), report, dt, 0


@pytest.mark.parametrize("method", ["vt", "em", "map"])
@pytest.mark.parametrize("data_seed", [1, 2])
def test_nbh_cv_run_on_one_graph_equals_the_per_fold_reference(data_seed, method, monkeypatch):
    # goals no training root reaches add exact zeros, so VT learns the
    # reference's theta bit for bit; EM and MAP sum expected counts in
    # another goal order, so theta may move by ulps
    spec, rows = _nbh_data(data_seed)
    delta = None if method == "em" else 1.0
    config = ExperimentConfig(
        task="nbh", method=method, folds=5, seed=0,
        learn=LearnConfig(method=method, delta=delta, seed=0), nbh_spec=spec, nbh_rows=rows,
    )
    learned = []

    def recording_learn(*args):
        learned.append(learn(*args))
        return learned[-1]

    monkeypatch.setattr(harness, "learn", recording_learn)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = cv_run(config)
    parts = fold_partition(len(rows), 5, 0)
    with warnings.catch_warnings(record=True) as ref_caught:
        warnings.simplefilter("always")
        reference = [
            _reference_nbh_fold(config, np.concatenate(parts[:f] + parts[f + 1 :]), parts[f])
            for f in range(5)
        ]
    assert report.folds == [accuracy for accuracy, *_ in reference]
    assert report.iterations == [r.iterations for _, r, *_ in reference]
    assert [str(w.message) for w in caught] == [str(w.message) for w in ref_caught]
    for r, (_, ref, *_) in zip(learned, reference):
        assert r.final_theta.data.keys() == ref.final_theta.data.keys()
        for key, values in ref.final_theta.data.items():
            if method == "vt":
                assert np.array_equal(r.final_theta.data[key], values)
            else:
                np.testing.assert_allclose(r.final_theta.data[key], values, rtol=1e-12, atol=0)


def test_nbh_cv_run_compiles_its_rows_once(monkeypatch):
    spec, rows = _nbh_data(1, n=300)
    calls, batches = [], []
    for module in (harness, models_module):

        def counted(s, data, observed_class=True, _compile=module.compile_nbh_corpus):
            data = list(data)
            calls.append((len(data), observed_class))
            return _compile(s, data, observed_class)

        monkeypatch.setattr(module, "compile_nbh_corpus", counted)

    def counted_classify(s, theta, data, _classify=harness.nbh_classify_rows):
        batches.append(len(data))
        return _classify(s, theta, data)

    monkeypatch.setattr(harness, "nbh_classify_rows", counted_classify)
    config = ExperimentConfig(
        task="nbh", method="map", folds=5, seed=0,
        learn=LearnConfig(method="map", delta=1.0), nbh_spec=spec, nbh_rows=rows,
    )
    cv_run(config)
    assert calls == [(len(rows), True)]
    assert batches == [len(part) for part in fold_partition(len(rows), 5, 0)]


def test_nbh_cv_invalid_row_raises_wherever_it_sits(monkeypatch):
    # an unlabelled row, and a row with a value outside its domain: cv_run
    # raises check_row's InvalidRow, with its message, before any fold
    # learns, whether the row sits in fold 0's test part or in its training
    # part; of two bad rows the first in corpus order is named
    spec, rows = _nbh_data(1, n=100)
    unlabelled = DataRow(None, rows[0].values)
    bad_value = DataRow("pos", ("w",) + rows[0].values[1:])

    def message(row):
        with pytest.raises(InvalidRow) as raised:
            spec.check_row(row, need_class=True)
        return str(raised.value)

    def refused(placed):
        data = list(rows)
        for i, row in placed.items():
            data[i] = row
        config = ExperimentConfig(
            task="nbh", method="map", folds=4, seed=0,
            learn=LearnConfig(method="map", delta=1.0), nbh_spec=spec, nbh_rows=data,
        )
        with pytest.raises(InvalidRow) as raised:
            cv_run(config)
        assert type(raised.value) is InvalidRow
        return str(raised.value)

    def no_learning(*args):
        raise AssertionError("a fold learned before the rows were checked")

    monkeypatch.setattr(harness, "learn", no_learning)
    parts = fold_partition(len(rows), 4, 0)
    test0 = int(parts[0][0])
    train0 = int(parts[1][parts[1] > test0][0])  # in fold 0's training part, after test0
    for bad in (unlabelled, bad_value):
        for position in (test0, train0):
            assert refused({position: bad}) == message(bad)
    assert refused({test0: bad_value, train0: unlabelled}) == message(bad_value)
    assert refused({test0: unlabelled, train0: bad_value}) == message(unlabelled)


def test_nbh_cv_all_zero_names_the_fold_and_the_row():
    # EM gives a value no training row holds probability 0, so a test row
    # with that value has no class score above zero
    spec = NBHSpec(("c1", "c2"), 1, (("a1", ("x", "y", "z")), ("a2", ("x", "y"))))
    rng = np.random.default_rng(3)
    rows = [
        DataRow(str(rng.choice(spec.classes)), (str(rng.choice(["x", "y"])), str(rng.choice(["x", "y"]))))
        for _ in range(24)
    ]
    parts = fold_partition(len(rows), 4, 0)
    fold, k = 2, 3
    rows[int(parts[fold][k])] = DataRow("c1", ("z", "x"))
    config = ExperimentConfig(
        task="nbh", method="em", folds=4, seed=0, learn=LearnConfig(method="em"),
        nbh_spec=spec, nbh_rows=rows,
    )
    with pytest.raises(AllZero) as raised:
        cv_run(config)
    assert str(raised.value) == f"fold {fold}: all class scores are zero for row {k}"

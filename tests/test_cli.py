import os

import pytest

from explgraph.cli import main
from explgraph.inference import viterbi
from explgraph.io import load_expl_graph, load_params

TOY = "start S\nS -> S S : 0.4\nS -> a : 0.3\nS -> b : 0.3\n"
EDGES = (
    "edge 1 2 0.9\nedge 2 3 0.8\nedge 3 4 0.6\nedge 1 6 0.7\n"
    "edge 2 6 0.5\nedge 6 5 0.4\nedge 5 3 0.7\nedge 5 4 0.2\n"
    "query 1 4\nquery 1 3\nquery 2 4\nquery 2 5\nquery 3 6\n"
)


@pytest.fixture
def files(tmp_path):
    g = tmp_path / "toy.grammar"
    g.write_text(TOY)
    e = tmp_path / "six.graph"
    e.write_text(EDGES)
    return tmp_path, str(g), str(e)


def test_session_command(capsys):
    assert main(["session-fig6"]) == 0
    out = capsys.readouterr().out
    assert "P = 0.432" in out
    assert "route: 1 -> 6 -> 5 -> 4" in out


def test_compile_prob_viterbi_pipeline(files, capsys):
    tmp, grammar, _ = files
    eg = tmp / "ab.eg"
    assert main(["compile", "--task", "pcfg", "--grammar", grammar,
                 "--sentence", "a b", "--out", str(eg)]) == 0
    params = tmp / "toy.params"
    # learn on the single sentence just to produce a params file shape,
    # then evaluate the hand-written one instead
    params.write_text(
        "msw S [S,S] 0.4\nmsw S [a] 0.3\nmsw S [b] 0.3\n"
    )
    assert main(["prob", "--graph", str(eg), "--params", str(params)]) == 0
    out = capsys.readouterr().out
    assert abs(float(out.split()[-1]) - 0.036) < 1e-12
    assert main(["viterbi", "--graph", str(eg), "--params", str(params)]) == 0
    out = capsys.readouterr().out
    assert "VE = " in out


def test_learn_path_task(files, capsys):
    tmp, _, edges = files
    out_params = tmp / "learned.params"
    report = tmp / "report.txt"
    code = main([
        "learn", "--task", "path", "--data", edges, "--method", "vt",
        "--delta", "1.0", "--init", "uniform",
        "--out-params", str(out_params), "--report", str(report),
    ])
    assert code == 0
    assert "termination fixed_point" in report.read_text()
    assert out_params.read_text().startswith("msw d_e(1,2)")


@pytest.mark.parametrize("task", ["pcfg", "plcg"])
def test_gen_and_eval_roundtrip(files, capsys, task):
    tmp, grammar, _ = files
    trees = tmp / "toy.trees"
    corpus = tmp / "toy.corpus"
    assert main(["gen", "--grammar", grammar, "-n", "12", "--seed", "3",
                 "--max-depth", "8", "--out", str(corpus),
                 "--trees-out", str(trees)]) == 0
    assert len(corpus.read_text().splitlines()) == 12
    out_json = tmp / "cv.json"
    code = main([
        "eval", "--task", task, "--grammar", grammar, "--treebank", str(trees),
        "--folds", "3", "--method", "vt", "--delta", "1.0", "--seed", "1",
        "--json", str(out_json),
    ])
    assert code == 0
    rendered = capsys.readouterr().out
    assert "mean lt" in rendered
    import json

    data = json.loads(out_json.read_text())
    assert data["task"] == task and len(data["folds"]) == 3


NBH_SPEC = "class c1 c2\nhidden 2\nattr a1 y n\nattr a2 y n z\n"
NBH_DATA = "".join(
    f"{c},{a},{b}\n" for c, a, b in [
        ("c1", "y", "y"), ("c1", "y", "?"), ("c2", "n", "z"), ("c2", "?", "n"),
        ("c1", "y", "y"), ("c2", "n", "z"), ("c1", "?", "y"), ("c2", "n", "?"),
    ]
)


def test_nbh_compile_learn_and_eval(tmp_path, capsys):
    spec, data = tmp_path / "m.spec", tmp_path / "m.data"
    spec.write_text(NBH_SPEC)
    data.write_text(NBH_DATA)
    one, corpus = tmp_path / "row.eg", tmp_path / "data.eg"
    assert main(["compile", "--task", "nbh", "--spec", str(spec), "--row", "c1,y,?",
                 "--out", str(one)]) == 0
    text = one.read_text()
    assert "nbh(c1|y,?)" in text and "any(2,c1,2)" in text and "nbh(c2" not in text
    assert main(["compile", "--task", "nbh", "--spec", str(spec), "--data", str(data),
                 "--out", str(corpus)]) == 0
    text = corpus.read_text()
    # eight rows, six of them distinct, each a root
    assert sum(line.startswith("root ") for line in text.splitlines()) == 6
    params, report = tmp_path / "m.params", tmp_path / "m.report"
    assert main(["learn", "--task", "nbh", "--spec", str(spec), "--data", str(data),
                 "--method", "map", "--delta", "1.0", "--seed", "1",
                 "--out-params", str(params), "--report", str(report)]) == 0
    assert params.read_text().startswith("msw class c1")
    assert "termination" in report.read_text()
    out_json = tmp_path / "cv.json"
    capsys.readouterr()
    assert main(["eval", "--task", "nbh", "--spec", str(spec), "--data", str(data),
                 "--folds", "2", "--method", "map", "--delta", "1.0",
                 "--json", str(out_json)]) == 0
    assert "mean accuracy" in capsys.readouterr().out
    import json

    result = json.loads(out_json.read_text())
    assert result["task"] == "nbh" and len(result["folds"]) == 2


def test_nbh_bad_data_line_is_named(tmp_path, capsys):
    spec, data = tmp_path / "m.spec", tmp_path / "m.data"
    spec.write_text(NBH_SPEC)
    data.write_text(NBH_DATA + "c1,y,q\n")
    for argv in (["compile", "--task", "nbh", "--out", str(tmp_path / "x.eg")],
                 ["eval", "--task", "nbh", "--folds", "2"]):
        capsys.readouterr()
        assert main(argv + ["--spec", str(spec), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert f"{data}:9:" in err and "value 'q' not in domain of attribute a2" in err


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.grammar"
    bad.write_text("S -> a\n")  # missing start line
    assert main(["gen", "--grammar", str(bad), "-n", "1"]) == 2


def test_learner_error_exit_code(tmp_path):
    # a graph whose root has only zero-probability explanations
    eg = tmp_path / "zero.eg"
    eg.write_text("switch s a b\ngoal 0 g\nbody 0 : | s=a\nroot 0\n")
    params = tmp_path / "zero.params"
    params.write_text("msw s a 0.0\nmsw s b 1.0\n")
    assert main(["viterbi", "--graph", str(eg), "--params", str(params)]) == 3


def test_viterbi_over_all_roots_prints_what_one_call_per_root_gives(files, capsys):
    tmp, grammar, _ = files
    corpus, eg, params = tmp / "ab.corpus", tmp / "ab.eg", tmp / "ab.params"
    corpus.write_text("a b\nb a b\na\na a b b\nb\n")
    assert main(["compile", "--task", "plcg", "--grammar", grammar,
                 "--corpus", str(corpus), "--out", str(eg)]) == 0
    assert main(["learn", "--graph", str(eg), "--method", "vt", "--delta", "1.0",
                 "--out-params", str(params)]) == 0
    capsys.readouterr()
    assert main(["viterbi", "--graph", str(eg), "--params", str(params)]) == 0
    graph = load_expl_graph(str(eg))
    theta = load_params(str(params), graph)
    want = ""
    for g in graph.roots:
        res = viterbi(graph, g, theta)
        want += f"{graph.labels[g]} P = {res.prob!r}\n"
        want += f"{graph.labels[g]} VE = {res.explanation.render()}\n"
    assert len(graph.roots) == 5 and capsys.readouterr().out == want


def test_viterbi_reports_an_all_zero_root_after_the_roots_before_it(tmp_path, capsys):
    eg = tmp_path / "three.eg"
    eg.write_text(
        "switch s a b\ngoal 0 g0\ngoal 1 g1\ngoal 2 g2\n"
        "body 0 : | s=b\nbody 1 : | s=a\nbody 2 : | s=b s=b\n"
        "root 0\nroot 1\nroot 2\n"
    )
    params = tmp_path / "three.params"
    params.write_text("msw s a 0.0\nmsw s b 1.0\n")
    assert main(["viterbi", "--graph", str(eg), "--params", str(params)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "g0 P = 1.0\ng0 VE = {s=b}\n"
    assert "g1" in captured.err


def test_missing_file_gives_clear_data_error(tmp_path, capsys):
    assert main(["prob", "--graph", str(tmp_path / "nope.eg"),
                 "--params", str(tmp_path / "nope.params")]) == 2
    err = capsys.readouterr().err
    assert "not found" in err
    assert main(["eval", "--task", "pcfg", "--grammar", str(tmp_path / "g"),
                 "--treebank", str(tmp_path / "t"), "--folds", "2"]) == 2


def test_eval_rejects_pseudo_file(files, capsys):
    # cross-validation builds one graph per fold, so there is no single
    # graph to read a pseudo-count file against; the flag must not be ignored
    tmp, grammar, _ = files
    trees = tmp / "toy.trees"
    assert main(["gen", "--grammar", grammar, "-n", "6", "--seed", "3",
                 "--max-depth", "8", "--trees-out", str(trees), "--out", str(tmp / "c")]) == 0
    capsys.readouterr()
    assert main(["eval", "--task", "pcfg", "--grammar", grammar, "--treebank", str(trees),
                 "--folds", "2", "--method", "map", "--pseudo", "/does/not/exist"]) == 2
    assert "--pseudo needs a compiled graph context" in capsys.readouterr().err

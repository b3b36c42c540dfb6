import os

import pytest

from explgraph.cli import main

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


def test_gen_and_eval_roundtrip(files, capsys):
    tmp, grammar, _ = files
    trees = tmp / "toy.trees"
    corpus = tmp / "toy.corpus"
    assert main(["gen", "--grammar", grammar, "-n", "12", "--seed", "3",
                 "--max-depth", "8", "--out", str(corpus),
                 "--trees-out", str(trees)]) == 0
    assert len(corpus.read_text().splitlines()) == 12
    out_json = tmp / "cv.json"
    code = main([
        "eval", "--task", "pcfg", "--grammar", grammar, "--treebank", str(trees),
        "--folds", "3", "--method", "vt", "--delta", "1.0", "--seed", "1",
        "--json", str(out_json),
    ])
    assert code == 0
    rendered = capsys.readouterr().out
    assert "mean lt" in rendered
    import json

    data = json.loads(out_json.read_text())
    assert data["task"] == "pcfg" and len(data["folds"]) == 3


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

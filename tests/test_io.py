import pytest

from explgraph import io as fio
from explgraph.errors import FileFormatError
from explgraph.grammar import ParseTree
from explgraph.models import DataRow, six_node_demo_graph, compile_path_queries
from explgraph.tables import PseudoCountTable

from conftest import toy_grammar

TOY_GRAMMAR_TEXT = """\
start S
S -> S S : 0.4
S -> a : 0.3
S -> b : 0.3
"""


def test_grammar_round_trip():
    g = fio.load_grammar(TOY_GRAMMAR_TEXT)
    assert fio.emit_grammar(g) == TOY_GRAMMAR_TEXT
    assert g.start == "S"
    assert g.probs == [0.4, 0.3, 0.3]


def test_grammar_without_probs():
    text = "start S\nS -> a\n"
    g = fio.load_grammar(text)
    assert g.probs == [None]
    assert fio.emit_grammar(g) == text


def test_grammar_errors_carry_line_numbers():
    with pytest.raises(FileFormatError, match=r"^3:"):
        fio.load_grammar("start S\nS -> a\nS => b\n")
    with pytest.raises(FileFormatError, match="start"):
        fio.load_grammar("S -> a\n")
    with pytest.raises(FileFormatError, match=r"^2:"):
        fio.load_grammar("start S\nS -> a : 1.5\n")


def test_comments_and_blank_lines_ignored():
    g = fio.load_grammar("# header\nstart S\n\nS -> a : 1.0  # trailing\n")
    assert len(g.rules) == 1


def test_expl_graph_round_trip_bit_exact():
    eg = six_node_demo_graph()
    graph, _ = compile_path_queries(eg, [(1, 4), (2, 5)])
    text = fio.emit_expl_graph(graph)
    again = fio.load_expl_graph(text)
    assert fio.emit_expl_graph(again) == text
    assert again.labels == graph.labels
    assert again.roots == graph.roots


def test_expl_graph_multiplicity_syntax():
    text = (
        "switch s a b\n"
        "goal 0 g\n"
        "body 0 : | s=a*3\n"
        "root 0\n"
    )
    g = fio.load_expl_graph(text)
    assert g.formulas[0].bodies[0].instances[0].mult == 3
    assert fio.emit_expl_graph(g) == text


def test_expl_graph_errors():
    with pytest.raises(FileFormatError, match="dense"):
        fio.load_expl_graph("goal 5 g\n")
    with pytest.raises(FileFormatError, match="not a declared goal"):
        fio.load_expl_graph("goal 0 g\nbody 0 : 3 |\nroot 0\n")
    with pytest.raises(FileFormatError, match="unknown directive"):
        fio.load_expl_graph("wat 1\n")


def test_params_round_trip_and_range_check():
    eg = six_node_demo_graph()
    graph, _ = compile_path_queries(eg, [(1, 4)])
    text = fio.emit_params(eg.parameter_table())
    assert "msw d_e(1,2) on 0.9" in text.splitlines()[0]
    theta = fio.load_params(text, graph)
    assert fio.emit_params(theta) == text
    bad = text.replace("msw d_e(1,2) on 0.9", "msw d_e(1,2) on 1.5")
    with pytest.raises(FileFormatError, match="outside"):
        fio.load_params(bad, graph)


def test_params_must_cover_graph():
    eg = six_node_demo_graph()
    graph, _ = compile_path_queries(eg, [(1, 4)])
    with pytest.raises(FileFormatError, match="sum to"):
        fio.load_params("msw d_e(1,2) on 0.9\nmsw d_e(1,2) off 0.1\n", graph)


def test_pseudo_counts_default_to_zero():
    eg = six_node_demo_graph()
    graph, _ = compile_path_queries(eg, [(1, 4)])
    table = fio.load_pseudo_counts("delta d_e(1,2) on 2.5\n", graph)
    assert table.get("d_e(1,2)", "on") == 2.5
    assert table.get("d_e(2,3)", "on") == 0.0
    text = fio.emit_pseudo_counts(table)
    assert fio.emit_pseudo_counts(fio.load_pseudo_counts(text, graph)) == text


def test_corpus_round_trip():
    text = "a b\nb\na a a\n"
    sents = fio.load_corpus(text)
    assert sents == [["a", "b"], ["b"], ["a", "a", "a"]]
    assert fio.emit_corpus(sents) == text


def test_treebank_round_trip():
    text = "(S (S a) (S b))\n(S a)\n"
    trees = fio.load_treebank(text)
    assert [t.render() for t in trees] == ["(S (S a) (S b))", "(S a)"]
    assert fio.emit_treebank(trees) == text
    with pytest.raises(FileFormatError, match=r"^1:"):
        fio.load_treebank("(S (S a)\n")


def test_treebank_file_with_a_truncated_line_names_file_line_and_fault(tmp_path):
    path = tmp_path / "cut.trees"
    path.write_text("(S (S a) (S b))\n(S (S a) (\n(S a)\n")
    with pytest.raises(FileFormatError) as got:
        fio.load_treebank(path)
    assert str(got.value) == f"{path}:2: unbalanced tree text '(S (S a) ('"
    assert (got.value.path, got.value.line) == (str(path), 2)
    path.write_text("(S a)\n(()\n")
    with pytest.raises(FileFormatError) as got:
        fio.load_treebank(path)
    assert str(got.value) == f"{path}:2: bracket '(' where a label belongs in tree text '(()'"


def test_nbh_spec_round_trip():
    text = "class c1 c2\nhidden 2\nattr a1 y n\nattr a2 y n\n"
    spec = fio.load_nbh_spec(text)
    assert spec.classes == ("c1", "c2")
    assert spec.n_hidden == 2
    assert fio.emit_nbh_spec(spec) == text


def test_nbh_data_round_trip():
    text = "c1,y,n\n?,y,?\nc2,?,n\n"
    rows = fio.load_nbh_data(text)
    assert rows[0] == DataRow("c1", ("y", "n"))
    assert rows[1] == DataRow(None, ("y", None))
    assert fio.emit_nbh_data(rows) == text
    spec = fio.load_nbh_spec("class c1 c2\nhidden 2\nattr a1 y n\nattr a2 y n\n")
    with pytest.raises(FileFormatError, match=r"^1:"):
        fio.load_nbh_data("c1,y\n", spec)


def test_edge_graph_round_trip():
    text = "edge 1 2 0.9\nedge 2 3 0.8\nquery 1 3\n"
    eg, queries = fio.load_edge_graph(text)
    assert queries == [(1, 3)]
    assert fio.emit_edge_graph(eg, queries) == text
    with pytest.raises(FileFormatError, match=r"^1:"):
        fio.load_edge_graph("edge 1 2 1.7\n")


def test_learn_report_text():
    from explgraph.learning import LearnConfig, vt_learn
    from explgraph.models import compile_path_queries

    eg = six_node_demo_graph()
    graph, goals = compile_path_queries(eg, [(1, 4)])
    report = vt_learn(graph, goals, LearnConfig(method="vt", delta=1.0))
    text = fio.emit_learn_report(report)
    assert "method vt" in text
    assert "termination fixed_point" in text
    assert text.count("objective") == len(report.objective_trace)

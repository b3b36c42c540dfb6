"""Command-line surface.

Subcommands::

    compile       build an explanation graph from a model and write it out
    prob          inside probability of goals in a compiled graph
    viterbi       most probable explanation of a goal
    learn         fit parameters (em | map | vt) and write a parameter file
    gen           sample a corpus (and treebank) from a grammar
    eval          k-fold cross-validation for pcfg / plcg / nbh tasks
    session-fig6  built-in six-node graph demo session

Exit codes: 0 success, 1 usage error, 2 data error, 3 learner failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as fio
from .errors import (
    AllZero,
    ExplGraphError,
    ZeroEvidence,
)
from .grammar import compile_pcfg, compile_plcg, compile_pcfg_corpus, compile_plcg_corpus, gen_corpus
from .harness import ExperimentConfig, cv_run, run_session
from .inference import inside_prob, viterbi
from .learning import LearnConfig, learn
from .models import DataRow, compile_nbh, compile_nbh_corpus, compile_path_queries

USAGE_ERROR, DATA_ERROR, LEARNER_ERROR = 1, 2, 3


def _learn_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=("em", "map", "vt"), default="em")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--delta", type=float, default=None, help="uniform pseudo count")
    p.add_argument("--pseudo", help="pseudo-count file (overrides --delta)")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument(
        "--init", choices=("uniform", "jittered_uniform"), default="jittered_uniform"
    )


def _config_from(args, graph=None) -> LearnConfig:
    pseudo = None
    if getattr(args, "pseudo", None):
        if graph is None:
            raise ExplGraphError("--pseudo needs a compiled graph context")
        pseudo = fio.load_pseudo_counts(args.pseudo, graph)
    return LearnConfig(
        method=args.method,
        pseudo_counts=pseudo,
        delta=args.delta,
        tol=args.tol,
        max_iter=args.max_iter,
        restarts=args.restarts,
        seed=args.seed,
        init=args.init,
    )


def _write(path, text) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _file(path, flag):
    """Validate a required file argument before handing it to a loader."""
    import os

    if path is None:
        raise ExplGraphError(f"missing required flag {flag}")
    if not os.path.exists(path):
        raise ExplGraphError(f"{flag} file not found: {path}")
    return path


def _build_task_graph(args):
    """(graph, observed goal ids) for learn/compile from task files."""
    task = args.task
    if task in ("pcfg", "plcg"):
        grammar = fio.load_grammar(_file(args.grammar, "--grammar"))
        if args.sentence is not None:
            compile_one = compile_pcfg if task == "pcfg" else compile_plcg
            graph = compile_one(grammar, args.sentence.split())
            return graph, list(graph.roots)
        if args.corpus is None:
            raise ExplGraphError(f"task {task} needs --sentence or --corpus")
        sentences = fio.load_corpus(_file(args.corpus, "--corpus"))
        compile_many = compile_pcfg_corpus if task == "pcfg" else compile_plcg_corpus
        return compile_many(grammar, sentences)
    if task == "nbh":
        spec = fio.load_nbh_spec(_file(args.spec, "--spec"))
        if args.row is not None:
            graph = compile_nbh(spec, DataRow.parse(args.row), observed_class=True)
            return graph, list(graph.roots)
        if args.data is None:
            raise ExplGraphError("task nbh needs --row or --data")
        rows = fio.load_nbh_data(_file(args.data, "--data"), spec)
        return compile_nbh_corpus(spec, rows, observed_class=True)
    if task == "path":
        eg, queries = fio.load_edge_graph(_file(args.data, "--data"))
        if not queries:
            raise ExplGraphError("edge-graph file declares no query lines")
        return compile_path_queries(eg, queries)
    raise ExplGraphError(f"unknown task {task!r}")


def cmd_compile(args) -> int:
    graph, _ = _build_task_graph(args)
    _write(args.out, fio.emit_expl_graph(graph))
    return 0


def cmd_prob(args) -> int:
    graph = fio.load_expl_graph(_file(args.graph, "--graph"))
    theta = fio.load_params(_file(args.params, "--params"), graph)
    table = inside_prob(graph, theta)
    goals = [graph.goal_index(args.goal)] if args.goal else list(graph.roots)
    for g in goals:
        print(f"{graph.labels[g]} {table[g]!r}")
    return 0


def cmd_viterbi(args) -> int:
    graph = fio.load_expl_graph(_file(args.graph, "--graph"))
    theta = fio.load_params(_file(args.params, "--params"), graph)
    goals = [graph.goal_index(args.goal)] if args.goal else list(graph.roots)
    for g in goals:
        res = viterbi(graph, g, theta)
        print(f"{graph.labels[g]} P = {res.prob!r}")
        print(f"{graph.labels[g]} VE = {res.explanation.render()}")
    return 0


def cmd_learn(args) -> int:
    if args.graph is not None:
        graph = fio.load_expl_graph(_file(args.graph, "--graph"))
        goals = list(graph.roots)
    else:
        graph, goals = _build_task_graph(args)
    config = _config_from(args, graph)
    report = learn(graph, goals, config)
    _write(args.out_params, fio.emit_params(report.final_theta))
    _write(args.report, fio.emit_learn_report(report))
    return 0


def cmd_gen(args) -> int:
    grammar = fio.load_grammar(_file(args.grammar, "--grammar"))
    theta = grammar.pcfg_parameter_table()
    sample = gen_corpus(grammar, theta, args.n, seed=args.seed, max_depth=args.max_depth)
    _write(args.out, fio.emit_corpus(sample.sentences()))
    if args.trees_out:
        _write(args.trees_out, fio.emit_treebank(sample.trees()))
    print(
        f"# accepted {len(sample.samples)} rejected {sample.rejected} "
        f"attempts {sample.attempted}",
        file=sys.stderr,
    )
    return 0


def cmd_eval(args) -> int:
    learn_config = _config_from(args)
    if args.task in ("pcfg", "plcg"):
        config = ExperimentConfig(
            task=args.task,
            method=args.method,
            folds=args.folds,
            seed=args.seed,
            learn=learn_config,
            grammar=fio.load_grammar(_file(args.grammar, "--grammar")),
            treebank=fio.load_treebank(_file(args.treebank, "--treebank")),
        )
    else:
        spec = fio.load_nbh_spec(_file(args.spec, "--spec"))
        config = ExperimentConfig(
            task="nbh",
            method=args.method,
            folds=args.folds,
            seed=args.seed,
            learn=learn_config,
            nbh_spec=spec,
            nbh_rows=fio.load_nbh_data(_file(args.data, "--data"), spec),
        )
    report = cv_run(config)
    _write(args.out, report.render())
    if args.json:
        _write(args.json, json.dumps(report.to_dict(), indent=2) + "\n")
    return 0


def cmd_session(args) -> int:
    result = run_session(delta=args.delta, seed=args.seed, strict=False)
    sys.stdout.write(result.transcript)
    if not result.ok and not args.no_strict:
        return LEARNER_ERROR
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="explgraph",
        description="explanation-graph inference and parameter learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a model into an explanation graph")
    p.add_argument("--task", required=True, choices=("pcfg", "plcg", "nbh", "path"))
    p.add_argument("--grammar")
    p.add_argument("--sentence")
    p.add_argument("--corpus")
    p.add_argument("--spec")
    p.add_argument("--row")
    p.add_argument("--data")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("prob", help="inside probability of goals")
    p.add_argument("--graph", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--goal")
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("viterbi", help="most probable explanation of a goal")
    p.add_argument("--graph", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--goal")
    p.set_defaults(func=cmd_viterbi)

    p = sub.add_parser("learn", help="fit parameters on observed goals")
    p.add_argument("--graph", help="compiled graph file; its roots are observed")
    p.add_argument("--task", choices=("pcfg", "plcg", "nbh", "path"))
    p.add_argument("--grammar")
    p.add_argument("--sentence")
    p.add_argument("--corpus")
    p.add_argument("--spec")
    p.add_argument("--row")
    p.add_argument("--data")
    p.add_argument("--out-params", default="-")
    p.add_argument("--report", default="-")
    _learn_flags(p)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("gen", help="sample a corpus from a grammar")
    p.add_argument("--grammar", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=20)
    p.add_argument("--out", default="-")
    p.add_argument("--trees-out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("eval", help="k-fold cross-validation")
    p.add_argument("--task", required=True, choices=("pcfg", "plcg", "nbh"))
    p.add_argument("--grammar")
    p.add_argument("--treebank")
    p.add_argument("--spec")
    p.add_argument("--data")
    p.add_argument("--folds", type=int, default=8)
    p.add_argument("--out", default="-")
    p.add_argument("--json")
    _learn_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "session-fig6", help="built-in six-node graph demo session"
    )
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-strict", action="store_true")
    p.set_defaults(func=cmd_session)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else USAGE_ERROR
    try:
        return args.func(args)
    except (ZeroEvidence, AllZero) as e:
        print(f"learner error: {e}", file=sys.stderr)
        return LEARNER_ERROR
    except (ExplGraphError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())

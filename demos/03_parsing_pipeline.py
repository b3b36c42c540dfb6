"""Full grammar pipeline: sample, learn from raw sentences, evaluate.

Samples a treebank from the bundled twenty-rule grammar, hides the trees,
learns rule probabilities from the sentences alone (EM versus Viterbi
training), parses the held-out sentences from one graph with one Viterbi
pass per parameter set (``parse_corpus``) and scores the predicted trees.
"""

from explgraph import (
    LearnConfig,
    compile_pcfg_corpus,
    count_ml,
    gen_corpus,
    learn,
    metrics,
    parse_corpus,
)
from explgraph.io import load_grammar

grammar = load_grammar("data/demo20.grammar")
theta_true = grammar.pcfg_parameter_table()

sample = gen_corpus(grammar, theta_true, 120, seed=42, max_depth=12)
train, test = sample.samples[:100], sample.samples[100:]
test_sentences, reference = [s for s, _ in test], [t for _, t in test]
print(f"sampled {len(train)} training and {len(test)} test sentences "
      f"(rejected {sample.rejected} over-deep derivations)")

graph, observed = compile_pcfg_corpus(grammar, [s for s, _ in train])
print(f"training graph: {graph.n_goals} goals, {graph.body_size()} atoms")

for method, kwargs in (("em", {}), ("vt", {"delta": 1.0})):
    config = LearnConfig(method=method, seed=0, restarts=3, **kwargs)
    report = learn(graph, observed, config)
    m = metrics(parse_corpus(grammar, test_sentences, report.final_theta), reference)
    print(f"\n{method}: {report.iterations} passes to {report.termination}")
    print(f"  labelled match {m.lt:.1f}%  bracketing {m.bt:.1f}%  "
          f"zero-crossing {m.zero_cb:.1f}%  over {m.n} sentences")

# ceiling: parameters counted from the gold training trees
ceiling = count_ml(grammar, [t for _, t in train])
m = metrics(parse_corpus(grammar, test_sentences, ceiling), reference)
print(f"\ncomplete-data ceiling: labelled {m.lt:.1f}%  bracketing {m.bt:.1f}%  "
      f"zero-crossing {m.zero_cb:.1f}%")

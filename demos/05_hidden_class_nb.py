"""Hidden-class naive Bayes versus the plain version.

Each class is a mixture of two clusters with opposite attribute
polarities, so class-marginal attribute frequencies are near uniform and
plain naive Bayes is confounded.  One hidden cluster variable per class
recovers the structure; the hidden variable is summed out at prediction.
"""

import numpy as np

from explgraph import (
    DataRow,
    ExperimentConfig,
    LearnConfig,
    NBHSpec,
    cv_run,
    nbh_classify_rows,
)
from explgraph.learning import em_map_learn
from explgraph.models import compile_nbh_corpus

rng = np.random.default_rng(13)
ATTRS = tuple((f"a{j}", ("y", "n")) for j in range(1, 7))
PATTERNS = {
    ("pos", 1): [0.85] * 6,
    ("pos", 2): [0.15] * 6,
    ("neg", 1): [0.85, 0.15] * 3,
    ("neg", 2): [0.15, 0.85] * 3,
}

rows = []
for _ in range(1200):
    c = "pos" if rng.random() < 0.5 else "neg"
    probs = PATTERNS[(c, 1 if rng.random() < 0.5 else 2)]
    rows.append(DataRow(c, tuple("y" if rng.random() < p else "n" for p in probs)))

for n_hidden in (1, 2, 3):
    spec = NBHSpec(("pos", "neg"), n_hidden, ATTRS)
    config = ExperimentConfig(
        task="nbh",
        method="map",
        folds=5,
        seed=1,
        learn=LearnConfig(method="map", delta=1.0, seed=1),
        nbh_spec=spec,
        nbh_rows=rows,
    )
    report = cv_run(config)
    print(f"hidden clusters per class = {n_hidden}: "
          f"5-fold accuracy {report.means['accuracy']:.3f} "
          f"(sd {report.sds['accuracy']:.3f}, "
          f"median passes {int(np.median(report.iterations))})")

# peek at the posteriors of one trained model, including a missing value
spec = NBHSpec(("pos", "neg"), 2, ATTRS)
graph, goals = compile_nbh_corpus(spec, rows)
trained = em_map_learn(graph, goals, LearnConfig(method="map", delta=1.0, seed=1))
examples = [
    DataRow(None, values)
    for values in (("y",) * 6, ("y", "n") * 3, ("y", None, "y", "y", None, "y"))
]
predicted = nbh_classify_rows(spec, trained.final_theta, examples)
for row, (cls, post) in zip(examples, predicted):
    shown = ",".join("?" if v is None else v for v in row.values)
    print(f"  {shown} -> {cls}  posterior {np.round(post, 3)}")

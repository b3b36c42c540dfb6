"""Sum-product and argmax inference over validated explanation graphs.

``inside_prob`` computes, for every defined goal, the sum over its
explanations of their probabilities, sharing work through the graph so the
whole table costs one linear pass.  ``viterbi`` extracts a most probable
explanation with a deterministic tie-break (lowest body index, applied
bottom-up in topological order).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AllZero, ExplGraphWarning, ZeroEvidence
from .graph import Explanation, ExplanationGraph, GoalId
from .tables import ParameterTable

__all__ = ["InsideTable", "ViterbiResult", "inside_prob", "viterbi", "goal_prob", "log_theta_vector"]


def log_theta_vector(graph: ExplanationGraph, theta: ParameterTable) -> np.ndarray:
    """Flat log-parameter vector over the graph's slots; 0 maps to -inf."""
    theta.covers(graph.switches)
    flat = graph.slots().flatten(theta)
    with np.errstate(divide="ignore"):
        return np.log(flat)


_ZERO_MESSAGES = {
    AllZero: "every explanation of goal {} has probability 0",
    ZeroEvidence: "goal {} has inside probability 0 under the current parameters",
}


def check_nonzero(graph: ExplanationGraph, goals, log_values: np.ndarray, error=AllZero) -> None:
    """Raise ``error`` for the first of ``goals`` whose log value is -inf.

    ``AllZero`` reports a Viterbi value (every explanation has
    probability 0), ``ZeroEvidence`` an observed goal's inside value.
    """
    goals = np.asarray(goals, dtype=np.int64)
    bad = goals[np.isneginf(log_values[goals])]
    if len(bad):
        raise error(_ZERO_MESSAGES[error].format(graph.labels[int(bad[0])]))


@dataclass
class InsideTable:
    """Per-goal inside values, kept in log scale with a linear view.

    ``note`` is set when the graph is known to violate exclusiveness, in
    which case the values are scores over derivations rather than
    probabilities of the goals.
    """

    graph: ExplanationGraph
    log: np.ndarray
    note: Optional[str] = None

    @property
    def linear(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log)

    def __getitem__(self, goal: GoalId) -> float:
        return float(np.exp(self.log[goal]))


@dataclass
class ViterbiResult:
    """A most probable explanation of one goal.

    ``choice_trace`` records, for every goal reachable through the
    selected bodies, the index of the body it selected.  When the graph's
    bodies carry frontend tags (the grammar frontends tag each rule
    application, the path frontend each move), ``explanation.derivation``
    holds the selected proof as nested ``(tag, children)`` tuples, from
    which :func:`explgraph.grammar.tree_from_explanation` reads the parse
    tree in linear time.  Ties between bodies of equal score go to the lowest
    body index of each goal, for both the explanation and the derivation.
    """

    goal: GoalId
    log_prob: float
    explanation: Explanation
    choice_trace: dict[GoalId, int] = field(default_factory=dict)

    @property
    def prob(self) -> float:
        return float(np.exp(self.log_prob))


def inside_prob(graph: ExplanationGraph, theta: ParameterTable) -> InsideTable:
    """Sum-product inside values for every goal, in topological order."""
    comp = graph.compiled()
    log, _ = comp.inside_pass(log_theta_vector(graph, theta))
    note = None
    if graph.exclusiveness == "overlapping":
        note = "score, not probability: explanations overlap"
        warnings.warn(
            "graph explanations overlap; inside values are derivation scores, "
            "not goal probabilities",
            ExplGraphWarning,
            stacklevel=2,
        )
    return InsideTable(graph, log, note)


def goal_prob(graph: ExplanationGraph, goal: GoalId, theta: ParameterTable) -> float:
    """Inside probability of a single goal."""
    if not (0 <= goal < graph.n_goals):
        raise KeyError(f"no goal with id {goal}")
    return inside_prob(graph, theta)[goal]


def viterbi(graph: ExplanationGraph, goal: GoalId, theta: ParameterTable) -> ViterbiResult:
    """A most probable explanation for ``goal`` under ``theta``.

    Zero-probability parameters are handled in log space; if every
    explanation of the goal has probability zero the result would be
    meaningless and :class:`AllZero` is raised instead.
    """
    comp = graph.compiled()
    if not (0 <= goal < graph.n_goals):
        raise KeyError(f"no goal with id {goal}")
    best, sel = comp.viterbi_pass(log_theta_vector(graph, theta))
    check_nonzero(graph, [goal], best)
    return extract_viterbi(graph, sel, best, goal)


def extract_viterbi(
    graph: ExplanationGraph, sel: np.ndarray, best: np.ndarray, goal: GoalId
) -> ViterbiResult:
    """Materialise the explanation (and, on tagged graphs, the derivation)
    selected by a Viterbi pass."""
    comp = graph.compiled()
    seeds = np.zeros(graph.n_goals, dtype=np.int64)
    seeds[goal] = 1
    eta, use = comp.selected_counts_pass(sel, seeds)
    trace = {
        int(g): int(comp.body_local[sel[g]]) for g in np.nonzero(use > 0)[0]
    }
    derivation = comp.selected_derivation(sel, goal, use) if comp.tagged else None
    slots = np.nonzero(eta)[0]
    explanation = comp.layout.explanation(zip(slots, eta[slots]), derivation)
    return ViterbiResult(goal, float(best[goal]), explanation, trace)

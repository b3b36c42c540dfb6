"""Parameter estimation on explanation graphs.

Three learners share one interface and one loop:

* ``em`` maximises the log likelihood of the observed goals, summing over
  explanations via expected counts from one inside and one outside pass
  per iteration.
* ``map`` maximises the log posterior under a per-switch Dirichlet prior
  expressed as pseudo counts: the update adds the pseudo counts to the
  expected counts, the objective adds ``sum delta * log theta``.
* ``vt`` (Viterbi training, or hard EM) alternates two steps until the
  per-goal most probable explanations stop changing: pick the Viterbi
  explanation of every observed goal under the current parameters, then
  renormalise observed-plus-pseudo counts into new parameters.  Because a
  small parameter move usually leaves the argmax unchanged, the fixed
  point arrives in far fewer passes than likelihood convergence does, and
  no exclusiveness assumption is needed since only one explanation per
  goal is ever scored.

The method only picks the pass (``_InsidePass`` or ``_ViterbiPass``).
Each pass scores the current parameters bottom-up, appends the observed
goals' log values plus ``sum delta * log theta`` to the objective trace,
applies the method's stop test, and otherwise renormalises the pass's
counts plus the pseudo counts.  After the last allowed update the loop
scores the parameters once more, so every trace ends at ``final_theta``;
that pass still tests the last ``em``/``map`` update, but it is never a
``vt`` fixed point.  ``iterations`` counts updates for ``em`` and ``map``
and passes for ``vt``.

Every learner supports random restarts on jittered near-uniform
initialisations; restarts are fully determined by (seed, restart index).
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import AllZero, ExplGraphError, ExplGraphWarning, ZeroEvidence
from .graph import Explanation, ExplanationGraph, GoalId
from .inference import check_nonzero, log_theta_vector
from .tables import ExpectedCounts, ParameterTable, PseudoCountTable

__all__ = [
    "LearnConfig",
    "LearnReport",
    "expected_counts",
    "em_map_learn",
    "vt_learn",
    "learn",
    "objective",
]

METHODS = ("em", "map", "vt")
# ``jittered_uniform`` draws per-slot weights 1 + U(0, JITTER)
JITTER = 0.01


@dataclass
class LearnConfig:
    """Knobs shared by all learners.

    ``pseudo_counts`` wins over the scalar ``delta`` when both are given;
    with neither, ``map`` and ``vt`` default to 1.0 per (switch, value)
    and ``em`` uses none (pseudo counts are ignored under ``em``).
    ``init`` is ``"jittered_uniform"`` (per-slot weights 1 + U(0, 0.01),
    normalised) or ``"uniform"``.
    """

    method: str = "em"
    pseudo_counts: Optional[PseudoCountTable] = None
    delta: Optional[float] = None
    tol: float = 1e-6
    max_iter: int = 1000
    restarts: int = 1
    seed: int = 0
    init: str = "jittered_uniform"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ExplGraphError(f"unknown learning method {self.method!r}")
        if not 0.0 < self.tol < np.inf:
            raise ExplGraphError(f"tol must be finite and positive, not {self.tol}")
        if self.max_iter < 1 or self.restarts < 1:
            raise ExplGraphError("max_iter and restarts must be positive")
        if self.init not in ("uniform", "jittered_uniform"):
            raise ExplGraphError(f"unknown init scheme {self.init!r}")

    def delta_flat(self, graph: ExplanationGraph) -> np.ndarray:
        layout = graph.slots()
        if self.method == "em":
            return np.zeros(layout.n_slots)
        if self.pseudo_counts is not None:
            self.pseudo_counts.require_positive()
            return layout.flatten(self.pseudo_counts)
        delta = 1.0 if self.delta is None else float(self.delta)
        if not 0.0 < delta < np.inf:
            raise ExplGraphError(f"{self.method} requires finite, strictly positive pseudo counts")
        return np.full(layout.n_slots, delta)


@dataclass
class LearnReport:
    """Outcome of one learning call (best restart)."""

    method: str
    final_theta: ParameterTable
    objective_trace: list[float]
    iterations: int
    converged: bool
    termination: str  # fixed_point | tol_reached | max_iter
    best_restart_index: int = 0
    per_goal_viterbi: Optional[Sequence[Explanation]] = None
    degenerate_switches: list[str] = field(default_factory=list)

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]


class _RowExplanations(SequenceABC):
    """The explanations that exact count rows hold (see
    :meth:`CompiledGraph.selected_multisets`), ``rows[pick[k]]`` for entry k.
    Each row's explanation is built on first access, once."""

    def __init__(self, layout, rows: np.ndarray, pick: list[int]):
        self._source = (layout, rows, pick)
        self._items: Optional[list[Explanation]] = None

    def _list(self) -> list[Explanation]:
        if self._items is None:
            layout, rows, pick = self._source
            expl = [layout.explanation((s, row[s]) for s in np.flatnonzero(row)) for row in rows]
            self._items = [expl[k] for k in pick]
            self._source = None
        return self._items

    def __len__(self) -> int:
        return len(self._list())

    def __getitem__(self, k):
        return self._list()[k]

    def __eq__(self, other) -> bool:
        return isinstance(other, SequenceABC) and self._list() == list(other)

    def __repr__(self) -> str:
        return repr(self._list())


def _observation_seeds(graph: ExplanationGraph, goals: Sequence[GoalId]) -> np.ndarray:
    if len(goals) == 0:
        raise ExplGraphError("no observed goals")
    ids = np.asarray(list(goals), dtype=np.int64)
    if ids.min() < 0 or ids.max() >= graph.n_goals:
        raise KeyError("observed goal id out of range")
    return np.bincount(ids, minlength=graph.n_goals).astype(np.int64)


def _initial_theta(graph: ExplanationGraph, config: LearnConfig, restart: int) -> np.ndarray:
    layout = graph.slots()
    if config.init == "uniform":
        weights = np.ones(layout.n_slots)
    else:
        rng = np.random.default_rng((config.seed, restart))
        weights = 1.0 + rng.uniform(0.0, JITTER, layout.n_slots)
    theta, _ = layout.normalize(weights)
    return theta


def _obs_total(seeds_f: np.ndarray, values: np.ndarray) -> float:
    """Sum of per-goal values weighted by observation counts.

    Restricted to observed goals so that -inf values at unobserved goals
    cannot poison the sum."""
    mask = seeds_f > 0
    return float(seeds_f[mask] @ values[mask])


def _warn_degenerate(graph, degenerate) -> None:
    """Warn at the caller of ``learn``, ``em_map_learn`` or ``vt_learn``: the
    stack level skips this, ``run``, ``_best_restart``, ``_learn`` and the entry."""
    if degenerate:
        warnings.warn(
            "switches never observed in any goal's derivations keep their "
            "prior/uniform parameters: " + ", ".join(degenerate),
            ExplGraphWarning,
            stacklevel=6,
        )


class _InsidePass:
    """``em`` and ``map`` at fixed parameters: the goals' log inside values,
    and the expected counts of one outside pass when an update asks.  The
    run stops when the objective changes by at most ``tol`` relative."""

    termination = "tol_reached"
    counts_passes = False  # ``iterations`` counts updates

    def __init__(self, graph, log_theta, seeds, observed):
        self._comp, self._seeds = graph.compiled(), seeds
        self.values, self._scores = self._comp.inside_pass(log_theta)
        check_nonzero(graph, observed, self.values, ZeroEvidence)

    def stops(self, trace: list[float], tol: float, prev) -> bool:
        return len(trace) > 1 and abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-2]))

    @property
    def counts(self) -> np.ndarray:
        return self._comp.expected_counts_pass(self.values, self._scores, self._seeds)[0]


class _ViterbiPass:
    """``vt`` at fixed parameters: the goals' Viterbi values and the integer
    counts of the selected explanations, so the update does not depend on
    summation order.  The observed goals' explanations are read, when first
    asked for, as exact count rows (:meth:`CompiledGraph.selected_multisets`),
    and the run stops as soon as a pass's rows equal the previous pass's,
    even if a tie sent the argmax through another derivation of the same
    multiset."""

    termination = "fixed_point"
    counts_passes = True  # ``iterations`` counts passes

    def __init__(self, graph, log_theta, seeds, observed):
        self._comp, self._observed = graph.compiled(), observed
        self.values, self._sel = self._comp.viterbi_pass(log_theta)
        check_nonzero(graph, observed, self.values, AllZero)
        self.counts, self._use = self._comp.selected_counts_pass(self._sel, seeds)

    @cached_property
    def rows(self) -> np.ndarray:
        return self._comp.selected_multisets(self._sel, self.counts, self._use, self._observed)

    def stops(self, trace: list[float], tol: float, prev) -> bool:
        return prev is not None and np.array_equal(self.rows, prev.rows)


_PASSES = {"em": _InsidePass, "map": _InsidePass, "vt": _ViterbiPass}


def _learn(graph: ExplanationGraph, goals: Sequence[GoalId], config: LearnConfig) -> LearnReport:
    """The loop of every learner (see the module docstring)."""
    method = _PASSES[config.method]
    layout = graph.slots()
    seeds = _observation_seeds(graph, goals)
    delta = config.delta_flat(graph)
    seeds_f = seeds.astype(float)
    observed = np.nonzero(seeds)[0]
    pick = np.searchsorted(observed, np.asarray(list(goals), dtype=np.int64)).tolist()

    def run(restart: int) -> LearnReport:
        theta = _initial_theta(graph, config, restart)
        trace: list[float] = []
        degenerate: list[str] = []
        prev = None
        for updates in range(config.max_iter + 1):
            with np.errstate(divide="ignore"):
                log_theta = np.log(theta)
            cur = method(graph, log_theta, seeds, observed)
            trace.append(_obs_total(seeds_f, cur.values) + _prior_term(delta, log_theta))
            iteration = updates + method.counts_passes
            converged = iteration <= config.max_iter and cur.stops(trace, config.tol, prev)
            if converged or updates == config.max_iter:
                break
            theta, degenerate = layout.normalize(cur.counts + delta)
            prev = cur
        _warn_degenerate(graph, degenerate)
        return LearnReport(
            method=config.method,
            final_theta=ParameterTable.from_flat(layout, theta),
            objective_trace=trace,
            iterations=min(iteration, config.max_iter),
            converged=converged,
            termination=method.termination if converged else "max_iter",
            per_goal_viterbi=_RowExplanations(layout, cur.rows, pick) if method is _ViterbiPass else None,
            degenerate_switches=degenerate,
        )

    return _best_restart(run, config)


def em_map_learn(
    graph: ExplanationGraph, goals: Sequence[GoalId], config: LearnConfig
) -> LearnReport:
    """Expectation-maximisation (or MAP with pseudo counts) on the graph.

    The run stops when the relative objective change drops to
    ``config.tol`` or after ``config.max_iter`` updates.
    """
    if config.method not in ("em", "map"):
        raise ExplGraphError("em_map_learn handles methods 'em' and 'map'")
    return _learn(graph, goals, config)


def vt_learn(
    graph: ExplanationGraph, goals: Sequence[GoalId], config: LearnConfig
) -> LearnReport:
    """Viterbi training: coordinate ascent on explanations and parameters.

    The run stops at the first pass whose observed goals' explanations,
    as count multisets, equal the previous pass's, or after
    ``config.max_iter`` passes.  ``per_goal_viterbi`` is read off the best
    restart's last rows when first read.  Pseudo counts must be strictly
    positive, which keeps every parameter nonzero across iterations;
    explanation overlap is irrelevant because only one explanation per
    goal is ever scored.
    """
    if config.method != "vt":
        raise ExplGraphError("vt_learn handles method 'vt'")
    return _learn(graph, goals, config)


def learn(graph, goals, config: LearnConfig) -> LearnReport:
    """The learner selected by ``config.method``."""
    return _learn(graph, goals, config)


def _prior_term(delta: np.ndarray, log_theta: np.ndarray) -> float:
    """Full Dirichlet log-prior term sum(delta * log theta) over all slots.

    Used in the MAP objective and in the reported Viterbi-training trace;
    the coordinate-ascent argument that makes the trace non-decreasing
    holds for the prior taken over every declared switch.
    """
    if not np.any(delta):
        return 0.0
    with np.errstate(invalid="ignore"):
        term = delta * log_theta
    return float(np.sum(term[delta > 0]))


def _best_restart(run, config: LearnConfig) -> LearnReport:
    best_report = None
    for r in range(config.restarts):
        report = run(r)
        report.best_restart_index = r
        if best_report is None or report.objective > best_report.objective:
            best_report = report
    return best_report


def expected_counts(
    graph: ExplanationGraph, goals: Sequence[GoalId], theta: ParameterTable
) -> ExpectedCounts:
    """Expected switch occurrence counts given the observed goals.

    One inside pass plus one posterior-weighted top-down pass over the
    shared graph; observation multiplicities are handled by seeding each
    observed goal with its count.
    """
    seeds = _observation_seeds(graph, goals)
    em = _InsidePass(graph, log_theta_vector(graph, theta), seeds, np.nonzero(seeds)[0])
    return ExpectedCounts.from_flat(graph.slots(), em.counts)


def objective(
    method: str,
    graph: ExplanationGraph,
    goals: Sequence[GoalId],
    theta: ParameterTable,
    delta: Optional[PseudoCountTable] = None,
) -> float:
    """Evaluate a learning objective at fixed parameters.

    ``em``: sum over observed goals of log inside probability.
    ``map``: the same plus ``sum delta * log theta`` over every declared
    (switch, value) pair.
    ``vt``: with ``e*_t`` the Viterbi explanation of each observed goal
    under ``theta``, the weighted sum ``(count of (i,v) in the e*_t +
    delta_{i,v}) * log theta_{i,v}``, ranging over exactly the (switch,
    value) pairs that occur in some ``e*_t``.
    """
    if method not in METHODS:
        raise ExplGraphError(f"unknown learning method {method!r}")
    layout = graph.slots()
    seeds = _observation_seeds(graph, goals)
    log_theta = log_theta_vector(graph, theta)
    delta_flat = np.zeros(layout.n_slots) if delta is None else layout.flatten(delta)
    scored = _PASSES[method](graph, log_theta, seeds, np.nonzero(seeds)[0])
    if method == "vt":
        eta = scored.counts
        with np.errstate(invalid="ignore"):
            term = (eta + delta_flat) * log_theta
        return float(np.sum(term[eta > 0]))
    value = _obs_total(seeds.astype(float), scored.values)
    if method == "map":
        value += _prior_term(delta_flat, log_theta)
    return value

"""Parameter estimation on explanation graphs.

Three learners share one interface:

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

Every learner supports random restarts on jittered near-uniform
initialisations; restarts are fully determined by (seed, restart index).
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ExplGraphError, ExplGraphWarning, ZeroEvidence
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


@dataclass
class LearnConfig:
    """Knobs shared by all learners.

    ``pseudo_counts`` wins over the scalar ``delta`` when both are given;
    with neither, ``map`` and ``vt`` default to 1.0 per (switch, value)
    and ``em`` uses none (pseudo counts are ignored under ``em``).
    ``init`` is ``"jittered_uniform"`` (per-slot weights 1 + U(0, jitter),
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
    jitter: float = 0.01

    def __post_init__(self):
        if self.method not in METHODS:
            raise ExplGraphError(f"unknown learning method {self.method!r}")
        if self.tol <= 0 or self.max_iter < 1 or self.restarts < 1:
            raise ExplGraphError("tol, max_iter and restarts must be positive")
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
        if delta <= 0.0:
            raise ExplGraphError(f"{self.method} requires strictly positive pseudo counts")
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
        weights = 1.0 + rng.uniform(0.0, config.jitter, layout.n_slots)
    theta, _ = layout.normalize(weights)
    return theta


def expected_counts(
    graph: ExplanationGraph, goals: Sequence[GoalId], theta: ParameterTable
) -> ExpectedCounts:
    """Expected switch occurrence counts given the observed goals.

    One inside pass plus one posterior-weighted top-down pass over the
    shared graph; observation multiplicities are handled by seeding each
    observed goal with its count.
    """
    comp = graph.compiled()
    seeds = _observation_seeds(graph, goals)
    inside, scores = comp.inside_pass(log_theta_vector(graph, theta))
    check_nonzero(graph, np.nonzero(seeds)[0], inside, ZeroEvidence)
    eta, _ = comp.expected_counts_pass(inside, scores, seeds)
    return ExpectedCounts.from_flat(graph.slots(), eta)



def _obs_total(seeds_f: np.ndarray, values: np.ndarray) -> float:
    """Sum of per-goal values weighted by observation counts.

    Restricted to observed goals so that -inf values at unobserved goals
    cannot poison the sum."""
    mask = seeds_f > 0
    return float(seeds_f[mask] @ values[mask])


def _warn_degenerate(graph, degenerate) -> None:
    if degenerate:
        warnings.warn(
            "switches never observed in any goal's derivations keep their "
            "prior/uniform parameters: " + ", ".join(degenerate),
            ExplGraphWarning,
            stacklevel=3,
        )


def em_map_learn(
    graph: ExplanationGraph, goals: Sequence[GoalId], config: LearnConfig
) -> LearnReport:
    """Expectation-maximisation (or MAP with pseudo counts) on the graph.

    The objective trace records the log likelihood (plus the log prior
    term for ``map``) once per pass, starting at the initial parameters;
    iteration stops when the relative objective change drops below
    ``config.tol`` or after ``config.max_iter`` updates.
    """
    if config.method not in ("em", "map"):
        raise ExplGraphError("em_map_learn handles methods 'em' and 'map'")
    comp = graph.compiled()
    layout = graph.slots()
    seeds = _observation_seeds(graph, goals)
    delta = config.delta_flat(graph)
    seeds_f = seeds.astype(float)
    observed = np.nonzero(seeds)[0]

    def run(restart: int) -> LearnReport:
        theta = _initial_theta(graph, config, restart)
        trace: list[float] = []
        degenerate: list[str] = []
        converged = False
        iterations = 0
        with np.errstate(divide="ignore"):
            log_theta = np.log(theta)
        inside, scores = comp.inside_pass(log_theta)
        check_nonzero(graph, observed, inside, ZeroEvidence)
        prev = _obs_total(seeds_f, inside) + _prior_term(delta, log_theta)
        trace.append(prev)
        for it in range(1, config.max_iter + 1):
            iterations = it
            eta, _ = comp.expected_counts_pass(inside, scores, seeds)
            theta, degenerate = layout.normalize(eta + delta)
            with np.errstate(divide="ignore"):
                log_theta = np.log(theta)
            inside, scores = comp.inside_pass(log_theta)
            check_nonzero(graph, observed, inside, ZeroEvidence)
            current = _obs_total(seeds_f, inside) + _prior_term(delta, log_theta)
            trace.append(current)
            if abs(current - prev) <= config.tol * max(1.0, abs(prev)):
                converged = True
                break
            prev = current
        _warn_degenerate(graph, degenerate)
        return LearnReport(
            method=config.method,
            final_theta=ParameterTable.from_flat(layout, theta),
            objective_trace=trace,
            iterations=iterations,
            converged=converged,
            termination="tol_reached" if converged else "max_iter",
            degenerate_switches=degenerate,
        )

    return _best_restart(run, config)


def vt_learn(
    graph: ExplanationGraph, goals: Sequence[GoalId], config: LearnConfig
) -> LearnReport:
    """Viterbi training: coordinate ascent on explanations and parameters.

    Each pass computes the Viterbi explanation of every observed goal
    under the current parameters and then renormalises selected-plus-
    pseudo counts.  Termination is exact multiset identity: every pass
    reads the observed goals' explanations as exact integer count rows
    (:meth:`CompiledGraph.selected_multisets`), and the run stops as soon
    as a pass's rows equal the previous pass's, even if a tie sent the
    argmax through a different derivation of the same multiset.  The
    reported ``per_goal_viterbi`` is read off the best restart's rows when
    first read; the other restarts' rows are dropped with their reports.
    Pseudo counts must be strictly positive, which keeps every
    parameter nonzero across iterations; explanation overlap is irrelevant
    here because only one explanation per goal is ever scored.
    """
    if config.method != "vt":
        raise ExplGraphError("vt_learn handles method 'vt'")
    comp = graph.compiled()
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
        rows = None
        converged = False
        iterations = 0
        for it in range(1, config.max_iter + 1):
            iterations = it
            with np.errstate(divide="ignore"):
                log_theta = np.log(theta)
            best, sel = comp.viterbi_pass(log_theta)
            check_nonzero(graph, observed, best)
            trace.append(_obs_total(seeds_f, best) + _prior_term(delta, log_theta))
            # integer counts, so the update does not depend on summation order
            eta, use = comp.selected_counts_pass(sel, seeds)
            prev, rows = rows, comp.selected_multisets(sel, eta, use, observed)
            if prev is not None and np.array_equal(rows, prev):
                converged = True
                break
            theta, degenerate = layout.normalize(eta + delta)
        if not converged:
            # keep the reported explanations consistent with final_theta
            with np.errstate(divide="ignore"):
                _, sel = comp.viterbi_pass(np.log(theta))
            rows = comp.selected_multisets(sel, *comp.selected_counts_pass(sel, seeds), observed)
        _warn_degenerate(graph, degenerate)
        return LearnReport(
            method="vt",
            final_theta=ParameterTable.from_flat(layout, theta),
            objective_trace=trace,
            iterations=iterations,
            converged=converged,
            termination="fixed_point" if converged else "max_iter",
            per_goal_viterbi=_RowExplanations(layout, rows, pick),
            degenerate_switches=degenerate,
        )

    return _best_restart(run, config)


def learn(graph, goals, config: LearnConfig) -> LearnReport:
    """Dispatch to the learner selected by ``config.method``."""
    if config.method == "vt":
        return vt_learn(graph, goals, config)
    return em_map_learn(graph, goals, config)


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
    comp = graph.compiled()
    layout = graph.slots()
    seeds = _observation_seeds(graph, goals)
    observed = np.nonzero(seeds)[0]
    log_theta = log_theta_vector(graph, theta)
    delta_flat = np.zeros(layout.n_slots) if delta is None else layout.flatten(delta)

    if method in ("em", "map"):
        inside, _ = comp.inside_pass(log_theta)
        check_nonzero(graph, observed, inside, ZeroEvidence)
        value = _obs_total(seeds.astype(float), inside)
        if method == "map":
            value += _prior_term(delta_flat, log_theta)
        return value

    best, sel = comp.viterbi_pass(log_theta)
    check_nonzero(graph, observed, best)
    eta, _ = comp.selected_counts_pass(sel, seeds)
    used = eta > 0
    with np.errstate(invalid="ignore"):
        term = (eta + delta_flat) * log_theta
    return float(np.sum(term[used]))

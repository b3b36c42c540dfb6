"""Per-switch value tables: probabilities, pseudo counts, expected counts.

All three table kinds share one representation: a vector per switch,
aligned with the declared value order.  :class:`SlotLayout` flattens the
per-switch vectors into one dense array so the dynamic-programming passes
can gather and scatter with plain numpy indexing.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Union

import numpy as np

from .errors import ExplGraphError, MissingParameter
from .graph import Explanation, ExplanationGraph, SwitchDecl, SwitchInstance
from .terms import TermLike, render_term

__all__ = [
    "SlotLayout",
    "SwitchTable",
    "ParameterTable",
    "PseudoCountTable",
    "ExpectedCounts",
]

SwitchKey = Union[str, TermLike]


def _key(switch: SwitchKey) -> str:
    return switch if isinstance(switch, str) else render_term(switch)


class SlotLayout:
    """Dense indexing of every (switch, value) pair of a graph."""

    def __init__(self, switches: Mapping[str, SwitchDecl]):
        self.decls = dict(switches)
        self.keys = list(self.decls)
        self.offsets: dict[str, int] = {}
        off = 0
        for k in self.keys:
            self.offsets[k] = off
            off += len(self.decls[k].values)
        self.n_slots = off
        # reduceat segment starts and segment sizes, one per switch
        self.starts = np.array([self.offsets[k] for k in self.keys], dtype=np.int64)
        self.sizes = np.diff(self.starts, append=self.n_slots)
        # reverse lookup: slot -> (switch, value)
        self.slot_pairs: list[tuple[TermLike, TermLike]] = [
            (d.id, v) for d in self.decls.values() for v in d.values
        ]

    def slot(self, switch: TermLike, value: TermLike) -> int:
        """The slot of ``value`` of ``switch``; raises as a graph's
        validation does for an invalid term, an undeclared switch or an
        undeclared value."""
        k = render_term(switch)
        try:
            decl = self.decls[k]
        except KeyError:
            raise MissingParameter(f"switch {k} not declared in graph") from None
        return self.offsets[k] + decl.value_index(value)

    def explanation(self, counts, derivation: Optional[tuple] = None) -> Explanation:
        """The explanation holding ``count`` instances of each (slot, count) pair."""
        return Explanation(
            (SwitchInstance(*self.slot_pairs[s], int(m)) for s, m in counts), derivation
        )

    def flatten(self, table: "SwitchTable") -> np.ndarray:
        out = np.empty(self.n_slots)
        for k in self.keys:
            vec = table.vector(k, len(self.decls[k].values))
            out[self.offsets[k] : self.offsets[k] + len(vec)] = vec
        return out

    def unflatten(self, flat: np.ndarray) -> dict:
        return {
            k: np.array(flat[self.offsets[k] : self.offsets[k] + len(d.values)])
            for k, d in self.decls.items()
        }

    def normalize(self, flat: np.ndarray) -> tuple[np.ndarray, list[str]]:
        """Per-switch normalisation of a nonnegative flat vector.

        Switches whose entries sum to zero get a uniform vector and are
        reported back as degenerate.
        """
        sums = np.add.reduceat(flat, self.starts)
        zero = sums <= 0.0
        degenerate = [self.keys[k] for k in np.flatnonzero(zero).tolist()]
        # a degenerate switch's entries become 1 / its size, the others entry / sum
        spread = np.repeat(zero, self.sizes)
        out = np.where(spread, 1.0, flat) / np.repeat(np.where(zero, self.sizes, sums), self.sizes)
        return out, degenerate


class SwitchTable:
    """Mapping from switch name to a value-aligned float vector."""

    kind = "table"

    def __init__(self, decls: Mapping[str, SwitchDecl], data: Mapping[str, Iterable[float]]):
        self.decls = dict(decls)
        self.data: dict[str, np.ndarray] = {}
        for k, decl in self.decls.items():
            if k not in data:
                raise MissingParameter(f"{self.kind} missing switch {k}")
            vec = np.asarray(list(data[k]), dtype=float)
            if vec.shape != (len(decl.values),):
                raise ExplGraphError(
                    f"{self.kind} for switch {k} has {vec.size} entries, "
                    f"expected {len(decl.values)}"
                )
            self.data[k] = vec
        self._check()

    def _check(self) -> None:
        pass

    @classmethod
    def _decls_of(cls, source) -> dict:
        if isinstance(source, ExplanationGraph):
            return dict(source.switches)
        return {render_term(d.id): d for d in source}

    def get(self, switch: SwitchKey, value: TermLike) -> float:
        k = _key(switch)
        if k not in self.data:
            raise MissingParameter(f"switch {k} not covered by {self.kind}")
        return float(self.data[k][self.decls[k].value_index(value)])

    def vector(self, switch: SwitchKey, expected_len: Optional[int] = None) -> np.ndarray:
        k = _key(switch)
        if k not in self.data:
            raise MissingParameter(f"switch {k} not covered by {self.kind}")
        vec = self.data[k]
        if expected_len is not None and len(vec) != expected_len:
            raise ExplGraphError(f"switch {k} vector length mismatch")
        return vec

    def items(self):
        for k, vec in self.data.items():
            decl = self.decls[k]
            for v, x in zip(decl.values, vec):
                yield decl.id, v, float(x)

    def covers(self, switches: Mapping[str, SwitchDecl]) -> None:
        for k in switches:
            if k not in self.data:
                raise MissingParameter(f"switch {k} not covered by {self.kind}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SwitchTable)
            and self.data.keys() == other.data.keys()
            and all(np.array_equal(self.data[k], other.data[k]) for k in self.data)
        )

    def allclose(self, other: "SwitchTable", atol: float = 0.0, rtol: float = 1e-12) -> bool:
        return self.data.keys() == other.data.keys() and all(
            np.allclose(self.data[k], other.data[k], atol=atol, rtol=rtol)
            for k in self.data
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={np.round(v, 6)}" for k, v in self.data.items())
        return f"{type(self).__name__}({inner})"


class ParameterTable(SwitchTable):
    """Per-switch probability simplex, validated on construction."""

    kind = "parameters"

    def __init__(self, decls, data, validate: bool = True):
        self._validate = validate
        super().__init__(decls, data)

    def _check(self) -> None:
        if not self._validate:
            return
        for k, vec in self.data.items():
            if np.any(vec < 0.0) or np.any(~np.isfinite(vec)):
                raise ExplGraphError(f"negative or non-finite probability for {k}")
            if abs(float(vec.sum()) - 1.0) > 1e-9:
                raise ExplGraphError(
                    f"probabilities for switch {k} sum to {vec.sum()!r}, not 1"
                )

    @classmethod
    def uniform(cls, source) -> "ParameterTable":
        decls = cls._decls_of(source)
        return cls(
            decls,
            {k: np.full(len(d.values), 1.0 / len(d.values)) for k, d in decls.items()},
        )

    @classmethod
    def from_flat(cls, layout: SlotLayout, flat: np.ndarray) -> "ParameterTable":
        return cls(layout.decls, layout.unflatten(flat))


class PseudoCountTable(SwitchTable):
    """Nonnegative additive counts, one per (switch, value)."""

    kind = "pseudo counts"

    def _check(self) -> None:
        for k, vec in self.data.items():
            if np.any(vec < 0.0) or np.any(~np.isfinite(vec)):
                raise ExplGraphError(f"negative or non-finite pseudo count for {k}")

    @classmethod
    def constant(cls, source, delta: float) -> "PseudoCountTable":
        decls = cls._decls_of(source)
        return cls(decls, {k: np.full(len(d.values), float(delta)) for k, d in decls.items()})

    @classmethod
    def zeros(cls, source) -> "PseudoCountTable":
        return cls.constant(source, 0.0)

    def require_positive(self) -> None:
        for k, vec in self.data.items():
            if np.any(vec <= 0.0):
                raise ExplGraphError(
                    f"pseudo counts must be strictly positive (switch {k})"
                )


class ExpectedCounts(SwitchTable):
    """Expected switch occurrence counts accumulated over observed goals."""

    kind = "expected counts"

    @classmethod
    def from_flat(cls, layout: SlotLayout, flat: np.ndarray) -> "ExpectedCounts":
        return cls(layout.decls, layout.unflatten(flat))

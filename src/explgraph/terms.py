"""Structured terms used as switch names, outcome values and goal labels.

A term is either an atom (a plain ``str`` symbol or an ``int``), a tuple of
terms (rendered as a bracketed list), or a compound :class:`Term` with a
functor and arguments.  Terms render to a canonical whitespace-free text
form, e.g. ``d_e(1,2)``, ``rule(S,[S,S])``, ``att``.  Rendering is
injective over valid symbols, which makes the canonical text usable as a
sort key and as the on-disk representation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import TermSyntaxError

__all__ = ["Term", "TermLike", "render_term", "parse_term", "check_symbol"]

# Characters with structural meaning in rendered terms and in the
# line-oriented file formats; they may not occur inside a symbol.
_RESERVED = set("()[],#|=*:'\"")
# Matches any whitespace (``\s`` is ``str.isspace`` for str patterns) or
# reserved character: the characters a symbol may not contain.
_FORBIDDEN = re.compile("[\\s" + re.escape("".join(sorted(_RESERVED))) + "]")


@dataclass(frozen=True)
class Term:
    """Compound term: a functor applied to a tuple of argument terms."""

    functor: str
    args: tuple = ()

    def __post_init__(self):
        check_symbol(self.functor)
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    def __str__(self) -> str:
        return render_term(self)

    def __repr__(self) -> str:
        return f"Term({render_term(self)!r})"


TermLike = Union[str, int, tuple, Term]


def check_symbol(symbol: str) -> str:
    """Validate an atom/functor symbol; returns it unchanged.

    Symbols must be nonempty, free of whitespace and reserved punctuation,
    and must not look like an integer (integers are their own atom kind).
    """
    if not isinstance(symbol, str) or not symbol:
        raise TermSyntaxError(f"invalid symbol: {symbol!r}")
    if _FORBIDDEN.search(symbol):
        raise TermSyntaxError(f"symbol contains reserved character: {symbol!r}")
    if symbol.lstrip("-").isdigit():
        raise TermSyntaxError(f"symbol looks like an integer: {symbol!r}")
    return symbol


def render_term(t: TermLike) -> str:
    """Canonical text form of a term."""
    if isinstance(t, bool):
        raise TermSyntaxError("booleans are not terms")
    if isinstance(t, int):
        return str(t)
    if isinstance(t, str):
        check_symbol(t)
        return t
    if isinstance(t, (tuple, list)):
        return "[" + ",".join(render_term(x) for x in t) + "]"
    if isinstance(t, Term):
        if not t.args:
            return t.functor
        return t.functor + "(" + ",".join(render_term(a) for a in t.args) + ")"
    raise TermSyntaxError(f"not a term: {t!r}")


def parse_term(text: str) -> TermLike:
    """Parse canonical term text back into a term.

    Inverse of :func:`render_term`: ``parse_term(render_term(t)) == t``
    for every valid term ``t`` (lists come back as tuples).
    """
    term, pos = _parse(text, 0)
    if pos != len(text):
        raise TermSyntaxError(f"trailing input at column {pos} in {text!r}")
    return term


def _parse(s: str, pos: int) -> tuple[TermLike, int]:
    if pos >= len(s):
        raise TermSyntaxError(f"unexpected end of term in {s!r}")
    if s[pos] == "[":
        items = []
        pos += 1
        if pos < len(s) and s[pos] == "]":
            return (), pos + 1
        while True:
            item, pos = _parse(s, pos)
            items.append(item)
            if pos >= len(s):
                raise TermSyntaxError(f"unterminated list in {s!r}")
            if s[pos] == ",":
                pos += 1
                continue
            if s[pos] == "]":
                return tuple(items), pos + 1
            raise TermSyntaxError(f"expected ',' or ']' at column {pos} in {s!r}")
    start = pos
    while pos < len(s) and not s[pos].isspace() and s[pos] not in _RESERVED:
        pos += 1
    token = s[start:pos]
    if not token:
        raise TermSyntaxError(f"expected a term at column {start} in {s!r}")
    if pos < len(s) and s[pos] == "(":
        args = []
        pos += 1
        while True:
            arg, pos = _parse(s, pos)
            args.append(arg)
            if pos >= len(s):
                raise TermSyntaxError(f"unterminated arguments in {s!r}")
            if s[pos] == ",":
                pos += 1
                continue
            if s[pos] == ")":
                return Term(token, tuple(args)), pos + 1
            raise TermSyntaxError(f"expected ',' or ')' at column {pos} in {s!r}")
    if token.lstrip("-").isdigit():
        return int(token), pos
    return token, pos

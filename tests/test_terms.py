import pytest

from explgraph.errors import TermSyntaxError
from explgraph.terms import _RESERVED, Term, check_symbol, parse_term, render_term


def test_atom_rendering():
    assert render_term("on") == "on"
    assert render_term(42) == "42"
    assert render_term(-3) == "-3"


def test_compound_rendering():
    assert render_term(Term("d_e", (1, 2))) == "d_e(1,2)"
    assert render_term(Term("rule", ("S", ("S", "S")))) == "rule(S,[S,S])"
    assert render_term(()) == "[]"
    assert render_term(("a", Term("f", (1,)))) == "[a,f(1)]"


@pytest.mark.parametrize(
    "text",
    ["on", "42", "-7", "d_e(1,2)", "rule(S,[S,S])", "att(S)", "[a,b,[c]]", "f(g(h),[1,2])"],
)
def test_round_trip(text):
    assert render_term(parse_term(text)) == text


def test_parse_rejects_garbage():
    for bad in ["", "f(", "f(a", "[a", "f(a))", "a b", "f()("]:
        with pytest.raises(TermSyntaxError):
            parse_term(bad)


def test_symbols_reject_reserved_characters():
    for bad in ["a b", "a(b", "x,y", "x=y", "x*2", "", "12"]:
        with pytest.raises(TermSyntaxError):
            render_term(Term(bad))


def test_symbol_check_matches_per_character_predicate():
    # the check once tested ``c.isspace() or c in _RESERVED`` per character
    for code in range(0x10000):
        c = chr(code)
        try:
            check_symbol("x" + c)
            rejected = False
        except TermSyntaxError:
            rejected = True
        assert rejected == (c.isspace() or c in _RESERVED), hex(code)


def test_rendering_is_injective_on_samples():
    terms = [
        "a",
        1,
        Term("a", (1,)),
        Term("a", ("1x",)),
        ("a", 1),
        ("a", (1,)),
        Term("a", (("b",),)),
        Term("a", ("b",)),
    ]
    rendered = [render_term(t) for t in terms]
    assert len(set(rendered)) == len(rendered)

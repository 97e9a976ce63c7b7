import random

import pytest

from aspcount import ParseDiagnostic, ParseError, parse_program, render_program

from helpers import EXAMPLE1, id_of, random_program


def test_example1_shape():
    p = parse_program(EXAMPLE1)
    assert list(p.atoms) == ["a", "b", "c", "d", "e"]
    assert len(p.rules) == 7
    assert not p.constraints
    a, b, c, d, e = range(5)
    bodies = {(r.head, r.pos_body, r.neg_body) for r in p.rules}
    assert (a, frozenset(), frozenset({b})) in bodies
    assert (c, frozenset({a, b}), frozenset()) in bodies
    assert (c, frozenset({d}), frozenset()) in bodies
    assert (e, frozenset(), frozenset({a, b})) in bodies


def test_fact():
    p = parse_program("a.")
    assert len(p.rules) == 1
    r = p.rules[0]
    assert not r.pos_body and not r.neg_body


def test_constraint_only():
    p = parse_program(":- a, not b.")
    assert not p.rules
    assert len(p.constraints) == 1
    c = p.constraints[0]
    assert c.pos == {id_of(p.atoms, "a")} and c.neg == {id_of(p.atoms, "b")}


def test_comments_and_whitespace():
    p = parse_program("% header\n  a :- % inline\n     not b .  % trailing\nb.")
    assert len(p.rules) == 2
    assert len(parse_program("a. % c").rules) == 1  # comment ends the input, no newline


def test_parenthesized_args_are_one_symbol():
    p = parse_program("edge(1,2).\nr(f(g(0))) :- edge(1,2).")
    assert "edge(1,2)" in p.atoms
    assert "r(f(g(0)))" in p.atoms


def test_duplicate_statements_deduplicated():
    p = parse_program("a :- b.\na :- b.\n:- c.\n:- c.")
    assert len(p.rules) == 1
    assert len(p.constraints) == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("a :- b", "expected '.'"),
        ("a :- .", "atom"),
        ("a :- not not b.", "not"),
        (":- .", "atom"),
        ("a )", "unexpected character"),
        ("?", "unexpected"),
        ("a : b.", "':-'"),
        ("f(x.", "unbalanced"),
        ("not.", "not"),
    ],
)
def test_syntax_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,line,column,message",
    [
        pytest.param("a :- b.\ncc :- ,", 2, 7, "expected an atom, got ','", id="second-line"),
        pytest.param("a.\n% b\n?", 3, 1, "unexpected character '?'", id="after-comment"),
        pytest.param("x(1,\n2) :- y(\n3) ?", 3, 4, "unexpected character '?'", id="args-span-lines"),
        pytest.param("not(a).", 1, 1, "'not' before 'not' / 'not' is not an atom", id="not-paren-head"),
        pytest.param(":- not(a).", 1, 7, "unexpected character '('", id="not-paren-body"),
        # a grammar error at a token comes before any lexing error after it,
        # and a token's own lexing error before the grammar error it makes
        pytest.param("a b ?", 1, 3, "expected '.' at end of statement, got 'b'", id="grammar-before-bad-char"),
        pytest.param("a b f(", 1, 3, "expected '.' at end of statement, got 'b'", id="grammar-before-unbalanced"),
        pytest.param("a :- b c(", 1, 8, "unbalanced '(' in atom arguments", id="unbalanced-before-grammar"),
        pytest.param("a. b :- c d((", 1, 11, "unbalanced '(' in atom arguments", id="unbalanced-after-statement"),
        pytest.param("a :- b,\n% c\n", 3, 1, "expected an atom, got end of input", id="end-after-comment"),
        pytest.param("p (1).", 1, 3, "unexpected character '('", id="space-before-args"),
        pytest.param("a :- p(1), q).", 1, 13, "unexpected character ')'", id="args-end-at-first-close"),
    ],
)
def test_diagnostic_position(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert err.value.diagnostic == ParseDiagnostic(line, column, message)


@pytest.mark.parametrize(
    "text,symbols",
    [
        ("p(f(%)).", ["p(f(%))"]),
        ("p(1.5).", ["p(1.5)"]),
        ("p(f(.)) :- q(%x\n).", ["p(f(.))", "q(%x\n)"]),
    ],
)
def test_arguments_are_opaque(text, symbols):
    assert list(parse_program(text).atoms) == symbols


def test_unicode_whitespace_separates_tokens():
    p = parse_program("a.\u3000b.\xa0c :-\u2003b.\x0b")
    assert list(p.atoms) == ["a", "b", "c"]
    assert len(p.rules) == 3


def test_many_nested_argument_statements():
    n = 20_000
    p = parse_program("".join(f"p(f({i})).\n" for i in range(n)))
    assert p.n_atoms == len(set(p.atoms)) == n
    assert len(p.rules) == n


def test_deeply_nested_args_are_one_symbol():
    depth = 100_000
    p = parse_program("a" + "(" * depth + ")" * depth + ".")
    assert p.n_atoms == 1
    assert len(p.symbol(0)) == 1 + 2 * depth


def test_render_example1_lines():
    text = render_program(parse_program(EXAMPLE1))
    lines = text.strip().split("\n")
    assert len(lines) == 7
    assert all(line.endswith(".") for line in lines)


def test_render_empty():
    assert render_program(parse_program("")) == ""


def test_render_constraints():
    text = render_program(parse_program(":- a, not b."))
    assert text == ":- a, not b.\n"


def _isomorphic(p1, p2):
    def shape(p):
        rules = {
            (
                p.symbol(r.head),
                frozenset(p.symbol(x) for x in r.pos_body),
                frozenset(p.symbol(x) for x in r.neg_body),
            )
            for r in p.rules
        }
        constraints = {
            (
                frozenset(p.symbol(x) for x in c.pos),
                frozenset(p.symbol(x) for x in c.neg),
            )
            for c in p.constraints
        }
        return rules, constraints

    return shape(p1) == shape(p2)


def test_round_trip_random_programs():
    rng = random.Random(7)
    for _ in range(60):
        p = random_program(rng)
        again = parse_program(render_program(p))
        assert _isomorphic(p, again)


def test_fuzz_never_crashes():
    rng = random.Random(99)
    alphabet = "ab:-,.()%not \n_01"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        try:
            parse_program(text)
        except ParseError:
            pass

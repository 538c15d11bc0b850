"""Expression trees for monoid provenance: parsing, rendering, heights."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from leaktight import (
    Concat,
    Epsilon,
    Iterate,
    Letter,
    LimitWord,
    ValidationError,
    concat_expr,
    epsilon_expr,
    iterate_expr,
    letter_expr,
    parse_expression,
)
from leaktight.zoo import fig3

from .helpers import seeded_automaton, seeded_closure


def _swap_automaton():
    from fractions import Fraction as F

    from leaktight import Automaton

    return Automaton(
        states=("0", "1"),
        alphabet=("c",),
        initial="0",
        final=frozenset({"1"}),
        matrices=(((F(0), F(1)), (F(1), F(0))),),
    )


def test_epsilon_is_identity() -> None:
    e = epsilon_expr(3)
    assert isinstance(e, Epsilon)
    assert e.word == LimitWord.identity(3)
    assert e.render() == "ε"
    assert e.height == 0 and e.depth == 0


def test_letter_expression() -> None:
    a = fig3()
    expr = letter_expr(a, "a")
    assert isinstance(expr, Letter)
    assert expr.render() == "a"
    assert expr.word.rows[0] == 0b11
    with pytest.raises(ValidationError):
        letter_expr(a, "zz")


def test_concat_and_iterate_shapes() -> None:
    a = fig3()
    ea, eb = letter_expr(a, "a"), letter_expr(a, "b")
    ab = concat_expr(ea, eb)
    assert isinstance(ab, Concat)
    assert ab.render() == "a b"
    assert ab.word == ea.word.concat(eb.word)
    assert ab.height == 0 and ab.depth == 1

    sharp = iterate_expr(ea)
    assert isinstance(sharp, Iterate)
    assert sharp.render() == "(a)#"
    assert sharp.word == ea.word.iterate()
    assert sharp.height == 1 and sharp.depth == 1
    assert iterate_expr(sharp).height == 2


def test_iterate_requires_idempotent() -> None:
    swap = _swap_automaton()
    ec = letter_expr(swap, "c")
    assert not ec.word.is_idempotent()
    with pytest.raises(ValidationError, match="precondition violation"):
        iterate_expr(ec)


def test_height_counts_nesting_not_width() -> None:
    a = fig3()
    ea = letter_expr(a, "a")
    wide = concat_expr(iterate_expr(ea), iterate_expr(ea))
    assert wide.height == 1
    assert wide.depth == 2


def test_parse_round_trips_fixture_expressions() -> None:
    a = fig3()
    for text in ("ε", "a", "b", "a b", "(a)#", "(a b a)# b", "((a)# (a)#)#"):
        expr = parse_expression(text, a)
        assert expr.render() == text
        assert parse_expression(expr.render(), a).word == expr.word


def test_parse_errors_carry_offsets() -> None:
    a = fig3()
    for bad in ("(a", "a)#", "zz", "()#"):
        with pytest.raises(ValidationError, match="expression syntax error at offset"):
            parse_expression(bad, a)


def test_parse_rejects_iterate_of_non_idempotent() -> None:
    # (c)# is a syntax-level success but a semantic failure when c is a swap:
    # its word is not idempotent.
    swap = _swap_automaton()
    assert not letter_expr(swap, "c").word.is_idempotent()
    with pytest.raises(ValidationError):
        parse_expression("(c)#", swap)
    # the even power is the identity and may be iterated
    assert parse_expression("(c c)#", swap).word == LimitWord.identity(2)


def test_provenance_round_trip_on_corpus() -> None:
    # Re-evaluating each closure element's recorded expression reproduces it.
    for seed in range(80):
        a = seeded_automaton(seed)
        closure = seeded_closure(seed)
        for element in closure.elements:
            expr = closure.provenance[element]
            assert expr.word == element
            assert parse_expression(expr.render(), a).word == element

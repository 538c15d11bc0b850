"""The all-pairs saturation engine over validated element objects.

This is the engine `markov_monoid` and `extended_markov_monoid` used before
elements were packed into ints; it is kept here, unchanged, as the slow
reference the packed engine is differential-tested against.  It works for
any element type with concat / is_idempotent / iterate methods.
"""

from __future__ import annotations

from leaktight.automaton import Automaton
from leaktight.errors import CapExceeded
from leaktight.leaks import ExtendedClosure, ExtendedLimitWord
from leaktight.limitword import LimitWord
from leaktight.monoid import DEFAULT_CAP, MonoidClosure
from leaktight.sharpexpr import concat_expr, epsilon_expr, iterate_expr, letter_expr


def _saturate(identity, generators, cap: int):
    elements: dict = {}
    order: list = []
    expressions: dict = {}
    heights: dict = {}

    def add(element, expression, height) -> None:
        if element in elements:
            return
        if len(order) >= cap:
            raise CapExceeded(
                f"monoid closure exceeded cap of {cap} elements"
            )
        elements[element] = True
        order.append(element)
        expressions[element] = expression
        heights[element] = height

    add(identity[0], identity[1], 0)
    for element, expression in generators:
        add(element, expression, 0)

    pointer = 0

    def close() -> None:
        nonlocal pointer
        while pointer < len(order):
            x = order[pointer]
            xe, xh = expressions[x], heights[x]
            for q in range(pointer + 1):
                y = order[q]
                ye, yh = expressions[y], heights[y]
                h = xh if xh >= yh else yh
                xy = x.concat(y)
                if xy not in elements:
                    add(xy, concat_expr(xe, ye), h)
                if x is not y:
                    yx = y.concat(x)
                    if yx not in elements:
                        add(yx, concat_expr(ye, xe), h)
            pointer += 1

    close()
    level = 0
    while True:
        batch = [u for u in order if heights[u] == level and u.is_idempotent()]
        grew = False
        for u in batch:
            v = u.iterate()
            if v not in elements:
                add(v, iterate_expr(expressions[u]), level + 1)
                grew = True
        if not grew:
            break
        close()
        level += 1
    return tuple(order), expressions, heights


def reference_markov_monoid(
    automaton: Automaton, cap: int = DEFAULT_CAP
) -> MonoidClosure:
    dim = len(automaton.states)
    identity = (LimitWord.identity(dim), epsilon_expr(dim))
    generators = []
    for letter in automaton.alphabet:
        expression = letter_expr(automaton, letter)
        generators.append((expression.word, expression))
    order, expressions, heights = _saturate(identity, generators, cap)
    return MonoidClosure(
        automaton=automaton,
        elements=order,
        provenance=expressions,
        heights=heights,
    )


def reference_extended_markov_monoid(
    automaton: Automaton, cap: int = DEFAULT_CAP
) -> ExtendedClosure:
    dim = len(automaton.states)
    one = LimitWord.identity(dim)
    identity = (ExtendedLimitWord(word=one, support=one), epsilon_expr(dim))
    generators = []
    for letter in automaton.alphabet:
        expression = letter_expr(automaton, letter)
        pair = ExtendedLimitWord(word=expression.word, support=expression.word)
        generators.append((pair, expression))
    order, expressions, heights = _saturate(identity, generators, cap)
    return ExtendedClosure(
        automaton=automaton,
        elements=order,
        provenance=expressions,
        heights=heights,
    )

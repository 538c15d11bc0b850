"""The all-pairs saturation engine over validated element objects.

This is the engine `markov_monoid` and `extended_markov_monoid` used before
elements were packed into ints; it is kept here, unchanged, as the slow
reference the packed engine is differential-tested against.  It works for
any element type with concat / is_idempotent / iterate methods.

`reference_bounded_witness_search` is the heap search
`bounded_witness_search` ran as before it was put on the packed engine,
also kept unchanged.
"""

from __future__ import annotations

import heapq
from typing import Optional

from leaktight.automaton import Automaton
from leaktight.errors import CapExceeded, ValidationError
from leaktight.leaks import ExtendedClosure, ExtendedLimitWord
from leaktight.limitword import LimitWord
from leaktight.monoid import DEFAULT_CAP, MonoidClosure, is_value1_witness
from leaktight.sharpexpr import (
    SharpExpression,
    concat_expr,
    epsilon_expr,
    iterate_expr,
    letter_expr,
)


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


class _WitnessFound(Exception):
    def __init__(self, expression: SharpExpression) -> None:
        self.expression = expression


def reference_bounded_witness_search(
    automaton: Automaton,
    max_height: Optional[int] = None,
    cap: int = DEFAULT_CAP,
) -> Optional[SharpExpression]:
    """Search for a value-1 witness using at most `max_height` nested iterates.

    `max_height=None` uses the number of states, which is always enough to
    find a witness when one exists.  Elements are expanded in order of their
    least iterate-nesting height (concatenation keeps the larger operand
    height, an iterate adds one), and the search returns as soon as a
    witness is offered.
    """
    bound = len(automaton.states) if max_height is None else max_height
    if bound < 0:
        raise ValidationError("max_height must be nonnegative")
    dim = len(automaton.states)
    best: dict[LimitWord, int] = {}
    expr_of: dict[LimitWord, SharpExpression] = {}
    heap: list[tuple[int, int, LimitWord]] = []
    ticket = 0

    def offer(element: LimitWord, height: int, expression: SharpExpression) -> None:
        nonlocal ticket
        known = best.get(element)
        if known is not None and known <= height:
            return
        if known is None:
            if len(best) >= cap:
                raise CapExceeded(
                    f"witness search exceeded cap of {cap} elements"
                )
            if is_value1_witness(automaton, element):
                raise _WitnessFound(expression)
        best[element] = height
        expr_of[element] = expression
        heapq.heappush(heap, (height, ticket, element))
        ticket += 1

    try:
        offer(LimitWord.identity(dim), 0, epsilon_expr(dim))
        for letter in automaton.alphabet:
            expression = letter_expr(automaton, letter)
            offer(expression.word, 0, expression)
        while heap:
            hx, _, x = heapq.heappop(heap)
            if hx > best[x]:
                continue
            ex = expr_of[x]
            for y in list(best):
                hy, ey = best[y], expr_of[y]
                h = hx if hx >= hy else hy
                offer(x.concat(y), h, concat_expr(ex, ey))
                offer(y.concat(x), h, concat_expr(ey, ex))
            if hx + 1 <= bound and x.is_idempotent():
                v = x.iterate()
                if v != x:
                    offer(v, hx + 1, iterate_expr(ex))
    except _WitnessFound as found:
        return found.expression
    return None

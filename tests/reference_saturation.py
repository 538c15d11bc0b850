"""The all-pairs saturation engine over validated element objects.

This is the engine `markov_monoid` and `extended_markov_monoid` used before
elements were packed into ints; it is kept here as the slow reference the
packed engine is differential-tested against, and returns its results as a
`ClosureRecord`.  It works for any element type with concat /
is_idempotent / iterate methods.

`ClosureRecord` holds a closure's fields as plain data, and
`reference_find_value1_witness` and `reference_plain_closure` find the
value-1 witness and derive the plain closure on it by scanning its
elements, as the library did before it read both off the packed keys.
`reference_find_leak_witness` finds the least leak by `reference_leak`,
the scalar recurrence loop run on each idempotent pair, as the library
did before the saturation marked the leaks on the keys.

`reference_bounded_witness_search` is the heap search
`bounded_witness_search` ran as before it was put on the packed engine,
also kept unchanged.

`reference_cayley_saturate` is `monoid.saturate` as it was before products
were batched over wide ints: the same right-Cayley enumeration, one scalar
product at a time.  Its layer loop follows the engine's: each iterate that
is not yet an element becomes a generator and is closed over at once, and
an iterate that is already an element is skipped.  The batched engine must
return the same elements, expressions, heights and idempotents in the same
order, and fail at the same element.  Unlike the engine, this loop derives
each expression's word by `concat_expr` / `iterate_expr` and tests each
element's idempotency by a scalar square.
"""

from __future__ import annotations

import heapq
import sys
from functools import reduce
from operator import mul, or_
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional

from leaktight.automaton import Automaton
from leaktight.errors import CapExceeded, ValidationError
from leaktight.leaks import ExtendedLimitWord
from leaktight.limitword import LimitWord
from leaktight.monoid import DEFAULT_CAP, is_value1_witness
from leaktight.sharpexpr import (
    SharpExpression,
    concat_expr,
    epsilon_expr,
    iterate_expr,
    letter_expr,
)


@dataclass(frozen=True)
class ClosureRecord:
    """A closure's fields as plain data: the elements in discovery order,
    each one's expression and height, and the idempotent elements."""

    automaton: Automaton
    elements: tuple
    provenance: Mapping[Any, SharpExpression]
    heights: Mapping[Any, int]
    idempotents: frozenset

    def expression(self, element) -> SharpExpression:
        return self.provenance[element]


def closure_record(
    automaton: Automaton,
    elements: Iterable,
    provenance: Mapping[Any, SharpExpression],
    heights: Mapping[Any, int],
) -> ClosureRecord:
    """The record of these fields; each element's idempotency is tested by
    its own scalar square."""
    elements = tuple(elements)
    return ClosureRecord(
        automaton,
        elements,
        dict(provenance),
        dict(heights),
        frozenset(element for element in elements if element.is_idempotent()),
    )


def reference_find_value1_witness(closure: ClosureRecord) -> Optional[LimitWord]:
    """The least witness in row-major bit order, found by scanning every
    element, or None."""
    witnesses = [
        element
        for element in closure.elements
        if is_value1_witness(closure.automaton, element)
    ]
    if not witnesses:
        return None
    return min(witnesses, key=LimitWord.sort_key)


def reference_plain_closure(closure: ClosureRecord) -> ClosureRecord:
    """The word components of an extended closure's pairs; each word keeps
    the expression and height of its first pair in discovery order."""
    first: dict[LimitWord, ExtendedLimitWord] = {}
    for pair in closure.elements:
        first.setdefault(pair.word, pair)
    return closure_record(
        closure.automaton,
        first,
        {word: closure.provenance[pair] for word, pair in first.items()},
        {word: closure.heights[pair] for word, pair in first.items()},
    )


def reference_leak(pair: ExtendedLimitWord) -> Optional[tuple[int, int]]:
    """The least (r, q), r first, by which an idempotent pair leaks, or
    None: r is recurrent in the word, the support has the edge r→q, and
    the word has no edge q→r."""
    word, support = pair.word, pair.support
    for r in sorted(word.recurrent_states()):
        row = support.rows[r]
        for q in range(word.dim):
            if row >> q & 1 and not word.rows[q] >> r & 1:
                return r, q
    return None


def reference_find_leak_witness(
    closure: ClosureRecord,
) -> Optional[tuple[ExtendedLimitWord, SharpExpression, int, int]]:
    """The least leak witness (by element, then by (r, q)), found by
    scanning every idempotent pair, as (element, expression, r, q), or
    None."""
    candidates = []
    for pair in closure.idempotents:
        leak = reference_leak(pair)
        if leak is not None:
            candidates.append((pair.sort_key(), leak, pair))
    if not candidates:
        return None
    _, (r, q), pair = min(candidates, key=lambda item: item[:2])
    return pair, closure.expression(pair), r, q


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
) -> ClosureRecord:
    dim = len(automaton.states)
    identity = (LimitWord.identity(dim), epsilon_expr(dim))
    generators = []
    for letter in automaton.alphabet:
        expression = letter_expr(automaton, letter)
        generators.append((expression.word, expression))
    return closure_record(automaton, *_saturate(identity, generators, cap))


def reference_extended_markov_monoid(
    automaton: Automaton, cap: int = DEFAULT_CAP
) -> ClosureRecord:
    dim = len(automaton.states)
    one = LimitWord.identity(dim)
    identity = (ExtendedLimitWord(word=one, support=one), epsilon_expr(dim))
    generators = []
    for letter in automaton.alphabet:
        expression = letter_expr(automaton, letter)
        pair = ExtendedLimitWord(word=expression.word, support=expression.word)
        generators.append((pair, expression))
    return closure_record(automaton, *_saturate(identity, generators, cap))


def reference_cayley_saturate(
    automaton: Automaton,
    components: int,
    cap: int,
    max_height: int = sys.maxsize,
) -> tuple[list[tuple[LimitWord, ...]], list[SharpExpression], list[int], list[int]]:
    """Saturate the automaton's letters under products and iterates.

    Elements are tuples of `components` limit words; the identity and each
    letter are seeded with their word as every component.  Iterates nest
    at most `max_height` deep.  Returns, per element in discovery order, its
    components, its expression and its least iterate-nesting height;
    heights never fall in discovery order.  The fourth list holds the
    indices, ascending, of every element whose components are all
    idempotent.  Expressions are built by `concat_expr` and `iterate_expr`,
    so every word is recomputed and every iterate's precondition checked.
    """
    n, k = len(automaton.states), components
    full = (1 << n) - 1
    spread = sum(1 << (s * n) for s in range(n))
    masks = tuple(spread << (c * n * n) for c in range(k))
    shifts = tuple(j * n for j in range(k * n))

    def left_form(key: int) -> list[int]:
        return [(key >> m) & mask for mask in masks for m in range(n)]

    def right_form(key: int) -> tuple[int, ...]:
        return tuple((key >> shift) & full for shift in shifts)

    keys: list[int] = []
    known: set[int] = set()
    sources: list = []
    heights: list[int] = []

    def add(key: int, source, height: int) -> None:
        if len(keys) >= cap:
            raise CapExceeded(f"monoid closure exceeded cap of {cap} elements")
        known.add(key)
        keys.append(key)
        sources.append(source)
        heights.append(height)

    seeds = [epsilon_expr(n)]
    seeds += [letter_expr(automaton, letter) for letter in automaton.alphabet]
    for expression in seeds:
        key = 0
        for j, row in enumerate(expression.word.rows * k):
            key |= row << (j * n)
        if key not in known:
            add(key, expression, 0)
    generators = list(range(1, len(keys)))

    def close(old: int, height: int) -> None:
        """Multiply the elements before `old` by the newest generator, and
        every later element by all generators.

        Layer 0 is closed with `old` = 0.  From layer 1 on, the newest
        generator is an iterate and `old` is its index.  Every product gets
        the layer's `height`: it is not in the closure of the lower layers,
        and both its factors have at most that height.
        """
        forms = [(g, right_form(keys[g])) for g in generators]
        new_forms = forms[-1:]
        pointer = 0
        while pointer < len(keys):
            x_left = left_form(keys[pointer])
            for g, g_right in new_forms if pointer < old else forms:
                xg = reduce(or_, map(mul, x_left, g_right))
                if xg not in known:
                    add(xg, (pointer, g), height)
            pointer += 1

    def is_idempotent(key: int) -> bool:
        return reduce(or_, map(mul, left_form(key), right_form(key))) == key

    def iterate(key: int) -> int:
        rows = right_form(key)
        recurrent = 0
        for s in range(n):
            row = rows[s]
            if all(rows[t] >> s & 1 for t in range(n) if row >> t & 1):
                recurrent |= 1 << s
        return key & ~((full ^ recurrent) * spread)

    close(0, 0)
    level = 0
    while level < max_height:
        old = len(keys)
        batch = [
            i
            for i, h in enumerate(heights)
            if h == level and is_idempotent(keys[i])
        ]
        for i in batch:
            v = iterate(keys[i])
            if v not in known:
                add(v, i, level + 1)
                generators.append(len(keys) - 1)
                close(len(keys) - 1, level + 1)
        if len(keys) == old:
            break
        level += 1

    expressions: list[SharpExpression] = []
    for source in sources:
        if isinstance(source, tuple):
            p, q = source
            expressions.append(concat_expr(expressions[p], expressions[q]))
        elif isinstance(source, int):
            expressions.append(iterate_expr(expressions[source]))
        else:
            expressions.append(source)
    spans = [slice(c * n, (c + 1) * n) for c in range(k)]
    elements = [
        tuple([LimitWord(n, rows[span]) for span in spans])
        for rows in map(right_form, keys)
    ]
    idempotents = [i for i, key in enumerate(keys) if is_idempotent(key)]
    return elements, expressions, heights, idempotents


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

"""Saturation of the boolean-abstraction monoid and the value-1 decision.

The closure starts from the identity and the letter abstractions, closes
under concatenation, and — layer by layer — adds the iterate of every
idempotent element.  Each element is recorded together with a witnessing
expression and the least number of nested iterates that can produce it.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, count, repeat
from operator import lshift, mul, not_, or_
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Sequence

from .automaton import Automaton
from .errors import CapExceeded, ValidationError
from .limitword import LimitWord
from .sharpexpr import (
    SharpExpression,
    concat_expr,
    epsilon_expr,
    iterate_expr,
    letter_expr,
)

if TYPE_CHECKING:  # pragma: no cover
    from .leaks import ExtendedClosure

__all__ = [
    "DEFAULT_CAP",
    "saturate",
    "MonoidClosure",
    "markov_monoid",
    "is_value1_witness",
    "find_value1_witness",
    "UpperBound",
    "Certificate",
    "Value1Report",
    "decide_value1",
    "sharp_height",
    "bounded_witness_search",
    "j_leq",
    "two_sided_ideal",
]

DEFAULT_CAP = 2**20


# ---------------------------------------------------------------------------
# Packed stratified saturation
#
# One engine saturates both closures.  An element is a tuple of k limit
# words over n states (k = 1 for the plain monoid; k = 2 for extended pairs,
# word then support), packed into one int key: row s of component c is row
# j = c·n + s, held in bits [j·n, (j+1)·n).  The componentwise product is
#
#     x·y = OR over j = c·n + m of ((x >> m) & S_c) * (row j of y)
#
# where S_c has bit (c·n + s)·n set for every row s of component c.  The
# mask keeps one bit at the start of each row of x that contains column m,
# and multiplying by an n-bit row of y copies that row into every kept
# field; fields are n bits wide, so the copies never carry into each other.
# The k·n masks are an element's left-operand form, its k·n rows its
# right-operand form.  Only the first component is iterated; the others are
# carried along, and an element is idempotent when all of them are.
#
# The closure pointer x is multiplied with every element y up to and
# including it, x·y before y·x, so every ordered product is computed exactly
# once.  The formula above does this for all those y at once: row j of
# every y sits in one wide int, one slot of 64·`words` bits (at least a
# key's width) per element, and so does mask j, so x·y for every y is an OR
# of k·n multiplications of the wide rows by x's masks, and y·x one of the
# wide masks by x's rows; no product outgrows its slot.
#
# Each layer is fully concatenation-closed before the next round of
# iterates, which makes the recorded iterate-nesting heights minimal.
# Provenance is kept as back-pointers, (p, q) for a product and i for an
# iterate, and turned into expressions once per element at the end, which
# also re-checks every iterate's idempotency precondition.


def saturate(
    seeds: Sequence[tuple[tuple[LimitWord, ...], SharpExpression]],
    cap: int,
    max_height: int = sys.maxsize,
) -> tuple[Iterator[tuple[int, ...]], list[SharpExpression], list[int]]:
    """Saturate seed elements under products and iterates.

    `seeds` holds (components, expression) pairs, the identity first; the
    components are limit words of one dimension.  Iterates nest at most
    `max_height` deep.  Returns, per element in discovery order, the rows
    of its components one after the other, its expression and its least
    iterate-nesting height; heights never fall in discovery order.
    """
    n = seeds[0][0][0].dim
    k = len(seeds[0][0])
    full = (1 << n) - 1
    spread = sum(1 << (s * n) for s in range(n))
    masks = tuple(spread << (c * n * n) for c in range(k))
    shifts = tuple(j * n for j in range(k * n))
    words = -(-k * n * n // 64)

    def left_form(key: int) -> list[int]:
        return [(key >> m) & mask for mask in masks for m in range(n)]

    def right_form(key: int) -> tuple[int, ...]:
        return tuple((key >> shift) & full for shift in shifts)

    keys: list[int] = []
    known: set[int] = set()
    sources: list = []
    heights: list[int] = []
    wide_lefts = [0] * (k * n)
    wide_rights = [0] * (k * n)

    def add(key: int, source, height: int) -> None:
        if len(keys) >= cap:
            raise CapExceeded(f"monoid closure exceeded cap of {cap} elements")
        known.add(key)
        keys.append(key)
        sources.append(source)
        heights.append(height)

    def unpack(wide: int, slots: int) -> list[int]:
        """The keys held in the first `slots` slots of a wide int."""
        cells = array("Q", wide.to_bytes(8 * words * slots, "little"))
        if sys.byteorder == "big":
            cells.byteswap()
        found = cells[0::words].tolist()
        for w in range(1, words):
            high = map(lshift, cells[w::words], repeat(64 * w))
            found = list(map(or_, found, high))
        return found

    for components, expression in seeds:
        key = 0
        for j, row in enumerate(row for word in components for row in word.rows):
            key |= row << (j * n)
        if key not in known:
            add(key, expression, 0)

    pointer = 0

    def close() -> None:
        nonlocal pointer
        while pointer < len(keys):
            x = keys[pointer]
            x_left, x_right, hx = left_form(x), right_form(x), heights[pointer]
            shift = 64 * words * pointer
            for j in range(k * n):
                wide_lefts[j] |= x_left[j] << shift
                wide_rights[j] |= x_right[j] << shift
            xy = unpack(reduce(or_, map(mul, x_left, wide_rights)), pointer + 1)
            yx = unpack(reduce(or_, map(mul, wide_lefts, x_right)), pointer + 1)
            if not known.issuperset(set(xy).union(yx)):
                # In the order x·y_0, y_0·x, x·y_1, …, each product checked
                # when reached, after the new ones before it were added.
                products = list(chain.from_iterable(zip(xy, yx)))
                unknown = map(not_, map(known.__contains__, products))
                for i in compress(count(), unknown):
                    q = i >> 1
                    source = (q, pointer) if i & 1 else (pointer, q)
                    add(products[i], source, max(hx, heights[q]))
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

    close()
    level = 0
    while level < max_height:
        batch = [
            i
            for i, h in enumerate(heights)
            if h == level and is_idempotent(keys[i])
        ]
        grew = False
        for i in batch:
            v = iterate(keys[i])
            if v not in known:
                add(v, i, level + 1)
                grew = True
        if not grew:
            break
        close()
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
    return map(right_form, keys), expressions, heights


# ---------------------------------------------------------------------------
# The limit-word monoid


@dataclass(frozen=True)
class MonoidClosure:
    """All limit words generated by an automaton's letters.

    `elements` is in discovery order, starting with the identity; each
    element has a witnessing expression in `provenance` and its least
    iterate-nesting height in `heights`.
    """

    automaton: Automaton
    elements: tuple[LimitWord, ...]
    provenance: Mapping[LimitWord, SharpExpression]
    heights: Mapping[LimitWord, int]

    def __contains__(self, element: LimitWord) -> bool:
        return element in self.heights

    @property
    def max_height(self) -> int:
        return max(self.heights.values())


def letter_seeds(
    automaton: Automaton, components: int
) -> list[tuple[tuple[LimitWord, ...], SharpExpression]]:
    """The identity and the letters as `saturate` seeds.

    Each seed repeats its word as every one of its `components`.
    """
    expressions = [epsilon_expr(len(automaton.states))]
    expressions += [letter_expr(automaton, letter) for letter in automaton.alphabet]
    return [((expression.word,) * components, expression) for expression in expressions]


def _plain_saturation(
    automaton: Automaton, cap: int, max_height: int = sys.maxsize
) -> MonoidClosure:
    """The Markov monoid's elements of iterate-nesting height ≤ `max_height`."""
    rows, expressions, heights = saturate(letter_seeds(automaton, 1), cap, max_height)
    dim = len(automaton.states)
    elements = tuple(LimitWord(dim, word) for word in rows)
    return MonoidClosure(
        automaton=automaton,
        elements=elements,
        provenance=dict(zip(elements, expressions)),
        heights=dict(zip(elements, heights)),
    )


def markov_monoid(
    automaton: Automaton | ExtendedClosure, cap: int = DEFAULT_CAP
) -> MonoidClosure:
    """Saturate the letter abstractions under concatenation and iterates.

    Given the automaton's extended closure instead, nothing is saturated:
    its word components are the Markov monoid, read off by
    `ExtendedClosure.plain_closure`, and `cap` is not used.
    """
    if isinstance(automaton, Automaton):
        return _plain_saturation(automaton, cap)
    return automaton.plain_closure()


def is_value1_witness(automaton: Automaton, element: LimitWord) -> bool:
    """True when every successor of the initial state is a final state."""
    final_mask = 0
    for f in automaton.final_indices:
        final_mask |= 1 << f
    row = element.rows[automaton.state_index[automaton.initial]]
    return row & ~final_mask == 0


def find_value1_witness(closure: MonoidClosure) -> Optional[LimitWord]:
    """The least witness in row-major bit order, or None."""
    automaton = closure.automaton
    witnesses = [
        element
        for element in closure.elements
        if is_value1_witness(automaton, element)
    ]
    if not witnesses:
        return None
    return min(witnesses, key=LimitWord.sort_key)


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class UpperBound:
    """Symbolic upper bound on the value when no witness exists.

    With p_min the least positive transition probability and J the size of
    the extended closure, the value is at most 1 - p_min^(2^h) for
    h = 3·J².
    """

    p_min: Fraction
    monoid_size: int

    @property
    def height(self) -> int:
        return 3 * self.monoid_size**2

    @property
    def formula(self) -> str:
        return f"1 - ({self.p_min})^(2^{self.height})"


@dataclass(frozen=True)
class Certificate:
    """Outcome of the value-1 decision.

    kind is one of "value1" (with a witnessing expression), "no-witness"
    (with a symbolic upper bound), or "not-applicable".
    """

    kind: str
    witness: Optional[SharpExpression] = None
    element: Optional[LimitWord] = None
    bound: Optional[UpperBound] = None
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("value1", "no-witness", "not-applicable"):
            raise ValidationError(f"unknown certificate kind {self.kind!r}")
        if self.kind == "value1" and self.witness is None:
            raise ValidationError("value1 certificate needs a witness expression")
        if self.kind == "no-witness" and self.bound is None:
            raise ValidationError("no-witness certificate needs an upper bound")


@dataclass(frozen=True)
class Value1Report:
    value1: bool
    certificate: Certificate
    closure: MonoidClosure
    leaktight: bool


def decide_value1(automaton: Automaton, cap: int = DEFAULT_CAP) -> Value1Report:
    """Decide whether the automaton has value 1, and whether it is leaktight.

    A found witness is always conclusive.  The negative answer comes with a
    symbolic upper bound and is guaranteed only if the automaton is
    leaktight.  The leak verdict is always returned: only the extended
    closure is saturated, it is searched once for a leak, and the plain
    closure the witness comes from is derived from it.
    """
    from .leaks import extended_markov_monoid, find_leak_witness

    extended = extended_markov_monoid(automaton, cap)
    # Derived, not saturated; by name, so wrappers of markov_monoid see it.
    closure = markov_monoid(extended)
    leaktight = find_leak_witness(extended) is None
    witness = find_value1_witness(closure)
    if witness is not None:
        certificate = Certificate(
            kind="value1",
            witness=closure.provenance[witness],
            element=witness,
        )
    else:
        certificate = Certificate(
            kind="no-witness",
            bound=UpperBound(
                p_min=automaton.min_transition_probability,
                monoid_size=len(extended.elements),
            ),
            note="guaranteed only if leaktight",
        )
    return Value1Report(
        value1=witness is not None,
        certificate=certificate,
        closure=closure,
        leaktight=leaktight,
    )


def sharp_height(automaton: Automaton, cap: int = DEFAULT_CAP) -> int:
    """Largest minimal iterate-nesting height over the closure."""
    return markov_monoid(automaton, cap).max_height


# ---------------------------------------------------------------------------
# Height-bounded witness search


def bounded_witness_search(
    automaton: Automaton,
    max_height: Optional[int] = None,
    cap: int = DEFAULT_CAP,
) -> Optional[SharpExpression]:
    """Search for a value-1 witness using at most `max_height` nested iterates.

    `max_height=None` uses the number of states, which is always enough to
    find a witness when one exists.  The closure is saturated up to that
    height, and the witness `find_value1_witness` picks is returned.
    """
    bound = len(automaton.states) if max_height is None else max_height
    if bound < 0:
        raise ValidationError("max_height must be nonnegative")
    try:
        closure = _plain_saturation(automaton, cap, bound)
    except CapExceeded:
        raise CapExceeded(f"witness search exceeded cap of {cap} elements") from None
    witness = find_value1_witness(closure)
    return None if witness is None else closure.provenance[witness]


# ---------------------------------------------------------------------------
# The two-sided-ideal preorder


def two_sided_ideal(
    element: LimitWord, elements: Iterable[LimitWord]
) -> frozenset[LimitWord]:
    """All products x·element·y over the given elements."""
    pool = tuple(elements)
    left = {x.concat(element) for x in pool}
    return frozenset(l.concat(y) for l in left for y in pool)


def j_leq(u: LimitWord, v: LimitWord, closure: MonoidClosure) -> bool:
    """Whether u lies in the two-sided ideal generated by v."""
    if u not in closure:
        raise ValidationError("membership violation: first element not in closure")
    if v not in closure:
        raise ValidationError("membership violation: second element not in closure")
    return u in two_sided_ideal(v, closure.elements)

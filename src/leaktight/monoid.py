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
from functools import cache, cached_property, reduce
from itertools import compress, repeat
from operator import lshift, mul, not_, or_
from typing import (
    TYPE_CHECKING,
    Callable,
    Generic,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
)

from .automaton import Automaton
from .errors import CapExceeded, ValidationError
from .limitword import LimitWord
from .sharpexpr import Concat, Epsilon, Iterate, Letter, SharpExpression

if TYPE_CHECKING:  # pragma: no cover
    from .leaks import ExtendedClosure

__all__ = [
    "DEFAULT_CAP",
    "saturate",
    "Saturation",
    "Closure",
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
]

DEFAULT_CAP = 2**20


# ---------------------------------------------------------------------------
# Layered saturation on packed keys
#
# One engine saturates both closures.  An element is a tuple of k limit
# words over n states (k = 1 for the plain monoid; k = 2 for extended pairs,
# word then support), packed into one int key: row s of component c is row
# j = c·n + s, held in bits [j·n, (j+1)·n).  The packing constants of each
# (n, k) are one cached `_Layout` record.  `saturate` returns the keys as
# they are, in a `Saturation`; limit words are decoded from them only when
# read.  The componentwise product is
#
#     x·y = OR over j = c·n + m of ((x >> m) & S_c) * (row j of y)
#
# where S_c has bit (c·n + s)·n set for every row s of component c.  The
# mask keeps one bit at the start of each row of x that contains column m,
# and multiplying by an n-bit row of y copies that row into every kept
# field; fields are n bits wide, so the copies never carry into each other.
# The k·n masks are an element's left-operand form, its k·n rows (`_rows`)
# its right-operand form.  Only the first component is iterated; the others
# are carried along, and an element is idempotent when all of them are.
#
# The closure is the monoid generated by the letters and, from layer h + 1
# on, by the new iterates of the height-h idempotents.  It is enumerated on
# its right Cayley graph (Froidure & Pin, 1997): each element, in discovery
# order, is multiplied on the right by the generators only.  Layer 0 is
# the closure of the letters.  Layer h + 1 takes the height-h idempotents
# in discovery order, one at a time.  An idempotent whose iterate is
# already an element adds nothing.  Otherwise the iterate is added, becomes
# a generator, and the closure is closed again at once: the elements found
# before the iterate are multiplied by it alone, and the iterate and every
# later element by all generators.  So an iterate that an earlier
# generator's products already reached never becomes a generator (the
# "closure" variant of Jonušas, Mitchell & Pfeiffer, 2017).  An element's
# height is the layer that found it.  Each layer is closed before the next
# one's iterates are taken, so heights are minimal and never fall in
# discovery order.
#
# That is |M|·|G| products instead of the |M|² of multiplying every new
# element with every earlier one, and |G| stays small: on the 21049-element
# extended closure of the hardest 6-state scaling automaton it is the two
# letters and two of the 65 new iterates.
#
# Two module-level kernels do the arithmetic, a frontier at a time: at most
# `_SLOTS` keys packed into one wide int, one key per slot of whole 64-bit
# words, so that `_unpack` is one `array("Q")`.  `_products`, the batch
# product, applies the formula above to the wide left form and each
# generator's rows, and yields that generator's product with every key at
# once: fields stay inside their slot, as they stay inside their row.
# `_square`, the batch square, multiplies each slot by itself and reads
# recurrence off the same terms, so one pass yields a layer's idempotents,
# their iterates, which keep only the columns of the recurrent states, and
# the idempotents that leak.  `saturate` keeps the loop.  A frontier is a
# run of unexpanded elements that meet the same generators: the elements
# before `old` with the newest generator, the others with all of them.  The
# products are added in the order a scalar loop would meet them, element
# by element and generator by generator, so discovery order, provenance
# and the element at which the cap fails do not depend on the batching.
#
# Provenance is kept as back-pointers, (p, g) for a product, i for an
# iterate, a letter's name for a letter and None for the identity, and is
# decoded on read.  A key is decoded to its limit words the first time it
# is read, and a back-pointer becomes an expression node, after the nodes
# of its subterms, the first time it or a term over it is read; each node
# carries its element's word.  Nodes are built by `Saturation.fold`, one
# loop over back-pointers with a step per kind of back-pointer passed in.
# Words and nodes are memoised per saturation, so every read returns the
# same objects, nothing is multiplied again, and the iterates' idempotency
# preconditions are the slot-wise squares' findings.  The decisions read
# what they need off the keys: the value-1 witness is found on the word
# bits, the leak witness among the marked idempotents, and only the two
# witnesses are decoded.  The numeric checks fold the back-pointers to
# matrices and decide on the keys' rows, so they decode nothing either.
# The tests re-derive every word, idempotent and leak with the scalar
# `LimitWord` operations.

# Most elements one wide-int pass packs; it bounds the memory of a pass.
_SLOTS = 256

# A value `Saturation.fold` computes per element.
V = TypeVar("V")


@dataclass(frozen=True, slots=True)
class _Layout:
    """The packing constants of k-component elements over n states."""

    n: int
    k: int
    full: int  # the row mask
    spread: int  # bit s·n for every row s
    masks: tuple[int, ...]  # S_c for every component c
    shifts: tuple[int, ...]  # row j's shift, j·n
    words: int  # the slot width in 64-bit words
    every_row: int  # the bits of all the S_c
    first_rows: int  # row 0 of every component
    diagonal: int  # bit s·(n + 1) for every state s
    word_mask: int  # the first component's bits


@cache
def _layout(n: int, k: int) -> _Layout:
    full = (1 << n) - 1
    spread = sum(1 << (s * n) for s in range(n))
    masks = tuple(spread << (c * n * n) for c in range(k))
    shifts = tuple(j * n for j in range(k * n))
    words = -(-k * n * n // 64)
    first_rows = sum(full << (c * n * n) for c in range(k))
    diagonal = sum(1 << (s * (n + 1)) for s in range(n))
    every_row, word_mask = sum(masks), (1 << n * n) - 1
    return _Layout(
        n, k, full, spread, masks, shifts, words, every_row, first_rows, diagonal, word_mask
    )


def _rows(layout: _Layout, key: int) -> tuple[int, ...]:
    """The key's rows, each component's n rows in turn, row s's bit t set
    for the edge s→t: its right-operand form."""
    full = layout.full
    return tuple([(key >> shift) & full for shift in layout.shifts])


def _ones(layout: _Layout, count: int) -> int:
    """The wide int with 1 in each of `count` slots."""
    if count == 1:
        return 1
    return int.from_bytes((1).to_bytes(8 * layout.words, "little") * count, "little")


def _unpack(layout: _Layout, values: list[int], count: int) -> list[int]:
    """The `count` slots of each wide int in turn, lowest slot first."""
    if count == 1:
        return values
    words = layout.words
    size = count * 8 * words
    data = array("Q", b"".join([v.to_bytes(size, "little") for v in values]))
    if sys.byteorder == "big":
        data.byteswap()
    slots = data[::words].tolist()
    for w in range(1, words):
        slots = list(map(or_, slots, map(lshift, data[w::words], repeat(64 * w))))
    return slots


def _products(
    layout: _Layout, x: int, count: int, rights: Sequence[tuple[int, ...]]
) -> list[int]:
    """The batch product: each of the `count` keys packed in `x` times each
    element whose rows are in `rights`, by right operand, then by slot."""
    n, ones = layout.n, _ones(layout, count)
    wide = [mask * ones for mask in layout.masks]
    lefts = [(x >> m) & mask for mask in wide for m in range(n)]
    products = [reduce(or_, map(mul, lefts, right)) for right in rights]
    return _unpack(layout, products, count)


def _square(
    layout: _Layout, x: int, count: int, keys: Sequence[int], start: int
) -> tuple[list[int], list[int], list[int]]:
    """The batch square of the `count` keys packed in `x`, which are
    keys[start : start + count]: the slots of the idempotents, their
    iterates, and the slots of the idempotents that leak.

    Term m of the square ANDs `rows` (each row s with an edge s→m, made
    whole) with `row` (row m, copied into every row).  On the first
    component's diagonal, `rows` without `row` marks the states that are
    not recurrent, and the second component's `rows`, shifted one
    component down, without `row` marks the leaks."""
    n, k, full, spread = layout.n, layout.k, layout.full, layout.spread
    ones = _ones(layout, count)
    kept, firsts = layout.every_row * ones, layout.first_rows * ones
    square = nonrecurrent = leaking = 0
    for m in range(n):
        rows = ((x >> m) & kept) * full
        row = ((x >> (m * n)) & firsts) * spread
        square |= rows & row
        back = ~row
        nonrecurrent |= rows & back
        if k > 1:
            leaking |= (rows >> n * n) & back
    recurrent = layout.diagonal * ones & ~nonrecurrent
    slots = _unpack(layout, [square ^ x, recurrent, leaking & recurrent], count)
    found = list(compress(range(count), map(not_, slots[:count])))
    iterates = []
    for j in found:
        # Diagonal bit s·(n + 1) times `spread` lands once on bit
        # (n - 1)·n + s; its other copies fall outside that row.
        columns = (slots[count + j] * spread >> (n - 1) * n) & full
        iterates.append(keys[start + j] & ~((full ^ columns) * spread))
    return found, iterates, [j for j in found if slots[2 * count + j]]


def saturate(
    automaton: Automaton, components: int, cap: int, max_height: int = sys.maxsize
) -> Saturation:
    """Saturate the automaton's letters under products and iterates.

    Elements are tuples of `components` limit words; the identity and each
    letter are seeded with their word as every component.  Iterates nest
    at most `max_height` deep.  Returns the packed `Saturation`: per element
    in discovery order its key, back-pointer and least iterate-nesting
    height (heights never fall in that order), the indices of the
    elements whose components are all idempotent, and those of the
    idempotents that leak.
    """
    layout = _layout(len(automaton.states), components)
    n, k, width = layout.n, components, 8 * layout.words
    keys: list[int] = []
    # Each key's index.  Only membership is read, and a dict probes these
    # keys, which hash to themselves, faster than a set does.
    index: dict[int, int] = {}
    sources: list = []
    heights: list[int] = []
    packed = bytearray()

    def add(key: int, source, height: int) -> None:
        if len(keys) >= cap:
            raise CapExceeded(f"monoid closure exceeded cap of {cap} elements")
        index[key] = len(keys)
        keys.append(key)
        sources.append(source)
        heights.append(height)
        packed.extend(key.to_bytes(width, "little"))

    def frontier(start: int, end: int) -> int:
        """keys[start:end] packed into one wide int, one key per slot."""
        if end - start == 1:
            return keys[start]
        return int.from_bytes(packed[start * width : end * width], "little")

    # The identity, back-pointer None, then each letter's abstraction, the
    # support of its matrix, back-pointer its name.
    columns = [1 << t for t in range(n)]
    seeds = [(None, columns)]
    for letter, (rows, _) in zip(automaton.alphabet, automaton._scaled_letters):
        seeds.append((letter, [sum(compress(columns, row)) for row in rows]))
    for source, rows in seeds:
        key = sum(row << (j * n) for j, row in enumerate(rows * k))
        if key not in index:
            add(key, source, 0)
    generators = list(range(1, len(keys)))

    def close(old: int, height: int) -> None:
        """Multiply the elements before `old`, which have met every earlier
        generator, by the newest one, and every later element by all of
        them.  Each new product gets the layer's `height`: both its factors
        have at most that height, and the lower layers are closed."""
        rights = [_rows(layout, keys[g]) for g in generators]
        every, newest = (generators, rights), (generators[-1:], rights[-1:])
        # The identity, element 0, times a generator is that generator.
        pointer = 1
        while pointer < len(keys):
            meets, forms = newest if pointer < old else every
            end = min(pointer + _SLOTS, old if pointer < old else len(keys))
            count = end - pointer
            products = _products(layout, frontier(pointer, end), count, forms)
            # The products not known before this pass come out by generator;
            # they are added by element, then by generator.
            fresh = [i for i, xg in enumerate(products) if xg not in index]
            if count > 1:
                fresh.sort(key=count.__rmod__)
            for i in fresh:
                xg = products[i]
                if xg not in index:
                    add(xg, (pointer + i % count, meets[i // count]), height)
            pointer = end

    close(0, 0)  # layer 0: every element meets every generator
    found: list[int] = []
    leaks: list[int] = []
    level, start = 0, 0
    while True:
        old = len(keys)
        for lo in range(start, old, _SLOTS):
            count = min(_SLOTS, old - lo)
            x = frontier(lo, lo + count)
            slots, iterates, leaking = _square(layout, x, count, keys, lo)
            found += [lo + j for j in slots]
            leaks += [lo + j for j in leaking]
            for j, v in zip(slots, iterates):
                if level < max_height and v not in index:
                    add(v, lo + j, level + 1)
                    generators.append(len(keys) - 1)
                    close(len(keys) - 1, level + 1)
        if level >= max_height or len(keys) == old:
            break
        level, start = level + 1, old

    return Saturation(automaton, k, keys, sources, heights, found, leaks)


class Saturation:
    """What `saturate` found, packed, in discovery order.

    `keys[i]` packs element i.  `sources[i]` is its back-pointer: (p, g) for
    the product of elements p and g, an int for the iterate of that element,
    a letter's name for that letter, or None for the identity.  `heights[i]`
    is its least iterate-nesting height, and `idempotents` holds, ascending,
    the indices of the elements whose components are all idempotent.
    `leaks` holds, ascending, those of the idempotents in which a state r
    recurrent in the first component has an edge r→q in the second, and
    the first has no edge q→r; it is empty for one component.
    Nothing is decoded until it is read: `rows` reads an element's bits
    off its key, `first_words` finds each distinct word's first element on
    the keys, and `words` and `expression` decode one element, each at
    most once, so a node read early is the very node a later read returns.
    `fold` is the one walk over back-pointers, on an explicit stack, with a
    step per kind of back-pointer passed in: `expression` is that walk
    with steps that build nodes, and the oracle's checks walk it with
    steps that multiply matrices, so the back-pointer format stays inside
    this module.
    """

    def __init__(
        self,
        automaton: Automaton,
        components: int,
        keys: list[int],
        sources: list,
        heights: list[int],
        idempotents: list[int],
        leaks: list[int],
    ) -> None:
        self.automaton = automaton
        self.keys = keys
        self.sources = sources
        self.heights = heights
        self.idempotents = idempotents
        self.leaks = leaks
        self._layout = _layout(len(automaton.states), components)
        self._words: list[Optional[tuple[LimitWord, ...]]] = [None] * len(keys)
        self._nodes: list[Optional[SharpExpression]] = [None] * len(keys)

    def __len__(self) -> int:
        return len(self.keys)

    def first_words(self) -> list[int]:
        """The index of the first element with each distinct first
        component, ascending, found on the keys' word bits."""
        mask = self._layout.word_mask
        words = [key & mask for key in self.keys]
        # Filled from the last element back, so each word keeps its first.
        firsts = dict(zip(reversed(words), range(len(words) - 1, -1, -1)))
        return sorted(firsts.values())

    def rows(self, i: int) -> tuple[int, ...]:
        """Element i's rows, read off its key: each component's n rows in
        turn, row s's bit t set for the edge s→t.  Nothing is decoded."""
        return _rows(self._layout, self.keys[i])

    def words(self, i: int) -> tuple[LimitWord, ...]:
        """Element i's components, as validated limit words."""
        words = self._words[i]
        if words is None:
            rows, n = self.rows(i), self._layout.n
            spans = range(0, len(rows), n)
            words = tuple([LimitWord(n, rows[j : j + n]) for j in spans])
            self._words[i] = words
        return words

    def expression(self, i: int) -> SharpExpression:
        """Element i's expression, built after its subterms; each node
        carries its element's first component."""
        return self.fold(
            i, self._nodes, self._epsilon, self._letter, self._concat, self._iterate
        )

    def _epsilon(self, j: int) -> SharpExpression:
        return Epsilon(self.words(j)[0])

    def _letter(self, j: int, name: str) -> SharpExpression:
        return Letter(name, self.words(j)[0])

    def _concat(self, j: int, left, right, by: Optional[str]) -> SharpExpression:
        return Concat(left, right, self.words(j)[0])

    def _iterate(self, j: int, child: SharpExpression) -> SharpExpression:
        return Iterate(child, self.words(j)[0])

    def fold(
        self,
        i: int,
        values: list,
        identity: Callable[[int], V],
        letter: Callable[[int, str], V],
        product: Callable[[int, V, V, Optional[str]], V],
        iterate: Callable[[int, V], V],
    ) -> V:
        """`values[i]`, where `values[j]` holds element j's value, or None
        until it is computed.

        The elements that i's back-pointers reach are computed first, on an
        explicit stack, each left factor before its right: element j is
        `identity(j)` for the identity, `letter(j, name)` for a letter,
        `product(j, values[p], values[g], by)` for the product of p and the
        generator g, where `by` is g's letter name or None when g is an
        iterate, and `iterate(j, values[c])` for the iterate of c.  An
        element is computed at most once per `values`.
        """
        if values[i] is not None:
            return values[i]
        sources, pending = self.sources, [i]
        while pending:
            j = pending[-1]
            if values[j] is not None:
                pending.pop()
                continue
            source = sources[j]
            if type(source) is tuple:
                p, g = source
                left, right = values[p], values[g]
                if left is None or right is None:
                    pending += [x for x in (g, p) if values[x] is None]
                    continue
                by = sources[g]
                values[j] = product(j, left, right, by if type(by) is str else None)
            elif type(source) is int:
                child = values[source]
                if child is None:
                    pending.append(source)
                    continue
                values[j] = iterate(j, child)
            elif source is None:
                values[j] = identity(j)
            else:
                values[j] = letter(j, source)
            pending.pop()
        return values[i]


# ---------------------------------------------------------------------------
# Closures


E = TypeVar("E")


class Closure(Generic[E]):
    """All elements generated by an automaton's letters.

    `elements` is in discovery order, starting with the identity; each
    element has a witnessing expression in `provenance` and its least
    iterate-nesting height in `heights`.  A closure is read off a
    `Saturation`: the saturation's elements at `indices` (all of them by
    default), ascending.  `indices` may also be a function that returns
    them, called when they are first read.  Each field is decoded when it
    is first read, in discovery order; `len` and `max_height` decode
    nothing.
    """

    def __init__(
        self,
        saturation: Saturation,
        indices: Optional[Sequence[int] | Callable[[], Sequence[int]]] = None,
    ) -> None:
        self.automaton = saturation.automaton
        self._saturation = saturation
        if indices is None:
            self._indices = range(len(saturation))
        elif callable(indices):
            self._find_indices = indices
        else:
            self._indices = indices

    @cached_property
    def _indices(self) -> Sequence[int]:
        # Read only when the constructor was given a function.
        return self._find_indices()

    @staticmethod
    def _wrap(words: tuple[LimitWord, ...]) -> E:
        """The element of a saturation's decoded components."""
        raise NotImplementedError

    @cached_property
    def elements(self) -> tuple[E, ...]:
        saturation = self._saturation
        return tuple(map(self._wrap, map(saturation.words, self._indices)))

    @cached_property
    def provenance(self) -> Mapping[E, SharpExpression]:
        expressions = map(self._saturation.expression, self._indices)
        return dict(zip(self.elements, expressions))

    @cached_property
    def heights(self) -> Mapping[E, int]:
        heights = map(self._saturation.heights.__getitem__, self._indices)
        return dict(zip(self.elements, heights))

    def __len__(self) -> int:
        return len(self._indices)

    def __contains__(self, element: E) -> bool:
        return element in self.heights

    @property
    def max_height(self) -> int:
        # Heights never fall in discovery order, and the indices ascend.
        return self._saturation.heights[self._indices[-1]]


class MonoidClosure(Closure[LimitWord]):
    """All limit words generated by an automaton's letters."""

    @staticmethod
    def _wrap(words: tuple[LimitWord, ...]) -> LimitWord:
        return words[0]


def markov_monoid(
    automaton: Automaton | ExtendedClosure, cap: int = DEFAULT_CAP
) -> MonoidClosure:
    """Saturate the letter abstractions under concatenation and iterates.

    Given the automaton's extended closure instead, nothing is saturated:
    its word components are the Markov monoid, read off by
    `ExtendedClosure.plain_closure`, and `cap` is not used.
    """
    if isinstance(automaton, Automaton):
        return MonoidClosure(saturate(automaton, 1, cap))
    return automaton.plain_closure()


def _final_mask(automaton: Automaton) -> int:
    return sum(1 << f for f in automaton.final_indices)


def is_value1_witness(automaton: Automaton, element: LimitWord) -> bool:
    """True when every successor of the initial state is a final state."""
    row = element.rows[automaton.state_index[automaton.initial]]
    return row & ~_final_mask(automaton) == 0


def find_value1_witness(closure: MonoidClosure) -> Optional[LimitWord]:
    """The least witness in row-major bit order, or None.

    The witness is found on the keys' word bits, and only it is decoded.
    """
    saturation = closure._saturation
    i = _value1_witness_index(saturation, closure._indices)
    return None if i is None else saturation.words(i)[0]


def _value1_witness_index(
    saturation: Saturation, indices: Sequence[int]
) -> Optional[int]:
    """The first of `indices` whose word, the first component, is the
    least witness in row-major bit order, or None."""
    automaton, layout = saturation.automaton, saturation._layout
    start = automaton.state_index[automaton.initial] * layout.n
    outside = layout.full & ~_final_mask(automaton)
    keys = saturation.keys
    found = [i for i in indices if not keys[i] >> start & outside]
    # An extended pair's support bits lie above its word's, and are masked.
    return _least_row_major(found, keys, layout.word_mask) if found else None


def _least_row_major(
    indices: Sequence[int], keys: Sequence[int], mask: int = -1
) -> int:
    """The first of `indices` whose key, ANDed with `mask`, is least in
    row-major bit order.

    Row-major bit order, the order of `LimitWord.sort_key` and of
    `ExtendedLimitWord.sort_key`, reads the bits from bit 0 up, so of two
    keys the one with a 0 at their lowest differing bit is the smaller.
    """
    best = indices[0]
    least = keys[best] & mask
    for i in indices[1:]:
        key = keys[i] & mask
        diff = key ^ least
        if least & diff & -diff:  # the lowest differing bit is set in `least`
            best, least = i, key
    return best


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

    kind is "value1" (with a witnessing expression) or "no-witness" (with a
    symbolic upper bound).
    """

    kind: str
    witness: Optional[SharpExpression] = None
    element: Optional[LimitWord] = None
    bound: Optional[UpperBound] = None
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("value1", "no-witness"):
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
    leaktight.  The leak verdict is always returned: it comes from
    `decide_leaktight`, and the plain closure in the report is derived
    from that decision's extended closure.  The witness is found on the
    extended closure's keys: the first pair with the least witnessing
    word, which is the pair the derived closure keeps for that word.  Only
    the witness is decoded, and the derived closure finds its first pairs
    only when it is read.
    """
    from .leaks import decide_leaktight

    leak = decide_leaktight(automaton, cap)
    # Derived, not saturated; by name, so wrappers of markov_monoid see it.
    closure = markov_monoid(leak.closure)
    saturation = leak.closure._saturation
    i = _value1_witness_index(saturation, range(len(saturation)))
    if i is not None:
        element = saturation.words(i)[0]
        certificate = Certificate(
            kind="value1", witness=saturation.expression(i), element=element
        )
    else:
        element = None
        certificate = Certificate(
            kind="no-witness",
            bound=UpperBound(
                p_min=automaton.min_transition_probability,
                monoid_size=len(leak.closure),
            ),
            note="guaranteed only if leaktight",
        )
    return Value1Report(
        value1=element is not None,
        certificate=certificate,
        closure=closure,
        leaktight=leak.leaktight,
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
    height, and the expression of the witness `find_value1_witness` would
    pick is returned.
    """
    bound = len(automaton.states) if max_height is None else max_height
    if bound < 0:
        raise ValidationError("max_height must be nonnegative")
    try:
        saturation = saturate(automaton, 1, cap, bound)
    except CapExceeded:
        raise CapExceeded(f"witness search exceeded cap of {cap} elements") from None
    i = _value1_witness_index(saturation, range(len(saturation)))
    return None if i is None else saturation.expression(i)

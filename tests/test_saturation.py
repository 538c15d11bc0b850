"""The generator-based saturation engine against the all-pairs reference.

Both closures must come out as the reference computes them: the same
element sets and the same heights, the same idempotent pairs in the
extended closure, and the same `CapExceeded` when the cap is too small.
The engines enumerate in different orders, so discovery order and the
witnessing expressions may differ; each expression, re-evaluated from its
letters, must evaluate to its element (an extended pair's word component)
at the element's recorded height, and heights must never fall in
discovery order.
The height-bounded witness search, which runs on the same engine, must find
a witness exactly when the reference heap search does.

Against the scalar right-Cayley loop the engine batches, the comparison is
exact: the same elements, rendered expressions with their words, heights
and idempotents, in the same order, and the same `CapExceeded` message.
The engine's expressions carry the words it computed; the references and
`rederive` compute them again with the scalar operations.  The batch
product and the batch square are also checked alone, on random keys.
"""

from __future__ import annotations

import functools
import random
import sys

import pytest
from hypothesis import given, settings

from leaktight import (
    CapExceeded,
    bounded_witness_search,
    decide_value1,
    extended_markov_monoid,
    is_value1_witness,
    markov_monoid,
)
from leaktight.generate import random_automaton
from leaktight.leaks import ExtendedClosure, ExtendedLimitWord
from leaktight.limitword import LimitWord
from leaktight.monoid import (
    _SLOTS,
    DEFAULT_CAP,
    MonoidClosure,
    Saturation,
    _layout,
    _products,
    _rows,
    _square,
    saturate,
)
from leaktight.sharpexpr import (
    Concat,
    Epsilon,
    Iterate,
    concat_expr,
    epsilon_expr,
    iterate_expr,
    letter_expr,
)

from .certify import certify
from .helpers import (
    automata,
    corpus,
    idempotent_pairs,
    seeded_automaton,
    seeded_closure,
    seeded_extended,
)
from .reference_saturation import (
    reference_bounded_witness_search,
    reference_cayley_saturate,
    reference_extended_markov_monoid,
    reference_leak,
    reference_markov_monoid,
)

BUILDERS = {
    "plain": (markov_monoid, reference_markov_monoid),
    "extended": (extended_markov_monoid, reference_extended_markov_monoid),
}

# (states, k) of the scaling automata random_automaton(Random(1000 * states + k)).
SCALING = (
    (4, 0), (4, 1), (4, 2), (4, 3), (4, 4), (4, 5),
    (5, 1), (5, 2), (5, 4), (5, 5),
    (6, 5),
)


def scaling_automaton(states: int, k: int, letters: int = 2):
    return random_automaton(
        random.Random(1000 * states + k), states=states, letters=letters
    )



@functools.lru_cache(maxsize=None)
def reference_closure(kind: str, seed: int):
    return BUILDERS[kind][1](seeded_automaton(seed))


def rederive(expression, automaton, memo: dict):
    """The expression rebuilt from its leaves by `concat_expr` and
    `iterate_expr`, which recompute every word and re-check every iterate's
    precondition; memoised by node, as expressions share their subterms."""
    rebuilt = memo.get(id(expression))
    if rebuilt is None:
        if isinstance(expression, Concat):
            rebuilt = concat_expr(
                rederive(expression.left, automaton, memo),
                rederive(expression.right, automaton, memo),
            )
        elif isinstance(expression, Iterate):
            rebuilt = iterate_expr(rederive(expression.child, automaton, memo))
        elif isinstance(expression, Epsilon):
            rebuilt = epsilon_expr(len(automaton.states))
        else:
            rebuilt = letter_expr(automaton, expression.name)
        memo[id(expression)] = rebuilt
    return rebuilt


def assert_same_closure(closure, reference) -> None:
    assert len(closure.elements) == len(reference.elements)
    assert closure.heights == reference.heights
    assert closure.elements[0] == reference.elements[0]
    order = [closure.heights[u] for u in closure.elements]
    assert order == sorted(order)
    assert closure.provenance.keys() == closure.heights.keys()
    # The engine's expressions carry its own words; recompute them.  In
    # discovery order, each expression's subterms are met before it.
    memo: dict = {}
    for element in closure.elements:
        expression = closure.provenance[element]
        word = element.word if isinstance(element, ExtendedLimitWord) else element
        assert rederive(expression, closure.automaton, memo).word == word
        assert expression.word == word
        assert expression.height == closure.heights[element]
    if isinstance(closure, ExtendedClosure):
        assert idempotent_pairs(closure) == reference.idempotents


def outcome(build, automaton, cap: int):
    """The closure, or the message of the `CapExceeded` it raised."""
    try:
        return build(automaton, cap)
    except CapExceeded as error:
        return str(error)


def assert_same_outcome(automaton, kind: str, cap: int) -> None:
    build, reference = BUILDERS[kind]
    got, expected = outcome(build, automaton, cap), outcome(reference, automaton, cap)
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
    else:
        assert_same_closure(got, expected)


def test_plain_closure_matches_reference_on_corpus() -> None:
    for seed in corpus():
        assert_same_closure(seeded_closure(seed), reference_closure("plain", seed))


def test_extended_closure_matches_reference_on_corpus() -> None:
    for seed in corpus():
        assert_same_closure(seeded_extended(seed), reference_closure("extended", seed))


@pytest.mark.parametrize("states,k", SCALING)
def test_closures_match_reference_on_scaling_automata(states: int, k: int) -> None:
    automaton = scaling_automaton(states, k)
    for build, reference in BUILDERS.values():
        assert_same_closure(build(automaton), reference(automaton))


# The hardest scaling automata, keyed by (states, k, letters): the sizes of
# the (extended, plain) closures and their largest heights.  The first four
# sizes are as the earlier all-pairs engine measured them.
HARD_SCALING = {
    (5, 0, 2): ((3645, 1306), (1, 1)),
    (5, 3, 2): ((4116, 738), (1, 1)),
    (6, 4, 2): ((5219, 2287), (1, 1)),
    (6, 0, 2): ((21049, 5788), (1, 1)),
    (8, 0, 2): ((16777, 3878), (1, 1)),
    (5, 0, 3): ((26955, 3755), (1, 0)),
    (5, 3, 3): ((34635, 4756), (1, 0)),
}

# The hard cases as test parameters; two-letter ids leave the letters out,
# as the scaling automata's do.
HARD_CASES = [
    pytest.param(*key, id="-".join(map(str, key[:2] if key[2] == 2 else key)))
    for key in sorted(HARD_SCALING)
]


@pytest.mark.parametrize("states,k,letters", HARD_CASES)
def test_closure_sizes_on_hard_scaling_automata(
    states: int, k: int, letters: int
) -> None:
    automaton = scaling_automaton(states, k, letters)
    extended = extended_markov_monoid(automaton)
    plain = markov_monoid(automaton)
    sizes = len(extended.elements), len(plain.elements)
    heights = extended.max_height, plain.max_height
    assert (sizes, heights) == HARD_SCALING[states, k, letters]
    assert markov_monoid(extended).heights == plain.heights


@pytest.mark.parametrize("components", [1, 2], ids=["plain", "extended"])
@pytest.mark.parametrize("states,k,letters", HARD_CASES)
def test_hard_closures_are_certified_without_the_engine(
    states: int, k: int, letters: int, components: int
) -> None:
    automaton = scaling_automaton(states, k, letters)
    saturation = saturate(automaton, components, DEFAULT_CAP)
    closure = (MonoidClosure if components == 1 else ExtendedClosure)(saturation)
    certify(saturation, closure.elements)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_same_cap_exceeded_at_small_caps(kind: str) -> None:
    for seed in range(0, 500, 10):
        size = len(reference_closure(kind, seed).elements)
        for cap in sorted({1, 2, 3, size // 2, size - 1, size} - {0}):
            assert_same_outcome(seeded_automaton(seed), kind, cap)


@settings(max_examples=40, deadline=None)
@given(automata(max_states=5))
def test_closures_match_reference_on_drawn_automata(automaton) -> None:
    # The cap bounds the reference's all-pairs work on the rare large
    # 5-state closures; below it the closures are compared in full.
    for kind in BUILDERS:
        assert_same_outcome(automaton, kind, cap=200)


# ---------------------------------------------------------------------------
# The batched engine against the scalar right-Cayley loop


def decoded(result: Saturation):
    """A saturation's components, expressions, heights and idempotent
    indices, every element decoded, in discovery order."""
    every = range(len(result))
    return (
        [result.words(i) for i in every],
        [result.expression(i) for i in every],
        result.heights,
        result.idempotents,
    )


def saturation(
    engine,
    automaton,
    components: int,
    cap: int = DEFAULT_CAP,
    max_height: int = sys.maxsize,
):
    """Elements, expressions (rendered, with their words), heights and
    idempotent indices, or the cap message."""
    try:
        result = engine(automaton, components, cap, max_height)
    except CapExceeded as error:
        return str(error)
    if isinstance(result, Saturation):
        result = decoded(result)
    elements, expressions, heights, idempotents = result
    rendered = [(expression.render(), expression.word) for expression in expressions]
    return elements, rendered, heights, idempotents


def assert_same_saturation(automaton, components: int, cap: int = DEFAULT_CAP) -> None:
    assert saturation(saturate, automaton, components, cap) == saturation(
        reference_cayley_saturate, automaton, components, cap
    )


def assert_same_saturation_at_caps(automaton) -> None:
    """Both component counts, uncapped and at caps 1, size - 1 and size."""
    for components in (1, 2):
        size = len(saturate(automaton, components, DEFAULT_CAP))
        for cap in sorted({1, size - 1, size, DEFAULT_CAP} - {0}):
            assert_same_saturation(automaton, components, cap)


def test_saturation_order_matches_scalar_loop_on_corpus() -> None:
    for seed in corpus():
        assert_same_saturation_at_caps(seeded_automaton(seed))


@pytest.mark.parametrize("states,k", SCALING)
def test_saturation_order_matches_scalar_loop_on_scaling_automata(
    states: int, k: int
) -> None:
    assert_same_saturation_at_caps(scaling_automaton(states, k))


@pytest.mark.parametrize("states,k,letters", HARD_CASES)
def test_saturation_order_matches_scalar_loop_on_hard_scaling_automata(
    states: int, k: int, letters: int
) -> None:
    for components in (1, 2):
        assert_same_saturation(scaling_automaton(states, k, letters), components)


def test_saturation_order_matches_scalar_loop_at_every_height_bound() -> None:
    # Under a height bound the last layer's iterates are not taken, but its
    # idempotents are still reported.
    for seed in range(0, 500, 5):
        automaton = seeded_automaton(seed)
        for components in (1, 2):
            top = max(saturate(automaton, components, DEFAULT_CAP).heights)
            for bound in range(top + 1):
                assert saturation(
                    saturate, automaton, components, max_height=bound
                ) == saturation(
                    reference_cayley_saturate, automaton, components, max_height=bound
                )


# (states, letters, seed) of random_automaton(Random(seed), ...): one state;
# one letter at 7 and 9 states; two letters at 6 to 9 states, whose extended
# keys fill two words of a slot (exactly two at 8 states) and three at 9.
SLOT_WIDTHS = (
    (1, 1, 0), (7, 1, 0), (9, 1, 3),
    (6, 2, 6001), (7, 2, 4), (8, 2, 1), (9, 2, 6),
)


@pytest.mark.parametrize("states,letters,seed", SLOT_WIDTHS)
def test_saturation_order_matches_scalar_loop_across_slot_widths(
    states: int, letters: int, seed: int
) -> None:
    automaton = random_automaton(random.Random(seed), states=states, letters=letters)
    assert_same_saturation_at_caps(automaton)


@settings(max_examples=40, deadline=None)
@given(automata(max_states=6))
def test_saturation_order_matches_scalar_loop_on_drawn_automata(automaton) -> None:
    # The cap bounds the work on the rare large 6-state closures; up to it
    # the two engines must agree, down to the element that exceeds it.
    for components in (1, 2):
        assert_same_saturation(automaton, components, cap=3000)


# ---------------------------------------------------------------------------
# The kernels on their own, on random keys that no closure need contain

# (states, components, 64-bit words per slot): two components over 4, 6
# and 9 states fill one, two and three words of a slot; one component, one.
KERNEL_LAYOUTS = ((4, 2, 1), (6, 2, 2), (9, 2, 3), (5, 1, 1))


def random_element(rng: random.Random, states: int, components: int):
    """A limit word, or for two components a pair whose support holds the
    word's edges, with random rows, sparse or dense; half of them are
    replaced by their idempotent power, so that the square meets
    idempotents and leaks."""
    picks = rng.choice((1, 2, states))

    def row() -> int:
        return sum({1 << rng.randrange(states) for _ in range(picks)})

    word = LimitWord(states, [row() for _ in range(states)])
    element = word
    if components == 2:
        support = LimitWord(states, [r | row() for r in word.rows])
        element = ExtendedLimitWord(word, support)
    power = element
    if rng.random() < 0.5:
        while not power.is_idempotent():
            power = power.concat(element)
    return power


def element_rows(element) -> tuple[int, ...]:
    """Each component's rows in turn: the word's, then the support's."""
    if isinstance(element, ExtendedLimitWord):
        return element.word.rows + element.support.rows
    return element.rows


def element_key(element) -> int:
    return sum(row << (j * element.dim) for j, row in enumerate(element_rows(element)))


@pytest.mark.parametrize("count", (1, 2, _SLOTS - 1, _SLOTS))
@pytest.mark.parametrize("states,components,words", KERNEL_LAYOUTS)
def test_kernels_match_the_scalar_operations_on_random_keys(
    states: int, components: int, words: int, count: int
) -> None:
    rng = random.Random(1000 * states + 100 * components + count)
    layout = _layout(states, components)
    assert layout.words == words
    elements = [random_element(rng, states, components) for _ in range(count)]
    keys = [element_key(x) for x in elements]
    wide = sum(key << (64 * words * i) for i, key in enumerate(keys))

    # The batch product, by right operand, then by slot.
    rights = [random_element(rng, states, components) for _ in range(3)]
    assert [_rows(layout, element_key(y)) for y in rights] == list(map(element_rows, rights))
    assert _products(layout, wide, count, list(map(element_rows, rights))) == [
        element_key(x.concat(y)) for y in rights for x in elements
    ]

    # The batch square, on keys that sit at an offset in a longer list.
    offset = rng.randrange(1, 4)
    padded = [rng.randrange(1 << 64) for _ in range(offset)] + keys
    idempotent = [j for j, x in enumerate(elements) if x.is_idempotent()]
    leaking = [] if components == 1 else [
        j for j in idempotent if reference_leak(elements[j]) is not None
    ]
    iterates = [element_key(elements[j].iterate()) for j in idempotent]
    assert _square(layout, wide, count, padded, offset) == (idempotent, iterates, leaking)
    if count >= _SLOTS - 1:
        assert 0 < len(idempotent) < count
        assert components == 1 or 0 < len(leaking) < len(idempotent)


# ---------------------------------------------------------------------------
# Height-bounded witness search


@functools.lru_cache(maxsize=None)
def reference_search(automaton, max_height=None):
    return reference_bounded_witness_search(automaton, max_height)


def assert_search_matches_reference(automaton, max_height=None) -> None:
    found = bounded_witness_search(automaton, max_height)
    expected = reference_search(automaton, max_height)
    assert (found is None) == (expected is None)
    if found is not None:
        bound = len(automaton.states) if max_height is None else max_height
        assert is_value1_witness(automaton, found.word)
        assert found.height <= bound


def test_bounded_search_matches_reference_on_corpus_and_scaling_automata() -> None:
    for seed in corpus():
        assert_search_matches_reference(seeded_automaton(seed))
    for states, k in SCALING:
        assert_search_matches_reference(scaling_automaton(states, k))


def test_value1_verdicts_match_reference_search() -> None:
    # The decision runs on the same engine as the bounded search; the heap
    # search shares no code with it, so it checks the verdicts independently.
    automata = [seeded_automaton(seed) for seed in corpus()]
    automata += [scaling_automaton(states, k) for states, k in SCALING]
    for automaton in automata:
        expected = reference_search(automaton) is not None
        assert decide_value1(automaton).value1 == expected


def test_bounded_search_matches_reference_at_every_bound() -> None:
    for seed in range(0, 500, 5):
        automaton = seeded_automaton(seed)
        for bound in range(len(automaton.states) + 1):
            assert_search_matches_reference(automaton, bound)


def test_bounded_search_cap_message_matches_reference() -> None:
    # Without a witness both searches visit every element up to the height
    # bound, so both run out of room at the same caps.
    checked = 0
    for seed in range(0, 500, 10):
        automaton = seeded_automaton(seed)
        if reference_bounded_witness_search(automaton) is not None:
            continue
        size = len(markov_monoid(automaton).elements)
        for cap in sorted({1, size - 1, size} - {0}):
            outcomes = []
            for search in (bounded_witness_search, reference_bounded_witness_search):
                try:
                    outcomes.append(search(automaton, cap=cap))
                except CapExceeded as error:
                    outcomes.append(str(error))
            assert outcomes[0] == outcomes[1]
            checked += 1
    assert checked > 10


def test_bounded_search_over_the_cap_raises_where_reference_finds_a_witness() -> None:
    # The heap search returns the first witness it is offered, here ε, before
    # it reaches the cap; the engine saturates up to the height bound first.
    automaton = seeded_automaton(0)
    cap = len(markov_monoid(automaton).elements) - 1
    assert reference_bounded_witness_search(automaton, cap=cap).render() == "ε"
    with pytest.raises(CapExceeded) as raised:
        bounded_witness_search(automaton, cap=cap)
    assert str(raised.value) == f"witness search exceeded cap of {cap} elements"

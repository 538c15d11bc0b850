"""Closures read off a saturation decode only what is read.

Whatever is read first — the elements, the provenance, the heights, one
element's expression by its position, or a decision's witness — every
closure must come out as the eager reference builds it:
`reference_cayley_saturate`, which decodes every element and builds every
expression with `concat_expr` / `iterate_expr` at once.  A node read early
must be the node a later full read returns, and re-reading an expression
returns the same object.

The value-1 witness, the derived plain closure and the leaks are found on
the engine's keys; they must agree with the element scans of
`tests/reference_saturation.py`, run on records of closures read in full.
The saturation must mark as leaking exactly the idempotents that the
scalar leak loop finds leaking, including across the boundaries of its
wide-int passes, and the decisions must report the reference's witnesses.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from leaktight import (
    Automaton,
    ExtendedClosure,
    LimitWord,
    MonoidClosure,
    bounded_witness_search,
    decide_leaktight,
    decide_value1,
    extended_markov_monoid,
    find_leak_witness,
    find_value1_witness,
    markov_monoid,
)
from leaktight.generate import random_automaton
from leaktight.leaks import ExtendedLimitWord
from leaktight.monoid import DEFAULT_CAP, saturate
from leaktight.sharpexpr import Epsilon, epsilon_expr, letter_expr

from .helpers import automata, corpus, idempotent_pairs, seeded_automaton
from .reference_saturation import (
    closure_record,
    reference_cayley_saturate,
    reference_find_leak_witness,
    reference_find_value1_witness,
    reference_leak,
    reference_plain_closure,
)
from .test_saturation import assert_same_saturation

# (states, k) of the benchmark's decide-scale automata,
# random_automaton(Random(1000 * states + k), states, letters=2).
DECIDE_SCALE = (
    (4, 0), (4, 1), (4, 2), (4, 3), (4, 4), (4, 5),
    (5, 1), (5, 2), (5, 4), (5, 5),
    (6, 5),
)


def scale_automaton(states: int, k: int):
    return random_automaton(random.Random(1000 * states + k), states=states, letters=2)


def eager_closures(automaton) -> dict:
    """The eager reference of each closure: (elements, [(rendered
    expression, word)], heights, idempotents or None), in discovery order."""
    words, expressions, heights, _ = reference_cayley_saturate(automaton, 1, DEFAULT_CAP)
    plain = (
        tuple(word for (word,) in words),
        [(e.render(), e.word) for e in expressions],
        heights,
        None,
    )
    pairs, expressions, heights, idempotents = reference_cayley_saturate(
        automaton, 2, DEFAULT_CAP
    )
    elements = tuple(ExtendedLimitWord(*pair) for pair in pairs)
    extended = (
        elements,
        [(e.render(), e.word) for e in expressions],
        heights,
        frozenset(elements[i] for i in idempotents),
    )
    first: dict = {}
    for i, pair in enumerate(elements):
        first.setdefault(pair.word, i)
    derived = (
        tuple(first),
        [extended[1][i] for i in first.values()],
        [heights[i] for i in first.values()],
        None,
    )
    return {"plain": plain, "extended": extended, "derived": derived}


def fields(closure) -> tuple:
    """A closure's fields in the reference's form, read in the order
    elements, provenance, heights, idempotents."""
    elements = closure.elements
    rendered = [(closure.provenance[e].render(), closure.provenance[e].word) for e in elements]
    heights = [closure.heights[e] for e in elements]
    idempotents = idempotent_pairs(closure) if isinstance(closure, ExtendedClosure) else None
    return elements, rendered, heights, idempotents


def read_provenance_first(closure) -> None:
    for element, expression in closure.provenance.items():
        assert expression.word == (
            element.word if isinstance(element, ExtendedLimitWord) else element
        )


def read_heights_first(closure) -> None:
    assert len(closure.heights) == len(closure)


def read_idempotents_first(closure) -> None:
    if isinstance(closure, ExtendedClosure):
        assert idempotent_pairs(closure)


def read_nothing_first(closure) -> None:
    pass


# Elements first (`fields` reads them before the rest), provenance first,
# heights first, idempotents first.
READS = (read_nothing_first, read_provenance_first, read_heights_first, read_idempotents_first)


def assert_reads_like_reference(closure, expected, read_first, early=()) -> None:
    """Read `read_first`, then the largest height, then the expressions of
    the elements at the positions `early` one at a time, through the
    saturation, then everything; the result must be the reference's, and
    the early nodes the ones the full read returns."""
    read_first(closure)
    max_height = closure.max_height
    if read_first is read_nothing_first:
        # The largest height decodes nothing.
        assert not {"elements", "provenance", "heights"} & vars(closure).keys()
    saturation, indices = closure._saturation, closure._indices
    nodes = [(position, saturation.expression(indices[position])) for position in early]
    assert len(closure) == len(expected[0])
    assert fields(closure) == expected
    assert max_height == closure.max_height == max(expected[2])
    for position, node in nodes:
        assert closure.provenance[closure.elements[position]] is node
        assert saturation.expression(indices[position]) is node
    for i, element in zip(indices[-3:], closure.elements[-3:]):
        assert saturation.expression(i) is closure.provenance[element]


def assert_every_read_order(automaton) -> None:
    expected = eager_closures(automaton)
    builders = {
        "plain": lambda: markov_monoid(automaton),
        "extended": lambda: extended_markov_monoid(automaton),
        "derived": lambda: extended_markov_monoid(automaton).plain_closure(),
    }
    for kind, build in builders.items():
        size = len(expected[kind][0])
        # The last element, then one from the middle: each decoded alone.
        early = [size - 1, size // 2]
        for read_first in READS:
            assert_reads_like_reference(build(), expected[kind], read_first)
        assert_reads_like_reference(build(), expected[kind], read_nothing_first, early)
        assert_reads_like_reference(build(), expected[kind], read_provenance_first, early)

    # The decisions read their witnesses first, and everything afterwards.
    report = decide_value1(automaton)
    assert_reads_like_reference(report.closure, expected["derived"], read_nothing_first)
    if report.value1:
        witness = report.certificate.witness
        assert report.closure.provenance[report.certificate.element] is witness
    leak = decide_leaktight(automaton)
    assert_reads_like_reference(leak.closure, expected["extended"], read_nothing_first)
    if leak.witness is not None:
        assert leak.closure.provenance[leak.witness.element] is leak.witness.expression


def test_every_read_order_matches_the_eager_reference_on_corpus() -> None:
    for seed in corpus():
        assert_every_read_order(seeded_automaton(seed))


@pytest.mark.parametrize("states,k", DECIDE_SCALE)
def test_every_read_order_matches_the_eager_reference_on_decide_scale(
    states: int, k: int
) -> None:
    assert_every_read_order(scale_automaton(states, k))


def repeated_abstractions() -> Automaton:
    """Letters `i` and `i2` abstract to the identity, `c` to the support of `b`."""
    one, half, third = F(1), F(1, 2), F(1, 3)
    zero = F(0)
    return Automaton(
        states=("p", "q"),
        alphabet=("i", "b", "c", "i2"),
        initial="p",
        final=frozenset({"q"}),
        matrices=(
            ((one, zero), (zero, one)),
            ((half, half), (zero, one)),
            ((third, 1 - third), (zero, one)),
            ((one, zero), (zero, one)),
        ),
    )


def pack(word: LimitWord, components: int) -> int:
    """The key of the element whose every component is `word`."""
    rows = word.rows * components
    return sum(row << (j * word.dim) for j, row in enumerate(rows))


@pytest.mark.parametrize("components", [1, 2])
def test_seed_nodes_are_built_on_first_read(components: int) -> None:
    inputs = [seeded_automaton(seed) for seed in corpus()[:100]]
    inputs.append(repeated_abstractions())
    for automaton in inputs:
        saturation = saturate(automaton, components, DEFAULT_CAP)
        index = {key: i for i, key in enumerate(saturation.keys)}
        n = len(automaton.states)
        # Each letter's first seed, or the identity's, keeps its place.
        first: dict[int, object] = {}
        expected = [epsilon_expr(n)]
        expected += [letter_expr(automaton, letter) for letter in automaton.alphabet]
        for expression in expected:
            first.setdefault(pack(expression.word, components), expression)
        seeds = list(first.values())
        assert saturation.sources[: len(seeds)] == [
            None if isinstance(seed, Epsilon) else seed.name for seed in seeds
        ]
        for i, seed in enumerate(seeds):
            assert saturation.keys[i] == pack(seed.word, components)
            node = saturation.expression(i)
            assert node == seed
            assert saturation.expression(i) is node
        for expression in expected:
            i = index[pack(expression.word, components)]
            assert saturation.expression(i) == first[saturation.keys[i]]


def test_seeds_of_repeated_abstractions() -> None:
    automaton = repeated_abstractions()
    saturation = saturate(automaton, 1, DEFAULT_CAP)
    assert saturation.sources[:2] == [None, "b"]
    closure = markov_monoid(automaton)
    assert closure.provenance[letter_expr(automaton, "i").word] == epsilon_expr(2)
    assert closure.provenance[letter_expr(automaton, "c").word].render() == "b"


def test_expression_of_an_element_outside_the_closure_is_a_key_error() -> None:
    automaton = seeded_automaton(7)
    closure = markov_monoid(automaton)
    extended = extended_markov_monoid(automaton)
    outside = [
        ExtendedLimitWord(word, support)
        for word in closure.elements
        for support in closure.elements
        if all(w & ~s == 0 for w, s in zip(word.rows, support.rows))
        and ExtendedLimitWord(word, support) not in extended
    ]
    assert outside
    for pair in outside:
        with pytest.raises(KeyError):
            extended.provenance[pair]
    with pytest.raises(KeyError):
        closure.provenance[LimitWord.identity(len(automaton.states) + 1)]


# ---------------------------------------------------------------------------
# Decisions on the keys against scans of closures read in full


def record(closure):
    """The record of a closure read in full, whose queries scan its elements."""
    return closure_record(closure.automaton, closure.elements, closure.provenance, closure.heights)


def rendered(provenance) -> dict:
    return {element: expression.render() for element, expression in provenance.items()}


def assert_decisions_match_materialized(automaton) -> None:
    saturated, plain = extended_markov_monoid(automaton), markov_monoid(automaton)
    extended = record(saturated)
    derived = reference_plain_closure(extended)
    witness = reference_find_value1_witness(derived)
    assert witness == reference_find_value1_witness(record(plain))
    # The public search reads the keys of the saturated and derived closures.
    assert find_value1_witness(plain) == witness
    assert find_value1_witness(saturated.plain_closure()) == witness
    leak = reference_find_leak_witness(extended)

    report = decide_value1(automaton)
    assert report.value1 == (witness is not None)
    assert report.leaktight == (leak is None)
    if witness is None:
        assert report.certificate.bound.monoid_size == len(extended.elements)
    else:
        assert report.certificate.element == witness
        expression = derived.provenance[witness]
        assert report.certificate.witness.render() == expression.render()
        assert report.certificate.witness.word == expression.word
    # The derived closure finds its first pairs when first read, after the
    # witness was picked on the extended keys.
    closure = report.closure
    assert len(closure) == len(derived.elements)
    assert closure.elements == derived.elements
    assert closure.heights == derived.heights
    assert rendered(closure.provenance) == rendered(derived.provenance)

    found = decide_leaktight(automaton).witness
    assert (found is None) == (leak is None)
    if leak is not None:
        element, expression, r, q = leak
        assert (found.element, found.r, found.q) == (element, r, q)
        assert found.expression.render() == expression.render()

    bounded = bounded_witness_search(automaton)
    bound = len(automaton.states)
    bounded_plain = MonoidClosure(saturate(automaton, 1, DEFAULT_CAP, bound))
    expected = reference_find_value1_witness(record(bounded_plain))
    assert find_value1_witness(bounded_plain) == expected
    assert (bounded is None) == (expected is None)
    if expected is not None:
        assert bounded.render() == bounded_plain.provenance[expected].render()


def reversed_states(automaton: Automaton) -> Automaton:
    """The same automaton with its states listed in reverse, so that the
    initial state of a generated automaton is no longer the first."""
    order = range(len(automaton.states) - 1, -1, -1)
    return Automaton(
        states=tuple(automaton.states[i] for i in order),
        alphabet=automaton.alphabet,
        initial=automaton.initial,
        final=automaton.final,
        matrices=tuple(
            tuple(tuple(matrix[i][j] for j in order) for i in order)
            for matrix in automaton.matrices
        ),
    )


def test_keys_first_decisions_match_materialized_on_corpus() -> None:
    for seed in corpus():
        automaton = seeded_automaton(seed)
        assert_decisions_match_materialized(automaton)
        assert_decisions_match_materialized(reversed_states(automaton))


@pytest.mark.parametrize("states,k", DECIDE_SCALE)
def test_keys_first_decisions_match_materialized_on_decide_scale(
    states: int, k: int
) -> None:
    automaton = scale_automaton(states, k)
    assert_decisions_match_materialized(automaton)
    assert_decisions_match_materialized(reversed_states(automaton))


# ---------------------------------------------------------------------------
# Leaks marked on the keys against the scalar recurrence loop

# Hard scaling automata the decide-scale workload leaves out, as (states, k).
LEFT_OUT = ((5, 0), (5, 3), (6, 4))


def assert_leaks_match_scalar(automaton) -> ExtendedClosure:
    """The saturation marks as leaking exactly the elements that are
    idempotent by their scalar square and leak by the scalar loop, and the
    public witness is the one the reference scan finds.  Returns the
    extended closure."""
    closure = extended_markov_monoid(automaton)
    extended = record(closure)
    leaking = [
        i
        for i, pair in enumerate(extended.elements)
        if pair in extended.idempotents and reference_leak(pair) is not None
    ]
    assert closure._saturation.leaks == leaking
    assert markov_monoid(automaton)._saturation.leaks == []

    expected = reference_find_leak_witness(extended)
    found = find_leak_witness(closure)
    if expected is None:
        assert found is None
    else:
        element, expression, r, q = expected
        assert (found.element, found.r, found.q) == (element, r, q)
        assert found.expression.render() == expression.render()
    return closure


def test_leaks_on_the_keys_match_the_scalar_loop_on_corpus() -> None:
    for seed in corpus():
        automaton = seeded_automaton(seed)
        assert_leaks_match_scalar(automaton)
        assert_leaks_match_scalar(reversed_states(automaton))


@pytest.mark.parametrize("states,k", DECIDE_SCALE + LEFT_OUT)
def test_leaks_on_the_keys_match_the_scalar_loop_on_scaling_automata(
    states: int, k: int
) -> None:
    automaton = scale_automaton(states, k)
    assert_leaks_match_scalar(automaton)
    assert_leaks_match_scalar(reversed_states(automaton))


@settings(max_examples=40, deadline=None)
@given(automata(max_states=5))
def test_leaks_on_the_keys_match_the_scalar_loop_on_drawn_automata(automaton) -> None:
    assert_leaks_match_scalar(automaton)


# Extended closures with a layer of more than 256 idempotents, as (seed,
# states) of random_automaton(Random(seed), states, letters=2): the
# idempotents per height, and the positions, among the height-1
# idempotents, of the leaking ones that end a run of 256 or the last run.
# Seed 670 leaks at the end of each of its three runs; seed 10312 at the
# end of its first run and in its second, a run of exactly one.  The layer
# pass packs up to 256 elements, idempotent or not, so these runs are not
# its passes; the next test puts a leak in the last slot of one.
CHUNKED = {
    (670, 5): ({0: 31, 1: 601}, [255, 511, 600]),
    (10312, 5): ({0: 66, 1: 257}, [255, 256]),
}


@pytest.mark.parametrize("seed,states", sorted(CHUNKED))
def test_leaks_on_the_keys_match_the_scalar_loop_across_passes(
    seed: int, states: int
) -> None:
    automaton = random_automaton(random.Random(seed), states=states, letters=2)
    saturation = assert_leaks_match_scalar(automaton)._saturation
    heights = [saturation.heights[i] for i in saturation.idempotents]
    layers = {h: heights.count(h) for h in sorted(set(heights))}
    top = [i for i in saturation.idempotents if saturation.heights[i] == 1]
    ends = [j for j in range(len(top)) if j % 256 == 255 or j == len(top) - 1]
    leaking = set(saturation.leaks)
    assert (layers, [j for j in ends if top[j] in leaking]) == CHUNKED[seed, states]


def test_leaks_on_the_keys_match_the_scalar_loop_at_the_end_of_a_pass() -> None:
    # Layer 1 of this extended closure holds 350 of its 415 elements, so
    # its first pass packs 256 of them, and the last of those is a leaking
    # idempotent.
    automaton = random_automaton(random.Random(104), states=5, letters=2)
    saturation = assert_leaks_match_scalar(automaton)._saturation
    layer = [i for i, height in enumerate(saturation.heights) if height == 1]
    assert (len(saturation), len(layer)) == (415, 350)
    assert layer[255] in saturation.leaks
    assert_same_saturation(automaton, 2)

"""The packed saturation engine against the all-pairs reference engine.

Both closures must come out exactly as the reference computes them: the
same elements in the same discovery order, the same witnessing expressions
and the same heights, and the same `CapExceeded` when the cap is too small.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings

from leaktight import CapExceeded, extended_markov_monoid, markov_monoid
from leaktight.generate import random_automaton

from .helpers import automata, corpus, seeded_automaton, seeded_closure, seeded_extended
from .reference_saturation import (
    reference_extended_markov_monoid,
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


@functools.lru_cache(maxsize=None)
def reference_closure(kind: str, seed: int):
    return BUILDERS[kind][1](seeded_automaton(seed))


def assert_same_closure(closure, reference) -> None:
    assert closure.elements == reference.elements
    assert closure.provenance == reference.provenance
    assert [closure.provenance[u].render() for u in closure.elements] == [
        reference.provenance[u].render() for u in reference.elements
    ]
    assert closure.heights == reference.heights


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
    automaton = random_automaton(
        random.Random(1000 * states + k), states=states, letters=2
    )
    for build, reference in BUILDERS.values():
        assert_same_closure(build(automaton), reference(automaton))


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

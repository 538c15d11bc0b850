"""Shared corpus, strategies, and small utilities for the test suite.

The seeded corpus is the single source of randomised inputs for the law
suites: the same 500 automata (and their closures) are reused across test
modules, computed once per process.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from hypothesis import strategies as st

from leaktight import (
    Automaton,
    ExtendedClosure,
    ExtendedLimitWord,
    LimitWord,
    MonoidClosure,
    extended_markov_monoid,
    markov_monoid,
)
from leaktight.generate import random_automaton

SUITE_SIZE = 500


@functools.lru_cache(maxsize=None)
def seeded_automaton(seed: int) -> Automaton:
    """Corpus member #seed: 1-4 states, 1-2 letters, simple rows."""
    rng = random.Random(seed)
    return random_automaton(
        rng, states=rng.randrange(1, 5), letters=rng.randrange(1, 3)
    )


@functools.lru_cache(maxsize=None)
def seeded_closure(seed: int) -> MonoidClosure:
    return markov_monoid(seeded_automaton(seed))


@functools.lru_cache(maxsize=None)
def seeded_extended(seed: int) -> ExtendedClosure:
    return extended_markov_monoid(seeded_automaton(seed))


def idempotent_pairs(closure: ExtendedClosure) -> frozenset[ExtendedLimitWord]:
    """The pairs whose word and support are both idempotent, as the
    saturation found them, each decoded."""
    saturation = closure._saturation
    return frozenset(
        ExtendedLimitWord(*saturation.words(i)) for i in saturation.idempotents
    )


def corpus() -> range:
    return range(SUITE_SIZE)


# ---------------------------------------------------------------------------
# Hypothesis strategies


def automata(max_states: int = 4, max_letters: int = 2) -> st.SearchStrategy[Automaton]:
    def build(seed: int, states: int, letters: int) -> Automaton:
        return random_automaton(random.Random(seed), states=states, letters=letters)

    return st.builds(
        build,
        st.integers(0, 2**32 - 1),
        st.integers(1, max_states),
        st.integers(1, max_letters),
    )


@st.composite
def limit_words(draw: st.DrawFn, dim: int | None = None, max_dim: int = 4) -> LimitWord:
    if dim is None:
        dim = draw(st.integers(1, max_dim))
    rows = tuple(draw(st.integers(1, 2**dim - 1)) for _ in range(dim))
    return LimitWord(dim, rows)


@st.composite
def limit_word_pairs(
    draw: st.DrawFn, max_dim: int = 4
) -> tuple[LimitWord, LimitWord]:
    dim = draw(st.integers(1, max_dim))
    return draw(limit_words(dim=dim)), draw(limit_words(dim=dim))


@st.composite
def limit_word_triples(
    draw: st.DrawFn, max_dim: int = 4
) -> tuple[LimitWord, LimitWord, LimitWord]:
    dim = draw(st.integers(1, max_dim))
    return (
        draw(limit_words(dim=dim)),
        draw(limit_words(dim=dim)),
        draw(limit_words(dim=dim)),
    )


def words_over(automaton: Automaton, max_size: int = 8) -> st.SearchStrategy[tuple[str, ...]]:
    return st.lists(
        st.sampled_from(automaton.alphabet), max_size=max_size
    ).map(tuple)


def fractions_01(denominator_bound: int = 16) -> st.SearchStrategy[Fraction]:
    return st.fractions(
        min_value=0, max_value=1, max_denominator=denominator_bound
    )

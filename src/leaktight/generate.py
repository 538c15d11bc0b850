"""Seeded random automata for property suites."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence, Union

from .automaton import Automaton, Matrix
from .errors import ValidationError

__all__ = [
    "random_automaton",
    "random_deterministic",
    "random_hierarchical",
    "perturb",
]

Seed = Union[int, random.Random]

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


def _rng(seed: Seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _names(count: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(count))


def _letters(count: int) -> tuple[str, ...]:
    return tuple("abcdefghijklmnopqrstuvwxyz"[i] for i in range(count))


def _final_states(rng: random.Random, states: Sequence[str]) -> frozenset[str]:
    return frozenset(s for s in states if rng.random() < 0.5)


def random_automaton(
    seed: Seed,
    states: int = 3,
    letters: int = 2,
    coin_bias: float = 0.35,
) -> Automaton:
    """A random simple automaton: each row is deterministic or a fair coin."""
    if states < 1 or letters < 1:
        raise ValidationError("need at least one state and one letter")
    rng = _rng(seed)
    names = _names(states)
    matrices: list[Matrix] = []
    for _ in range(letters):
        rows = []
        for _ in range(states):
            row = [ZERO] * states
            if states >= 2 and rng.random() < coin_bias:
                low, high = rng.sample(range(states), 2)
                row[low] = HALF
                row[high] = HALF
            else:
                row[rng.randrange(states)] = ONE
            rows.append(tuple(row))
        matrices.append(tuple(rows))
    return Automaton(
        states=names,
        alphabet=_letters(letters),
        initial=names[0],
        final=_final_states(rng, names),
        matrices=tuple(matrices),
    )


def random_deterministic(
    seed: Seed, states: int = 3, letters: int = 2
) -> Automaton:
    """A random automaton whose every row is deterministic."""
    return random_automaton(seed, states, letters, coin_bias=0.0)


def random_hierarchical(
    seed: Seed, states: int = 3, letters: int = 2, coin_bias: float = 0.35
) -> Automaton:
    """A random automaton admitting ranks that never decrease.

    Each state gets a rank; a deterministic row targets any state of equal
    or higher rank, and a coin row pairs one strictly-higher-rank target
    with a distinct second target of equal or higher rank, so no row has
    two same-rank successors.
    """
    if states < 1 or letters < 1:
        raise ValidationError("need at least one state and one letter")
    rng = _rng(seed)
    names = _names(states)
    rank = {s: rng.randrange(states) for s in range(states)}
    matrices: list[Matrix] = []
    for _ in range(letters):
        rows = []
        for s in range(states):
            row = [ZERO] * states
            at_least = [t for t in range(states) if rank[t] >= rank[s]]
            higher = [t for t in range(states) if rank[t] > rank[s]]
            if higher and rng.random() < coin_bias:
                first = rng.choice(higher)
                others = [t for t in at_least if t != first]
                second = rng.choice(others) if others else None
                if second is not None:
                    row[first] = HALF
                    row[second] = HALF
                else:
                    row[first] = ONE
            else:
                row[rng.choice(at_least)] = ONE
            rows.append(tuple(row))
        matrices.append(tuple(rows))
    return Automaton(
        states=names,
        alphabet=_letters(letters),
        initial=names[0],
        final=_final_states(rng, names),
        matrices=tuple(matrices),
    )


def perturb(seed: Seed, automaton: Automaton, scale: int = 7) -> Automaton:
    """Re-randomize every probability while keeping the support unchanged.

    Each positive entry of a row gets a fresh numerator in 1..scale and the
    row is renormalized, so the result has exactly the same boolean
    abstractions as the input.
    """
    rng = _rng(seed)
    matrices: list[Matrix] = []
    for matrix in automaton.matrices:
        rows = []
        for row in matrix:
            supported = [t for t, entry in enumerate(row) if entry]
            if len(supported) == 1:
                rows.append(row)
                continue
            weights = {t: rng.randint(1, scale) for t in supported}
            total = sum(weights.values())
            rows.append(
                tuple(
                    Fraction(weights[t], total) if t in weights else ZERO
                    for t in range(len(row))
                )
            )
        matrices.append(tuple(rows))
    return Automaton(
        states=automaton.states,
        alphabet=automaton.alphabet,
        initial=automaton.initial,
        final=automaton.final,
        matrices=tuple(matrices),
    )

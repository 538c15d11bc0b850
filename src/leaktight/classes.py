"""Structural automata classes with decidable membership.

Deterministic: every row of every letter is a unit vector.  Hierarchical:
states admit ranks that never decrease along transitions, with at most one
same-rank successor per state and letter.  Iterate-acyclic: the subset graph
induced by letters and their idempotent-power iterates has no cycle through
two or more distinct subsets.
"""

from __future__ import annotations

from typing import Optional

from .automaton import Automaton
from .errors import CapExceeded
from .graphs import strongly_connected_components
from .limitword import LimitWord, letter_abstraction

__all__ = [
    "is_deterministic",
    "is_hierarchical",
    "is_sharp_acyclic",
    "SUBSET_GRAPH_CAP",
]

SUBSET_GRAPH_CAP = 12


def is_deterministic(automaton: Automaton) -> bool:
    """Every transition probability is 0 or 1."""
    return all(
        automaton.scaled_matrix(letter)[1] == 1 for letter in automaton.alphabet
    )


def is_hierarchical(automaton: Automaton) -> Optional[dict[str, int]]:
    """A rank per state if the automaton is hierarchical, else None.

    Ranks never decrease along supported transitions and each (state,
    letter) has at most one successor of the same rank.  Equivalently:
    within the support graph, each (state, letter) keeps at most one
    successor inside the state's own strongly connected component; ranks
    then follow the component order.
    """
    dim = len(automaton.states)
    letters = [letter_abstraction(automaton, letter) for letter in automaton.alphabet]
    support = [0] * dim
    for abstraction in letters:
        for s in range(dim):
            support[s] |= abstraction.rows[s]

    def successors(s: int) -> tuple[int, ...]:
        row = support[s]
        return tuple(t for t in range(dim) if row >> t & 1)

    components = strongly_connected_components(dim, successors)
    component_of = [0] * dim
    for index, component in enumerate(components):
        for s in component:
            component_of[s] = index
    for abstraction in letters:
        for s in range(dim):
            same_rank = 0
            row = abstraction.rows[s]
            for t in range(dim):
                if row >> t & 1 and component_of[t] == component_of[s]:
                    same_rank += 1
            if same_rank > 1:
                return None
    # Components come out in reverse topological order; rank 0 goes to the
    # earliest component in forward order.
    total = len(components)
    return {
        automaton.states[s]: total - 1 - component_of[s] for s in range(dim)
    }


def is_sharp_acyclic(automaton: Automaton, cap: int = SUBSET_GRAPH_CAP) -> bool:
    """No cycle through distinct state subsets under letters and iterates.

    Nodes are the nonempty subsets of states.  Every letter maps a subset to
    its image; when a letter fixes a subset, the iterate of the letter's
    idempotent power contributes a second image.  The automaton is in the
    class when every strongly connected component of this graph is a single
    subset.
    """
    dim = len(automaton.states)
    if dim > cap:
        raise CapExceeded(
            f"subset graph needs {2**dim - 1} nodes; cap is {2**cap - 1}"
        )
    letters = [letter_abstraction(automaton, letter) for letter in automaton.alphabet]
    iterates = [word.power_to_idempotent().iterate() for word in letters]

    def image(subset: int, word: LimitWord) -> int:
        acc = 0
        remaining = subset
        while remaining:
            s = (remaining & -remaining).bit_length() - 1
            acc |= word.rows[s]
            remaining &= remaining - 1
        return acc

    count = (1 << dim) - 1  # nonempty subsets, node i is subset i + 1

    def successors(node: int) -> tuple[int, ...]:
        subset = node + 1
        targets: set[int] = set()
        for word, sharp in zip(letters, iterates):
            out = image(subset, word)
            targets.add(out - 1)
            if out == subset:
                targets.add(image(subset, sharp) - 1)
        return tuple(sorted(targets))

    components = strongly_connected_components(count, successors)
    return all(len(component) == 1 for component in components)

"""Extended closure tracking iterate-free supports, and the leaktight decision.

Elements are pairs: the limit word produced with iterates, alongside the
boolean support the same expression would have if every iterate were dropped.
A leak is an idempotent pair whose iterate-free support lets a recurrent
state escape to somewhere it can never return from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automaton import Automaton
from .errors import ValidationError
from .limitword import LimitWord
from .monoid import DEFAULT_CAP, Closure, MonoidClosure, _least_row_major, saturate
from .sharpexpr import SharpExpression

__all__ = [
    "ExtendedLimitWord",
    "ExtendedClosure",
    "extended_markov_monoid",
    "LeakWitness",
    "find_leak_witness",
    "LeaktightReport",
    "decide_leaktight",
]


@dataclass(frozen=True)
class ExtendedLimitWord:
    """A limit word paired with its iterate-free support.

    The limit word refines the support: every edge of `word` is an edge of
    `support` (iterates only ever remove edges).
    """

    word: LimitWord
    support: LimitWord

    def __post_init__(self) -> None:
        if self.word.dim != self.support.dim:
            raise ValidationError(
                f"dimension mismatch: {self.word.dim} vs {self.support.dim}"
            )
        for s in range(self.word.dim):
            if self.word.rows[s] & ~self.support.rows[s]:
                raise ValidationError(
                    f"row {s}: limit word has an edge missing from the support"
                )

    @property
    def dim(self) -> int:
        return self.word.dim

    def concat(self, other: "ExtendedLimitWord") -> "ExtendedLimitWord":
        return ExtendedLimitWord(
            word=self.word.concat(other.word),
            support=self.support.concat(other.support),
        )

    def is_idempotent(self) -> bool:
        return self.word.is_idempotent() and self.support.is_idempotent()

    def iterate(self) -> "ExtendedLimitWord":
        """Iterate the limit word; the iterate-free support is unchanged."""
        if not self.is_idempotent():
            raise ValidationError(
                "precondition violation: element is not idempotent"
            )
        return ExtendedLimitWord(word=self.word.iterate(), support=self.support)

    def sort_key(self):
        return (self.word.sort_key(), self.support.sort_key())


class ExtendedClosure(Closure[ExtendedLimitWord]):
    """All extended pairs generated by an automaton's letters.

    The leak search decodes none of the idempotent pairs: the saturation
    marks the ones that leak on their keys.
    """

    @staticmethod
    def _wrap(words: tuple[LimitWord, ...]) -> ExtendedLimitWord:
        return ExtendedLimitWord(*words)

    def projection(self) -> frozenset[LimitWord]:
        """The set of limit-word components of the pairs."""
        return frozenset(pair.word for pair in self.elements)

    def plain_closure(self) -> MonoidClosure:
        """The Markov monoid, read off the word components of the pairs.

        Each word keeps the height and the expression of its first pair in
        discovery order; heights never fall in that order, so this is the
        word's least height.  The first pairs are found by
        `Saturation.first_words`, on the keys, when the closure is first
        read, and nothing is decoded.
        """
        return MonoidClosure(self._saturation, self._saturation.first_words)


def extended_markov_monoid(
    automaton: Automaton, cap: int = DEFAULT_CAP
) -> ExtendedClosure:
    """Saturate letter pairs under concatenation and iterates-on-idempotents."""
    return ExtendedClosure(saturate(automaton, 2, cap))


@dataclass(frozen=True)
class LeakWitness:
    """An idempotent pair whose support leaks out of a recurrence class.

    State `r` is recurrent in the limit word, the support has an edge from
    `r` to `q`, and the limit word has no edge from `q` back to `r`.
    """

    element: ExtendedLimitWord
    expression: SharpExpression
    r: int
    q: int


def find_leak_witness(closure: ExtendedClosure) -> Optional[LeakWitness]:
    """The least leak witness (by element, then by the pair (r, q)), or None.

    The saturation marks the idempotents that leak as it iterates them, on
    their keys.  The least of them in row-major bit order, the order of
    `ExtendedLimitWord.sort_key`, is the only pair decoded, and its (r, q)
    is found on the decoded words; `recurrent_states` squares the word
    once more, as the precondition its public contract checks.  Any
    closure but an `ExtendedClosure` raises ValidationError: a plain
    closure has no supports to leak through, and one derived by
    `plain_closure` shares its saturation's marks with pairs outside it.
    """
    if not isinstance(closure, ExtendedClosure):
        raise ValidationError("find_leak_witness needs an extended closure")
    saturation = closure._saturation
    if not saturation.leaks:
        return None
    i = _least_row_major(saturation.leaks, saturation.keys)
    pair = ExtendedLimitWord(*saturation.words(i))
    word, support = pair.word, pair.support
    r, q = next(
        (r, q)
        for r in sorted(word.recurrent_states())
        for q in range(word.dim)
        if support.rows[r] >> q & 1 and not word.rows[q] >> r & 1
    )
    return LeakWitness(element=pair, expression=saturation.expression(i), r=r, q=q)


@dataclass(frozen=True)
class LeaktightReport:
    leaktight: bool
    witness: Optional[LeakWitness]
    closure: ExtendedClosure


def decide_leaktight(
    automaton: Automaton, cap: int = DEFAULT_CAP
) -> LeaktightReport:
    """An automaton is leaktight when its extended closure has no leak."""
    closure = extended_markov_monoid(automaton, cap)
    witness = find_leak_witness(closure)
    return LeaktightReport(
        leaktight=witness is None, witness=witness, closure=closure
    )

"""Boolean transition structures ("limit words") and their algebra.

A limit word over n states is an n×n boolean matrix with no all-zero row,
packed one integer bitmask per row.  Bit t of row s is set when state t is
reachable from state s.  Composition is boolean matrix product; the iterate
operation keeps, inside an idempotent element, only the edges that lead to
recurrent states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .automaton import Automaton

__all__ = [
    "LimitWord",
    "RecurrencePartition",
    "letter_abstraction",
]


@dataclass(frozen=True)
class LimitWord:
    """A boolean n×n matrix with no dead-end (all-zero) row.

    `rows[s]` is a bitmask; bit t set means the pair (s, t) is present.
    """

    dim: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.rows) is not tuple:  # a list would not compare or hash
            object.__setattr__(self, "rows", tuple(self.rows))
        if self.dim <= 0:
            raise ValidationError("dimension must be positive")
        if len(self.rows) != self.dim:
            raise ValidationError(f"expected {self.dim} rows, got {len(self.rows)}")
        full = (1 << self.dim) - 1
        for s, row in enumerate(self.rows):
            if row == 0:
                raise ValidationError(f"dead-end row {s}: no successor")
            if row & ~full:
                raise ValidationError(f"row {s} has bits outside dimension {self.dim}")

    # -- construction -------------------------------------------------------

    @staticmethod
    def identity(dim: int) -> LimitWord:
        return LimitWord(dim, tuple(1 << s for s in range(dim)))

    # -- queries -------------------------------------------------------------

    def __contains__(self, pair: tuple[int, int]) -> bool:
        s, t = pair
        return bool(self.rows[s] >> t & 1)

    def sort_key(self) -> tuple[tuple[int, ...], ...]:
        """Row-major bit order: row 0 first, and within a row bit 0 first."""
        return tuple(
            tuple(row >> t & 1 for t in range(self.dim)) for row in self.rows
        )

    def render(self, states: tuple[str, ...] | None = None) -> str:
        names = states if states is not None else tuple(
            str(s) for s in range(self.dim)
        )
        lines = []
        for s, row in enumerate(self.rows):
            targets = ",".join(names[t] for t in range(self.dim) if row >> t & 1)
            lines.append(f"{names[s]} -> {{{targets}}}")
        return "\n".join(lines)

    # -- algebra -------------------------------------------------------------

    def concat(self, other: LimitWord) -> LimitWord:
        """Boolean matrix product: (s, t) present iff some (s, m) and (m, t) are."""
        if self.dim != other.dim:
            raise ValidationError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )
        rows = []
        for row in self.rows:
            acc = 0
            remaining = row
            while remaining:
                m = (remaining & -remaining).bit_length() - 1
                acc |= other.rows[m]
                remaining &= remaining - 1
            rows.append(acc)
        return LimitWord(self.dim, tuple(rows))

    def is_idempotent(self) -> bool:
        return self.concat(self) == self

    def power_to_idempotent(self) -> LimitWord:
        """The unique idempotent power of this element.

        The powers of an element of a finite monoid contain exactly one
        idempotent; walks u, u², u³, … up to it.
        """
        power = self
        while not power.is_idempotent():
            power = power.concat(self)
        return power

    def recurrent_states(self) -> frozenset[int]:
        """States s with: every edge (s, t) is matched by an edge (t, s).

        Only meaningful for idempotent elements, which is enforced.
        """
        if not self.is_idempotent():
            raise ValidationError("precondition violation: element is not idempotent")
        columns = [0] * self.dim
        for s, row in enumerate(self.rows):
            remaining = row
            while remaining:
                t = (remaining & -remaining).bit_length() - 1
                columns[t] |= 1 << s
                remaining &= remaining - 1
        recurrent = frozenset(
            s
            for s, row in enumerate(self.rows)
            if row & ~columns[s] == 0
        )
        return recurrent

    def iterate(self) -> LimitWord:
        """Keep only edges into recurrent states (requires idempotency).

        Every state retains at least one successor: inside an idempotent
        element each row reaches some recurrent state.
        """
        recurrent = self.recurrent_states()
        mask = 0
        for s in recurrent:
            mask |= 1 << s
        rows = tuple(row & mask for row in self.rows)
        return LimitWord(self.dim, rows)

    def recurrence_classes(self) -> RecurrencePartition:
        """Recurrent states and the mutual-reachability classes they generate.

        The relation i ~ j (both (i, j) and (j, i) present) is an equivalence
        on the states that are related to at least one state; the classes
        cover exactly that support.  Requires idempotency.
        """
        recurrent = self.recurrent_states()
        support = [
            s for s in range(self.dim) if (s, s) in self
        ]
        assigned: set[int] = set()
        classes: list[frozenset[int]] = []
        for s in support:
            if s in assigned:
                continue
            members = frozenset(
                t for t in support if (s, t) in self and (t, s) in self
            )
            assigned |= members
            classes.append(members)
        classes.sort(key=min)
        return RecurrencePartition(recurrent=recurrent, classes=tuple(classes))


@dataclass(frozen=True)
class RecurrencePartition:
    """Recurrent states of an idempotent element and its recurrence classes."""

    recurrent: frozenset[int]
    classes: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        # A list or set would not compare or hash.
        object.__setattr__(self, "recurrent", frozenset(self.recurrent))
        object.__setattr__(self, "classes", tuple(self.classes))
        seen: set[int] = set()
        for cls in self.classes:
            if not cls:
                raise ValidationError("empty recurrence class")
            if cls & seen:
                raise ValidationError("overlapping recurrence classes")
            seen |= cls


def letter_abstraction(automaton: "Automaton", letter: str) -> LimitWord:
    """The boolean support of a letter's transition matrix."""
    numerators, _ = automaton.scaled_matrix(letter)
    rows = []
    for row in numerators:
        bits = 0
        for t, x in enumerate(row):
            if x:
                bits |= 1 << t
        rows.append(bits)
    return LimitWord(len(numerators), tuple(rows))

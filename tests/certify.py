"""A closure certified without the engine.

The Markov monoid is the least set that holds the identity and the letters
and is closed under products and under iterating idempotents.  So the
elements a saturation found, with its back-pointers and heights, are
exactly the closure, each at its least height, when:

- element 0 is the identity, and each letter's element is its abstraction,
  at height 0;
- each back-pointer re-derives its element from earlier ones: a product
  (p, g) by a generator g on the right, at height max(h(p), h(g)), or the
  iterate of an idempotent c, at height h(c) + 1; so every element lies in
  the closure, and some expression reaches it at its recorded height;
- every element times every generator is an element, of height at most
  the larger of the two, and every idempotent's iterate is an element, of
  height at most one more.

The generators are the letters and the iterate elements.  By its
back-pointers, an element y is a product of generators of height at most
h(y), so the last item also bounds h(x·y) by max(h(x), h(y)): no
expression reaches an element below its recorded height.  Idempotents and
leaks are checked element by element.  Only the scalar `LimitWord` and
`ExtendedLimitWord` operations are used, never the engine's packed keys.
"""

from __future__ import annotations

import math
from typing import Sequence

from leaktight.leaks import ExtendedLimitWord
from leaktight.limitword import LimitWord, letter_abstraction
from leaktight.monoid import Saturation

from .reference_saturation import reference_leak


def certify(saturation: Saturation, elements: Sequence) -> None:
    """Assert that `elements`, the saturation's elements decoded in its
    order, are its automaton's closure, each at its recorded least height."""
    automaton = saturation.automaton
    sources, heights = saturation.sources, saturation.heights
    assert len(elements) == len(sources) == len(heights)
    height = dict(zip(elements, heights))
    assert len(height) == len(elements), "an element is listed twice"
    extended = isinstance(elements[0], ExtendedLimitWord)

    def abstraction(letter: str):
        word = letter_abstraction(automaton, letter)
        return ExtendedLimitWord(word, word) if extended else word

    identity = LimitWord.identity(len(automaton.states))
    if extended:
        identity = ExtendedLimitWord(identity, identity)
    assert elements[0] == identity
    assert sources[0] is None and heights[0] == 0
    for letter in automaton.alphabet:
        assert height.get(abstraction(letter)) == 0, letter
    generators = [i for i, s in enumerate(sources) if type(s) in (str, int)]
    for i in range(1, len(elements)):
        source, element, h = sources[i], elements[i], heights[i]
        if type(source) is str:
            assert element == abstraction(source) and h == 0, i
        elif type(source) is int:
            assert source < i and elements[source].is_idempotent(), i
            assert elements[source].iterate() == element, i
            assert h == heights[source] + 1, i
        else:
            p, g = source
            assert p < i and g < i and g in generators, i
            assert elements[p].concat(elements[g]) == element, i
            assert h == max(heights[p], heights[g]), i
    idempotents = []
    for i, x in enumerate(elements):
        for g in generators:
            product = height.get(x.concat(elements[g]), math.inf)
            assert product <= max(heights[i], heights[g]), (i, g)
        if x.is_idempotent():
            idempotents.append(i)
            assert height.get(x.iterate(), math.inf) <= heights[i] + 1, i
    assert saturation.idempotents == idempotents
    leaks = [i for i in idempotents if extended and reference_leak(elements[i])]
    assert saturation.leaks == leaks

"""Decide the value-1 problem on three small automata.

An automaton has value 1 when some sequence of input words drives the
acceptance probability arbitrarily close to 1.  The decision procedure
saturates the boolean abstractions of the letters into a monoid of limit
words; a limit word that sends the initial state only into final states is
a conclusive witness.  When no witness exists the answer "no" comes with a
symbolic bound on how close to 1 the value can be, and that bound is
guaranteed only for leaktight automata.
"""

from fractions import Fraction

from leaktight import decide_value1
from leaktight.zoo import fig1, fig3, sink


def describe(name, automaton):
    report = decide_value1(automaton)
    print(f"== {name} ==")
    print(f"states:    {', '.join(automaton.states)}")
    print(f"alphabet:  {', '.join(automaton.alphabet)}")
    print(f"leaktight: {report.leaktight}")
    if report.value1:
        expr = report.certificate.witness
        print(f"value 1:   yes, witnessed by {expr.render()}")
        print("           (iterating the base of each # pumps the")
        print("            acceptance probability toward 1)")
    else:
        bound = report.certificate.bound
        print(f"value 1:   no, value <= {bound.formula}")
        if not report.leaktight:
            print("           (not leaktight, so the bound is unreliable)")
    print()


def main():
    # Two letters; iterating `a` funnels all probability into the final
    # state, so the monoid contains a witness element.
    describe("funnel", fig3())

    # A single absorbing non-final state: the value is 0 and the monoid
    # proves it with a concrete bound away from 1.
    describe("absorbing sink", sink())

    # The two-coin automaton with a fair coin: the value is exactly 1/2,
    # but the automaton is not leaktight, so the negative answer alone
    # cannot be trusted and the report says so.
    describe("fair two-coin", fig1(Fraction(1, 2)))


if __name__ == "__main__":
    main()

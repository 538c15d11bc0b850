"""Exact value-1 and leaktight decisions for probabilistic automata.

The package models probabilistic automata over finite words with exact
rational probabilities, saturates their boolean abstractions into a monoid
of limit words, decides the value-1 problem with witnesses or symbolic
bounds, detects leaks, recognizes structural classes, reduces any simple
automaton to one with a single probabilistic transition, and cross-checks
every boolean claim against exact numeric evaluation.
"""

from .automaton import (
    Automaton,
    Matrix,
    automaton_from_json,
    automaton_to_json,
    parallel_composition,
    parse_automaton,
    synchronized_product,
)
from .classes import is_deterministic, is_hierarchical, is_sharp_acyclic
from .errors import CapExceeded, ValidationError
from .leaks import (
    ExtendedClosure,
    ExtendedLimitWord,
    LeakWitness,
    LeaktightReport,
    decide_leaktight,
    extended_markov_monoid,
    find_leak_witness,
)
from .limitword import LimitWord, RecurrencePartition, letter_abstraction
from .monoid import (
    Certificate,
    MonoidClosure,
    UpperBound,
    Value1Report,
    bounded_witness_search,
    decide_value1,
    find_value1_witness,
    is_value1_witness,
    markov_monoid,
    sharp_height,
)
from .oracle import (
    ReificationReport,
    WordFamily,
    brute_force_value,
    check_consistency,
    check_lower_bound,
    evaluate_family,
    evaluate_family_at,
    expression_matrix,
    family_word,
    parse_family,
    reification_exponent,
    reify,
)
from .reduction import (
    ReductionOutput,
    hat_morphism,
    hat_with_finish,
    is_simple,
    probabilistic_row_count,
    reduce_basic,
    reduce_full,
    sharp_interleave,
    third_simulation,
)
from .sharpexpr import (
    Concat,
    Epsilon,
    Iterate,
    Letter,
    SharpExpression,
    concat_expr,
    epsilon_expr,
    iterate_expr,
    letter_expr,
    parse_expression,
)

__version__ = "0.1.0"

__all__ = [
    "Automaton",
    "Matrix",
    "automaton_from_json",
    "automaton_to_json",
    "parallel_composition",
    "parse_automaton",
    "synchronized_product",
    "is_deterministic",
    "is_hierarchical",
    "is_sharp_acyclic",
    "CapExceeded",
    "ValidationError",
    "ExtendedClosure",
    "ExtendedLimitWord",
    "LeakWitness",
    "LeaktightReport",
    "decide_leaktight",
    "extended_markov_monoid",
    "find_leak_witness",
    "LimitWord",
    "RecurrencePartition",
    "letter_abstraction",
    "Certificate",
    "MonoidClosure",
    "UpperBound",
    "Value1Report",
    "bounded_witness_search",
    "decide_value1",
    "find_value1_witness",
    "is_value1_witness",
    "markov_monoid",
    "sharp_height",
    "ReificationReport",
    "WordFamily",
    "brute_force_value",
    "check_consistency",
    "check_lower_bound",
    "evaluate_family",
    "evaluate_family_at",
    "expression_matrix",
    "family_word",
    "parse_family",
    "reification_exponent",
    "reify",
    "ReductionOutput",
    "hat_morphism",
    "hat_with_finish",
    "is_simple",
    "probabilistic_row_count",
    "reduce_basic",
    "reduce_full",
    "sharp_interleave",
    "third_simulation",
    "Concat",
    "Epsilon",
    "Iterate",
    "Letter",
    "SharpExpression",
    "concat_expr",
    "epsilon_expr",
    "iterate_expr",
    "letter_expr",
    "parse_expression",
]

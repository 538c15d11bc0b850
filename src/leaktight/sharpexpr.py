"""Expressions over letters with concatenation and the iterate operator.

Each node carries the limit word it evaluates to, so building an expression
and evaluating it are the same act; the iterate constructor enforces the
idempotency precondition exactly like `LimitWord.iterate`.  A node's
`height` and `depth` are set when it is built, from its children's.

Every walk over an expression tree, here and in `oracle`, is one of two
loops on an explicit stack, so no tree is too deep to walk: `fold` computes
one value per distinct node, children first, and `unfold` writes a tree out
left to right, once per occurrence of each node.  `TreeNode`'s `==` and
`repr` do not recurse either.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Optional, Union

from .errors import ValidationError
from .limitword import LimitWord, letter_abstraction

if TYPE_CHECKING:  # pragma: no cover
    from .automaton import Automaton

__all__ = [
    "SharpExpression",
    "Epsilon",
    "Letter",
    "Concat",
    "Iterate",
    "epsilon_expr",
    "letter_expr",
    "concat_expr",
    "iterate_expr",
    "parse_expression",
    "subterms",
    "fold",
    "unfold",
    "TreeNode",
]


def fold(
    root, children: Callable, combine: Callable, memo: Optional[dict] = None, key=id
) -> object:
    """The value of `root`, computed children first over a tree whose
    subtrees may be shared: each distinct node is combined once, as
    `combine(node, values)` with the values of `children(node)`, computed
    left to right.  `memo` maps `key(node)`, by default the node's identity,
    to (node, value); a node it holds from an earlier walk is not walked
    again, and holding the node keeps its id from being reused."""
    memo = {} if memo is None else memo
    stack = [root]
    while stack:
        node = stack[-1]
        k = key(node)
        if k in memo:
            stack.pop()
            continue
        kids = children(node)
        try:
            values = [memo[key(kid)][1] for kid in kids]
        except KeyError:  # compute the missing children first
            stack += reversed([kid for kid in kids if key(kid) not in memo])
            continue
        stack.pop()
        memo[k] = (node, combine(node, values))
    return memo[key(root)][1]


def unfold(root, parts: Callable[..., tuple]) -> list[str]:
    """The strings of `root`'s expansion, left to right: `parts(node)` holds
    strings, written out, and nodes, expanded in turn.  A node is expanded
    at each of its occurrences, so the work is linear in what is written."""
    out: list[str] = []
    stack = [root]
    pop, write = stack.pop, out.append
    while stack:
        item = pop()
        if type(item) is str:
            write(item)
        else:
            stack += parts(item)[::-1]
    return out


class TreeNode:
    """A frozen dataclass, declared `eq=False, repr=False`, whose fields may
    hold nodes or tuples of nodes.  `==` and `repr` mean what a dataclass's
    do, without recursion: `==` compares each pair of nodes once, on a stack,
    `unfold` writes `repr`, and `hash` reads only the node's own attributes."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs, seen = [(self, other)], set()  # the roots keep each id alive
        while pairs:
            x, y = pairs.pop()
            if isinstance(x, TreeNode):
                if type(x) is not type(y):
                    return False
                if x is not y and (id(x), id(y)) not in seen:
                    seen.add((id(x), id(y)))
                    names = [f.name for f in fields(x) if f.compare]
                    pairs += ((getattr(x, n), getattr(y, n)) for n in names)
            elif type(x) is tuple and type(y) is tuple and len(x) == len(y):
                pairs += zip(x, y)
            elif x != y:
                return False
        return True

    def __hash__(self) -> int:  # each child, or tuple of them, counts by its type
        held = (TreeNode, tuple)
        own = [type(v) if isinstance(v, held) else v for v in vars(self).values()]
        return hash((type(self), *own))

    def __repr__(self) -> str:
        return "".join(unfold(self, _repr_parts))

    def __reduce__(self) -> tuple:
        """`pickle` and `copy.deepcopy` get the tree written out flat by
        `fold`: one record per distinct node, children first, of its class,
        its field values with each child node as the index of its record,
        and the positions of those fields.  `_rebuild` builds each node
        once, so subtrees shared within the tree stay shared."""
        records: list = []
        memo: dict = {}

        def record(node: TreeNode, _: list) -> int:
            values, links = _field_values(node), []
            for k, value in enumerate(values):
                if isinstance(value, TreeNode):
                    values[k] = memo[id(value)][1]
                elif _is_node_tuple(value):
                    values[k] = tuple(memo[id(child)][1] for child in value)
                else:
                    continue
                links.append(k)
            records.append((type(node), tuple(values), tuple(links)))
            return len(records) - 1

        fold(self, _child_nodes, record, memo)
        return _rebuild, (records,)


def _field_values(node: TreeNode) -> list:
    return [getattr(node, f.name) for f in fields(node)]


def _is_node_tuple(value: object) -> bool:
    return type(value) is tuple and all(isinstance(v, TreeNode) for v in value)


def _child_nodes(node: TreeNode) -> list:
    """The nodes a node's fields hold, alone or in a tuple, in field order."""
    children = []
    for value in _field_values(node):
        if isinstance(value, TreeNode):
            children.append(value)
        elif _is_node_tuple(value):
            children += value
    return children


def _rebuild(records: list) -> TreeNode:
    """The tree `TreeNode.__reduce__` wrote out: its last record's node."""
    nodes: list = []
    for cls, values, links in records:
        values = list(values)
        for k in links:
            link = values[k]
            values[k] = nodes[link] if type(link) is int else tuple(map(nodes.__getitem__, link))
        nodes.append(cls(*values))
    return nodes[-1]


def _repr_parts(item: object) -> list:
    """A node's repr as its dataclass writes it, or a tuple's, in strings and
    the nodes and tuples still to write; other values are written by `repr`."""
    if isinstance(item, tuple):
        parts = [part for value in item for part in (", ", _shown(value))][1:]
        return ["(", *parts, ",)" if len(item) == 1 else ")"]
    parts = [f"{type(item).__qualname__}("]
    for f in (f for f in fields(item) if f.repr):
        parts += [", " * (len(parts) > 1) + f.name + "=", _shown(getattr(item, f.name))]
    return parts + [")"]


def _shown(value: object) -> object:
    return value if isinstance(value, (TreeNode, tuple)) else repr(value)


class _Node(TreeNode):
    """What every node shares: `height` counts nested iterates, `depth`
    nested concatenations and iterates, and `render` writes its text."""

    height = depth = 0

    def render(self) -> str:
        return "".join(unfold(self, _text))


@dataclass(frozen=True, eq=False, repr=False)
class Epsilon(_Node):
    """The empty word; evaluates to the identity."""

    word: LimitWord


@dataclass(frozen=True, eq=False, repr=False)
class Letter(_Node):
    """A single alphabet letter."""

    name: str
    word: LimitWord


# An inner node sets its fields and its counts once, in one dict update,
# which costs what the frozen fields alone did.


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Concat(_Node):
    """Sequential composition of two expressions."""

    left: "SharpExpression"
    right: "SharpExpression"
    word: LimitWord

    def __init__(self, left: SharpExpression, right: SharpExpression, word: LimitWord):
        height = max(left.height, right.height)
        depth = 1 + max(left.depth, right.depth)
        vars(self).update(left=left, right=right, word=word, height=height, depth=depth)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Iterate(_Node):
    """The iterate of an idempotent expression."""

    child: "SharpExpression"
    word: LimitWord

    def __init__(self, child: SharpExpression, word: LimitWord):
        height, depth = 1 + child.height, 1 + child.depth
        vars(self).update(child=child, word=word, height=height, depth=depth)


SharpExpression = Union[Epsilon, Letter, Concat, Iterate]


def subterms(node: SharpExpression) -> tuple[SharpExpression, ...]:
    """The node's children, left to right."""
    if isinstance(node, Concat):
        return node.left, node.right
    return (node.child,) if isinstance(node, Iterate) else ()


def _text(node: SharpExpression) -> tuple:
    if isinstance(node, Concat):
        return node.left, " ", node.right
    if isinstance(node, Iterate):
        return "(", node.child, ")#"
    return (node.name,) if isinstance(node, Letter) else ("ε",)


def epsilon_expr(dim: int) -> Epsilon:
    return Epsilon(word=LimitWord.identity(dim))


def letter_expr(automaton: "Automaton", name: str) -> Letter:
    return Letter(name=name, word=letter_abstraction(automaton, name))


def concat_expr(left: SharpExpression, right: SharpExpression) -> Concat:
    return Concat(left=left, right=right, word=left.word.concat(right.word))


def iterate_expr(child: SharpExpression) -> Iterate:
    if not child.word.is_idempotent():
        raise ValidationError(
            "precondition violation: iterate of a non-idempotent expression"
        )
    return Iterate(child=child, word=child.word.iterate())


# `(`, `)#`, a run of anything else but whitespace (`\s` is exactly
# `str.isspace`), or a lone `)` or `#`, which is an error.
_TOKEN = re.compile(r"\(|\)#|[^\s()#]+|[)#]")
_STRAY = {")": "')' must be followed by '#'", "#": "'#' outside ')#'"}


def _tokenize(text: str) -> list[tuple[int, str]]:
    tokens = [(match.start(), match.group()) for match in _TOKEN.finditer(text)]
    for offset, token in tokens:
        if token in _STRAY:
            raise ValidationError(
                f"expression syntax error at offset {offset}: {_STRAY[token]}"
            )
    return tokens


def _concat_all(parts: list[SharpExpression]) -> SharpExpression:
    if not parts:
        raise ValidationError("expression syntax error: empty expression")
    return functools.reduce(concat_expr, parts)


def parse_expression(text: str, automaton: "Automaton") -> SharpExpression:
    """Parse `a b (c)#`-style text into an expression over the automaton's letters.

    Whitespace-separated atoms concatenate left to right; `( … )#` applies the
    iterate operator to the bracketed expression; `ε` is the empty word.  Each
    open group is stacked with the offset of its `(` and the parts before it.
    """
    groups: list[tuple[int, list[SharpExpression]]] = []
    parts: list[SharpExpression] = []
    for offset, token in _tokenize(text):
        if token == "(":
            groups.append((offset, parts))
            parts = []
        elif token == ")#":
            if not groups:
                _concat_all(parts)  # an empty expression is reported first
                raise ValidationError(
                    f"expression syntax error at offset {offset}: unmatched ')#'"
                )
            if not parts:
                raise ValidationError(
                    f"expression syntax error at offset {offset}: empty group"
                )
            inner = iterate_expr(_concat_all(parts))
            parts = groups.pop()[1]
            parts.append(inner)
        elif token == "ε":
            parts.append(epsilon_expr(len(automaton.states)))
        elif token in automaton.letter_index:
            parts.append(letter_expr(automaton, token))
        else:
            raise ValidationError(
                f"expression syntax error at offset {offset}: "
                f"unknown letter {token!r}"
            )
    expr = _concat_all(parts)
    if groups:
        raise ValidationError(
            f"expression syntax error at offset {groups[-1][0]}: unclosed '('"
        )
    return expr

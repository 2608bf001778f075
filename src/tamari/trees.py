"""Planar binary trees, their induced relations and the Tamari order.

A tree is either ``None`` (a leaf, size 0) or a :class:`BinaryTree` node
holding an optional left and right subtree.  Vertices are implicitly
labelled 1..n by in-order traversal (the unique binary-search-tree
labelling), and all relation-producing operations use those labels.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

Tree = Optional["BinaryTree"]
Masks = tuple[int, ...]  # up-set masks, one per vertex

_set = object.__setattr__  # writes a field of a frozen carrier


class _Frozen:
    """A frozen ``__slots__`` carrier: the fields named in ``_fields`` give
    equality (same class only), hashing, the repr and the constructor's
    arguments when pickled.  Setting or deleting any attribute raises."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class BinaryTree(_Frozen):
    """An internal node of a planar binary tree; ``None`` children are leaves.

    Equality and hashing read the preorder word of the shape, 1 per node
    and 0 per leaf, built without recursion: trees of any depth compare.
    Its repr, ``BinaryTree(left=..., right=...)``, is built likewise.
    """

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Tree = None, right: Tree = None) -> None:
        _set(self, "left", left)
        _set(self, "right", right)

    def _word(self) -> bytes:
        word = bytearray()
        stack: list[Tree] = [self]
        while stack:
            node = stack.pop()
            if node is None:
                word.append(0)
            else:
                word.append(1)
                stack.append(node.right)
                stack.append(node.left)
        return bytes(word)

    def __eq__(self, other) -> bool:
        if type(other) is not BinaryTree:
            return NotImplemented
        return self is other or self._word() == other._word()

    def __hash__(self) -> int:
        return hash(self._word())

    def __repr__(self) -> str:
        return _render(self, "None", "BinaryTree(left=", ", right=", ")")


Y = BinaryTree()  # the unique tree of size 1


def size(t: Tree) -> int:
    count = 0
    stack = [t]
    while stack:
        node = stack.pop()
        if node is not None:
            count += 1
            stack.append(node.left)
            stack.append(node.right)
    return count


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple[Tree, ...]:
    """All planar binary trees of size ``n``.

    Canonical order: by size of the left subtree, then recursively on the
    left subtree, then on the right one.  Length is the Catalan number.
    """
    if n < 0:
        raise ValueError("size must be non-negative")
    if n == 0:
        return (None,)
    out: list[Tree] = []
    for k in range(n):
        for left in enumerate_trees(k):
            for right in enumerate_trees(n - 1 - k):
                out.append(BinaryTree(left, right))
    return tuple(out)


def subtree_spans(t: Tree) -> list[tuple[int, int, int]]:
    """(label, first, last) for the subtree rooted at each vertex of ``t``:
    its in-order label and the first and last labels the subtree covers,
    children before parents.  One iterative in-order walk, so depth is
    unlimited; the empty tree has no spans."""
    spans: list[tuple[int, int, int]] = []
    if t is None:
        return spans
    # frames: (node, first label of its subtree, own label or 0 before the
    # left subtree is done)
    stack: list[tuple[BinaryTree, int, int]] = [(t, 1, 0)]
    nxt = 1  # next unused label
    while stack:
        node, lo, mid = stack.pop()
        if mid == 0:
            stack.append((node, lo, -1))
            if node.left is not None:
                stack.append((node.left, nxt, 0))
        elif mid == -1:
            mid = nxt
            nxt += 1
            stack.append((node, lo, mid))
            if node.right is not None:
                stack.append((node.right, nxt, 0))
        else:
            spans.append((mid, lo, nxt - 1))
    return spans


def relation_masks(t: Tree) -> tuple[int, ...]:
    """The induced relation of ``t`` as up-set masks: bit ``j - 1`` of entry
    ``i - 1`` is set iff vertex i lies strictly inside the subtree rooted at
    j, that is, iff j is an ancestor of i.  Read in reverse, the spans list
    parents before children, and a vertex's ancestors are its parent and
    the parent's ancestors: one OR per vertex."""
    if t is None:
        raise ValueError("the empty tree induces no labelled poset")
    spans = subtree_spans(t)
    up = [0] * len(spans)
    path: list[tuple[int, int, int]] = []  # the spans enclosing the current one
    for span in reversed(spans):
        j = span[0]
        while path and not path[-1][1] <= j <= path[-1][2]:
            path.pop()
        if path:
            parent = path[-1][0]
            up[j - 1] = up[parent - 1] | 1 << (parent - 1)
        path.append(span)
    return tuple(up)


def mask_pairs(up) -> frozenset[tuple[int, int]]:
    """Pairs (i, j) meaning i <| j of the up-set masks ``up``."""
    pairs = []
    for i, mask in enumerate(up, 1):
        while mask:
            low = mask & -mask
            pairs.append((i, low.bit_length()))
            mask ^= low
    return frozenset(pairs)


def dec_masks(up) -> tuple[int, ...]:
    """The decreasing part of up-set masks: entry i - 1 keeps the j < i."""
    return tuple(mask & ((1 << i) - 1) for i, mask in enumerate(up))


def inc_masks(up) -> tuple[int, ...]:
    """The increasing part of up-set masks: entry i - 1 keeps the j > i."""
    return tuple(mask >> (i + 1) << (i + 1) for i, mask in enumerate(up))


def _compared(t1: Tree, t2: Tree) -> tuple[bool, tuple[Masks, Masks]]:
    """Whether t1 <= t2 by inclusion of decreasing relations, and the
    relation masks of both trees (empty for empty trees); one walk each."""
    if t1 is None or t2 is None:
        if t1 is not t2:
            raise ValueError("trees must have equal size")
        return True, ((), ())
    up1, up2 = relation_masks(t1), relation_masks(t2)  # one mask per vertex
    if len(up1) != len(up2):
        raise ValueError("trees must have equal size")
    low, high = dec_masks(up1), dec_masks(up2)
    return all(a & ~b == 0 for a, b in zip(low, high)), (up1, up2)


def tamari_leq(t1: Tree, t2: Tree) -> bool:
    """Tamari comparison via inclusion of decreasing relations."""
    return _compared(t1, t2)[0]


class TamariInterval(_Frozen):
    """An interval [lower, upper] of the Tamari lattice.

    ``masks`` keeps the relation masks of both bounds, walked once by the
    order check, or on first read if the interval was built without it;
    it takes no part in equality, hashing or repr.
    """

    _fields = ("lower", "upper")
    __slots__ = (*_fields, "masks")

    def __init__(self, lower: Tree, upper: Tree) -> None:
        leq, masks = _compared(lower, upper)
        if not leq:
            raise ValueError("lower bound is not below upper bound")
        _set(self, "lower", lower)
        _set(self, "upper", upper)
        _set(self, "masks", masks)

    def __getattr__(self, name: str):
        """Walk ``masks`` on its first read; only unset slots land here."""
        if name != "masks":
            raise AttributeError(name)
        _set(self, "masks", _compared(self.lower, self.upper)[1])
        return self.masks

    @property
    def size(self) -> int:
        return len(self.masks[0])


# -- serialization ----------------------------------------------------------

def _render(t: Tree, leaf: str, head: str, middle: str, tail: str) -> str:
    """``leaf`` for a leaf, ``head left middle right tail`` for a node;
    iterative, so depth is unlimited."""
    parts: list[str] = []
    # items: a tree still to render, or text to emit as it is
    stack: list = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item is None:
            parts.append(leaf)
        else:
            parts.append(head)
            stack += (tail, item.right, middle, item.left)
    return "".join(parts)


def tree_to_text(t: Tree) -> str:
    """`L` for a leaf, `(left right)` for a node."""
    return _render(t, "L", "(", " ", ")")


def tree_to_obj(t: Tree):
    """Nested-array form; null is a leaf.  Iterative, so depth is unlimited."""
    built: list = []
    # frames: (node, True once both children are on ``built``)
    stack: list[tuple[Tree, bool]] = [(t, False)]
    while stack:
        node, children_built = stack.pop()
        if children_built:
            right = built.pop()
            built.append([built.pop(), right])
        elif node is None:
            built.append(None)
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
    return built[0]


def tree_from_obj(obj) -> Tree:
    """Inverse of :func:`tree_to_obj`; iterative, so depth is unlimited."""
    built: list[Tree] = []
    # frames: (obj, True once both children are on ``built``)
    stack: list[tuple[object, bool]] = [(obj, False)]
    while stack:
        item, children_built = stack.pop()
        if children_built:
            right = built.pop()
            built.append(BinaryTree(built.pop(), right))
        elif item is None:
            built.append(None)
        else:
            left, right = item
            stack.append((item, True))
            stack.append((right, False))
            stack.append((left, False))
    return built[0]

"""Planar binary trees, the Tamari order and grafting.

A tree is either ``None`` (a leaf, size 0) or a :class:`BinaryTree` node
holding an optional left and right subtree.  Vertices are implicitly
labelled 1..n by in-order traversal (the unique binary-search-tree
labelling), and all relation-producing operations use those labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

Tree = Optional["BinaryTree"]


@dataclass(frozen=True)
class BinaryTree:
    """An internal node of a planar binary tree; ``None`` children are leaves."""

    left: Tree = None
    right: Tree = None


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


def left_comb(n: int) -> Tree:
    t: Tree = None
    for _ in range(n):
        t = BinaryTree(left=t)
    return t


def right_comb(n: int) -> Tree:
    t: Tree = None
    for _ in range(n):
        t = BinaryTree(right=t)
    return t


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


def relation_masks(t: Tree) -> tuple[int, ...]:
    """The induced relation of ``t`` as up-set masks: bit ``j - 1`` of entry
    ``i - 1`` is set iff vertex i lies strictly inside the subtree rooted at
    j.  One iterative in-order walk; the subtree of j covers the contiguous
    labels of its span, so its descendant mask is a run of ones."""
    if t is None:
        raise ValueError("the empty tree induces no labelled poset")
    spans: list[tuple[int, int, int]] = []  # (label, first, last)
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
    up = [0] * (nxt - 1)
    for (j, lo, hi) in spans:
        bit = 1 << (j - 1)
        for i in range(lo - 1, hi):
            up[i] |= bit
        up[j - 1] ^= bit
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


def tree_relations(t: Tree) -> frozenset[tuple[int, int]]:
    """The induced relation of ``t``: (i, j) present iff vertex i lies in the
    subtree rooted at j.  Reflexive pairs are omitted."""
    return mask_pairs(relation_masks(t))


def dec_relations(t: Tree) -> frozenset[tuple[int, int]]:
    """Decreasing relations of ``t``: pairs (b, a) with a < b and b <| a."""
    return mask_pairs(dec_masks(relation_masks(t)))


def inc_relations(t: Tree) -> frozenset[tuple[int, int]]:
    """Increasing relations of ``t``: pairs (a, b) with a < b and a <| b."""
    return mask_pairs(inc_masks(relation_masks(t)))


def tamari_leq(t1: Tree, t2: Tree) -> bool:
    """Tamari comparison via inclusion of decreasing relations."""
    if t1 is None or t2 is None:
        if t1 is not t2:
            raise ValueError("trees must have equal size")
        return True
    up1, up2 = relation_masks(t1), relation_masks(t2)  # one mask per vertex
    if len(up1) != len(up2):
        raise ValueError("trees must have equal size")
    low, high = dec_masks(up1), dec_masks(up2)
    return all(a & ~b == 0 for a, b in zip(low, high))


def covers(t: Tree) -> list[Tree]:
    """All trees obtained from ``t`` by one left rotation ((A B) C) -> (A (B C))."""
    if t is None:
        return []
    out: list[Tree] = []
    if t.left is not None:
        out.append(BinaryTree(t.left.left, BinaryTree(t.left.right, t.right)))
    out.extend(BinaryTree(s, t.right) for s in covers(t.left))
    out.extend(BinaryTree(t.left, s) for s in covers(t.right))
    return out


def graft(t: Tree, i: int, s: Tree) -> Tree:
    """Graft the root of ``s`` on the i-th leaf of ``t`` (leaves are numbered
    1..size(t)+1 from left to right)."""
    n = size(t)
    if not 1 <= i <= n + 1:
        raise ValueError(f"leaf index {i} out of range 1..{n + 1}")

    def go(node: Tree, lo: int) -> Tree:
        # leaves of this subtree are numbered lo..lo+size(node)
        if node is None:
            return s
        k = size(node.left)
        if i <= lo + k:
            return BinaryTree(go(node.left, lo), node.right)
        return BinaryTree(node.left, go(node.right, lo + k + 1))

    return go(t, 1)


def mirror(t: Tree) -> Tree:
    """Left/right reflection."""
    if t is None:
        return None
    return BinaryTree(mirror(t.right), mirror(t.left))


@dataclass(frozen=True)
class TamariInterval:
    """An interval [lower, upper] of the Tamari lattice."""

    lower: Tree
    upper: Tree

    def __post_init__(self) -> None:
        if not tamari_leq(self.lower, self.upper):
            raise ValueError("lower bound is not below upper bound")

    @property
    def size(self) -> int:
        return size(self.lower)


# -- serialization ----------------------------------------------------------

def tree_to_text(t: Tree) -> str:
    """`L` for a leaf, `(left right)` for a node."""
    if t is None:
        return "L"
    return f"({tree_to_text(t.left)} {tree_to_text(t.right)})"


def tree_from_text(text: str) -> Tree:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse() -> Tree:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of tree expression")
        tok = tokens[pos]
        pos += 1
        if tok == "L":
            return None
        if tok != "(":
            raise ValueError(f"unexpected token {tok!r}")
        left = parse()
        right = parse()
        if pos >= len(tokens) or tokens[pos] != ")":
            raise ValueError("missing closing parenthesis")
        pos += 1
        return BinaryTree(left, right)

    t = parse()
    if pos != len(tokens):
        raise ValueError("trailing tokens in tree expression")
    return t


def tree_to_obj(t: Tree):
    """Nested-array form; null is a leaf."""
    if t is None:
        return None
    return [tree_to_obj(t.left), tree_to_obj(t.right)]


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


def tree_to_json(t: Tree) -> str:
    return json.dumps({"tree": tree_to_obj(t)})


def tree_from_json(text: str) -> Tree:
    return tree_from_obj(json.loads(text)["tree"])


"""Interval-posets and the bijection with Tamari intervals.

An interval-poset of size n is a poset on {1..n} whose increasing and
decreasing relations each satisfy a convexity condition:

  (1) a <| c with a < c forces b <| c for every a < b < c;
  (2) c <| a with a < c forces b <| a for every a < b < c.

An interval [S, T] corresponds to the poset Dec(S) | Inc(T).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import or_
from typing import Iterator, NamedTuple

from .trees import (
    BinaryTree,
    Masks,
    TamariInterval,
    Tree,
    dec_masks,
    enumerate_trees,
    inc_masks,
    mask_pairs,
    relation_masks,
)

Pair = tuple[int, int]


class InvalidIntervalPoset(ValueError):
    """Base class for validation failures."""


class NotAPoset(InvalidIntervalPoset):
    """The transitive closure is not antisymmetric; carries a witness cycle."""

    def __init__(self, cycle: tuple[int, ...]):
        self.cycle = cycle
        super().__init__(f"relation is not antisymmetric, cycle {cycle}")


class IntervalConditionViolated(InvalidIntervalPoset):
    """An interval condition fails; carries the witness triple a < b < c."""

    def __init__(self, a: int, b: int, c: int, condition: int):
        self.witness = (a, b, c)
        self.condition = condition
        super().__init__(
            f"interval condition ({condition}) fails on triple ({a},{b},{c})"
        )


def _masks(n: int, pairs) -> list[int]:
    """Up-set masks of ``pairs`` on {1..n}: bit y - 1 of entry x - 1 for x <| y."""
    up = [0] * n
    for (x, y) in pairs:
        up[x - 1] |= 1 << (y - 1)
    return up


def _close(up: list[int]) -> list[int]:
    """Warshall's transitive closure of up-set masks, in place; a vertex on
    a cycle keeps no bit for itself."""
    n = len(up)
    for k in range(n):
        above_k = up[k]
        if above_k:
            bit = 1 << k
            for i in range(n):
                if up[i] & bit:
                    up[i] |= above_k
    for i in range(n):
        up[i] &= ~(1 << i)
    return up


def _transpose(up) -> list[int]:
    """Down-set masks from up-set masks."""
    down = [0] * len(up)
    for i, mask in enumerate(up):
        bit = 1 << i
        while mask:
            low = mask & -mask
            down[low.bit_length() - 1] |= bit
            mask ^= low
    return down


def _check_antisymmetric(up, down) -> None:
    """Raise on x <| y <| x, smallest x first, then smallest y."""
    for x, (above, below) in enumerate(zip(up, down), 1):
        both = above & below
        if both:
            raise NotAPoset((x, (both & -both).bit_length(), x))


def _check_axioms(up: tuple[int, ...]) -> None:
    """Raise on a 2-cycle, then on the first pair x <| y in sorted order with
    some b strictly between x and y not below y (smallest such b)."""
    down = _transpose(up)
    _check_antisymmetric(up, down)
    # conditions (1) and (2) together say that each y and the elements
    # below it fill a run of consecutive labels: one test per vertex
    for y, below in enumerate(down):
        run = below | (1 << y)
        if run & (run + (run & -run)):
            break
    else:
        return
    for x, mask in enumerate(up, 1):
        while mask:
            low = mask & -mask
            mask ^= low
            y = low.bit_length()
            lo, hi = min(x, y), max(x, y)
            gap = ((1 << (hi - 1)) - (1 << lo)) & ~down[y - 1]
            if gap:
                b = (gap & -gap).bit_length()
                if x < y:
                    raise IntervalConditionViolated(x, b, y, 1)
                raise IntervalConditionViolated(y, b, x, 2)


@dataclass(frozen=True, init=False, repr=False, slots=True)
class RangeRelation:
    """An arbitrary irreflexive relation on {1..n}.

    ``up[x - 1]`` is the up-set mask of x: bit ``y - 1`` is set iff x <| y.
    The pair views ``pairs``, ``inc`` and ``dec`` are derived on demand and
    not stored.  Deliberately weaker than an interval-poset: the rise of an
    interval-poset need not be one, so iterating rises requires this
    general carrier.
    """

    n: int
    up: tuple[int, ...]

    def __init__(self, n: int, pairs) -> None:
        pairs = frozenset(pairs)
        for (x, y) in pairs:
            if not (1 <= x <= n and 1 <= y <= n) or x == y:
                raise ValueError(f"pair ({x},{y}) out of range for size {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "up", tuple(_masks(n, pairs)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n}, {sorted(self.pairs)})"

    @property
    def pairs(self) -> frozenset[Pair]:
        return mask_pairs(self.up)

    @property
    def inc(self) -> frozenset[Pair]:
        return mask_pairs(inc_masks(self.up))

    @property
    def dec(self) -> frozenset[Pair]:
        return mask_pairs(dec_masks(self.up))


class IntervalPoset(RangeRelation):
    """A validated interval-poset on {1..n}: a transitively closed
    :class:`RangeRelation` satisfying the interval conditions.

    ``relations`` is the full transitive relation, pairs (x, y) meaning
    x <| y.  Never equal to a :class:`RangeRelation` on the same pairs.
    """

    __slots__ = ()

    def __init__(self, n: int, relations) -> None:
        super().__init__(n, relations)
        _check_axioms(self.up)
        if tuple(_close(list(self.up))) != self.up:
            raise InvalidIntervalPoset("relation is not transitively closed")

    relations = RangeRelation.pairs

    @property
    def down(self) -> tuple[int, ...]:
        """Down-set masks: bit ``x - 1`` of entry ``y - 1`` iff x <| y."""
        return tuple(_transpose(self.up))

    def leq(self, a: int, b: int) -> bool:
        if a == b:
            return True
        return 1 <= a <= self.n and 1 <= b and self.up[a - 1] >> (b - 1) & 1 == 1

    def sort_key(self) -> tuple:
        return (self.n, *_sorted_pairs(self.up))

    def as_relation(self) -> RangeRelation:
        return _build(RangeRelation, self.up)


def _build(cls, up: tuple[int, ...]):
    """A ``cls`` on trusted masks, with no check."""
    rel = object.__new__(cls)
    object.__setattr__(rel, "n", len(up))
    object.__setattr__(rel, "up", up)
    return rel


def _validated(up: list[int]) -> IntervalPoset:
    """Close ``up`` and check the axioms: the one validation path."""
    closed = tuple(_close(up))
    _check_axioms(closed)
    return _build(IntervalPoset, closed)


def _sorted_pairs(up) -> tuple[list[Pair], list[Pair]]:
    """The increasing and the decreasing pairs, each in lexicographic order."""
    inc: list[Pair] = []
    dec: list[Pair] = []
    for x, mask in enumerate(up, 1):
        while mask:
            low = mask & -mask
            y = low.bit_length()
            (inc if y > x else dec).append((x, y))
            mask ^= low
    return inc, dec


def validate(rel: RangeRelation) -> IntervalPoset:
    """Close ``rel`` transitively and check the interval-poset axioms.

    Raises :class:`NotAPoset` or :class:`IntervalConditionViolated` with a
    minimal witness; on success returns the closed poset.
    """
    return _validated(list(rel.up))


def make_poset(n: int, pairs) -> IntervalPoset:
    """Build an interval-poset from generating pairs (closure is taken)."""
    return validate(RangeRelation(n, pairs))


def tree_poset(t: Tree) -> IntervalPoset:
    """The poset induced by a nonempty tree under its in-order labels."""
    return _validated(list(relation_masks(t)))


def from_interval(interval: TamariInterval) -> IntervalPoset:
    """Dec(lower) | Inc(upper); the Chatel-Pons encoding of the interval,
    read from the masks its order check walked."""
    lower, upper = interval.masks
    if not lower:
        raise ValueError("the empty tree induces no labelled poset")
    return _validated([a | b for a, b in zip(dec_masks(lower), inc_masks(upper))])


def _lower_tree(dec) -> Tree:
    # decreasing forest -> lower tree: son becomes right son, left brother
    # becomes left son.  The cover of x is the largest label above it.
    n = len(dec)
    kids: list[list[int]] = [[] for _ in range(n + 1)]  # kids[0]: the roots
    for x, mask in enumerate(dec, 1):
        kids[mask.bit_length()].append(x)
    sub: list[Tree] = [None] * (n + 1)
    for v in range(n, -1, -1):  # sons carry larger labels
        acc = None
        for son in kids[v]:
            acc = BinaryTree(acc, sub[son])
        sub[v] = acc
    return sub[0]


def _upper_tree(inc) -> Tree:
    # increasing forest -> upper tree: son becomes left son, right brother
    # becomes right son.  The cover of x is the smallest label above it.
    n = len(inc)
    kids: list[list[int]] = [[] for _ in range(n + 1)]  # kids[0]: the roots
    for x, mask in enumerate(inc, 1):
        kids[(mask & -mask).bit_length()].append(x)
    sub: list[Tree] = [None] * (n + 1)
    for v in (*range(1, n + 1), 0):  # sons carry smaller labels
        acc = None
        for son in reversed(kids[v]):
            acc = BinaryTree(sub[son], acc)
        sub[v] = acc
    return sub[0]


def to_interval(p: IntervalPoset) -> TamariInterval:
    """Inverse of :func:`from_interval`."""
    return TamariInterval(_lower_tree(dec_masks(p.up)), _upper_tree(inc_masks(p.up)))


def _pack(masks) -> int:
    """Masks of one tree in one int, for subset tests between trees."""
    n = len(masks)
    return sum(mask << (i * n) for i, mask in enumerate(masks))


class _Tables(NamedTuple):
    """Per-tree tables of one size, indexed like ``enumerate_trees(n)``."""

    decs: tuple[Masks, ...]  # Dec masks
    incs: tuple[Masks, ...]  # Inc masks
    packed: tuple[int, ...]  # Dec masks packed by _pack
    by_inc: tuple[int, ...]  # tree indices in the order of their sorted Inc pairs
    by_dec: tuple[int, ...]  # tree indices in the order of their sorted Dec pairs
    inc_json: tuple[str, ...]  # the sorted Inc pairs as JSON text
    dec_json: tuple[str, ...]  # the sorted Dec pairs as JSON text


@lru_cache(maxsize=None)
def _tree_tables(n: int) -> _Tables:
    """The tables of every tree of size ``n``; each tree is walked once per
    size."""
    decs, incs, packed, inc_pairs, dec_pairs = [], [], [], [], []
    for t in enumerate_trees(n):
        up = relation_masks(t)
        decs.append(dec_masks(up))
        incs.append(inc_masks(up))
        packed.append(_pack(decs[-1]))
        inc, dec = _sorted_pairs(up)
        inc_pairs.append(inc)
        dec_pairs.append(dec)
    indices = range(len(decs))
    return _Tables(
        tuple(decs),
        tuple(incs),
        tuple(packed),
        tuple(sorted(indices, key=inc_pairs.__getitem__)),
        tuple(sorted(indices, key=dec_pairs.__getitem__)),
        tuple(map(json.dumps, inc_pairs)),
        tuple(map(json.dumps, dec_pairs)),
    )


def _interval_pairs(tables: _Tables) -> Iterator[tuple[int, int]]:
    """(lower, upper) tree indices of every Tamari interval, in the
    :meth:`IntervalPoset.sort_key` order of their posets.

    The poset of [S, T] has Inc(T) as its increasing pairs and Dec(S) as
    its decreasing ones, and a tree is fixed by either, so sorting the
    posets is sorting the upper trees by Inc pairs, then the lower trees
    by Dec pairs.  S <= T is Dec inclusion on packed masks.
    """
    lowers = [(i, tables.packed[i]) for i in tables.by_dec]
    for upper in tables.by_inc:
        outside = ~tables.packed[upper]
        for lower in [i for i, low in lowers if not low & outside]:
            yield lower, upper


def _interval_poset(tables: _Tables, lower: int, upper: int) -> IntervalPoset:
    """Dec(lower) | Inc(upper), trusted: for lower <= upper it is already
    the closed interval-poset of the interval (Chatel-Pons).  The
    enumeration tests validate every one of them up to size 8."""
    return _build(IntervalPoset, tuple(map(or_, tables.decs[lower], tables.incs[upper])))


class Universe(NamedTuple):
    """Every interval-poset of one size with the indices of its two trees.

    ``lowers[i]`` and ``uppers[i]`` index into ``trees`` the bounds of the
    interval whose poset is ``posets[i]``; ``tables`` are the per-tree
    tables all of them were built from.  Checks that read only trees or
    pairs of trees read these, not the posets.
    """

    trees: tuple[Tree, ...]  # enumerate_trees(n)
    tables: _Tables
    lowers: tuple[int, ...]
    uppers: tuple[int, ...]
    posets: tuple[IntervalPoset, ...]


@lru_cache(maxsize=None)
def universe(n: int) -> Universe:
    """The :class:`Universe` of size ``n``, built once per process; the
    one cache behind :func:`enumerate_interval_posets`."""
    if n < 1:
        raise ValueError("size must be at least 1")
    tables = _tree_tables(n)
    # two flat tuples, not one of pairs: a pair tuple per poset would cost
    # more than the two index tuples together
    lowers: list[int] = []
    uppers: list[int] = []
    for lower, upper in _interval_pairs(tables):
        lowers.append(lower)
        uppers.append(upper)
    lows, ups = tuple(lowers), tuple(uppers)
    del lowers, uppers  # freed before the posets are built
    posets = tuple(map(partial(_interval_poset, tables), lows, ups))
    return Universe(enumerate_trees(n), tables, lows, ups, posets)


def enumerate_interval_posets(n: int) -> list[IntervalPoset]:
    """All interval-posets of size n, ordered lexicographically on the
    (sorted inc, sorted dec) pair lists.

    Generated in that order from every comparable tree pair as
    Dec(lower) | Inc(upper), with no sort and no validation.  Each size is
    enumerated once per process, in its :func:`universe`; every call
    returns a fresh list.
    """
    return list(universe(n).posets)


def stream_interval_posets(n: int) -> Iterator[tuple[IntervalPoset, str]]:
    """Each interval-poset of size n with its :func:`poset_to_json` line,
    lazily and in the order of :func:`enumerate_interval_posets`.  A line
    is joined from the JSON of the upper tree's Inc pairs and the lower
    tree's Dec pairs; no list of posets is held."""
    if n < 1:
        raise ValueError("size must be at least 1")
    tables = _tree_tables(n)
    head = f'{{"size": {n}, "inc": '
    return (
        (
            _interval_poset(tables, lower, upper),
            head + tables.inc_json[upper] + ', "dec": ' + tables.dec_json[lower] + "}",
        )
        for lower, upper in _interval_pairs(tables)
    )


def mirror_poset(p: IntervalPoset) -> IntervalPoset:
    """a <| b in the result iff (n+1-a) <| (n+1-b) in ``p``; an involution
    matching the left/right mirror of both interval bounds."""
    n = p.n
    return _validated([int(f"{mask:0{n}b}"[::-1], 2) for mask in reversed(p.up)])


def interval_members(p: IntervalPoset) -> list[Tree]:
    """All trees lying in the interval encoded by ``p``, by Dec-inclusion."""
    lower, upper = to_interval(p).masks
    low, high = _pack(dec_masks(lower)), _pack(dec_masks(upper))
    packed = _tree_tables(p.n).packed
    return [
        t for t, dec in zip(enumerate_trees(p.n), packed)
        if low & ~dec == 0 and dec & ~high == 0
    ]


def linear_extensions(n: int, pairs: frozenset[Pair]) -> list[tuple[int, ...]]:
    """All total orders extending the relation, in lexicographic order.

    Raises :class:`NotAPoset` if the closure has a cycle.
    """
    up = _close(_masks(n, pairs))
    down = _transpose(up)
    _check_antisymmetric(up, down)
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], placed: int) -> None:
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(1, n + 1):
            bit = 1 << (v - 1)
            if not placed & bit and down[v - 1] & ~placed == 0:
                prefix.append(v)
                extend(prefix, placed | bit)
                prefix.pop()

    extend([], 0)
    return out


# -- serialization ----------------------------------------------------------

def poset_to_obj(p: RangeRelation) -> dict:
    # pairs mean first <| second in both lists
    inc, dec = _sorted_pairs(p.up)
    return {
        "size": p.n,
        "inc": [[a, b] for (a, b) in inc],
        "dec": [[a, b] for (a, b) in dec],
    }


def poset_to_json(p: RangeRelation) -> str:
    return json.dumps(poset_to_obj(p))


# The largest size a poset read from JSON may declare, checked before any
# mask is built.  A chain has the most relations of any poset of its size,
# n(n - 1)/2, and the JSON of a poset lists them all: `tamari classify` of
# a 1,500-chain takes 3-4 s and 241 MB, of a 2,000-chain 7.7 s and 418 MB
# (2-vCPU VM, Python 3.11).  The tests convert a 1,200-chain.
MAX_OBJECT_SIZE = 1_500


def relation_from_obj(obj: dict) -> RangeRelation:
    if obj["size"] > MAX_OBJECT_SIZE:
        raise ValueError(f"size {obj['size']} exceeds the limit "
                         f"{MAX_OBJECT_SIZE} for a single poset")
    pairs = {(a, b) for a, b in obj.get("inc", [])}
    pairs |= {(b, a) for b, a in obj.get("dec", [])}
    return RangeRelation(obj["size"], frozenset(pairs))


def poset_from_json(text: str) -> IntervalPoset:
    return validate(relation_from_obj(json.loads(text)))

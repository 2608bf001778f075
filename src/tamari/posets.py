"""Interval-posets and the bijection with Tamari intervals.

An interval-poset of size n is a poset on {1..n} whose increasing and
decreasing relations each satisfy a convexity condition:

  (1) a <| c with a < c forces b <| c for every a < b < c;
  (2) c <| a with a < c forces b <| a for every a < b < c.

An interval [S, T] corresponds to the poset Dec(S) | Inc(T).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, chain, compress, count
from operator import add, le, or_, sub
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .trees import (
    BinaryTree,
    Masks,
    TamariInterval,
    Tree,
    _Frozen,
    _set,
    dec_masks,
    enumerate_trees,
    inc_masks,
    mask_pairs,
    relation_masks,
    subtree_spans,
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


_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _ones(mask: int) -> Iterable[int]:
    """The indices of the set bits of ``mask``, in increasing order: read from
    its digits when over 8 bits, and over one bit in 8, are set, else one by one."""
    if mask.bit_count() * 8 > max(mask.bit_length(), 64):
        return compress(count(), bin(mask)[:1:-1].encode().translate(_DIGITS))
    ones = []
    while mask:
        low = mask & -mask
        ones.append(low.bit_length() - 1)
        mask ^= low
    return ones


def _or_rows(rows, mask: int) -> int:
    """The OR of ``rows[j]`` over the set bits j of ``mask``; a mask of at
    most 64 bits is walked here, with no call per row."""
    if mask >> 64:  # a long mask: its bits read through _ones
        return reduce(or_, map(rows.__getitem__, _ones(mask)), 0)
    acc = 0
    while mask:
        low = mask & -mask
        acc |= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def _masks(n: int, pairs) -> list[int]:
    """Up-set masks of ``pairs`` on {1..n}: bit y - 1 of entry x - 1 for x <| y.
    Each vertex, and n, must be an ``int`` (not a ``bool``) and in range."""
    if type(n) is not int:
        raise ValueError(f"size {n!r} is not an integer")
    up = [0] * n
    for (x, y) in pairs:
        if not (type(x) is type(y) is int and 1 <= x <= n and 1 <= y <= n) or x == y:
            raise ValueError(f"pair ({x!r},{y!r}) out of range for size {n}")
        up[x - 1] |= 1 << (y - 1)
    return up


def _close(up: list[int]) -> list[int]:
    """Transitive closure of up-set masks, in place: each row ORs in the rows
    it points to, in sweeps of alternating direction until no row changes
    (one on a closed relation).  A vertex on a cycle ends up above itself."""
    order = range(len(up) - 1, -1, -1)  # increasing pairs point to later rows
    changed = True
    while changed:
        changed = False
        for x in order:
            row = up[x]
            closed = row | _or_rows(up, row)
            if closed != row:
                up[x] = closed
                changed = True
        order = order[::-1]
    return up


def _transpose(up) -> list[int]:
    """Down-set masks from up-set masks."""
    down = [0] * len(up)
    for i, mask in enumerate(up):
        bit = 1 << i
        if mask >> 64:  # a long row: its bits read through _ones
            for j in _ones(mask):
                down[j] |= bit
            continue
        while mask:
            low = mask & -mask
            down[low.bit_length() - 1] |= bit
            mask ^= low
    return down


def _check_antisymmetric(up, down) -> None:
    """Raise on x <| y <| x, y != x, smallest x first, then smallest y."""
    for x, (above, below) in enumerate(zip(up, down), 1):
        both = above & below & ~(1 << (x - 1))
        if both:
            raise NotAPoset((x, (both & -both).bit_length(), x))


def _is_interval_poset(up) -> bool:
    """Whether no vertex is above itself and both interval conditions hold,
    one test per vertex.  In labels, (1) says that every y >= x + 2 above x
    is above x + 1, and (2) that every y <= c - 2 above c is above c - 1:
    each gives the condition by induction on the gap."""
    # row and nxt are the rows of labels i + 1 and i + 2
    return not any(
        row >> i & 1 or (row & ~nxt) >> (i + 2) or nxt & ~row & ((1 << i) - 1)
        for i, (row, nxt) in enumerate(zip(up, (*up[1:], 0)))
    )


def _raise_witness(up) -> None:
    """Raise on a 2-cycle, then on the first pair x <| y in sorted order with
    some b strictly between x and y not below y (smallest such b)."""
    down = _transpose(up)
    _check_antisymmetric(up, down)
    for x, mask in enumerate(up, 1):
        for j in _ones(mask):
            y = j + 1
            lo, hi = min(x, y), max(x, y)
            gap = ((1 << (hi - 1)) - (1 << lo)) & ~down[y - 1]
            if gap:
                b = (gap & -gap).bit_length()
                if x < y:
                    raise IntervalConditionViolated(x, b, y, 1)
                raise IntervalConditionViolated(y, b, x, 2)


class RangeRelation(_Frozen):
    """An arbitrary irreflexive relation on {1..n}.

    ``up[x - 1]`` is the up-set mask of x: bit ``y - 1`` is set iff x <| y.
    The pair views ``pairs``, ``inc`` and ``dec`` are derived on demand and
    not stored.  Deliberately weaker than an interval-poset: the rise of an
    interval-poset need not be one, so iterating rises requires this
    general carrier.
    """

    __slots__ = _fields = ("n", "up")

    def __init__(self, n: int, pairs) -> None:
        _set(self, "n", n)
        _set(self, "up", tuple(_masks(n, pairs)))

    def __eq__(self, other) -> bool:
        same = other.__class__ is self.__class__
        return (self.n, self.up) == (other.n, other.up) if same else NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.up))

    def __reduce__(self):
        return _build, (self.__class__, self.up)

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
        _raise_witness(self.up)
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
    _set(rel, "n", len(up))
    _set(rel, "up", up)
    return rel


def _validated(up: list[int]) -> IntervalPoset:
    """Close ``up`` and check the axioms: the one validation path.  A witness
    is searched for only once the per-vertex test has failed."""
    _close(up)
    if not _is_interval_poset(up):
        _raise_witness(up)
    return _build(IntervalPoset, tuple(up))


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
    """Inverse of :func:`from_interval`.  The bounds of an interval-poset
    are comparable (Chatel-Pons), so their order is not checked again."""
    interval = object.__new__(TamariInterval)
    _set(interval, "lower", _lower_tree(dec_masks(p.up)))
    _set(interval, "upper", _upper_tree(inc_masks(p.up)))
    return interval


def _pairs_json(pairs: list[Pair]) -> str:
    """``json.dumps(pairs)``, byte for byte, in about half its time."""
    return "[" + ", ".join([f"[{x}, {y}]" for x, y in pairs]) + "]"


def _at_most(values: Sequence[int], top: int) -> list[int]:
    """``bits[v]`` for v = 0..top: bit s set iff ``values[s] <= v``.  The
    values must be bytes, 0..255."""
    digits = bytes(reversed(values))  # bit s is the s-th digit from the right
    return [
        int(digits.translate(b"1" * (v + 1) + b"0" * (255 - v)), 2)
        for v in range(top + 1)
    ]


def _holding(rows: Iterable[Iterable[Hashable]]) -> dict:
    """For each key, the bitset of the rows that hold it: bit s for row s."""
    members: dict = {}
    for s, keys in enumerate(rows):
        for key in keys:
            members.setdefault(key, []).append(s)
    count = s + 1
    bits = {}
    for key, held in members.items():
        digits = bytearray(b"0") * count
        for s in held:
            digits[-1 - s] = 49  # ord("1")
        bits[key] = int(digits, 2)
    return bits


def _brackets_inc(r: Sequence[int]) -> Masks:
    """A row of :attr:`Universe.incs`; as a list, ``r`` may pass 255."""
    n = len(r)
    inc = [0] * n
    for y in range(n - 1, -1, -1):
        a = y + r[y] + 2
        if a <= n:
            inc[y] = inc[a - 1] | 1 << (a - 1)
    return tuple(inc)


class Universe:
    """The trees of one size as columns indexed like ``enumerate_trees(n)``
    (a per-vertex row by label - 1), each built on first read: ``census``
    builds no JSON or sort order, and ``enumerate`` no classifier column.
    No interval is stored; consumers walk them per upper tree."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("size must be at least 1")
        self.n = n

    trees = property(lambda self: enumerate_trees(self.n))

    @cached_property
    def _sizes(self) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
        lefts, rights = [], []  # one walk per tree for both
        for t in self.trees:
            left, right = bytearray(self.n), bytearray(self.n)
            for v, lo, hi in subtree_spans(t):
                left[v - 1], right[v - 1] = v - lo, hi - v
            lefts.append(bytes(left))
            rights.append(bytes(right))
        return tuple(lefts), tuple(rights)

    # l_v and r_v, the sizes of vertex v's left and right subtrees, so its
    # subtree covers the labels v - l_v .. v + r_v; the r_v of a tree are
    # its bracket vector (Huang-Tamari 1972)
    lefts = property(lambda self: self._sizes[0])
    brackets = property(lambda self: self._sizes[1])

    # b = y - l_y - 1, the label just before y's subtree, is y's nearest
    # ancestor that has y in its right subtree (none if 0), and
    # a = y + r_y + 1, the label just after it, its nearest ancestor that
    # has y in its left subtree (none if n + 1).

    @cached_property
    def decs(self) -> tuple[Masks, ...]:
        """Bit j - 1 of entry y - 1 iff y is in j's right subtree: b or b's."""
        rows = []
        for l in self.lefts:
            dec = [0] * self.n
            for y, b in enumerate(map(sub, range(self.n), l)):
                if b:
                    dec[y] = dec[b - 1] | 1 << (b - 1)
            rows.append(tuple(dec))
        return tuple(rows)

    @cached_property
    def incs(self) -> tuple[Masks, ...]:
        """Bit j - 1 of entry y - 1 iff y is in j's left subtree: a or a's."""
        return tuple(map(_brackets_inc, self.brackets))

    @cached_property
    def ir(self) -> tuple[int, ...]:
        """:func:`classify.stat`'s ir of T: k <| k + 1 iff r_k = 0, so the
        first such k < n, else n."""
        return tuple(r.find(0, 0, self.n - 1) + 1 or self.n for r in self.brackets)

    @cached_property
    def dr(self) -> tuple[int, ...]:
        """:func:`classify.stat`'s dr of S: i <| i - 1 iff l_i = 0, so the
        last such i >= 2, else 1."""
        return tuple(left.rfind(0, 1) + 1 or 1 for left in self.lefts)

    @cached_property
    def _grid(self) -> list[list[Pair]]:
        # _grid[i][j] == (i, j): a row of pairs from it holds references
        return [[(i, j) for j in range(self.n + 2)] for i in range(self.n + 2)]

    @cached_property
    def exc_lower(self) -> tuple[tuple[Pair, ...], ...]:
        """Per y, (b, last_S(b)), or (n + 1, n + 1) if b = 0."""
        return tuple(tuple(self._grid[b][b + r[b - 1]] if b else self._grid[-1][-1]
                           for b in map(sub, range(self.n), l))
                     for l, r in zip(self.lefts, self.brackets))

    @cached_property
    def exc_upper(self) -> tuple[tuple[Pair, ...], ...]:
        """Per y, (first_T(a), a), or (0, 0) if a = n + 1."""
        return tuple(tuple(self._grid[a - l[a - 1]][a] if a <= self.n else self._grid[0][0]
                           for a in map(add, range(2, self.n + 2), r))
                     for l, r in zip(self.lefts, self.brackets))

    @cached_property
    def spans(self) -> tuple[tuple[Pair, ...], ...]:
        """Per vertex v, its leaf span (v - l_v, v + r_v + 1)."""
        return tuple(tuple(self._grid[v - l_v][v + r_v + 1]
                           for v, l_v, r_v in zip(range(1, self.n + 1), l, r))
                     for l, r in zip(self.lefts, self.brackets))

    @cached_property
    def rise_caps(self) -> tuple[bytes, ...]:
        """cap_j(T) = min(n - j, min over m < j of r_m(T)): for S <= T,
        every rise of Dec(S) | Inc(T) validates iff r_j(S) <= cap_j(T) for
        every j (derived in the README)."""
        n = self.n
        return tuple(bytes(map(min, range(n - 1, -1, -1), accumulate(r, min, initial=n)))
                     for r in self.brackets)

    # Bitsets over the trees, bit s for the s-th tree, that
    # classify.family_bits reads for every upper tree of the size.

    @cached_property
    def at_most(self) -> list[list[int]]:
        """``at_most[i][v]``: the trees with r_{i+1} <= v, v = 0..n - 1 - i."""
        return [_at_most(column, self.n - 1 - i)
                for i, column in enumerate(zip(*self.brackets))]

    @cached_property
    def dr_at_most(self) -> list[int]:
        """``dr_at_most[d]``: the trees with dr <= d, d = 0..n."""
        return _at_most(self.dr, self.n)

    @cached_property
    def span_bits(self) -> dict[Pair, int]:
        """For each leaf span, the trees that have it."""
        return _holding(self.spans)

    @cached_property
    def witness(self) -> list[dict[Pair, int]]:
        """``witness[y - 1][f, a]``: the trees with b_y < f and
        last(b_y) < a, at each (f, a) an upper tree can have at y: f <= y < a,
        or (0, 0), which no tree meets."""
        n, cells = self.n, []
        for y, pairs in enumerate(zip(*self.exc_lower), 1):
            b_at_most = _at_most([b for b, _ in pairs], n)
            last_at_most = _at_most([last for _, last in pairs], n)
            cell = {(f, a): b_at_most[f - 1] & last_at_most[a - 1]
                    for f in range(1, y + 1) for a in range(y + 1, n + 1)}
            cell[0, 0] = 0
            cells.append(cell)
        return cells

    @cached_property
    def _orders(self) -> tuple[tuple, tuple, tuple[str, ...], tuple[str, ...]]:
        # enumeration reads all four, from one pass of sorted pair lists
        pairs = (_sorted_pairs(map(or_, d, i)) for d, i in zip(self.decs, self.incs))
        inc_pairs, dec_pairs = zip(*pairs)
        trees = range(len(inc_pairs))
        return (
            tuple(sorted(trees, key=inc_pairs.__getitem__)),
            tuple(sorted(trees, key=dec_pairs.__getitem__)),
            tuple(map(_pairs_json, inc_pairs)),
            tuple(map(_pairs_json, dec_pairs)),
        )

    # tree indices in the order of their sorted Inc pairs and of their
    # sorted Dec pairs, and those pairs as JSON text
    by_inc = property(lambda self: self._orders[0])
    by_dec = property(lambda self: self._orders[1])
    inc_json = property(lambda self: self._orders[2])
    dec_json = property(lambda self: self._orders[3])


universe = lru_cache(maxsize=None)(Universe)  # one per size and process


def _bracket_trie(u: Universe):
    """The bracket vectors of the trees as a trie read from r_n down to r_1.

    A node is ``(values, children)``: the values r_i takes below it, in
    increasing order, and the node each leads to.  The children of the
    last level are the ranks of the trees in ``by_dec``.
    """
    root: dict = {}
    for rank, tree in enumerate(u.by_dec):
        r = u.brackets[tree]
        node = root
        for value in reversed(r[1:]):
            node = node.setdefault(value, {})
        node[r[0]] = rank

    def freeze(node):
        if not isinstance(node, dict):
            return node
        values = sorted(node)
        return tuple(values), tuple(freeze(node[v]) for v in values)

    return freeze(root)


def _interval_pairs(u: Universe) -> Iterator[tuple[int, list[int]]]:
    """Each upper tree T with its lower trees S <= T, as tree indices, in
    the :meth:`IntervalPoset.sort_key` order of their posets.

    The poset of [S, T] has Inc(T) as its increasing pairs and Dec(S) as
    its decreasing ones, and a tree is fixed by either, so sorting the
    posets is sorting the upper trees by Inc pairs, then the lower trees
    by Dec pairs.  S <= T iff r_i(S) <= r_i(T) for every i (Huang-Tamari
    1972): r_i is the size of i's right subtree, so this is the inclusion
    of the Dec down-sets [i + 1, i + r_i].  The lowers of T are filled
    from r_n down to r_1 in the trie of all bracket vectors, keeping the
    values up to r_i(T).  Every partial vector extends (r_j = 0 for the
    rest), so each node reached leads to an interval.
    """
    trie = _bracket_trie(u)
    by_dec = u.by_dec
    for upper in u.by_inc:
        level = [trie]
        for cap in reversed(u.brackets[upper]):
            level = [
                child
                for values, children in level
                for child in children[:bisect_right(values, cap)]
            ]
        level.sort()
        yield upper, [by_dec[rank] for rank in level]


def _interval_poset(u: Universe, lower: int, upper: int) -> IntervalPoset:
    """Dec(lower) | Inc(upper), trusted: for lower <= upper it is already
    the closed interval-poset of the interval (Chatel-Pons).  The
    enumeration tests validate every one of them up to size 8."""
    return _build(IntervalPoset, tuple(map(or_, u.decs[lower], u.incs[upper])))


def enumerate_interval_posets(n: int) -> list[IntervalPoset]:
    """All interval-posets of size n, ordered lexicographically on the
    (sorted inc, sorted dec) pair lists.

    Generated in that order from every comparable tree pair as
    Dec(lower) | Inc(upper), with no sort and no validation, from the
    columns of :func:`universe`; each call builds a fresh list.
    """
    u = universe(n)
    return [_interval_poset(u, lower, upper)
            for upper, lowers in _interval_pairs(u) for lower in lowers]


def stream_interval_json(
    n: int, ends: Iterable[Callable[[int], str | None]] | None = None
) -> Iterator[tuple[int, str]]:
    """The :func:`poset_to_json` lines of the interval-posets of size n, in
    the order of :func:`enumerate_interval_posets`, without building a
    poset: per upper tree, the number of its lines and their text, each
    line ending in a newline.  A line is joined from the JSON of the upper
    tree's Inc pairs and the lower tree's Dec pairs.

    ``ends``, if given, holds one function per upper tree, in the order of
    ``universe(n).by_inc``.  It maps each lower tree to the text that
    closes that line after its Dec pairs, newline included, or to ``None``
    to drop it.
    """
    u = universe(n)
    head = f'{{"size": {n}, "inc": '
    if ends is None:
        tails = [', "dec": ' + dec + "}\n" for dec in u.dec_json]
        for upper, lowers in _interval_pairs(u):
            start = head + u.inc_json[upper]
            yield len(lowers), start + start.join(map(tails.__getitem__, lowers))
        return
    decs = [', "dec": ' + dec for dec in u.dec_json]
    for (upper, lowers), end in zip(_interval_pairs(u), ends, strict=True):
        kept = [decs[lower] + tail for lower in lowers if (tail := end(lower)) is not None]
        start = head + u.inc_json[upper]
        yield len(kept), start + start.join(kept) if kept else ""


def mirror_poset(p: IntervalPoset) -> IntervalPoset:
    """a <| b in the result iff (n+1-a) <| (n+1-b) in ``p``; an involution
    matching the left/right mirror of both interval bounds."""
    n = p.n
    return _validated([int(f"{mask:0{n}b}"[::-1], 2) for mask in reversed(p.up)])


def interval_members(p: IntervalPoset) -> list[Tree]:
    """All trees lying in the interval encoded by ``p``: the trees whose
    bracket vector lies between those of its bounds (Huang-Tamari), the
    tree with Dec(p) and the tree with Inc(p)."""
    u = universe(p.n)
    low = u.brackets[u.decs.index(dec_masks(p.up))]
    high = u.brackets[u.incs.index(inc_masks(p.up))]
    return [
        t for t, r in zip(u.trees, u.brackets)
        if all(map(le, low, r)) and all(map(le, r, high))
    ]


def linear_extensions(n: int, pairs: frozenset[Pair]) -> list[tuple[int, ...]]:
    """All total orders extending the relation, in lexicographic order.

    Raises :class:`NotAPoset` if the closure has a cycle.
    """
    up = _close(_masks(n, pairs))  # on a cycle, a vertex keeps its own bit
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

def poset_to_json(p: RangeRelation) -> str:
    """The JSON text of ``p``: its size, then its increasing and its decreasing
    pairs [x, y], x <| y, in sorted order, with the bytes of ``json.dumps``.
    The pairs of a row are "[x" joined by ", [x" over their ", y]"."""
    ends = [f", {y}]" for y in range(1, p.n + 1)]
    inc, dec = [], []
    for x, row in enumerate(p.up, 1):
        for pairs, part in ((dec, row & ((1 << (x - 1)) - 1)), (inc, row >> x << x)):
            if part:
                pairs.append(f"[{x}" + f", [{x}".join(map(ends.__getitem__, _ones(part))))
    return f'{{"size": {p.n}, "inc": [{", ".join(inc)}], "dec": [{", ".join(dec)}]}}'


# The largest size that a poset or noncrossing tree read from JSON may
# declare, or a partition hold, checked before anything of that size is
# built.  A chain has the most relations of any poset of its size,
# n(n - 1)/2, and the JSON of a poset lists them all: `tamari classify` of a
# 1,500-chain takes 1.4-1.6 s and 226 MB, of a 2,000-chain 2.8 s and 396 MB
# (fresh process, 2-vCPU VM, Python 3.11.7).  The tests convert a 1,200-chain.
MAX_OBJECT_SIZE = 1_500


def _check_limit(n, kind: str) -> None:
    if type(n) is int and n > MAX_OBJECT_SIZE:
        raise ValueError(f"size {n} exceeds the limit {MAX_OBJECT_SIZE} for a single {kind}")


def relation_from_obj(obj: dict) -> RangeRelation:
    """The relation of a poset's JSON object, whose pairs [a, b] in both
    lists mean a <| b, read straight into its masks."""
    _check_limit(obj["size"], "poset")
    return RangeRelation(obj["size"], chain(obj.get("inc", []), obj.get("dec", [])))


def poset_from_json(text: str) -> IntervalPoset:
    return validate(relation_from_obj(json.loads(text)))

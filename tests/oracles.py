"""Oracles and fixtures that only the tests need, kept out of ``tamari``
because nothing there calls them.

The pair views and the closure are thin wrappers over the package
(``relation_masks`` and ``posets._close``), so the tests that use them
still exercise it.  The others are independent implementations to check
the package against: rotations for the Tamari order, grafting for the
shape of a rise, the tree mirror for ``mirror_poset``, the span-OR loop for
``relation_masks``, the recursive text and repr of a tree, the
Bell-number scan for ``enumerate_ncp``, the ``ncp_leq`` pair scan for
the census's NC-partition interval count, the packed tree-pair scan
for the bracket-vector generator of ``posets._interval_pairs``, the
per-pair (ir, dr) loop for the triangle's bitsets, the per-pair family
tests for ``classify.family_bits`` and the tables it built inline
before they became columns of ``posets.universe``, the poset stream
and the poset classifiers for the lines of ``enumerate --family`` and
``classify --size``, the three per-size caches that the columns of
``posets.universe`` replaced (the tables read from ``relation_masks``,
the per-tree walk of the classifier data, and the packed rise bounds),
and the single-poset path that the per-pair and per-vertex stages of
``posets`` replaced: Warshall's closure, the transpose-first axiom check,
the frozenset reading of a poset's JSON object, ``json.dumps`` of its
dict (``poset_to_obj``, which left the package) and the order-checked
``to_interval``.  The noncrossing maps that moved onto the shared
encodings follow: the all-pairs crossing test of a tree's edges, the
all-pairs chord nesting closed by ``make_poset``, and the two
hand-written walks between binary trees and partitions.  The two combs
are fixtures.  Last come ``@dataclass``
twins of the package's carriers and records, the definitions that the
``__slots__`` classes and named tuples replaced.
Several recurse, which is fine on the small trees the tests give them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterator, NamedTuple

from tamari import classify
from tamari.census import TriangleB
from tamari.noncrossing import (
    Chord,
    NoncrossingPartition,
    NoncrossingTree,
    edge_labels,
    enumerate_ncp,
    make_partition,
    ncp_leq,
)
from tamari.posets import (
    MAX_OBJECT_SIZE,
    IntervalConditionViolated,
    InvalidIntervalPoset,
    IntervalPoset,
    NotAPoset,
    Pair,
    RangeRelation,
    _build,
    _close,
    _interval_pairs,
    _interval_poset,
    _lower_tree,
    _masks,
    _pairs_json,
    _sorted_pairs,
    _raise_witness,
    _upper_tree,
    make_poset,
    universe,
    validate,
)
from tamari.trees import (
    BinaryTree,
    Masks,
    TamariInterval,
    Tree,
    _compared,
    _render,
    dec_masks,
    enumerate_trees,
    inc_masks,
    mask_pairs,
    relation_masks,
    size,
    subtree_spans,
)

# -- pair views ---------------------------------------------------------------


def tree_relations(t: Tree) -> frozenset[Pair]:
    """The induced relation of ``t``: (i, j) present iff vertex i lies in the
    subtree rooted at j.  Reflexive pairs are omitted."""
    return mask_pairs(relation_masks(t))


def dec_relations(t: Tree) -> frozenset[Pair]:
    """Decreasing relations of ``t``: pairs (b, a) with a < b and b <| a."""
    return mask_pairs(dec_masks(relation_masks(t)))


def inc_relations(t: Tree) -> frozenset[Pair]:
    """Increasing relations of ``t``: pairs (a, b) with a < b and a <| b."""
    return mask_pairs(inc_masks(relation_masks(t)))


def transitive_closure(pairs: frozenset[Pair]) -> frozenset[Pair]:
    """Transitive closure of a relation on positive labels, reflexive pairs
    omitted (a cycle yields both directions of each of its pairs)."""
    n = max((max(pair) for pair in pairs), default=0)
    closed = _close(_masks(n, pairs))
    return mask_pairs(row & ~(1 << i) for i, row in enumerate(closed))


def is_valid(rel: RangeRelation) -> bool:
    try:
        validate(rel)
    except InvalidIntervalPoset:
        return False
    return True


# -- trees ----------------------------------------------------------------------


def span_or_relation_masks(t: Tree) -> tuple[int, ...]:
    """:func:`tamari.trees.relation_masks` as each subtree span ORing its
    root's bit into every label it covers: quadratic on deep trees."""
    if t is None:
        raise ValueError("the empty tree induces no labelled poset")
    spans = subtree_spans(t)
    up = [0] * len(spans)
    for (j, lo, hi) in spans:
        bit = 1 << (j - 1)
        for i in range(lo - 1, hi):
            up[i] |= bit
        up[j - 1] ^= bit
    return tuple(up)


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


def left_comb(n: int) -> Tree:
    """The tree of n vertices, each the left child of the next; built
    without recursion, so combs of any size are cheap."""
    t: Tree = None
    for _ in range(n):
        t = BinaryTree(left=t)
    return t


def right_comb(n: int) -> Tree:
    """The tree of n vertices, each the right child of the next."""
    t: Tree = None
    for _ in range(n):
        t = BinaryTree(right=t)
    return t


def mirror(t: Tree) -> Tree:
    """Left/right reflection."""
    if t is None:
        return None
    return BinaryTree(mirror(t.right), mirror(t.left))


def recursive_tree_to_text(t: Tree) -> str:
    """:func:`tamari.trees.tree_to_text` as it was: `L` for a leaf,
    `(left right)` for a node, by recursion."""
    if t is None:
        return "L"
    return f"({recursive_tree_to_text(t.left)} {recursive_tree_to_text(t.right)})"


def recursive_tree_repr(t: Tree) -> str:
    """The repr of a ``BinaryTree``, ``BinaryTree(left=..., right=...)``,
    by recursion."""
    if t is None:
        return "None"
    return (f"BinaryTree(left={recursive_tree_repr(t.left)}, "
            f"right={recursive_tree_repr(t.right)})")


def tree_from_text(text: str) -> Tree:
    """Inverse of :func:`tamari.trees.tree_to_text`."""
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


# -- per-tree tables ------------------------------------------------------------

# the columns of ``posets.universe`` that only enumeration reads (JSON
# fragments and sort orders), and those that only the classifiers read
ENUMERATION_COLUMNS = {"_orders"}
CLASSIFIER_COLUMNS = {
    "ir", "dr", "exc_lower", "exc_upper", "spans", "rise_caps",
    "at_most", "dr_at_most", "span_bits", "witness",
}


def pack(masks) -> int:
    """Masks of one tree in one int, for subset tests between trees."""
    n = len(masks)
    return sum(mask << (i * n) for i, mask in enumerate(masks))


class Tables(NamedTuple):
    """Per-tree tables of one size, indexed like ``enumerate_trees(n)``."""

    decs: tuple[Masks, ...]  # Dec masks
    incs: tuple[Masks, ...]  # Inc masks
    packed: tuple[int, ...]  # Dec masks packed by pack
    brackets: tuple[tuple[int, ...], ...]  # r_i: the size of vertex i's right subtree
    by_inc: tuple[int, ...]  # tree indices in the order of their sorted Inc pairs
    by_dec: tuple[int, ...]  # tree indices in the order of their sorted Dec pairs
    inc_json: tuple[str, ...]  # the sorted Inc pairs as JSON text
    dec_json: tuple[str, ...]  # the sorted Dec pairs as JSON text


def relation_mask_tables(n: int) -> Tables:
    """The per-tree tables as they were built before the columns of
    ``posets.universe``: each tree walked for its ``relation_masks``."""
    decs, incs, packed, brackets, inc_pairs, dec_pairs = [], [], [], [], [], []
    for t in enumerate_trees(n):
        up = relation_masks(t)
        decs.append(dec_masks(up))
        incs.append(inc_masks(up))
        packed.append(pack(decs[-1]))
        # vertex i's subtree ends just below the smallest label above i on
        # the increasing side, or at n if there is none
        brackets.append(tuple(
            ((m & -m).bit_length() or n + 1) - 2 - i for i, m in enumerate(incs[-1])
        ))
        inc, dec = _sorted_pairs(up)
        inc_pairs.append(inc)
        dec_pairs.append(dec)
    indices = range(len(decs))
    return Tables(
        tuple(decs),
        tuple(incs),
        tuple(packed),
        tuple(brackets),
        tuple(sorted(indices, key=inc_pairs.__getitem__)),
        tuple(sorted(indices, key=dec_pairs.__getitem__)),
        tuple(map(_pairs_json, inc_pairs)),
        tuple(map(_pairs_json, dec_pairs)),
    )


class TreeData(NamedTuple):
    """Per-tree classifier data of one size, indexed like
    ``enumerate_trees(n)``."""

    left_kids: tuple[int, ...]  # bit v - 1: vertex v has a left child
    right_kids: tuple[int, ...]  # bit v - 1: vertex v has a right child
    ir: tuple[int, ...]  # stat's ir, read from the Inc masks
    dr: tuple[int, ...]  # stat's dr, read from the Dec masks
    exc_lower: tuple[tuple[tuple[int, int], ...], ...]  # per y: (b, last_S(b)), as S
    exc_upper: tuple[tuple[tuple[int, int], ...], ...]  # per y: (first_T(a), a), as T
    spans: tuple[frozenset[tuple[int, int]], ...]  # leaf_spans, frozen


def walked_tree_data(n: int) -> TreeData:
    """The classifier data as it was built before the columns of
    ``posets.universe``: a span walk per tree, ir and dr scanned from the
    Inc and Dec masks, b the largest label in y's Dec mask and a the
    smallest in its Inc mask."""
    tables = relation_mask_tables(n)
    rows = []
    for t, dec, inc in zip(enumerate_trees(n), tables.decs, tables.incs):
        first, last = [0] * (n + 1), [0] * (n + 1)
        left = right = 0
        walk = subtree_spans(t)
        for v, lo, hi in walk:
            first[v], last[v] = lo, hi
            left |= (lo < v) << (v - 1)
            right |= (hi > v) << (v - 1)
        ir = next((k for k in range(1, n) if inc[k - 1] >> k & 1), n)
        dr = next((i for i in range(n, 1, -1) if dec[i - 1] >> (i - 2) & 1), 1)
        exc_lower = tuple(
            (b, last[b]) if b else (n + 1, n + 1) for b in map(int.bit_length, dec)
        )
        exc_upper = tuple((first[a], a) for a in [(m & -m).bit_length() for m in inc])
        spans = frozenset([(lo, hi + 1) for _, lo, hi in walk])
        rows.append((left, right, ir, dr, exc_lower, exc_upper, spans))
    return TreeData(*map(tuple, zip(*rows)))


def packed_rise_bounds(n: int) -> tuple[int, ...]:
    """R(T) for each tree T of ``enumerate_trees(n)``, as it was before the
    rise caps: the AND over k = 1..n+1 of the packed first n Dec masks of
    k (+) T.  Entry i (0-based) of those masks is ``(1 << i) - 1`` for
    i < k, else ``(1 << k) - 1 | Dec(T)[i - k] << k``."""
    bounds = []
    for dec in relation_mask_tables(n).decs:
        bound = -1
        for k in range(1, n + 2):
            bound &= pack(
                [(1 << i) - 1 if i < k else (1 << k) - 1 | dec[i - k] << k
                 for i in range(n)]
            )
        bounds.append(bound)
    return tuple(bounds)


class FamilyTables(NamedTuple):
    """The per-size bitsets that ``classify.family_bits`` reads, as in the
    columns of ``posets.universe`` of the same names."""

    at_most: list[list[int]]
    dr_at_most: list[int]
    span_bits: dict[tuple[int, int], int]
    witness: list[dict[tuple[int, int], int]]


def inline_family_tables(n: int) -> FamilyTables:
    """The tables that ``classify.family_bits`` built inline on each call
    before they became columns, with each bitset set bit by bit from the
    per-tree columns: bit s for the s-th tree."""
    u = universe(n)

    def trees_where(holds) -> int:
        return sum(1 << s for s in range(len(u.brackets)) if holds(s))

    return FamilyTables(
        at_most=[[trees_where(lambda s: u.brackets[s][i] <= v) for v in range(n - i)]
                 for i in range(n)],
        dr_at_most=[trees_where(lambda s: u.dr[s] <= d) for d in range(n + 1)],
        span_bits={span: trees_where(lambda s: span in u.spans[s])
                   for span in {span for spans in u.spans for span in spans}},
        witness=[
            {(0, 0): 0} | {
                (f, a): trees_where(lambda s: u.exc_lower[s][y - 1][0] < f
                                    and u.exc_lower[s][y - 1][1] < a)
                for f in range(1, y + 1) for a in range(y + 1, n + 1)
            }
            for y in range(1, n + 1)
        ],
    )


def packed_caps(caps: bytes) -> int:
    """A tree's rise caps as the packed Dec bound they stand for: y lies
    below x iff x < y <= x + cap_x."""
    n = len(caps)
    return pack([
        sum(1 << (x - 1) for x in range(1, y) if y <= x + caps[x - 1])
        for y in range(1, n + 1)
    ])


def interval_pair_scan(tables: Tables) -> list[tuple[int, int]]:
    """(lower, upper) tree indices of every Tamari interval, in the order
    of ``posets._interval_pairs``, as Dec inclusion on packed masks over
    every ordered pair of trees: the scan that the bracket-vector
    generator replaced."""
    lowers = [(i, tables.packed[i]) for i in tables.by_dec]
    return [
        (lower, upper)
        for upper in tables.by_inc
        for lower, low in lowers
        if not low & ~tables.packed[upper]
    ]


# -- classifiers and partitions -------------------------------------------------


def avoids_long_crossing(p: IntervalPoset) -> bool:
    """No w <| x and z <| y with w < x < y < z, as literally stated.

    Not authoritative: the literal strict pattern misses posets like
    {1 <| 2, 3 <| 2} whose first rise already fails, so infinite
    modernity is decided by ``classify.is_infinitely_modern`` instead.
    """
    down = p.down
    incs = [x for x, below in enumerate(down) if below & ((1 << x) - 1)]
    decs = [y for y, below in enumerate(down) if below >> (y + 1)]
    return not (incs and decs and incs[0] < decs[-1])


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for idx in range(len(part)):
            yield part[:idx] + [[first] + part[idx]] + part[idx + 1:]


def bell_scan_ncp(n: int) -> list[NoncrossingPartition]:
    """:func:`tamari.noncrossing.enumerate_ncp` as a filter over all Bell(n)
    set partitions of {1..n}, sorted by blocks."""
    out = []
    for part in _set_partitions(list(range(1, n + 1))):
        try:
            out.append(make_partition(part))
        except ValueError:
            continue
    out.sort(key=lambda p: p.blocks)
    return out


def ncp_interval_scan(n: int) -> int:
    """The number of NC-partition intervals of size n, as ``ncp_leq`` on
    every ordered pair of partitions: the scan that the Kreweras product
    in :func:`tamari.census.census` replaced."""
    ncps = enumerate_ncp(n)
    return sum(ncp_leq(p1, p2) for p1 in ncps for p2 in ncps)


def posets_with_trees(n: int) -> Iterator[tuple[IntervalPoset, int, int]]:
    """Each interval-poset of size n with the indices in
    ``enumerate_trees(n)`` of its lower and its upper tree, in the order of
    ``enumerate_interval_posets``."""
    u = universe(n)
    for upper, lowers in _interval_pairs(u):
        for lower in lowers:
            yield _interval_poset(u, lower, upper), lower, upper


def triangle_pair_scan(n: int) -> TriangleB:
    """:func:`tamari.census.triangle_by_statistic` as one pass over the
    universe's tree pairs, dr of each lower tree and ir of each upper tree:
    the loop that the per-upper bitsets replaced."""
    data = walked_tree_data(n)
    table: dict[tuple[int, int], int] = {}
    for _, lower, upper in posets_with_trees(n):
        dr, ir = data.dr[lower], data.ir[upper]
        if dr <= ir:
            key = (dr - 1, n - ir)
            table[key] = table.get(key, 0) + 1
    return TriangleB(n, table)


class Families(NamedTuple):
    """The family flags of one interval, in the order of the census."""

    exceptional: bool
    modern: bool
    new: bool
    infinitely_modern: bool


def pair_families(n: int, lower: int, upper: int) -> Families:
    """The families of Dec(S) | Inc(T), for S and T the trees of
    ``enumerate_trees(n)`` at indices ``lower`` and ``upper``, S <= T, from
    per-tree data alone: the per-pair tests that
    :func:`tamari.classify.family_bits` reads for all lowers at once.

    - exceptional iff no y has b < first_T(a) and last_S(b) < a, for a
      and b of y in T and in S as in ``posets.Universe``: then neither of
      y's up-covers a and b lies below the other;
    - modern iff no vertex has a left child in T and a right child in S;
    - new iff the leaf spans of S and T share only the full one
      (``classify.is_new_interval``);
    - infinitely modern iff dr(S) <= ir(T), as in ``classify.stat``.
    """
    u = universe(n)
    return Families(
        exceptional=not any(
            b < f and last < a
            for (b, last), (f, a) in zip(u.exc_lower[lower], u.exc_upper[upper])
        ),
        modern=not any(l and r for l, r in zip(u.lefts[upper], u.brackets[lower])),
        new=set(u.spans[lower]).intersection(u.spans[upper]) <= {(1, n + 1)},
        infinitely_modern=u.dr[lower] <= u.ir[upper],
    )


def is_new_pair(n: int, lower: int, upper: int) -> bool:
    """``classify.is_new_interval`` of the interval between the trees of
    ``enumerate_trees(n)`` at indices ``lower`` and ``upper``."""
    return pair_families(n, lower, upper).new


# -- the poset stream -----------------------------------------------------------

# the poset classifier behind each family of ``enumerate --family``
POSET_FILTERS = {
    "all": lambda p: True,
    "exceptional": classify.is_exceptional,
    "modern": classify.is_modern,
    "new": classify.is_new_ip,
    "infmodern": classify.is_infinitely_modern,
}


def stream_interval_posets(n: int) -> Iterator[tuple[IntervalPoset, str]]:
    """Each interval-poset of size n with its ``poset_to_json`` line,
    lazily and in the order of ``enumerate_interval_posets``: the stream
    that ``enumerate --family`` and ``classify --size`` read before they
    wrote their lines from ``classify.family_bits``."""
    u = universe(n)
    head = f'{{"size": {n}, "inc": '
    return (
        (
            _interval_poset(u, lower, upper),
            head + u.inc_json[upper] + ', "dec": ' + u.dec_json[lower] + "}",
        )
        for upper, lowers in _interval_pairs(u)
        for lower in lowers
    )


def poset_classes(p: IntervalPoset) -> dict:
    """The classification fields of a ``classify`` record, from the poset
    classifiers."""
    s = classify.stat(p)
    return {
        "exceptional": classify.is_exceptional(p),
        "modern": classify.is_modern(p),
        "new": classify.is_new_ip(p),
        "infinitely_modern": classify.is_infinitely_modern(p),
        "ir": s.ir,
        "dr": s.dr,
    }


def classify_record(p: IntervalPoset) -> str:
    """The ``classify`` record of ``p``, as ``json.dumps`` writes it."""
    return json.dumps({**poset_to_obj(p), **poset_classes(p)})


# -- the single-poset path ------------------------------------------------------
#
# The routines that the per-pair and per-vertex stages of ``posets``
# replaced: Warshall's closure, the transpose-first axiom check, the
# frozenset reading of a poset's JSON object, ``json.dumps`` of its dict
# and the order-checked interval of ``to_interval``.


def warshall_close(up: list[int]) -> list[int]:
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


def bitwise_transpose(up) -> list[int]:
    """Down-set masks from up-set masks, one bit at a time."""
    down = [0] * len(up)
    for i, mask in enumerate(up):
        bit = 1 << i
        while mask:
            low = mask & -mask
            down[low.bit_length() - 1] |= bit
            mask ^= low
    return down


def runs_hold(up) -> bool:
    """The decision of the transpose-first check on closed masks with no
    bit of a vertex for itself: no 2-cycle, and each y and the elements
    below it fill a run of consecutive labels."""
    down = bitwise_transpose(up)
    if any(above & below for above, below in zip(up, down)):
        return False
    for y, below in enumerate(down):
        run = below | (1 << y)
        if run & (run + (run & -run)):
            return False
    return True


def transpose_check_axioms(up) -> None:
    """Raise on a 2-cycle, smallest x first, then smallest y; then on the
    first pair x <| y in sorted order with some b strictly between x and y
    not below y (smallest such b)."""
    if runs_hold(up):
        return
    down = bitwise_transpose(up)
    for x, (above, below) in enumerate(zip(up, down), 1):
        both = above & below
        if both:
            raise NotAPoset((x, (both & -both).bit_length(), x))
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


def warshall_validate(rel: RangeRelation) -> tuple[int, ...]:
    """The closed masks of ``rel``, or the exception of the old validation
    path: Warshall's closure, then the transpose-first check."""
    closed = warshall_close(list(rel.up))
    transpose_check_axioms(closed)
    return tuple(closed)


def pairset_relation_from_obj(obj: dict) -> RangeRelation:
    """A poset's JSON object read as a frozenset of pairs, range-checked in
    set order, then packed into masks."""
    if obj["size"] > MAX_OBJECT_SIZE:
        raise ValueError(f"size {obj['size']} exceeds the limit "
                         f"{MAX_OBJECT_SIZE} for a single poset")
    n = obj["size"]
    pairs = {(a, b) for a, b in obj.get("inc", [])}
    pairs |= {(b, a) for b, a in obj.get("dec", [])}
    up = [0] * n
    for (x, y) in frozenset(pairs):
        if not (1 <= x <= n and 1 <= y <= n) or x == y:
            raise ValueError(f"pair ({x},{y}) out of range for size {n}")
        up[x - 1] |= 1 << (y - 1)
    return _build(RangeRelation, tuple(up))


def poset_to_obj(p: RangeRelation) -> dict:
    """A poset's JSON object, whose pairs mean first <| second in both lists."""
    inc, dec = _sorted_pairs(p.up)
    return {
        "size": p.n,
        "inc": [[a, b] for (a, b) in inc],
        "dec": [[a, b] for (a, b) in dec],
    }


def dumped_json(p: RangeRelation) -> str:
    """``poset_to_json`` as ``json.dumps`` of ``poset_to_obj``."""
    return json.dumps(poset_to_obj(p))


def checked_to_interval(p: IntervalPoset) -> TamariInterval:
    """``to_interval`` with the order check of ``TamariInterval``."""
    return TamariInterval(_lower_tree(dec_masks(p.up)), _upper_tree(inc_masks(p.up)))


# -- the noncrossing maps -------------------------------------------------------

# The routines that ``tamari.noncrossing`` replaced by a sweep over the
# chords, by chord-nesting masks and by the bracket vector of a tree.


def crossing(e1: Chord, e2: Chord) -> bool:
    (a, b), (c, d) = sorted((e1, e2))
    return a < c < b < d


def chord_crossings(edges) -> list[tuple[Chord, Chord]]:
    """Every pair of the chords ``edges`` that cross, each pair tested."""
    return [(e1, e2) for e1, e2 in combinations(sorted(edges), 2) if crossing(e1, e2)]


def pairwise_nct_to_poset(t: NoncrossingTree) -> IntervalPoset:
    """i <| j iff chord j nests chord i, tested for every two chords, then
    closed by ``make_poset``."""
    chord_of = {label: chord for chord, label in edge_labels(t).items()}
    pairs = set()
    for i, (c, d) in chord_of.items():
        for j, (a, b) in chord_of.items():
            if i != j and a <= c <= d <= b:
                pairs.add((i, j))
    return make_poset(t.n, pairs)


def walked_partition_of_tree(t: Tree) -> NoncrossingPartition:
    """An iterative in-order walk; a right child is labelled after its
    parent and joins the parent's block."""
    block_of = [0]  # block_of[label]: the smallest label of its block
    blocks: dict[int, list[int]] = {}
    stack: list[tuple[BinaryTree, int]] = []  # (node, parent label if right child)
    node, parent = t, 0
    while stack or node is not None:
        while node is not None:
            stack.append((node, parent))
            node, parent = node.left, 0
        node, parent = stack.pop()
        label = len(block_of)
        first = block_of[parent] if parent else label
        block_of.append(first)
        blocks.setdefault(first, []).append(label)
        node, parent = node.right, label
    return make_partition(blocks.values())


def grafted_tree_of_partition(pi: NoncrossingPartition) -> Tree:
    """Each block becomes a right chain rooted at its minimum, then each
    chain is grafted as the left son of the vertex labelled max(block)+1;
    built in an iterative post-order."""
    n = pi.n
    left: dict[int, int | None] = {x: None for x in range(1, n + 1)}
    right: dict[int, int | None] = {x: None for x in range(1, n + 1)}
    root_label = None
    for block in pi.blocks:
        for x, y in zip(block, block[1:]):
            right[x] = y
        m = block[-1]
        if m == n:
            root_label = block[0]
        else:
            left[m + 1] = block[0]
    built: dict[int | None, Tree] = {None: None}
    stack = [root_label]
    while stack:
        label = stack[-1]
        sons = [s for s in (left[label], right[label]) if s not in built]
        if sons:
            stack.extend(sons)
        else:
            stack.pop()
            built[label] = BinaryTree(built[left[label]], built[right[label]])
    t = built[root_label]
    assert size(t) == n, "grafting did not reassemble the whole tree"
    return t


# -- dataclass twins ------------------------------------------------------------
#
# Each twin keeps the ``@dataclass`` definition of the class it is named
# after: the decorator's options, the fields and the hand-written dunder
# methods.  Only the validation of NoncrossingTree and NoncrossingPartition
# is left out (their own tests cover it); the partition just counts its
# elements.  A twin's ``__name__`` and ``__qualname__`` are those of its
# class, so its repr reads as the old one did; twins are not picklable.


def _twin(cls):
    cls.__name__ = cls.__qualname__ = cls.__name__.removeprefix("Twin")
    return cls


@_twin
@dataclass(frozen=True, eq=False, repr=False)
class TwinBinaryTree:
    left: Tree = None
    right: Tree = None

    def _word(self) -> bytes:
        word = bytearray()
        stack: list = [self]
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
        if type(other) is not TwinBinaryTree:
            return NotImplemented
        return self is other or self._word() == other._word()

    def __hash__(self) -> int:
        return hash(self._word())

    def __repr__(self) -> str:
        return _render(self, "None", "BinaryTree(left=", ", right=", ")")


@_twin
@dataclass(frozen=True)
class TwinTamariInterval:
    lower: Tree
    upper: Tree

    def __post_init__(self) -> None:
        leq, masks = _compared(self.lower, self.upper)
        if not leq:
            raise ValueError("lower bound is not below upper bound")
        object.__setattr__(self, "masks", masks)  # the cached property's value

    @cached_property
    def masks(self) -> tuple[Masks, Masks]:
        return _compared(self.lower, self.upper)[1]


@_twin
@dataclass(frozen=True, init=False, repr=False, slots=True)
class TwinRangeRelation:
    n: int
    up: tuple[int, ...]

    def __init__(self, n: int, pairs) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "up", tuple(_masks(n, pairs)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n}, {sorted(mask_pairs(self.up))})"


@_twin
class TwinIntervalPoset(TwinRangeRelation):
    __slots__ = ()

    def __init__(self, n: int, relations) -> None:
        super().__init__(n, relations)
        _raise_witness(self.up)
        if tuple(_close(list(self.up))) != self.up:
            raise InvalidIntervalPoset("relation is not transitively closed")


@_twin
@dataclass(frozen=True)
class TwinNoncrossingTree:
    n: int
    edges: frozenset[tuple[int, int]]


@_twin
@dataclass(frozen=True)
class TwinNoncrossingPartition:
    blocks: tuple[tuple[int, ...], ...]
    n: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", sum(map(len, self.blocks)))


@_twin
@dataclass(frozen=True)
class TwinPlantOutcome:
    f: "NoncrossingTree"
    i: int
    g: "NoncrossingTree"


@_twin
@dataclass(frozen=True)
class TwinCensusRow:
    n: int
    intervals: int
    exceptional: int
    modern: int
    new: int
    infinitely_modern: int
    trees: int
    noncrossing_trees: int
    noncrossing_partitions: int
    ncp_intervals: int


@_twin
@dataclass(frozen=True)
class TwinTriangleB:
    n: int
    table: dict[tuple[int, int], int]


@_twin
@dataclass(frozen=True)
class TwinStatPair:
    ir: int
    dr: int


@_twin
@dataclass(frozen=True)
class TwinCheckResult:
    name: str
    passed: bool
    detail: str = ""

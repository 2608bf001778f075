"""Counting engine: exhaustive enumeration cross-checked against every
closed formula, plus the triangle refining the Fuss-Catalan numbers."""

from __future__ import annotations

from collections import Counter
from math import comb, factorial, prod
from operator import add
from typing import NamedTuple

from . import classify, posets
from .noncrossing import count_nct

DEFAULT_BOUND = 6


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def formula_intervals(n: int) -> int:
    """2(4n+1)! / ((n+1)!(3n+2)!), the Tamari interval count."""
    num = 2 * factorial(4 * n + 1)
    den = factorial(n + 1) * factorial(3 * n + 2)
    assert num % den == 0
    return num // den


def formula_new(n: int) -> int:
    """3 * 2^(n-2) (2n-2)! / ((n-1)!(n+1)!), the new-interval count.

    Non-integral at n = 1 (it evaluates to 3/4 although [Y, Y] is new by
    the decomposition criterion); defined for n >= 2 only.
    """
    if n < 2:
        raise ValueError("the closed formula is valid for n >= 2 only")
    num = 3 * 2 ** (n - 2) * factorial(2 * n - 2)
    den = factorial(n - 1) * factorial(n + 1)
    assert num % den == 0
    return num // den


def fuss_catalan(n: int) -> int:
    """C(3n, n) / (2n+1); counts ternary trees, noncrossing trees,
    exceptional and infinitely modern posets."""
    num = comb(3 * n, n)
    assert num % (2 * n + 1) == 0
    return num // (2 * n + 1)


def _block_keys(r: bytes) -> bytes:
    """v + r_v for each vertex v, from 0, of the tree with brackets r: the
    last label of v's right chain, one key per block of its partition."""
    return bytes(map(add, range(len(r)), r))


class CensusRow(NamedTuple):
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

    def counts(self) -> dict[str, int]:
        return dict(zip(self._fields[1:], self[1:]))

    def formula_checks(self) -> dict[str, int]:
        checks = {
            "intervals": formula_intervals(self.n),
            "exceptional": fuss_catalan(self.n),
            "infinitely_modern": fuss_catalan(self.n),
            "trees": catalan(self.n),
            "noncrossing_trees": fuss_catalan(self.n),
            "noncrossing_partitions": catalan(self.n),
            "ncp_intervals": fuss_catalan(self.n),
        }
        if self.n >= 2:
            checks["new"] = formula_new(self.n)
            checks["modern"] = formula_new(self.n + 1)
        return checks


def census(n: int, bound: int = DEFAULT_BOUND) -> CensusRow:
    """Exhaustive counts at size n, each checked against its closed
    formula; a mismatch raises :class:`AssertionError`.

    The intervals and the four families are counted per upper tree, as the
    popcounts of its :func:`classify.family_bits`: one bit per lower tree,
    so every interval is still decided on its own.  The noncrossing trees
    are counted by the recursion that generates them
    (:func:`noncrossing.count_nct`), the noncrossing partitions as one per
    tree (:func:`noncrossing.partition_of_tree`), and the NC-partition
    intervals by upper partition: the partitions below pi are the products
    of noncrossing partitions of its blocks, Catalan(|B|) for a block B
    (Kreweras 1972).  A tree's blocks are its maximal right chains: the
    vertices v whose subtrees end at the same label v + r_v.
    """
    if n > bound:
        raise ValueError(f"size {n} exceeds the configured bound {bound}")
    intervals = exceptional = modern = new = infinitely_modern = trees = 0
    for bits in classify.family_bits(n):
        trees += 1
        intervals += bits.lowers.bit_count()
        exceptional += bits.exceptional.bit_count()
        modern += bits.modern.bit_count()
        new += bits.new.bit_count()
        infinitely_modern += bits.infinitely_modern.bit_count()
    row = CensusRow(
        n=n,
        intervals=intervals,
        exceptional=exceptional,
        modern=modern,
        new=new,
        infinitely_modern=infinitely_modern,
        trees=trees,
        noncrossing_trees=count_nct(n),
        noncrossing_partitions=trees,
        ncp_intervals=sum(
            prod(map(catalan, Counter(_block_keys(r)).values()))
            for r in posets.universe(n).brackets
        ),
    )
    counts = row.counts()
    for family, expected in row.formula_checks().items():
        if counts[family] != expected:
            raise AssertionError(
                f"census mismatch at n={n}, family {family}: "
                f"enumerated {counts[family]}, formula {expected}"
            )
    return row


class TriangleB(NamedTuple):
    """Refinement of Fuss-Catalan(n): entry (k, l) counts the infinitely
    modern posets of size n with dr = k+1 and ir = n-l."""

    n: int
    table: dict[tuple[int, int], int]

    def row_sum(self) -> int:
        return sum(self.table.values())


def triangle_recurrence(n: int) -> TriangleB:
    """B(n,k,l) = sum of B(n-1,i,j) over i <= k, j <= l, zero when
    k+l >= n, seeded by B(1,0,0) = 1."""
    table = {(0, 0): 1}
    for m in range(2, n + 1):
        prev, table = table, {}
        for k in range(m):
            for l in range(m - k):
                table[(k, l)] = sum(
                    prev.get((i, j), 0)
                    for i in range(k + 1)
                    for j in range(l + 1)
                )
    return TriangleB(n, {kl: v for kl, v in table.items() if v})


def triangle_by_statistic(n: int) -> TriangleB:
    """The same triangle from the (ir, dr) statistic over enumeration: per
    upper tree T, the infinitely modern lowers with dr = d are the lowers
    of T in ``DR=[d]``, the trees with dr = d, for d <= ir(T)."""
    u = posets.universe(n)
    at_most = u.dr_at_most
    exactly = [0] + [at_most[d] & ~at_most[d - 1] for d in range(1, n + 1)]
    table: dict[tuple[int, int], int] = {}
    for bits in classify.family_bits(n):
        ir = u.ir[bits.upper]
        for d in range(1, ir + 1):
            count = (bits.lowers & exactly[d]).bit_count()
            if count:
                key = (d - 1, n - ir)
                table[key] = table.get(key, 0) + count
    return TriangleB(n, table)


def triangle_b(n: int) -> TriangleB:
    """Triangle computed both ways; the two must agree entrywise, else
    :class:`AssertionError` is raised."""
    rec = triangle_recurrence(n)
    direct = triangle_by_statistic(n)
    if rec.table != direct.table:
        raise AssertionError(
            f"triangle mismatch at n={n}: recurrence {rec.table} vs "
            f"statistic {direct.table}"
        )
    return rec

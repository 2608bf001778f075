"""Counting engine: exhaustive enumeration cross-checked against every
closed formula, plus the triangle refining the Fuss-Catalan numbers."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from . import classify
from .noncrossing import enumerate_ncp, enumerate_nct, ncp_leq
from .posets import enumerate_interval_posets, universe
from .trees import enumerate_trees

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


@dataclass(frozen=True)
class CensusRow:
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
        return {
            "intervals": self.intervals,
            "exceptional": self.exceptional,
            "modern": self.modern,
            "new": self.new,
            "infinitely_modern": self.infinitely_modern,
            "trees": self.trees,
            "noncrossing_trees": self.noncrossing_trees,
            "noncrossing_partitions": self.noncrossing_partitions,
            "ncp_intervals": self.ncp_intervals,
        }

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
    """Exhaustive counts at size n, with every closed formula asserted."""
    if n > bound:
        raise ValueError(f"size {n} exceeds the configured bound {bound}")
    u = universe(n)
    posets = u.posets
    ncps = enumerate_ncp(n)
    row = CensusRow(
        n=n,
        intervals=len(posets),
        exceptional=sum(classify.is_exceptional(p) for p in posets),
        modern=sum(classify.is_modern(p) for p in posets),
        new=sum(
            classify.is_new_pair(n, lower, upper)
            for lower, upper in zip(u.lowers, u.uppers)
        ),
        infinitely_modern=sum(classify.is_infinitely_modern(p) for p in posets),
        trees=len(enumerate_trees(n)),
        noncrossing_trees=len(enumerate_nct(n)),
        noncrossing_partitions=len(ncps),
        ncp_intervals=sum(
            ncp_leq(p1, p2) for p1 in ncps for p2 in ncps
        ),
    )
    counts = row.counts()
    for family, expected in row.formula_checks().items():
        assert counts[family] == expected, (
            f"census mismatch at n={n}, family {family}: "
            f"enumerated {counts[family]}, formula {expected}"
        )
    return row


@dataclass(frozen=True)
class TriangleB:
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
    """The same triangle from the (ir, dr) statistic over enumeration."""
    table: dict[tuple[int, int], int] = {}
    for p in enumerate_interval_posets(n):
        s = classify.stat(p)
        if s.dr <= s.ir:
            key = (s.dr - 1, n - s.ir)
            table[key] = table.get(key, 0) + 1
    return TriangleB(n, table)


def triangle_b(n: int) -> TriangleB:
    """Triangle computed both ways; the two must agree entrywise."""
    rec = triangle_recurrence(n)
    direct = triangle_by_statistic(n)
    assert rec.table == direct.table, (
        f"triangle mismatch at n={n}: recurrence {rec.table} vs "
        f"statistic {direct.table}"
    )
    return rec

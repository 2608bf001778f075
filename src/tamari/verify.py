"""Cross-check runner: every closed-form count and bijection round trip,
exercised exhaustively up to a size bound.  This is the engine behind
``tamari verify`` and the acceptance suite."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from . import census, classify, risefall
from .noncrossing import (
    enumerate_ncp,
    enumerate_nct,
    ncp_interval_to_ip,
    ncp_leq,
    nct_to_poset,
    partition_of_tree,
    poset_to_nct,
    tree_of_partition,
)
from .posets import (
    _lower_tree,
    _upper_tree,
    enumerate_interval_posets,
    interval_members,
    linear_extensions,
    to_interval,
    tree_poset,
    universe,
    validate,
)
from .trees import enumerate_trees, tamari_leq, tree_to_text

# Golden count sequences, indexed from size 1.
GOLDEN = {
    "intervals": [1, 3, 13, 68, 399, 2530],
    "exceptional": [1, 3, 12, 55, 273],
    "infinitely_modern": [1, 3, 12, 55, 273],
    "new": [1, 1, 3, 12, 56],  # n = 1 from enumeration; formula needs n >= 2
    "modern": [1, 3, 12, 56],
}

# Size caps: a check with a cap covers n <= min(max_size, cap); the other
# checks cover every n up to max_size.  Caps only go up.
EXCEPTIONAL_CAP = 5  # the NC-partition image scans every partition pair
NEW_CAP = 5  # where GOLDEN["new"] ends; both tests are cheap masks
MODERN_SHIFT_CAP = 4  # relates size n to size n + 1
INSERT_REMOVE_CAP = 4  # relates size n to size n + 1
NCT_ROUND_TRIP_CAP = 4
PARTITION_ROUND_TRIP_CAP = 5
REFINEMENT_SIZE = 4  # refinement -> Tamari order, checked at this size only
LINEAR_EXTENSIONS_CAP = 4  # extensions grow like n!
# Two checks compare with GOLDEN, and stop where their table does.
INTERVALS_GOLDEN_CAP = len(GOLDEN["intervals"])
INFINITELY_MODERN_GOLDEN_CAP = len(GOLDEN["infinitely_modern"])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check_interval_counts(max_size: int) -> str:
    for n in range(1, min(max_size, INTERVALS_GOLDEN_CAP) + 1):
        got = len(enumerate_interval_posets(n))
        want = GOLDEN["intervals"][n - 1]
        formula = census.formula_intervals(n)
        if not got == want == formula:
            return f"n={n}: enumerated {got}, golden {want}, formula {formula}"
    return ""


def _check_exceptional(max_size: int) -> str:
    for n in range(1, min(max_size, EXCEPTIONAL_CAP) + 1):
        posets = enumerate_interval_posets(n)
        exceptional = {p for p in posets if classify.is_exceptional(p)}
        want = GOLDEN["exceptional"][n - 1]
        if len(exceptional) != want or census.fuss_catalan(n) != want:
            return f"n={n}: {len(exceptional)} exceptional, golden {want}"
        ncts = enumerate_nct(n)
        if {nct_to_poset(t) for t in ncts} != exceptional:
            return f"n={n}: noncrossing-tree image differs from exceptional set"
        ncps = enumerate_ncp(n)
        image = {
            ncp_interval_to_ip(p1, p2)
            for p1 in ncps
            for p2 in ncps
            if ncp_leq(p1, p2)
        }
        if image != exceptional:
            return f"n={n}: NC-partition-interval image differs from exceptional set"
    return ""


def _check_new(max_size: int) -> str:
    for n in range(2, min(max_size, NEW_CAP) + 1):
        u = universe(n)
        count = 0
        for p, lower, upper in zip(u.posets, u.lowers, u.uppers):
            by_tree = classify.is_new_pair(n, lower, upper)
            by_poset = classify.is_new_ip(p)
            if by_tree != by_poset:
                return (
                    f"n={n}: oracles disagree on "
                    f"[{tree_to_text(u.trees[lower])}, {tree_to_text(u.trees[upper])}]"
                )
            count += by_tree
        want = GOLDEN["new"][n - 1]
        if count != want or census.formula_new(n) != want:
            return f"n={n}: {count} new intervals, golden {want}"
    return ""


def _check_modern_shift(max_size: int) -> str:
    for n in range(1, min(max_size, MODERN_SHIFT_CAP) + 1):
        moderns = [p for p in enumerate_interval_posets(n) if classify.is_modern(p)]
        if len(moderns) != GOLDEN["modern"][n - 1]:
            return f"n={n}: {len(moderns)} modern, golden {GOLDEN['modern'][n-1]}"
        news = {
            p for p in enumerate_interval_posets(n + 1) if classify.is_new_ip(p)
        }
        risen = set()
        for p in moderns:
            q = validate(risefall.rise(p))
            if validate(risefall.fall(q)) != p:
                return f"n={n}: fall(rise(P)) != P for P = {sorted(p.relations)}"
            risen.add(q)
            interval = to_interval(q)
            shape = classify.nice_shape(interval)
            if shape is None:
                return f"n={n}: rise of a modern poset lacks the grafted shape"
            s1, t1 = shape
            sub = to_interval(p)
            if (s1, t1) != (sub.lower, sub.upper):
                return f"n={n}: grafted shape does not match to_interval(P)"
        if risen != news:
            return f"n={n}: rise image differs from the new posets of size {n+1}"
    return ""


def _check_infinitely_modern(max_size: int) -> str:
    for n in range(1, max_size + 1):
        u = universe(n)
        count = 0
        for p, lower, upper in zip(u.posets, u.lowers, u.uppers):
            by_stat = classify.is_infinitely_modern(p)
            by_rise = risefall.all_rises_valid(n, lower, upper)
            if by_stat != by_rise:
                return f"n={n}: stat and iterated-rise oracles disagree"
            count += by_stat
        golden = GOLDEN["infinitely_modern"]
        if n <= INFINITELY_MODERN_GOLDEN_CAP and count != golden[n - 1]:
            return f"n={n}: {count} infinitely modern, golden wrong"
    return ""


def _check_triangle(max_size: int) -> str:
    for n in range(1, max_size + 1):
        try:
            tri = census.triangle_b(n)
        except AssertionError as exc:
            return str(exc)
        if tri.row_sum() != census.fuss_catalan(n):
            return f"n={n}: triangle row sum {tri.row_sum()}"
    return ""


def _check_insert_remove(max_size: int) -> str:
    for n in range(1, min(max_size, INSERT_REMOVE_CAP) + 1):
        classes: dict[tuple[int, int], list] = {}
        for p in enumerate_interval_posets(n + 1):
            s = classify.stat(p)
            if s.dr <= s.ir:
                classes.setdefault((s.dr, s.ir), []).append(p)
        lower = [
            (classify.stat(p), p)
            for p in enumerate_interval_posets(n)
            if classify.is_infinitely_modern(p)
        ]
        for i in range(1, n + 2):
            for k in range(i, n + 2):
                domain = [p for (s, p) in lower if s.dr <= i and k - 1 <= s.ir]
                image = {risefall.insert_fik(p, i, k) for p in domain}
                target = set(classes.get((i, k), []))
                if image != target or len(image) != len(domain):
                    return f"n={n}, (i,k)=({i},{k}): insertion is not a bijection"
                for p in domain:
                    if risefall.remove_rho(risefall.insert_fik(p, i, k)) != p:
                        return f"n={n}, (i,k)=({i},{k}): removal does not invert"
    return ""


def _check_roundtrips(max_size: int) -> str:
    # to_interval(Dec(S) | Inc(T)) rebuilds S from Dec(S) and T from Inc(T),
    # and from_interval reads both back from the walked trees, so every
    # enumerated poset round-trips iff every tree is rebuilt from its Dec
    # masks and from its Inc masks
    for n in range(1, max_size + 1):
        u = universe(n)
        for t, dec, inc in zip(u.trees, u.tables.decs, u.tables.incs):
            if _lower_tree(dec) != t or _upper_tree(inc) != t:
                return f"n={n}: interval round trip fails at {tree_to_text(t)}"
    for n in range(1, min(max_size, NCT_ROUND_TRIP_CAP) + 1):
        for t in enumerate_nct(n):
            if poset_to_nct(nct_to_poset(t)) != t:
                return f"n={n}: noncrossing-tree round trip fails"
    for n in range(1, min(max_size, PARTITION_ROUND_TRIP_CAP) + 1):
        for t in enumerate_trees(n):
            if tree_of_partition(partition_of_tree(t)) != t:
                return f"n={n}: partition round trip fails"
        for pi in enumerate_ncp(n):
            if partition_of_tree(tree_of_partition(pi)) != pi:
                return f"n={n}: partition round trip fails (partition side)"
    if max_size >= REFINEMENT_SIZE:
        ncps = enumerate_ncp(REFINEMENT_SIZE)
        for p1 in ncps:
            for p2 in ncps:
                if ncp_leq(p1, p2) and not tamari_leq(
                    tree_of_partition(p1), tree_of_partition(p2)
                ):
                    return "refinement order is not carried to the Tamari order"
    return ""


def _check_linear_extensions(max_size: int) -> str:
    for n in range(1, min(max_size, LINEAR_EXTENSIONS_CAP) + 1):
        for p in enumerate_interval_posets(n):
            whole = linear_extensions(p.n, p.relations)
            parts: list[tuple[int, ...]] = []
            for t in interval_members(p):
                q = tree_poset(t)
                parts.extend(linear_extensions(q.n, q.relations))
            if sorted(whole) != sorted(parts) or len(parts) != len(set(parts)):
                return f"n={n}: linear extensions do not partition over members"
    return ""


CHECKS: list[tuple[str, Callable[[int], str]]] = [
    ("interval counts", _check_interval_counts),
    ("exceptional counts and bijections", _check_exceptional),
    ("new-interval oracles", _check_new),
    ("modern/new shift", _check_modern_shift),
    ("infinitely modern criterion", _check_infinitely_modern),
    ("counting triangle", _check_triangle),
    ("insert/remove bijection", _check_insert_remove),
    ("bijection round trips", _check_roundtrips),
    ("linear-extension partition", _check_linear_extensions),
]


def run_checks(max_size: int) -> Iterator[CheckResult]:
    for name, check in CHECKS:
        detail = check(max_size)
        yield CheckResult(name, not detail, detail)

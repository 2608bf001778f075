"""Cross-check runner: every closed-form count and bijection round trip,
and each of the paper's results as one equality of two bitsets per upper
tree, exercised exhaustively up to a size bound.  This is the engine
behind ``tamari verify`` and the acceptance suite."""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from operator import and_, getitem, ne, or_
from typing import Callable, Iterator, NamedTuple

from . import census, classify, risefall
from .census import _block_keys, catalan
from .noncrossing import (
    _chord_masks,
    enumerate_ncp,
    enumerate_nct,
    nct_to_json,
    nct_to_poset,
    partition_of_tree,
    poset_to_nct,
    tree_of_partition,
)
from .posets import (
    IntervalPoset,
    _holding,
    _interval_pairs,
    _interval_poset,
    _lower_tree,
    _upper_tree,
    interval_members,
    linear_extensions,
    to_interval,
    tree_poset,
    universe,
    validate,
)
from .trees import dec_masks, enumerate_trees, inc_masks, tree_to_text

# Size caps: a part of a check with a cap covers n <= min(max_size, cap);
# the counts, the three per-upper equalities, the triangle and the tree
# round trips cover every n up to max_size.  Caps only go up.
DEFINITIONS_CAP = 5  # builds every poset; tier-1 tests go to n = 7
EXCEPTIONAL_CAP = 5  # lists the noncrossing trees
MODERN_SHIFT_CAP = 4  # rises every modern poset of size n
INSERT_REMOVE_CAP = 4  # relates size n to size n + 1
NCT_ROUND_TRIP_CAP = 4
PARTITION_ROUND_TRIP_CAP = 5
LINEAR_EXTENSIONS_CAP = 4  # extensions grow like n!


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


@lru_cache(maxsize=None)
def _capped(n: int) -> tuple[tuple[int, int, IntervalPoset], ...]:
    """(lower, upper, poset) for every interval of size n, as tree indices,
    in the order of ``enumerate_interval_posets(n)``: the one store of
    posets that the capped parts of the checks read, built on first read."""
    u = universe(n)
    return tuple((lower, upper, _interval_poset(u, lower, upper))
                 for upper, lowers in _interval_pairs(u) for lower in lowers)


def _posets(n: int) -> list[IntervalPoset]:
    return [p for _, _, p in _capped(n)]


def _definitions(max_size: int, family: str, classifier: Callable) -> str:
    """The first interval of size n <= min(max_size, DEFINITIONS_CAP) whose
    ``family`` bit in :func:`classify.family_bits` differs from
    ``classifier``, the paper's definition on posets, as a failure detail."""
    for n in range(1, min(max_size, DEFINITIONS_CAP) + 1):
        bits = [getattr(b, family) for b in classify.family_bits(n)]
        for lower, upper, p in _capped(n):
            if bits[upper] >> lower & 1 != classifier(p):
                trees = universe(n).trees
                return (f"n={n}: {family} bits and {classifier.__name__} disagree on "
                        f"[{tree_to_text(trees[lower])}, {tree_to_text(trees[upper])}]")
    return ""


def _check_interval_counts(max_size: int) -> str:
    for n in range(1, max_size + 1):
        try:
            census.census(n, bound=n)
        except AssertionError as exc:
            return str(exc)
    return ""


def _pairs(keys: bytes, same: bool) -> list[tuple[int, int]]:
    """The vertex pairs i < j in one block if ``same``, else in two."""
    return [(i, j) for i, j in combinations(range(len(keys)), 2)
            if (keys[i] == keys[j]) is same]


def _check_exceptional(max_size: int) -> str:
    # [S, T] is exceptional iff S's partition refines T's: S is in no
    # same[i, j], the trees with i and j in one block, for i, j in two
    # blocks of T.  Taken in all trees, so refinement must imply S <= T.
    for n in range(1, max_size + 1):
        u = universe(n)
        keys = list(map(_block_keys, u.brackets))
        same = _holding(_pairs(k, True) for k in keys)
        everything = (1 << len(keys)) - 1
        image = [0] * len(keys)
        if n <= EXCEPTIONAL_CAP:
            lower_of = {dec: s for s, dec in enumerate(u.decs)}
            upper_of = {inc: s for s, inc in enumerate(u.incs)}
            for t in enumerate_nct(n):
                up = _chord_masks(t)  # the masks nct_to_poset(t) validates
                dec, inc = dec_masks(up), inc_masks(up)
                if dec not in lower_of or inc not in upper_of:
                    return f"n={n}: noncrossing tree {nct_to_json(t)} maps to no tree pair"
                image[upper_of[inc]] |= 1 << lower_of[dec]
        for bits in classify.family_bits(n):
            split = reduce(or_, map(same.__getitem__, _pairs(keys[bits.upper], False)), 0)
            if bits.exceptional != everything ^ (everything & split):
                return (f"n={n}: exceptional lowers of {tree_to_text(u.trees[bits.upper])} "
                        "differ from the partitions refining its own")
            if n <= EXCEPTIONAL_CAP and image[bits.upper] != bits.exceptional:
                return f"n={n}: noncrossing-tree image differs from exceptional set"
    return _definitions(max_size, "exceptional", classify.is_exceptional)


def _check_new(max_size: int) -> str:
    return _definitions(max_size, "new", classify.is_new_ip)


def _check_modern_shift(max_size: int) -> str:
    # the C(n - 1) trees with root 1 come first and those with root n last,
    # each in the order of its one subtree, so the rise [S, T] -> [S/Y, Y\T]
    # shifts the modern lowers of the k-th upper by C(n) - C(n - 1) bits
    modern = [1]  # size 0: the one tree, the leaf, is its own modern lower
    for n in range(1, max_size + 1):
        shift = catalan(n) - catalan(n - 1)
        risen, modern = iter(modern), []
        for bits in classify.family_bits(n):
            if bits.new != next(risen, 0) << shift:
                return (f"n={n}: new lowers of {tree_to_text(enumerate_trees(n)[bits.upper])} "
                        f"are not modern lowers at size {n - 1} shifted by {shift}")
            if n < max_size:
                modern.append(bits.modern)
    for n in range(1, min(max_size, MODERN_SHIFT_CAP) + 1):
        news = set(filter(classify.is_new_ip, _posets(n + 1)))
        risen = set()
        for p in filter(classify.is_modern, _posets(n)):
            q = validate(risefall.rise(p))
            if validate(risefall.fall(q)) != p:
                return f"n={n}: fall(rise(P)) != P for P = {sorted(p.relations)}"
            risen.add(q)
            sub = to_interval(p)
            if classify.nice_shape(to_interval(q)) != (sub.lower, sub.upper):
                return f"n={n}: rise of P lacks the shape grafted from to_interval(P)"
        if risen != news:
            return f"n={n}: rise image differs from the new posets of size {n+1}"
    return _definitions(max_size, "modern", classify.is_modern)


def _check_infinitely_modern(max_size: int) -> str:
    # every rise of [S, T] validates iff r_j(S) <= cap_j(T) for every j
    # (Universe.rise_caps), and [S, T] is infinitely modern iff dr(S) <= ir(T)
    for n in range(1, max_size + 1):
        u = universe(n)
        for bits in classify.family_bits(n):
            risen = reduce(and_, map(getitem, u.at_most, u.rise_caps[bits.upper]), bits.lowers)
            if risen != bits.infinitely_modern:
                return (f"n={n}: lowers of {tree_to_text(u.trees[bits.upper])} whose rises "
                        "all validate differ from those with dr <= ir")
    return _definitions(max_size, "infinitely_modern", classify.is_infinitely_modern)


def _check_triangle(max_size: int) -> str:
    for n in range(1, max_size + 1):
        try:
            tri = census.triangle_b(n)
        except AssertionError as exc:
            return str(exc)
        if tri.row_sum() != census.fuss_catalan(n):
            return f"n={n}: triangle row sum {tri.row_sum()}"
    return ""


def _infinitely_modern(n: int) -> Iterator[tuple[int, int, IntervalPoset]]:
    """(dr, ir, poset) of each infinitely modern poset of size n, dr read
    from the lower tree and ir from the upper one, as :func:`classify.stat`
    reads them."""
    u = universe(n)
    for lower, upper, p in _capped(n):
        if u.dr[lower] <= u.ir[upper]:
            yield u.dr[lower], u.ir[upper], p


def _check_insert_remove(max_size: int) -> str:
    for n in range(1, min(max_size, INSERT_REMOVE_CAP) + 1):
        classes: dict[tuple[int, int], set] = {}
        for dr, ir, p in _infinitely_modern(n + 1):
            classes.setdefault((dr, ir), set()).add(p)
        smaller = list(_infinitely_modern(n))
        for i in range(1, n + 2):
            for k in range(i, n + 2):
                domain = [p for dr, ir, p in smaller if dr <= i and k - 1 <= ir]
                image = [risefall.insert_fik(p, i, k) for p in domain]
                distinct = set(image)
                if distinct != classes.get((i, k), set()) or len(distinct) != len(domain):
                    return f"n={n}, (i,k)=({i},{k}): insertion is not a bijection"
                if any(map(ne, map(risefall.remove_rho, image), domain)):
                    return f"n={n}, (i,k)=({i},{k}): removal does not invert"
    return ""


def _check_roundtrips(max_size: int) -> str:
    # to_interval(Dec(S) | Inc(T)) rebuilds S from Dec(S) and T from Inc(T),
    # and from_interval reads both back from the walked trees, so every
    # enumerated poset round-trips iff every tree is rebuilt from its Dec
    # masks and from its Inc masks
    for n in range(1, max_size + 1):
        u = universe(n)
        for t, dec, inc in zip(u.trees, u.decs, u.incs):
            if _lower_tree(dec) != t or _upper_tree(inc) != t:
                return f"n={n}: interval round trip fails at {tree_to_text(t)}"
    for n in range(1, min(max_size, NCT_ROUND_TRIP_CAP) + 1):
        for t in enumerate_nct(n):
            if poset_to_nct(nct_to_poset(t)) != t:
                return f"n={n}: noncrossing-tree round trip fails"
    for n in range(1, min(max_size, PARTITION_ROUND_TRIP_CAP) + 1):
        u = universe(n)
        for t, r in zip(u.trees, u.brackets):
            pi = partition_of_tree(t)
            if tree_of_partition(pi) != t:
                return f"n={n}: partition round trip fails"
            keys = _block_keys(r)  # as census and the exceptional check read them
            if pi.blocks != tuple(sorted({tuple(v + 1 for v in range(n) if keys[v] == key)
                                          for key in keys})):
                return f"n={n}: blocks of {tree_to_text(t)} are not keyed by v + r_v"
        for pi in enumerate_ncp(n):
            if partition_of_tree(tree_of_partition(pi)) != pi:
                return f"n={n}: partition round trip fails (partition side)"
    return ""


def _check_linear_extensions(max_size: int) -> str:
    for n in range(1, min(max_size, LINEAR_EXTENSIONS_CAP) + 1):
        for p in _posets(n):
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

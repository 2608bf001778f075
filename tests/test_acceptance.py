"""Acceptance suite: the nine headline checks, one line of output each."""

import itertools
import time

from oracles import tree_from_text
from tamari import census, classify, risefall
from tamari.noncrossing import (
    NoncrossingTree,
    edge_labels,
    enumerate_ncp,
    enumerate_nct,
    make_partition,
    ncp_interval_to_ip,
    ncp_leq,
    nct_to_poset,
    partition_of_tree,
    poset_to_nct,
    tree_of_partition,
)
from tamari.posets import (
    enumerate_interval_posets,
    from_interval,
    interval_members,
    linear_extensions,
    make_poset,
    to_interval,
    tree_poset,
    validate,
)
from tamari.trees import (
    BinaryTree,
    enumerate_trees,
    tamari_leq,
)

# Golden count sequences, indexed from size 1: the Tamari intervals
# (OEIS A000260), the exceptional and the infinitely modern intervals
# (A001764, the ternary trees), the new intervals (the closed formula needs
# n >= 2; [Y, Y] is new) and the modern intervals.
INTERVALS = [1, 3, 13, 68, 399, 2530]
TERNARY = [1, 3, 12, 55, 273]
NEW = [1, 1, 3, 12, 56]
MODERN = [1, 3, 12, 56]


def report(number, ok, label):
    verdict = "pass" if ok else "FAIL"
    print(f"criterion {number}: {verdict} ({label})")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_interval_counts():
    start = time.monotonic()
    counts = [len(enumerate_interval_posets(n)) for n in range(1, 7)]
    elapsed = time.monotonic() - start
    formulas = [census.formula_intervals(n) for n in range(1, 7)]
    report(
        1,
        counts == INTERVALS == formulas and elapsed <= 60,
        f"interval counts n=1..6 in {elapsed:.1f}s",
    )


def test_criterion_2_exceptional_counts_and_sets():
    ok = True
    for n in range(1, 6):
        exceptional = {
            p for p in enumerate_interval_posets(n) if classify.is_exceptional(p)
        }
        ok = ok and len(exceptional) == census.fuss_catalan(n) == TERNARY[n - 1]
        ok = ok and {nct_to_poset(t) for t in enumerate_nct(n)} == exceptional
        ncps = enumerate_ncp(n)
        ncp_image = {
            ncp_interval_to_ip(a, b)
            for a, b in itertools.product(ncps, repeat=2)
            if ncp_leq(a, b)
        }
        ok = ok and ncp_image == exceptional
    report(2, ok, "exceptional = noncrossing trees = NC-partition intervals, n<=5")


def test_criterion_3_new_intervals():
    ok = True
    for n in range(1, 6):
        count = 0
        for p in enumerate_interval_posets(n):
            by_tree = classify.is_new_interval(to_interval(p))
            ok = ok and by_tree == classify.is_new_ip(p)
            count += by_tree
        ok = ok and count == NEW[n - 1]
        ok = ok and (n == 1 or count == census.formula_new(n))
    ok = ok and census.formula_new(2) == 1 and census.formula_new(5) == 56
    report(3, ok, "new-interval oracles and counts, n=1..5")


def test_criterion_4_modern_new_shift():
    ok = True
    for n in range(1, 5):
        moderns = [
            p for p in enumerate_interval_posets(n) if classify.is_modern(p)
        ]
        news = {
            p for p in enumerate_interval_posets(n + 1) if classify.is_new_ip(p)
        }
        risen = set()
        for p in moderns:
            q = validate(risefall.rise(p))
            ok = ok and validate(risefall.fall(q)) == p
            risen.add(q)
            shape = classify.nice_shape(to_interval(q))
            sub = to_interval(p)
            ok = ok and shape == (sub.lower, sub.upper)
        ok = ok and risen == news and len(moderns) == len(news) == MODERN[n - 1]
    report(4, ok, "modern size n <-> new size n+1 via rise/fall, n=1..4")


def test_criterion_5_infinitely_modern():
    ok = True
    for n in range(1, 7):
        count = 0
        for p in enumerate_interval_posets(n):
            by_stat = classify.is_infinitely_modern(p)
            ok = ok and by_stat == risefall.iterated_rise_valid(p)
            count += by_stat
        if n <= 5:
            ok = ok and count == TERNARY[n - 1]
    report(5, ok, "dr <= ir matches the iterated-rise oracle, n<=6")


def test_criterion_6_triangle_and_insertion():
    ok = True
    for n in range(1, 7):
        tri = census.triangle_b(n)  # asserts recurrence == statistic
        ok = ok and tri.row_sum() == census.fuss_catalan(n)
    for n in range(1, 5):
        classes = {}
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
                ok = ok and image == set(classes.get((i, k), []))
                ok = ok and len(image) == len(domain)
                ok = ok and all(
                    risefall.remove_rho(risefall.insert_fik(p, i, k)) == p
                    for p in domain
                )
    report(6, ok, "triangle entrywise n<=6; insertion bijection up to size 5")


def test_criterion_7_bijection_round_trips():
    ok = True
    for n in range(1, 5):
        for p in enumerate_interval_posets(n):
            ok = ok and from_interval(to_interval(p)) == p
        for t in enumerate_nct(n):
            ok = ok and poset_to_nct(nct_to_poset(t)) == t
    for n in range(1, 6):
        for t in enumerate_trees(n):
            ok = ok and tree_of_partition(partition_of_tree(t)) == t
        for pi in enumerate_ncp(n):
            ok = ok and partition_of_tree(tree_of_partition(pi)) == pi
    pairs = 0
    for a, b in itertools.product(enumerate_ncp(4), repeat=2):
        pairs += 1
        if ncp_leq(a, b):
            ok = ok and tamari_leq(tree_of_partition(a), tree_of_partition(b))
    ok = ok and pairs == 196
    report(7, ok, "round trips and refinement monotonicity over 14^2 pairs")


def test_criterion_8_figure_regressions():
    # size-8 tree with in-order labels: root 5, leaves as drawn
    fig_tree = BinaryTree(
        BinaryTree(None, BinaryTree(BinaryTree(), BinaryTree())),
        BinaryTree(BinaryTree(None, BinaryTree()), None),
    )
    ok = tree_poset(fig_tree).relations == frozenset({
        (2, 3), (1, 5), (6, 8), (3, 1), (4, 3), (7, 6), (8, 5),
        (2, 1), (2, 5), (3, 5), (4, 1), (4, 5), (6, 5), (7, 5), (7, 8),
    })

    # 12-gon noncrossing tree: canonical labels and Hasse covers
    twelve = NoncrossingTree(11, frozenset({
        (0, 10), (1, 2), (2, 3), (2, 10), (3, 4), (3, 5), (3, 6),
        (6, 7), (6, 9), (8, 9), (10, 11),
    }))
    ok = ok and edge_labels(twelve) == {
        (0, 10): 1, (1, 2): 2, (2, 3): 3, (3, 4): 4, (3, 5): 5,
        (3, 6): 6, (6, 7): 7, (6, 9): 8, (8, 9): 9, (2, 10): 10,
        (10, 11): 11,
    }
    ok = ok and classify.hasse(nct_to_poset(twelve)) == frozenset({
        (2, 1), (10, 1), (3, 10), (6, 10), (8, 10),
        (5, 6), (4, 5), (7, 8), (9, 8),
    })

    # partition {1,2,7} {3,4} {5,6} {8} and its tree
    pi = make_partition([[1, 2, 7], [3, 4], [5, 6], [8]])
    ok = ok and tree_of_partition(pi) == tree_from_text(
        "((L (L (((L (L L)) (L L)) L))) L)"
    )

    # the rise of {2 <| 1, 2 <| 3}
    risen = validate(risefall.rise(make_poset(3, [(2, 1), (2, 3)])))
    ok = ok and risen == make_poset(4, [(2, 1), (3, 4)])
    report(8, ok, "figure fixtures reproduced bit-exactly")


def test_criterion_9_linear_extension_partition():
    ok = True
    for n in range(1, 5):
        for p in enumerate_interval_posets(n):
            whole = sorted(linear_extensions(p.n, p.relations))
            parts = []
            for t in interval_members(p):
                q = tree_poset(t)
                parts.extend(linear_extensions(q.n, q.relations))
            ok = ok and len(parts) == len(set(parts))
            ok = ok and sorted(parts) == whole
    report(9, ok, "linear extensions partition over member trees, n<=4")

import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import ENUMERATION_COLUMNS, ncp_interval_scan, triangle_pair_scan
from tamari import noncrossing, posets
from tamari.census import (
    catalan,
    census,
    formula_intervals,
    formula_new,
    fuss_catalan,
    triangle_b,
    triangle_by_statistic,
    triangle_recurrence,
)
from tamari.posets import universe


class TestFormulas:
    @pytest.mark.parametrize(
        "n,value", [(1, 1), (2, 3), (3, 13), (4, 68), (5, 399), (6, 2530)]
    )
    def test_intervals(self, n, value):
        assert formula_intervals(n) == value

    @pytest.mark.parametrize("n,value", [(2, 1), (3, 3), (4, 12), (5, 56), (6, 288)])
    def test_new(self, n, value):
        assert formula_new(n) == value

    def test_new_undefined_at_one(self):
        # the expression evaluates to 3/4 there, yet the count is 1
        with pytest.raises(ValueError):
            formula_new(1)

    @pytest.mark.parametrize(
        "n,value", [(1, 1), (2, 3), (3, 12), (4, 55), (5, 273), (6, 1428)]
    )
    def test_fuss_catalan(self, n, value):
        assert fuss_catalan(n) == value

    def test_catalan(self):
        assert [catalan(n) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]


class TestCensus:
    def test_size_two(self):
        row = census(2)
        assert row.counts() == {
            "intervals": 3,
            "exceptional": 3,
            "modern": 3,
            "new": 1,
            "infinitely_modern": 3,
            "trees": 2,
            "noncrossing_trees": 3,
            "noncrossing_partitions": 2,
            "ncp_intervals": 3,
        }

    def test_size_three(self):
        row = census(3)
        assert row.intervals == 13
        assert row.exceptional == 12
        assert row.infinitely_modern == 12
        assert row.new == 3

    def test_size_five(self):
        row = census(5)
        assert row.intervals == 399
        assert row.exceptional == 273
        assert row.infinitely_modern == 273
        assert row.new == 56
        assert row.modern == 288

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            census(7)
        census(3, bound=3)
        with pytest.raises(ValueError):
            census(4, bound=3)

    def test_formula_checks_cover_every_family_from_two_up(self):
        row = census(2)
        assert set(row.formula_checks()) == set(row.counts())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_kreweras_count_equals_the_pair_scan(self, n):
        assert census(n, bound=7).ncp_intervals == ncp_interval_scan(n)

    def test_reads_only_tree_columns_and_builds_no_noncrossing_tree(self, monkeypatch):
        built, paired = [], []

        def counting(*args):
            built.append(None)

        def counting_pairs(*args):
            paired.append(None)
            return iter(())

        monkeypatch.setattr(noncrossing, "_trusted_nct", counting)
        monkeypatch.setattr(noncrossing.NoncrossingTree, "__post_init__", counting)
        monkeypatch.setattr(posets, "_interval_poset", counting)
        monkeypatch.setattr(posets, "_interval_pairs", counting_pairs)
        universe.cache_clear()
        census(6)
        assert not set(vars(universe(6))) & ENUMERATION_COLUMNS
        assert not built and not paired

    def test_size_one_skips_the_new_formula(self):
        row = census(1)
        assert row.new == 1
        assert "new" not in row.formula_checks()


class TestTriangle:
    def test_seed(self):
        assert triangle_recurrence(1).table == {(1 - 1, 1 - 1): 1}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_zero_outside_strict_region(self, n):
        table = triangle_recurrence(n).table
        assert all(k + l < n for (k, l) in table)
        assert all(v > 0 for v in table.values())

    def test_row_three(self):
        assert triangle_recurrence(3).table == {
            (0, 0): 1, (1, 0): 2, (0, 1): 2,
            (2, 0): 2, (0, 2): 2, (1, 1): 3,
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_row_sums_are_fuss_catalan(self, n):
        assert triangle_recurrence(n).row_sum() == fuss_catalan(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_recurrence_matches_statistic(self, n):
        assert triangle_b(n).table == triangle_by_statistic(n).table

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_bitsets_equal_the_pair_scan(self, n):
        assert triangle_by_statistic(n).table == triangle_pair_scan(n).table

    def test_wrong_inner_bound_fails_at_three(self):
        # summing j up to k instead of l does not reproduce the statistic
        prev = {(0, 0): 1}
        for m in (2, 3):
            table = {}
            for k in range(m):
                for l in range(m - k):
                    table[(k, l)] = sum(
                        prev.get((i, j), 0)
                        for i in range(k + 1)
                        for j in range(k + 1)
                    )
            prev = {kl: v for kl, v in table.items() if v}
        assert prev != triangle_by_statistic(3).table


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_optimized(setup: str, argv: list[str]) -> subprocess.CompletedProcess:
    """``tamari`` under ``python -O`` (asserts stripped), after ``setup``."""
    code = f"import sys\n{setup}\nfrom tamari.cli import main\nsys.exit(main({argv!r}))"
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )


class TestFailuresSurviveOptimization:
    """A count that disagrees with its formula fails the command even when
    ``-O`` strips ``assert`` statements."""

    def test_census_mismatch_exits_one(self):
        setup = (
            "from tamari import census\n"
            "exact = census.fuss_catalan\n"
            "census.fuss_catalan = lambda n: exact(n) + (n == 3)"
        )
        proc = run_optimized(setup, ["census", "--max-size", "3"])
        assert proc.returncode == 1
        assert "census mismatch at n=3" in proc.stderr

    def test_triangle_mismatch_fails_verify(self):
        setup = (
            "from tamari import census\n"
            "exact = census.triangle_recurrence\n"
            "def moved(n):\n"
            "    tri = exact(n)\n"
            "    if n == 3:\n"
            "        tri.table[(0, 0)] -= 1\n"
            "        tri.table[(1, 1)] += 1\n"
            "    return tri\n"
            "census.triangle_recurrence = moved"
        )
        proc = run_optimized(setup, ["verify", "--max-size", "3"])
        assert proc.returncode == 1
        assert "FAIL counting triangle: triangle mismatch at n=3" in proc.stdout

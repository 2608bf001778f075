"""The in-order, trusted enumeration against the code it replaced.

``enumerate_interval_posets`` builds each poset as Dec(lower) | Inc(upper)
without closing or checking it, in sort order without a sort, and the
``enumerate`` command joins each JSON line from per-tree fragments.  The
oracle below is the earlier enumeration: every comparable tree pair,
validated, then sorted on ``IntervalPoset.sort_key``.  Every line the
command streams is checked against ``poset_to_json`` of its poset.
"""

import hashlib
import io

import pytest

from tamari import posets
from tamari.cli import POSET_FILTERS, main
from tamari.posets import (
    IntervalPoset,
    RangeRelation,
    enumerate_interval_posets,
    poset_to_json,
    stream_interval_posets,
    validate,
)
from tamari.trees import dec_masks, enumerate_trees, inc_masks, relation_masks


def validated_and_sorted(n):
    """Every comparable tree pair as a validated poset, sorted by key."""
    ups = [relation_masks(t) for t in enumerate_trees(n)]
    decs = [dec_masks(up) for up in ups]
    incs = [inc_masks(up) for up in ups]
    out = []
    for lower in decs:
        for upper_dec, upper in zip(decs, incs):
            if all(a & ~b == 0 for a, b in zip(lower, upper_dec)):
                rel = posets._build(RangeRelation, tuple(a | b for a, b in zip(lower, upper)))
                out.append(validate(rel))
    out.sort(key=IntervalPoset.sort_key)
    return out


def cli_lines(argv):
    out = io.StringIO()
    assert main(argv, out) == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_order_and_set_equal_the_validated_sort(n):
    assert list(posets.universe(n).posets) == validated_and_sorted(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)])
def test_every_poset_is_already_valid(n):
    for p in enumerate_interval_posets(n):
        assert type(p) is IntervalPoset
        assert validate(p) == p


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_stream_matches_the_enumeration(n):
    streamed = list(stream_interval_posets(n))
    assert [p for p, _ in streamed] == enumerate_interval_posets(n)
    assert all(line == poset_to_json(p) for p, line in streamed)


def test_stream_rejects_size_zero():
    with pytest.raises(ValueError):
        stream_interval_posets(0)


@pytest.mark.parametrize("family", sorted(POSET_FILTERS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cli_lines_are_poset_to_json(n, family):
    keep = POSET_FILTERS[family]
    want = [poset_to_json(p) for p in enumerate_interval_posets(n) if keep(p)]
    lines = cli_lines(["enumerate", "--size", str(n), "--family", family])
    assert lines == want + [f'{{"count": {len(want)}}}']


def test_cli_lines_at_seven():
    want = [poset_to_json(p) for p in enumerate_interval_posets(7)]
    lines = cli_lines(["--bound", "7", "enumerate", "--size", "7"])
    assert lines == want + ['{"count": 16965}']


def test_output_hash_at_seven():
    out = io.StringIO()
    assert main(["--bound", "7", "enumerate", "--size", "7"], out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "a45730edc225f401f7876f3f36d4d171e4eefb44c4fd79309e31ee17f626bbd7"
    )


def test_classify_output_hash_at_seven():
    out = io.StringIO()
    assert main(["--bound", "7", "classify", "--size", "7"], out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "7c90d8a7dc3010984c1d689f1ccedbc224c8c95a9d1130185275c177086cc7a9"
    )


def test_first_record_is_written_before_the_second_poset_is_built(monkeypatch):
    built = []
    trusted = posets._interval_poset

    def counting(*args):
        built.append(None)
        return trusted(*args)

    class FirstLine:
        seen = None

        def write(self, text):
            if self.seen is None and "\n" in text:
                self.seen = len(built)

        def flush(self):
            pass

    monkeypatch.setattr(posets, "_interval_poset", counting)
    sink = FirstLine()
    assert main(["enumerate", "--size", "6"], sink) == 0
    assert sink.seen == 1
    assert len(built) == 2530

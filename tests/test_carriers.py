"""The ``__slots__`` carriers and the named-tuple records against their
``@dataclass`` twins in ``oracles``.

Each object is built twice from the same fields, once by the package and
once by its twin.  Both must show the same repr, agree on ``==`` and
``!=`` against a rebuilt copy and against a neighbour (read both ways),
and hash alike; the package's object must survive a pickle round trip and
``copy.copy`` with its class, fields and hash, and refuse assignment and
deletion of every field with :class:`AttributeError`.
"""

from __future__ import annotations

import copy
import pickle

import pytest

import oracles
from tamari import census, classify, verify
from tamari.census import CensusRow, TriangleB
from tamari.classify import StatPair
from tamari.noncrossing import (
    NoncrossingPartition,
    NoncrossingTree,
    PlantOutcome,
    enumerate_ncp,
    enumerate_nct,
    nct_compose,
)
from tamari.posets import IntervalPoset, RangeRelation
from tamari.trees import BinaryTree, TamariInterval, enumerate_trees
from tamari.verify import CheckResult

SIZES = range(1, 7)


def _trees():
    return [(t.left, t.right) for n in SIZES for t in enumerate_trees(n)]


def _intervals():
    out = []
    for n in SIZES:
        trees = enumerate_trees(n)
        out += [(trees[lower], trees[upper]) for lower, upper, _ in verify._capped(n)]
    return out


def _posets():
    return [(p.n, p.relations) for n in SIZES for _, _, p in verify._capped(n)]


def _plants():
    trees = [t for n in (1, 2) for t in enumerate_nct(n)]
    outcomes = [nct_compose(f, i, g) for f in trees for g in trees for i in range(1, f.n + 1)]
    plants = [tuple(out) for out in outcomes if isinstance(out, PlantOutcome)]
    assert plants
    return plants


# class, its twin, and the constructor arguments of every case
CASES = {
    "BinaryTree": (BinaryTree, oracles.TwinBinaryTree, _trees),
    "TamariInterval": (TamariInterval, oracles.TwinTamariInterval, _intervals),
    "RangeRelation": (RangeRelation, oracles.TwinRangeRelation, _posets),
    "IntervalPoset": (IntervalPoset, oracles.TwinIntervalPoset, _posets),
    "NoncrossingTree": (NoncrossingTree, oracles.TwinNoncrossingTree,
                        lambda: [(t.n, t.edges) for n in range(1, 6) for t in enumerate_nct(n)]),
    "NoncrossingPartition": (NoncrossingPartition, oracles.TwinNoncrossingPartition,
                             lambda: [(pi.blocks,) for n in SIZES for pi in enumerate_ncp(n)]),
    "PlantOutcome": (PlantOutcome, oracles.TwinPlantOutcome, _plants),
    "CensusRow": (CensusRow, oracles.TwinCensusRow,
                  lambda: [tuple(census.census(n)) for n in SIZES]),
    "TriangleB": (TriangleB, oracles.TwinTriangleB,
                  lambda: [(n, census.triangle_b(n).table) for n in SIZES]),
    "StatPair": (StatPair, oracles.TwinStatPair,
                 lambda: sorted({tuple(classify.stat(p)) for n in SIZES
                                 for _, _, p in verify._capped(n)})),
    "CheckResult": (CheckResult, oracles.TwinCheckResult,
                    lambda: [tuple(r) for r in verify.run_checks(6)]),
}

# the stored fields of each carrier; a record's are its ``_fields``
FIELDS = {
    "BinaryTree": ("left", "right"),
    "TamariInterval": ("lower", "upper", "masks"),
    "RangeRelation": ("n", "up"),
    "IntervalPoset": ("n", "up"),
    "NoncrossingTree": ("n", "edges"),
    "NoncrossingPartition": ("blocks", "n"),
}


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as exc:  # a TriangleB holds a dict
        return type(exc)


@pytest.mark.parametrize("name", CASES)
def test_each_object_behaves_as_its_dataclass_twin(name):
    cls, twin_cls, cases = CASES[name]
    args = cases()
    news = [cls(*a) for a in args]
    twins = [twin_cls(*a) for a in args]
    copies = [cls(*a) for a in args]
    twin_copies = [twin_cls(*a) for a in args]
    for k, (new, twin) in enumerate(zip(news, twins)):
        assert repr(new) == repr(twin)
        assert _hash(new) == _hash(twin)
        j = (k + 1) % len(news)
        for other, twin_other in ((copies[k], twin_copies[k]), (news[j], twins[j])):
            assert (new == other) is (twin == twin_other)
            assert (other == new) is (twin_other == twin)
            assert (new != other) is (twin != twin_other)
            assert (other != new) is (twin_other != twin)


@pytest.mark.parametrize("name", CASES)
def test_copies_keep_class_fields_and_hash(name):
    cls, _, cases = CASES[name]
    fields = FIELDS.get(name) or cls._fields
    for obj in [cls(*a) for a in cases()]:
        for back in (pickle.loads(pickle.dumps(obj)), copy.copy(obj)):
            assert type(back) is cls and back == obj
            assert [getattr(back, f) for f in fields] == [getattr(obj, f) for f in fields]
            assert _hash(back) == _hash(obj)


@pytest.mark.parametrize("name", CASES)
def test_fields_can_be_neither_assigned_nor_deleted(name):
    cls, twin_cls, cases = CASES[name]
    a = cases()[0]
    for obj in (cls(*a), twin_cls(*a)):
        for field in FIELDS.get(name) or cls._fields:
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            with pytest.raises(AttributeError):
                delattr(obj, field)
    # the slotted dataclass twins raised TypeError here
    with pytest.raises(AttributeError):
        cls(*a).extra = None


def test_fields_outside_equality_match_the_twins():
    for pi in enumerate_ncp(6):
        assert pi.n == oracles.TwinNoncrossingPartition(pi.blocks).n == 6
        assert pickle.loads(pickle.dumps(pi)).n == copy.copy(pi).n == 6
    for lower, upper in _intervals():
        new, twin = TamariInterval(lower, upper), oracles.TwinTamariInterval(lower, upper)
        assert new.masks == twin.masks
        assert pickle.loads(pickle.dumps(new)).masks == copy.copy(new).masks == twin.masks


def test_a_poset_never_equals_a_relation_on_the_same_masks():
    for n in SIZES:
        for _, _, p in verify._capped(n):
            rel = p.as_relation()
            assert rel.up == p.up
            assert p != rel and rel != p
            assert not (p == rel or rel == p)

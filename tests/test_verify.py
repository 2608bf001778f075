"""The checks of ``tamari verify`` that read the per-size universe: each
reports a failure when the fact it reads from the trees is broken, and the
output of ``verify`` and ``census`` at size 6 keeps its bytes."""

import hashlib
import io

import pytest

from oracles import ENUMERATION_COLUMNS, pairwise_nct_to_poset
from tamari import census, classify, posets, risefall, verify
from tamari.cli import main
from tamari.noncrossing import enumerate_nct
from tamari.trees import dec_masks, inc_masks


def output_hash(argv):
    out = io.StringIO()
    assert main(argv, out) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_round_trip_check_fails_on_the_wrong_tree_rebuild(monkeypatch):
    assert verify._check_roundtrips(4) == ""
    monkeypatch.setattr(verify, "_lower_tree", posets._upper_tree)
    assert verify._check_roundtrips(4).startswith("n=2: interval round trip fails at ")


def test_round_trip_check_fails_on_blocks_not_keyed_by_v_plus_r_v(monkeypatch):
    # the key of the next label: vertex v's right child, when it has one
    monkeypatch.setattr(verify, "_block_keys", lambda r: census._block_keys(r)[1:] + b"\0")
    assert verify._check_roundtrips(4) == (
        "n=2: blocks of (L (L L)) are not keyed by v + r_v"
    )


def test_infinitely_modern_check_fails_on_a_wrong_rise_test(monkeypatch):
    # a rise cap raised by 1: vertex 2's, wherever it is below its top n - 2
    assert verify._check_infinitely_modern(4) == ""
    rise_caps = posets.Universe.rise_caps.func

    def raised(u):
        return tuple(bytes([c[0], min(c[1] + 1, u.n - 2), *c[2:]]) if u.n > 1 else c
                     for c in rise_caps(u))

    monkeypatch.setattr(posets.Universe, "rise_caps", property(raised))
    assert verify._check_infinitely_modern(4) == (
        "n=3: lowers of ((L L) (L L)) whose rises all validate differ from those "
        "with dr <= ir"
    )


def test_new_check_names_the_interval_it_fails_on(monkeypatch):
    assert verify._check_new(4) == ""
    family_bits = classify.family_bits
    monkeypatch.setattr(
        classify, "family_bits", lambda n: (b._replace(new=0) for b in family_bits(n))
    )
    assert verify._check_new(4) == "n=1: new bits and is_new_ip disagree on [(L L), (L L)]"


@pytest.mark.parametrize("delta", [1, -1])
def test_modern_shift_check_fails_on_a_shift_off_by_one(monkeypatch, delta):
    # C(n) - C(n - 1) + delta at n = 2, the first size that shifts
    assert verify._check_modern_shift(4) == ""
    monkeypatch.setattr(verify, "catalan", lambda n: census.catalan(n) + delta * (n == 2))
    assert verify._check_modern_shift(4) == (
        f"n=2: new lowers of (L (L L)) are not modern lowers at size 1 shifted by {1 + delta}"
    )


def test_exceptional_check_fails_on_upper_block_keys_one_label_off(monkeypatch):
    # the upper tree's vertex v takes the block key of label v + 1; the
    # lower trees keep theirs.  (v + r_v + 1 at every vertex would group
    # the labels as v + r_v does.)
    assert verify._check_exceptional(4) == ""
    pairs = verify._pairs
    monkeypatch.setattr(
        verify, "_pairs", lambda keys, same: pairs(keys if same else keys[1:] + keys[-1:], same)
    )
    assert verify._check_exceptional(4) == (
        "n=2: exceptional lowers of ((L L) L) differ from the partitions refining its own"
    )


@pytest.mark.parametrize("n", [
    1, 2, 3, 4, 5, 6,
    pytest.param(7, marks=pytest.mark.slow),
    pytest.param(8, marks=pytest.mark.slow),
])
def test_noncrossing_tree_masks_equal_the_closed_poset(n):
    # the chord-nesting masks that verify reads against the closed pairwise
    # nesting and the index search on the universe's columns they replaced
    u = posets.universe(n)
    lower_of = {dec: s for s, dec in enumerate(u.decs)}
    upper_of = {inc: s for s, inc in enumerate(u.incs)}
    for t in enumerate_nct(n):
        p = pairwise_nct_to_poset(t)
        up = verify._chord_masks(t)
        dec, inc = dec_masks(up), inc_masks(up)
        assert (dec, inc) == (dec_masks(p.up), inc_masks(p.up))
        assert (lower_of[dec], upper_of[inc]) == (
            u.decs.index(dec_masks(p.up)), u.incs.index(inc_masks(p.up))
        )


def test_exceptional_check_names_a_noncrossing_tree_with_no_tree_pair(monkeypatch):
    monkeypatch.setattr(verify, "_chord_masks", lambda t: [-1] * t.n)
    assert verify._check_exceptional(4) == (
        'n=1: noncrossing tree {"n": 1, "edges": [[0, 1]]} maps to no tree pair'
    )


def test_insert_remove_check_fails_on_an_insertion_without_its_relation(monkeypatch):
    assert verify._check_insert_remove(4) == ""
    insert_fik = risefall.insert_fik

    def dropped(p, i, k):
        # the inserted poset less the added relation k <| k + 1
        up = list(insert_fik(p, i, k).up)
        if k <= p.n:
            up[k - 1] &= ~(1 << k)
        return posets._build(posets.IntervalPoset, tuple(up))

    monkeypatch.setattr(risefall, "insert_fik", dropped)
    assert verify._check_insert_remove(4) == "n=1, (i,k)=(1,1): insertion is not a bijection"


def test_insert_remove_check_fails_on_a_wrong_removal(monkeypatch):
    monkeypatch.setattr(risefall, "remove_rho", lambda q: q)
    assert verify._check_insert_remove(4) == "n=1, (i,k)=(1,1): removal does not invert"


def test_linear_extension_check_fails_when_a_member_is_dropped(monkeypatch):
    assert verify._check_linear_extensions(4) == ""
    members = posets.interval_members
    monkeypatch.setattr(verify, "interval_members", lambda p: members(p)[1:])
    assert verify._check_linear_extensions(4) == (
        "n=1: linear extensions do not partition over members"
    )


def test_first_record_comes_before_the_posets_and_the_noncrossing_map(monkeypatch):
    mapped = []
    monkeypatch.setattr(verify, "_chord_masks", mapped.append)
    posets.universe.cache_clear()
    verify._capped.cache_clear()
    checks = verify.run_checks(6)
    assert next(checks).name == "interval counts"
    assert verify._capped.cache_info().currsize == 0 and not mapped
    assert not any(set(vars(posets.universe(n))) & ENUMERATION_COLUMNS for n in range(1, 7))


def test_definitions_cover_every_family(monkeypatch):
    checked = []

    def definitions(max_size, family, classifier):
        checked.append((family, classifier))
        return ""

    monkeypatch.setattr(verify, "_definitions", definitions)
    for _, check in verify.CHECKS:
        check(2)
    assert checked == [
        ("exceptional", classify.is_exceptional),
        ("new", classify.is_new_ip),
        ("modern", classify.is_modern),
        ("infinitely_modern", classify.is_infinitely_modern),
    ]


def test_caps_only_go_up():
    floors = {
        "DEFINITIONS_CAP": 5,
        "EXCEPTIONAL_CAP": 5,
        "MODERN_SHIFT_CAP": 4,
        "INSERT_REMOVE_CAP": 4,
        "NCT_ROUND_TRIP_CAP": 4,
        "PARTITION_ROUND_TRIP_CAP": 5,
        "LINEAR_EXTENSIONS_CAP": 4,
    }
    assert all(getattr(verify, name) >= floor for name, floor in floors.items())


def test_verify_output_hash_at_six():
    assert output_hash(["verify", "--max-size", "6"]) == (
        "6d0d8701ea1e4abd65e9077430e1a182115b5ba98e170e3c4df4ae031b3b6d14"
    )


def test_census_output_hash_at_six():
    assert output_hash(["census", "--max-size", "6"]) == (
        "94efb8af4802161f2a9dc7461548d22784ea56eaab8e683e472a987269c26189"
    )

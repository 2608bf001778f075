"""The checks of ``tamari verify`` that read the per-size universe: each
reports a failure when the fact it reads from the trees is broken, and the
output of ``verify`` and ``census`` at size 6 keeps its bytes."""

import hashlib
import io

from tamari import classify, posets, risefall, verify
from tamari.cli import main


def output_hash(argv):
    out = io.StringIO()
    assert main(argv, out) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_round_trip_check_fails_on_the_wrong_tree_rebuild(monkeypatch):
    assert verify._check_roundtrips(4) == ""
    monkeypatch.setattr(verify, "_lower_tree", posets._upper_tree)
    assert verify._check_roundtrips(4).startswith("n=2: interval round trip fails at ")


def test_infinitely_modern_check_fails_on_a_wrong_rise_test(monkeypatch):
    assert verify._check_infinitely_modern(4) == ""
    monkeypatch.setattr(risefall, "all_rises_valid", lambda n, lower, upper: True)
    assert verify._check_infinitely_modern(4) == (
        "n=3: stat and iterated-rise oracles disagree"
    )


def test_new_check_names_the_interval_it_fails_on(monkeypatch):
    assert verify._check_new(4) == ""
    monkeypatch.setattr(classify, "is_new_pair", lambda n, lower, upper: False)
    assert verify._check_new(4) == "n=2: oracles disagree on [((L L) L), (L (L L))]"


def test_caps_only_go_up():
    floors = {
        "EXCEPTIONAL_CAP": 5,
        "NEW_CAP": 5,
        "MODERN_SHIFT_CAP": 4,
        "INSERT_REMOVE_CAP": 4,
        "NCT_ROUND_TRIP_CAP": 4,
        "PARTITION_ROUND_TRIP_CAP": 5,
        "REFINEMENT_SIZE": 4,
        "LINEAR_EXTENSIONS_CAP": 4,
        "INTERVALS_GOLDEN_CAP": 6,
        "INFINITELY_MODERN_GOLDEN_CAP": 5,
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

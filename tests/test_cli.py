import contextlib
import io
import json
import os
import random
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from oracles import grafted_tree_of_partition, poset_to_obj
import tamari
from tamari import census, noncrossing, posets
from tamari.cli import BROKEN_PIPE, main
from tamari.noncrossing import enumerate_ncp, enumerate_nct, ncp_to_json, nct_to_json
from tamari.posets import (
    MAX_OBJECT_SIZE,
    enumerate_interval_posets,
    from_interval,
    poset_from_json,
    poset_to_json,
    to_interval,
    tree_poset,
)
from tamari.trees import TamariInterval, tree_to_obj


def run(argv):
    out = io.StringIO()
    code = main(argv, out)
    return code, out.getvalue()


def records(text):
    return [json.loads(line) for line in text.splitlines()]


class TestEnumerate:
    @pytest.mark.parametrize(
        "size,family,count",
        [(2, "all", 3), (3, "exceptional", 12), (1, "all", 1),
         (3, "modern", 12), (3, "new", 3), (3, "infmodern", 12),
         (3, "nct", 12), (3, "ncp", 5)],
    )
    def test_counts(self, size, family, count):
        code, text = run(["enumerate", "--size", str(size), "--family", family])
        assert code == 0
        recs = records(text)
        assert recs[-1] == {"count": count}
        assert len(recs) == count + 1

    def test_records_parse_back(self):
        code, text = run(["enumerate", "--size", "3"])
        posets = [poset_from_json(line) for line in text.splitlines()[:-1]]
        assert posets == enumerate_interval_posets(3)

    def test_bound_enforced(self):
        code, _ = run(["enumerate", "--size", "7"])
        assert code == 2
        code, text = run(["--bound", "7", "enumerate", "--size", "7",
                          "--family", "ncp"])
        assert code == 0
        assert records(text)[-1] == {"count": 429}

    def test_env_bound(self, monkeypatch):
        monkeypatch.setenv("TAMARI_MAX_SIZE", "2")
        code, _ = run(["enumerate", "--size", "3"])
        assert code == 2

    def test_bad_family(self):
        code, _ = run(["enumerate", "--size", "2", "--family", "nope"])
        assert code == 2


class TestClassify:
    def test_single_poset(self):
        code, text = run(
            ["classify", "--poset", '{"size":3,"inc":[[2,3]],"dec":[[2,1]]}']
        )
        assert code == 0
        (rec,) = records(text)
        assert rec["exceptional"] is False
        assert rec["modern"] is True
        assert rec["new"] is False
        assert rec["infinitely_modern"] is True
        assert (rec["ir"], rec["dr"]) == (2, 2)

    def test_whole_size(self):
        code, text = run(["classify", "--size", "2"])
        assert code == 0
        recs = records(text)
        assert len(recs) == 3
        assert sum(r["new"] for r in recs) == 1

    def test_needs_an_argument(self):
        code, _ = run(["classify"])
        assert code == 2

    def test_size_and_poset_together_are_refused(self):
        code, text = run(["classify", "--size", "2", "--poset", '{"size":1}'])
        assert code == 2 and text == ""


class TestConvert:
    def test_figure_poset_to_interval(self):
        code, text = run([
            "convert", "--from", "poset", "--to", "interval",
            "--input", '{"size":3,"inc":[[2,3]],"dec":[[2,1]]}',
        ])
        assert code == 0
        assert json.loads(text) == {
            "lower": [[None, [None, None]], None],
            "upper": [None, [[None, None], None]],
        }

    def test_empty_poset_to_combs(self):
        code, text = run([
            "convert", "--from", "poset", "--to", "interval",
            "--input", '{"size":3,"inc":[],"dec":[]}',
        ])
        assert code == 0
        obj = json.loads(text)
        assert obj["lower"] == [[[None, None], None], None]
        assert obj["upper"] == [None, [None, [None, None]]]

    def test_random_round_trips_at_six(self):
        rng = random.Random(20240817)
        posets = enumerate_interval_posets(6)
        for p in rng.sample(posets, 100):
            code, text = run([
                "convert", "--from", "poset", "--to", "interval",
                "--input", poset_to_json(p),
            ])
            assert code == 0
            code, back = run([
                "convert", "--from", "interval", "--to", "poset",
                "--input", text,
            ])
            assert code == 0
            assert poset_from_json(back) == p

    def test_nct_round_trip(self):
        blob = '{"n": 3, "edges": [[0, 1], [0, 3], [2, 3]]}'
        code, text = run(["convert", "--from", "nct", "--to", "poset",
                          "--input", blob])
        assert code == 0
        code, back = run(["convert", "--from", "poset", "--to", "nct",
                          "--input", text])
        assert code == 0
        assert json.loads(back) == json.loads(blob)

    def test_repeated_edge_is_a_usage_error(self, capsys):
        # a frozenset of the edges would hold two, and pass as a tree on 2
        blob = '{"n": 2, "edges": [[0, 1], [0, 1], [1, 2]]}'
        code, text = run(["convert", "--from", "nct", "--to", "poset", "--input", blob])
        assert (code, text) == (2, "")
        assert one_error_line(capsys)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_single_partition_to_poset_matches_the_interval_path(self, n):
        # the path it replaced: the singleton interval at the grafted tree
        for pi in enumerate_ncp(n):
            code, text = run(["convert", "--from", "ncp", "--to", "poset",
                              "--input", ncp_to_json(pi)])
            t = grafted_tree_of_partition(pi)
            assert (code, text) == (0, poset_to_json(from_interval(TamariInterval(t, t))) + "\n")

    def test_ncp_interval_to_poset(self):
        blob = json.dumps({
            "lower": {"n": 2, "blocks": [[1], [2]]},
            "upper": {"n": 2, "blocks": [[1, 2]]},
        })
        code, text = run(["convert", "--from", "ncp", "--to", "poset",
                          "--input", blob])
        assert code == 0
        assert poset_from_json(text).relations == frozenset()

    def test_not_exceptional_is_a_usage_error(self):
        code, _ = run([
            "convert", "--from", "poset", "--to", "nct",
            "--input", '{"size":3,"inc":[[2,3]],"dec":[[2,1]]}',
        ])
        assert code == 2

    def test_not_an_interval(self):
        blob = json.dumps({
            "lower": [None, [None, None]],
            "upper": [[None, None], None],
        })
        code, _ = run(["convert", "--from", "interval", "--to", "poset",
                       "--input", blob])
        assert code == 2

    def test_parse_error(self):
        code, _ = run(["convert", "--from", "poset", "--to", "interval",
                       "--input", "{not json"])
        assert code == 2


class TestCensus:
    def test_csv_shape(self):
        code, text = run(["census", "--max-size", "2"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "size,family,count,formula,match"
        assert "2,intervals,3,3,true" in lines
        assert "2,new,1,1,true" in lines
        # no closed formula for new intervals at size 1
        assert "1,new,1,," in lines

    def test_json_format(self):
        code, text = run(["census", "--max-size", "3", "--format", "json"])
        assert code == 0
        recs = records(text)
        assert [r["size"] for r in recs] == [1, 2, 3]
        assert recs[2]["counts"]["intervals"] == 13

    def test_bound(self):
        code, _ = run(["census", "--max-size", "9"])
        assert code == 2

    def test_keeps_no_store_of_a_smaller_size(self):
        posets.universe.cache_clear()
        assert run(["census", "--max-size", "5"])[0] == 0
        misses = posets.universe.cache_info().misses
        for n in range(1, 5):
            posets.universe(n)
        assert posets.universe.cache_info().misses == misses + 4


class TestVerify:
    def test_small_run_passes(self):
        code, text = run(["verify", "--max-size", "3"])
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 9
        assert all(line.startswith("PASS ") for line in lines)

    def test_fault_injection(self, monkeypatch):
        # a wrong closed formula for one family fails the count check alone
        formula_new = census.formula_new
        monkeypatch.setattr(census, "formula_new", lambda n: formula_new(n) + 1)
        code, text = run(["verify", "--max-size", "3"])
        assert code == 1
        (fail,) = [l for l in text.splitlines() if l.startswith("FAIL")]
        assert fail == (
            "FAIL interval counts: census mismatch at n=2, family new: "
            "enumerated 1, formula 2"
        )


class TestExport:
    def figure_poset_json(self, inorder_figure_tree):
        return poset_to_json(tree_poset(inorder_figure_tree))

    def test_arc_diagram_of_figure(self, inorder_figure_tree):
        code, text = run(["export", "--input",
                          self.figure_poset_json(inorder_figure_tree)])
        assert code == 0
        arcs = [l for l in text.splitlines() if "->" in l]
        assert len(arcs) == 7
        assert "  1 -> 5 [color=red];" in arcs
        assert "  3 -> 1 [color=blue];" in arcs

    def test_empty_poset_nodes_only(self):
        code, text = run(["export", "--input",
                          '{"size":3,"inc":[],"dec":[]}'])
        assert code == 0
        assert "->" not in text
        assert "{ rank=same; 1; 2; 3; }" in text

    def test_byte_stable(self, inorder_figure_tree):
        blob = self.figure_poset_json(inorder_figure_tree)
        _, first = run(["export", "--input", blob])
        _, second = run(["export", "--input", blob])
        assert first == second

    def test_hasse_diagram(self):
        code, text = run(["export", "--diagram", "hasse", "--input",
                          '{"size":2,"inc":[[1,2]],"dec":[]}'])
        assert code == 0
        assert "  1 -> 2;" in text.splitlines()

    def test_json_format_round_trips(self):
        blob = '{"size": 3, "inc": [[2, 3]], "dec": [[2, 1]]}'
        code, text = run(["export", "--format", "json", "--input", blob])
        assert code == 0
        assert text == blob + "\n"

    def test_output_file(self, tmp_path, inorder_figure_tree):
        target = tmp_path / "poset.dot"
        code, text = run(["export", "--input",
                          self.figure_poset_json(inorder_figure_tree),
                          "--output", str(target)])
        assert code == 0
        assert text == ""
        assert target.read_text().startswith("digraph poset {")

    def test_bad_input(self):
        code, _ = run(["export", "--input", "nope"])
        assert code == 2


class TestExitCodes:
    def test_unknown_command(self):
        code, _ = run(["frobnicate"])
        assert code == 2

    def test_help_is_success(self, capsys):
        assert main(["--help"], io.StringIO()) == 0
        assert "enumerate" in capsys.readouterr().out


def one_error_line(capsys):
    err = capsys.readouterr().err
    return len(err.splitlines()) == 1 and err.startswith("error: ")


class TestSizeInput:
    def test_enumerate_size_zero(self, capsys):
        code, _ = run(["enumerate", "--size", "0"])
        assert code == 2
        assert one_error_line(capsys)

    def test_env_bound_not_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("TAMARI_MAX_SIZE", "abc")
        code, _ = run(["enumerate", "--size", "2"])
        assert code == 2
        assert one_error_line(capsys)

    def test_classify_poset_of_size_zero(self, capsys):
        code, text = run(["classify", "--poset", '{"size":0,"inc":[],"dec":[]}'])
        assert code == 2
        assert text == ""
        assert one_error_line(capsys)

    @pytest.mark.parametrize("kind,blob", [
        ("interval", '{"lower": null, "upper": null}'),
        ("nct", '{"n": 0, "edges": []}'),
        ("ncp", '{"blocks": []}'),
    ])
    def test_convert_input_of_size_zero(self, capsys, kind, blob):
        code, text = run(["convert", "--from", kind, "--to", "poset", "--input", blob])
        assert code == 2
        assert text == ""
        assert one_error_line(capsys)

    def test_classify_reports_the_declared_size(self, capsys):
        code, text = run(["classify", "--poset", '{"size": -1, "inc": [], "dec": []}'])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == "error: size must be at least 1, got -1\n"

    @pytest.mark.parametrize("blob", [
        '{"n": -2, "blocks": []}',
        '{"lower": {"n": -2, "blocks": []}, "upper": {"n": -2, "blocks": []}}',
    ])
    def test_convert_ncp_reports_the_declared_size(self, capsys, blob):
        code, text = run(["convert", "--from", "ncp", "--to", "poset", "--input", blob])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == "error: size must be at least 1, got -2\n"

    @pytest.mark.parametrize("blob", [
        '{"n": 3, "blocks": []}',
        '{"n": 3, "blocks": [[1], [2]]}',
        '{"lower": {"n": 2, "blocks": [[1], [2]]}, "upper": {"n": 1, "blocks": [[1, 2]]}}',
    ])
    def test_convert_ncp_size_must_match_its_blocks(self, capsys, blob):
        code, text = run(["convert", "--from", "ncp", "--to", "poset", "--input", blob])
        assert code == 2
        assert text == ""
        assert one_error_line(capsys)

    def test_verify_respects_bound(self, capsys):
        code, text = run(["--bound", "2", "verify", "--max-size", "5"])
        assert code == 2
        assert text == ""
        assert one_error_line(capsys)


class TestNonIntegerInput:
    # JSON true/false and floats compare equal to integers in Python
    @pytest.mark.parametrize("argv", [
        ["classify", "--poset", '{"size": true, "inc": [], "dec": []}'],
        ["classify", "--poset", '{"size": 3, "inc": [[true, 2]], "dec": []}'],
        ["convert", "--from", "ncp", "--to", "poset", "--input", '{"blocks": [[1.0]]}'],
        ["convert", "--from", "nct", "--to", "poset",
         "--input", '{"n": true, "edges": [[0, 1]]}'],
        ["convert", "--from", "poset", "--to", "poset",
         "--input", '{"size": 2, "inc": [[1, 2.0]], "dec": []}'],
        ["convert", "--from", "interval", "--to", "poset",
         "--input", '{"lower": [null, false], "upper": [null, null]}'],
        ["export", "--format", "json", "--input", '{"size": 1.0, "inc": [], "dec": []}'],
    ])
    def test_rejected(self, capsys, argv):
        code, text = run(argv)
        assert code == 2
        assert text == ""
        assert one_error_line(capsys)


class TestDeepPartitions:
    N = 1200  # deeper than the interpreter's recursion limit

    def singletons(self):
        return [[k] for k in range(1, self.N + 1)]

    def test_ncp_interval_round_trip(self):
        lower, upper = self.singletons(), [list(range(1, self.N + 1))]
        blob = json.dumps({"lower": {"blocks": lower}, "upper": {"blocks": upper}})
        code, text = run(["convert", "--from", "ncp", "--to", "ncp", "--input", blob])
        assert code == 0
        got = json.loads(text)
        assert got["lower"] == {"n": self.N, "blocks": lower}
        assert got["upper"] == {"n": self.N, "blocks": upper}

    def test_chain_to_ncp(self):
        # both bounds of the chain 1 <| 2 <| ... are the left comb
        chain = TestDeepInput.chain(self.N)
        code, text = run(["convert", "--from", "poset", "--to", "ncp", "--input", chain])
        assert code == 0
        got = json.loads(text)
        assert got["lower"] == got["upper"] == {"n": self.N, "blocks": self.singletons()}


class TestSizeLimit:
    def test_oversized_poset_is_refused_before_it_is_built(self, capsys):
        code, text = run(["classify", "--poset", '{"size": 100000000}'])
        assert code == 2
        assert text == ""
        assert one_error_line(capsys)

    def test_the_limit_itself_is_accepted(self):
        blob = json.dumps({"size": MAX_OBJECT_SIZE, "inc": [], "dec": []})
        code, text = run(["export", "--format", "json", "--input", blob])
        assert code == 0
        assert json.loads(text)["size"] == MAX_OBJECT_SIZE

    # the noncrossing tree of the n boundary edges (its poset is empty),
    # the partition into one block, and an ncp pair of that partition
    SOURCES = {
        "nct": lambda n: {"n": n, "edges": [[k - 1, k] for k in range(1, n + 1)]},
        "ncp": lambda n: {"blocks": [list(range(1, n + 1))]},
        "ncp pair": lambda n: {"lower": {"blocks": [list(range(1, n + 1))]},
                               "upper": {"blocks": [list(range(1, n + 1))]}},
    }

    @pytest.mark.parametrize("source, target", [("nct", "poset"), ("ncp", "ncp")])
    def test_noncrossing_objects_at_the_limit_are_accepted(self, source, target):
        blob = json.dumps(self.SOURCES[source](MAX_OBJECT_SIZE))
        code, text = run(["convert", "--from", source, "--to", target, "--input", blob])
        assert code == 0
        got = json.loads(text)
        assert (got["size"] if target == "poset" else got["upper"]["n"]) == MAX_OBJECT_SIZE

    @pytest.mark.parametrize("source", ["nct", "ncp", "ncp pair"])
    def test_noncrossing_objects_above_the_limit_are_refused_unbuilt(
        self, source, monkeypatch, capsys
    ):
        def refuse(*args):
            raise AssertionError("an oversized object was built")

        monkeypatch.setattr(noncrossing.NoncrossingTree, "__post_init__", refuse)
        monkeypatch.setattr(noncrossing, "make_partition", refuse)
        blob = json.dumps(self.SOURCES[source](MAX_OBJECT_SIZE + 1))
        kind = source.split()[0]
        code, text = run(["convert", "--from", kind, "--to", "poset", "--input", blob])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"exceeds the limit {MAX_OBJECT_SIZE}" in err


class TestDeepInput:
    # nested deeper than json.loads can read
    DEPTH = 5000

    def test_convert_deep_interval(self, capsys):
        comb = "[null, " * self.DEPTH + "null" + "]" * self.DEPTH
        blob = f'{{"lower": {comb}, "upper": {comb}}}'
        code, text = run(["convert", "--from", "interval", "--to", "poset",
                          "--input", blob])
        assert code == 2
        assert text == ""
        assert one_error_line(capsys)

    @staticmethod
    def chain(n):
        return json.dumps({"size": n, "inc": [[i, i + 1] for i in range(1, n)],
                           "dec": []})

    def test_convert_deep_interval_output(self, capsys):
        # a valid chain whose upper tree is a 1,200-deep comb
        code, text = run(["convert", "--from", "poset", "--to", "interval",
                          "--input", self.chain(1200)])
        assert code == 2
        assert text == ""
        assert one_error_line(capsys)

    def test_convert_chain_interval_output(self):
        code, text = run(["convert", "--from", "poset", "--to", "interval",
                          "--input", self.chain(300)])
        assert code == 0
        blob = json.loads(text)
        code, text = run(["convert", "--from", "interval", "--to", "poset",
                          "--input", json.dumps(blob)])
        assert code == 0
        assert poset_from_json(text) == poset_from_json(self.chain(300))

    def test_classify_deep_poset(self, capsys):
        nested = "[" * self.DEPTH + "]" * self.DEPTH
        blob = f'{{"size": 3, "inc": {nested}, "dec": []}}'
        code, text = run(["classify", "--poset", blob])
        assert code == 2
        assert text == ""
        assert one_error_line(capsys)


class ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


class TestBrokenPipe:
    def test_closed_output_exits_quietly(self, capsys):
        assert main(["enumerate", "--size", "3"], ClosedPipe()) == BROKEN_PIPE
        assert capsys.readouterr().err == ""

    def test_reader_closing_a_real_pipe(self):
        # more output than a pipe buffers, so the writer meets the closed end
        src = os.path.dirname(os.path.dirname(tamari.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "tamari.cli", "enumerate", "--size", "6"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == BROKEN_PIPE
        assert json.loads(first)["size"] == 6
        assert err == b""


class TestStartUp:
    # prints the modules that importing the CLI and building its parser
    # load beyond those of a bare interpreter (whose site may load re or
    # typing already)
    PROBE = (
        "import sys; bare = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import tamari.cli; tamari.cli.build_parser(); "
        "print(*sorted(set(sys.modules) - bare))"
    )

    def test_cli_loads_neither_dataclasses_nor_inspect(self):
        src = os.path.dirname(os.path.dirname(tamari.__file__))
        loaded = subprocess.run(
            [sys.executable, "-I", "-c", self.PROBE, src],
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout.split()
        assert "tamari.cli" in loaded
        assert not {"dataclasses", "inspect"} & set(loaded)


# -- fuzzing the exit-code contract -------------------------------------------

KINDS = ("poset", "interval", "nct", "ncp")
KEYS = ("size", "inc", "dec", "lower", "upper", "n", "edges", "blocks")
small_ints = st.integers(-2, 9)
huge_ints = st.integers(MAX_OBJECT_SIZE + 1, 10**12)
json_values = st.recursive(
    st.none() | st.booleans() | small_ints | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner,
                      max_size=4),
    max_leaves=12,
)
pairs = st.lists(st.lists(small_ints, min_size=2, max_size=2), max_size=8)
tree_objs = st.recursive(
    st.none(), lambda inner: st.lists(inner, min_size=2, max_size=2),
    max_leaves=6,
)
blocks = st.fixed_dictionaries(
    {"blocks": st.lists(st.lists(small_ints, max_size=4), max_size=4)}
)
# stands for a field nested deeper than json.loads can read
DEEP = "<deep>"
# documents of the right shape with random contents, per input kind
SHAPED = {
    "poset": st.fixed_dictionaries({"size": small_ints, "inc": pairs, "dec": pairs}),
    "interval": st.fixed_dictionaries({"lower": tree_objs, "upper": tree_objs}),
    "nct": st.fixed_dictionaries({"n": small_ints, "edges": pairs}),
    "ncp": blocks | st.fixed_dictionaries({"lower": blocks, "upper": blocks}),
}


@lru_cache(maxsize=None)
def valid_documents(kind):
    """A valid document of ``kind`` for every object of size at most 4."""
    docs = []
    for n in range(1, 5):
        if kind == "poset":
            docs.extend(poset_to_obj(p) for p in enumerate_interval_posets(n))
        elif kind == "interval":
            for p in enumerate_interval_posets(n):
                interval = to_interval(p)
                docs.append({"lower": tree_to_obj(interval.lower),
                             "upper": tree_to_obj(interval.upper)})
        elif kind == "nct":
            docs.extend(json.loads(nct_to_json(t)) for t in enumerate_nct(n))
        else:
            ncps = [json.loads(ncp_to_json(pi)) for pi in enumerate_ncp(n)]
            docs.extend(ncps)
            docs.extend({"lower": a, "upper": b} for a in ncps for b in ncps)
    return docs


@st.composite
def blobs(draw, kind):
    """Input text for ``kind``: a valid document, one with a field replaced
    (by an oversized size or a deeply nested array among others), a shaped
    or an arbitrary JSON value, or text that is not JSON."""
    doc = dict(draw(st.sampled_from(valid_documents(kind))))
    choice = draw(st.integers(0, 4))
    if choice == 1:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(
            pairs | small_ints | huge_ints | tree_objs | json_values
            | st.just(DEEP)
        )
    elif choice == 2:
        doc = draw(SHAPED[kind])
    elif choice == 3:
        doc = draw(json_values)
    text = json.dumps(doc).replace(json.dumps(DEEP), "[" * 5000 + "]" * 5000)
    if choice == 4:
        return draw(st.sampled_from([text[: len(text) // 2], text + "]"])
                    | st.text())
    return text


@st.composite
def commands(draw):
    if draw(st.booleans()):
        return ["classify", "--poset=" + draw(blobs("poset"))]
    source, target = draw(st.sampled_from(KINDS)), draw(st.sampled_from(KINDS))
    return ["convert", "--from", source, "--to", target,
            "--input=" + draw(blobs(source))]


@settings(max_examples=200, deadline=None)
@given(commands())
def test_fuzzed_input_exits_zero_or_two(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run(argv)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")

import io
import json
import os
import random
import subprocess
import sys

import pytest

import tamari
from tamari import verify
from tamari.cli import BROKEN_PIPE, main
from tamari.posets import (
    enumerate_interval_posets,
    poset_from_json,
    poset_to_json,
    tree_poset,
)


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


class TestVerify:
    def test_small_run_passes(self):
        code, text = run(["verify", "--max-size", "3"])
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 9
        assert all(line.startswith("PASS ") for line in lines)

    def test_fault_injection(self, monkeypatch):
        broken = dict(verify.GOLDEN)
        broken["exceptional"] = [1, 3, 11, 55, 273]
        monkeypatch.setattr(verify, "GOLDEN", broken)
        code, text = run(["verify", "--max-size", "3"])
        assert code == 1
        (fail,) = [l for l in text.splitlines() if l.startswith("FAIL")]
        assert "exceptional" in fail


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

    def test_verify_respects_bound(self, capsys):
        code, text = run(["--bound", "2", "verify", "--max-size", "5"])
        assert code == 2
        assert text == ""
        assert one_error_line(capsys)


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

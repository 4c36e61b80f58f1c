"""Command-line interface: exit codes, report shapes, determinism.

All invocations go through ``kstlab.cli.main`` in-process; byte-identity
checks write reports through ``--out`` and compare file contents.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from kstlab import (
    complete_bipartite,
    cycle,
    is_k_choosable,
    petersen,
    serialize,
    tiny_gadget,
    uniform_lists,
)
from kstlab import cli
from kstlab.cli import _json_report, build_parser, main
from kstlab.graph import parse, path, to_edge_list, to_json_dict
from kstlab.listcolor import ListAssignment, verify_coloring
from kstlab.minors import BranchModel, MinorQuery, model_violation


@pytest.fixture()
def paths(tmp_path):
    c4 = tmp_path / "c4.txt"
    c4.write_text(to_edge_list(cycle(4)))
    k33 = tmp_path / "k33.json"
    k33.write_text(serialize(complete_bipartite(3, 3), "json"))
    pet = tmp_path / "petersen.txt"
    pet.write_text(to_edge_list(petersen()))
    big = tmp_path / "big.txt"
    big.write_text("n=10 m=0\n")
    lists2 = tmp_path / "lists2.json"
    lists2.write_text(uniform_lists(4, [0, 1]).to_json())
    return tmp_path


# --- exit codes -------------------------------------------------------------


def test_check_minor_exit_codes(paths, capsys):
    assert main(["check-minor", str(paths / "c4.txt"), "--s", "2", "--t", "2"]) == 0
    assert main(["check-minor", str(paths / "c4.txt"), "--s", "3", "--t", "3"]) == 1
    assert main(["check-minor", str(paths / "petersen.txt"),
                 "--s", "3", "--t", "3", "--budget", "5"]) == 2
    capsys.readouterr()


def test_check_lcolor_exit_codes(paths, capsys):
    assert main(["check-lcolor", str(paths / "c4.txt"),
                 str(paths / "lists2.json")]) == 0
    # inline JSON lists, too few colors for an odd structure
    assert main(["check-lcolor", str(paths / "k33.json"),
                 '{"lists": [[0], [0], [0], [0], [0], [0]]}']) == 1
    capsys.readouterr()


def test_check_choosable_exit_codes(paths, capsys):
    assert main(["check-choosable", str(paths / "c4.txt"), "--k", "2"]) == 0
    assert main(["check-choosable", str(paths / "k33.json"), "--k", "2"]) == 1
    # cap refusal: 10 vertices over the default 8-vertex cap
    assert main(["check-choosable", str(paths / "big.txt"), "--k", "2"]) == 2
    capsys.readouterr()


def test_build_h_exit_codes(tmp_path, capsys):
    ok = main(["build-h", "--n", "6", "--m", "8", "--eps", "5/6", "--C", "4/3",
               "--delta", "2/3", "--seed", "11", "--mode", "exhaustive"])
    assert ok == 0
    gave_up = main(["build-h", "--n", "6", "--m", "8", "--eps", "5/26",
                    "--C", "3/2", "--delta", "1/2", "--seed", "1",
                    "--max-retries", "4", "--mode", "exhaustive"])
    assert gave_up == 1
    capsys.readouterr()


def test_build_counterexample_exit_codes(tmp_path, capsys):
    assert main(["build-counterexample", "--fixture", "tiny",
                 "--out", str(tmp_path / "ce.json"), "--format", "json"]) == 0
    # cap refusal
    assert main(["build-counterexample", "--fixture", "tiny",
                 "--max-vertices", "5"]) == 2
    # neither --graph nor --fixture, or both
    assert main(["build-counterexample"]) == 3
    assert main(["build-counterexample", "--graph", str(tmp_path / "ce.json"),
                 "--fixture", "tiny"]) == 3
    capsys.readouterr()


def test_build_h_cap_refusal(tmp_path, capsys, monkeypatch):
    # The exhaustive block check refuses past its enumeration cap (a 14 x 14
    # draw with f = 2 does, after seconds); stand in for it here.
    import kstlab.construction as cx

    def refuse(*args, **kwargs):
        raise cx.EnumerationCapError("block-property enumeration exceeded cap 2000000")

    monkeypatch.setattr(cx, "check_block_property", refuse)
    argv = ["build-h", "--n", "6", "--m", "8", "--eps", "5/6", "--C", "4/3",
            "--delta", "2/3", "--seed", "11", "--mode", "exhaustive"]
    assert main(argv) == 2
    assert capsys.readouterr().out == \
        "build-h: refused: block-property enumeration exceeded cap 2000000\n"
    assert main(argv + ["--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "build-h"
    assert doc["result"] == {"refused": "block-property enumeration exceeded cap 2000000"}
    # a refusal that cannot be written out is a usage error, like any report
    assert main(argv + ["--out", str(tmp_path / "no-such-dir" / "r.txt")]) == 3
    capsys.readouterr()


def test_usage_errors_exit_above_two(paths, capsys):
    assert main(["check-minor", "/does/not/exist", "--s", "2", "--t", "2"]) == 3
    assert main(["check-minor", str(paths / "c4.txt"), "--s", "0", "--t", "2"]) == 3
    assert main(["no-such-command"]) == 3
    assert main(["check-minor"]) == 3  # missing required args
    assert main(["bounds", "--eps", "nonsense", "--C", "1", "--n", "5"]) == 3
    # csv unsupported outside experiment
    assert main(["bounds", "--eps", "1/2", "--C", "1", "--n", "5",
                 "--format", "csv"]) == 3
    # flags that never changed a result are unknown arguments
    assert main(["build-counterexample", "--fixture", "tiny", "--palette", "3"]) == 3
    assert main(["bounds", "--eps", "1/2", "--C", "1", "--n", "5",
                 "--delta", "1/16", "--f", "2"]) == 3
    assert main(["build-h", "--n", "6", "--m", "8", "--eps", "5/6", "--C", "4/3",
                 "--delta", "2/3", "--seed", "11", "--f", "1"]) == 3
    assert main(["build-counterexample", "--fixture", "tiny", "--verify"]) == 3
    assert main(["build-counterexample", "--fixture", "tiny", "--no-verify"]) == 3
    # a count that allows no attempt is not an answer
    sweep = ["experiment", "--seed", "1", "--format", "human"]
    assert main(sweep + ["--n", "4", "--trials", "-1"]) == 3
    assert main(sweep + ["--n", "4", "--trials", "0"]) == 3
    assert main(sweep + ["--n", ",", "--trials", "5"]) == 3
    # no option selects or tunes a sampled block check
    assert main(sweep + ["--n", "4", "--trials", "5", "--block-trials", "5"]) == 3
    assert main(["bounds", "--eps", "1/2", "--C", "1", "--n", "0"]) == 3
    assert main(["bounds", "--eps", "1/2", "--C", "1", "--n", "-3"]) == 3
    build_h = ["build-h", "--n", "6", "--m", "8", "--eps", "5/6", "--C", "4/3",
               "--delta", "2/3", "--seed", "11"]
    assert main(build_h + ["--mode", "exhaustive", "--max-retries", "0"]) == 3
    assert main(build_h + ["--mode", "sampled"]) == 3
    assert main(build_h + ["--trials", "2000"]) == 3
    # a negative seed is named, and never reaches the seeding arithmetic
    assert "refused" not in capsys.readouterr().out
    for argv in (sweep + ["--n", "4", "--trials", "5"], build_h):
        assert main(argv + ["--seed", "-1"]) == 3
        out, err = capsys.readouterr()
        assert err == "kstlab: error: seed must be non-negative, got -1\n"
        assert out == ""
    c4 = str(paths / "c4.txt")
    for budget in ("0", "-3"):
        assert main(["check-minor", c4, "--s", "2", "--t", "2", "--budget", budget]) == 3
    assert main(["check-choosable", c4, "--k", "2", "--cap-k", "0"]) == 3
    assert main(["check-choosable", c4, "--k", "2", "--cap-n", "-1"]) == 3
    assert main(["check-choosable", c4, "--k", "2", "--cap-n", "0", "--format", "json"]) == 3
    assert "refused" not in capsys.readouterr().out


# Integer options read what graph files read, an optional '-' and ASCII
# digits: int() alone would take '_' between digits, a '+' sign and
# non-ASCII digits.
@pytest.mark.parametrize("argv, err", [
    (["bounds", "--eps", "1/2", "--C", "1", "--n", "1_0"],
     "argument --n: invalid int value: '1_0'"),
    (["bounds", "--eps", "1/2", "--C", "1", "--n", "+٣"],
     "argument --n: invalid int value: '+٣'"),
    (["check-minor", "g.txt", "--s", "+2", "--t", "2"],
     "argument --s: invalid int value: '+2'"),
    (["build-counterexample", "--fixture", "tiny", "--max-vertices", "1_000"],
     "argument --max-vertices: invalid int value: '1_000'"),
    (["experiment", "--n", "4,1_0", "--trials", "5", "--seed", "1"],
     "argument --n: not a comma-separated int list: '4,1_0'"),
    (["experiment", "--n", "4", "--trials", "5", "--seed", "٣"],
     "argument --seed: invalid int value: '٣'"),
])
def test_integer_options_are_ascii_decimal(capsys, argv, err):
    assert main(argv) == 3
    out, text = capsys.readouterr()
    assert out == "" and text.endswith(f": error: {err}\n"), text


def test_build_h_is_exhaustive_by_default(capsys):
    base = ["build-h", "--n", "6", "--m", "8", "--eps", "5/6", "--C", "4/3",
            "--delta", "2/3", "--seed", "11"]
    for fmt in ("human", "json"):
        assert main(base + ["--format", fmt]) == 0
        default = capsys.readouterr().out
        assert main(base + ["--format", fmt, "--mode", "exhaustive"]) == 0
        assert capsys.readouterr().out == default
    config = json.loads(default)["config"]
    assert config["mode"] == "exhaustive"
    assert "trials" not in config


# JSON true loads as a Python bool, an int subclass; it is rejected as an
# integer so a typo cannot become vertex or color 1.
@pytest.mark.parametrize("edges", ['[["a", 1]]', '[[0, 1.0]]', '5', '[[0, true]]'])
def test_malformed_graph_json_is_a_usage_error(tmp_path, capsys, edges):
    g = tmp_path / "g.json"
    g.write_text('{"vertex_count": 3, "edges": %s}' % edges)
    assert main(["check-minor", str(g), "--s", "1", "--t", "1"]) == 3
    assert "kstlab: error:" in capsys.readouterr().err


def test_graph_and_list_files_may_start_with_a_byte_order_mark(tmp_path, capsys):
    bom = "\ufeff"
    g = tmp_path / "c4.json"
    g.write_text(bom + serialize(cycle(4), "json"), encoding="utf-8")
    txt = tmp_path / "c4.txt"
    txt.write_text(bom + to_edge_list(cycle(4)), encoding="utf-8")
    lists = tmp_path / "lists.json"
    lists.write_text(bom + uniform_lists(4, [0, 1]).to_json(), encoding="utf-8")
    for graph in (g, txt):
        assert main(["check-minor", str(graph), "--s", "2", "--t", "2"]) == 0
        assert main(["check-lcolor", str(graph), str(lists)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("lists", ['{"lists": [[0, "a"], [1], [0]]}',
                                   '{"lists": [[[0]], [1], [0]]}',
                                   '{"lists": [[0, true], [1], [0]]}'])
def test_malformed_lists_json_is_a_usage_error(paths, capsys, lists):
    g = paths / "p3.txt"
    g.write_text("n=3 m=2\n0 1\n1 2\n")
    assert main(["check-lcolor", str(g), lists]) == 3
    assert "kstlab: error:" in capsys.readouterr().err


# --- file input ----------------------------------------------------------------
# A graph or list file reads as open(path, encoding="utf-8-sig").read() reads
# it: a leading byte-order mark is dropped, CR and CRLF line ends read as LF
# (error line numbers and JSON positions count the translated text), and an
# invalid byte names its offset after the mark.  Each case pins the exit
# code, the exact stderr and, for an input that parses, the result object.

BOM = b"\xef\xbb\xbf"
C4_TXT = b"n=4 m=4\n0 1\n0 3\n1 2\n2 3\n"
C4_JSON = (b'{"edges": [[0, 1], [0, 3], [1, 2], [2, 3]],\n"format_version": 1,\n'
           b'"labels": null,\n"vertex_count": 4}\n')
C4_LISTS = b'{"lists": [\n[0, 1],\n[0, 1],\n[0, 1],\n[0, 1]]}\n'
C4_K22 = {"atoms_searched": 1, "model": {"side1": [[0], [2]], "side2": [[1], [3]]},
          "nodes_expanded": 6, "status": "found"}
C4_COLORED = {"colorable": True, "coloring": [0, 1, 0, 1]}
BAD_BYTE = "kstlab: error: 'utf-8' codec can't decode byte 0xff in position %d: invalid start byte\n"
LONG_COMMENT = b"#" + b"x" * 9000 + b"\n"


def _crlf(data: bytes) -> bytes:
    return data.replace(b"\n", b"\r\n")


def _cr(data: bytes) -> bytes:
    return data.replace(b"\n", b"\r")


GRAPH_FILES = [
    ("txt-bom", BOM + C4_TXT, 0, "", C4_K22),
    ("txt-crlf", _crlf(C4_TXT), 0, "", C4_K22),
    ("txt-cr", _cr(C4_TXT), 0, "", C4_K22),
    ("txt-bom-crlf", BOM + _crlf(C4_TXT), 0, "", C4_K22),
    ("json-bom", BOM + C4_JSON, 0, "", C4_K22),
    ("json-crlf", _crlf(C4_JSON), 0, "", C4_K22),
    ("json-cr", _cr(C4_JSON), 0, "", C4_K22),
    ("txt-bad-byte", C4_TXT + b"# \xff\n", 3, BAD_BYTE % 26, None),
    ("txt-bom-bad-byte", BOM + C4_TXT + b"# \xff\n", 3, BAD_BYTE % 26, None),
    ("txt-bad-byte-past-8k", C4_TXT + LONG_COMMENT + b"# \xff\n", 3, BAD_BYTE % 9028, None),
    ("json-bom-bad-byte", BOM + C4_JSON + b"\xff", 3, BAD_BYTE % 100, None),
    ("txt-crlf-error", _crlf(b"n=3 m=1\n# c\n0 x\n"), 3,
     "kstlab: error: line 3: non-integer endpoint in '0 x'\n", None),
    ("txt-cr-error", _cr(b"n=3 m=1\n# c\n0 x\n"), 3,
     "kstlab: error: line 3: non-integer endpoint in '0 x'\n", None),
    ("txt-crlf-past-8k-error", _crlf(C4_TXT.replace(b"2 3", b"2 3 4") + LONG_COMMENT), 3,
     "kstlab: error: line 5: expected 'u v', got '2 3 4'\n", None),
    ("json-crlf-error", _crlf(C4_JSON.replace(b"null", b"nul")), 3,
     "kstlab: error: invalid JSON at position 75: Expecting value\n", None),
    ("json-cr-error", _cr(C4_JSON.replace(b"null", b"nul")), 3,
     "kstlab: error: invalid JSON at position 75: Expecting value\n", None),
]

LIST_FILES = [
    ("bom", BOM + C4_LISTS, 0, "", C4_COLORED),
    ("crlf", _crlf(C4_LISTS), 0, "", C4_COLORED),
    ("cr", _cr(C4_LISTS), 0, "", C4_COLORED),
    ("bad-byte", C4_LISTS + b"\xff", 3, BAD_BYTE % 45, None),
    ("bom-bad-byte", BOM + C4_LISTS + b"\xff", 3, BAD_BYTE % 45, None),
    ("bad-byte-past-8k", C4_LISTS + b" " * 9000 + b"\xff", 3, BAD_BYTE % 9045, None),
    ("crlf-error", _crlf(C4_LISTS.replace(b"[0, 1],\n[0, 1]]", b"[0, 1],,\n[0, 1]]")), 3,
     "kstlab: error: Expecting value: line 4 column 8 (char 35)\n", None),
    ("cr-error", _cr(C4_LISTS.replace(b"[0, 1],\n[0, 1]]", b"[0, 1],,\n[0, 1]]")), 3,
     "kstlab: error: Expecting value: line 4 column 8 (char 35)\n", None),
]


def _answer(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, err, json.loads(out)["result"] if out else None


@pytest.mark.parametrize("name, data, code, err, result", GRAPH_FILES,
                         ids=[case[0] for case in GRAPH_FILES])
def test_graph_file_input_pinned(tmp_path, capsys, name, data, code, err, result):
    g = tmp_path / name
    g.write_bytes(data)
    argv = ["check-minor", str(g), "--s", "2", "--t", "2", "--format", "json"]
    assert _answer(capsys, argv) == (code, err, result)


@pytest.mark.parametrize("name, data, code, err, result", LIST_FILES,
                         ids=[case[0] for case in LIST_FILES])
def test_list_file_input_pinned(tmp_path, capsys, name, data, code, err, result):
    g, lists = tmp_path / "c4.txt", tmp_path / name
    g.write_bytes(C4_TXT)
    lists.write_bytes(data)
    argv = ["check-lcolor", str(g), str(lists), "--format", "json"]
    assert _answer(capsys, argv) == (code, err, result)


def test_missing_or_directory_input_is_a_usage_error(tmp_path, capsys):
    g = tmp_path / "c4.txt"
    g.write_bytes(C4_TXT)
    missing = str(tmp_path / "missing.txt")
    no_file = f"kstlab: error: [Errno 2] No such file or directory: '{missing}'\n"
    a_dir = f"kstlab: error: [Errno 21] Is a directory: '{tmp_path}'\n"
    for argv, err in [
        (["check-minor", missing, "--s", "2", "--t", "2"], no_file),
        (["check-minor", str(tmp_path), "--s", "2", "--t", "2"], a_dir),
        (["check-lcolor", str(g), missing], no_file),
        (["check-lcolor", str(g), str(tmp_path)], a_dir),
    ]:
        assert _answer(capsys, argv) == (3, err, None)


def test_internal_error_is_not_an_answer(paths, capsys, monkeypatch):
    import kstlab.minors as mn

    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(mn, "find_kst_minor", crash)
    assert main(["check-minor", str(paths / "c4.txt"), "--s", "2", "--t", "2"]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "RecursionError" in err


def test_check_lcolor_on_the_empty_graph(tmp_path, capsys):
    g = tmp_path / "empty.txt"
    g.write_text("n=0 m=0\n")
    assert main(["check-lcolor", str(g), '{"lists": []}', "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == {"colorable": True, "coloring": []}
    assert main(["check-lcolor", str(g), '{"lists": []}']) == 0
    assert capsys.readouterr().out.startswith("check-lcolor: colorable")


def test_long_path_answers_without_recursion(tmp_path, capsys):
    # 1500 vertices is past the default recursion limit of 1000.
    g = path(1500)
    (tmp_path / "path.txt").write_text(to_edge_list(g))
    lists = ListAssignment.of_lists([(v % 3, v % 3 + 1) for v in range(g.n)])
    (tmp_path / "lists.json").write_text(lists.to_json())
    assert main(["check-lcolor", str(tmp_path / "path.txt"),
                 str(tmp_path / "lists.json"), "--format", "json"]) == 0
    coloring = json.loads(capsys.readouterr().out)["result"]["coloring"]
    assert verify_coloring(g, lists, coloring)
    assert main(["check-minor", str(tmp_path / "path.txt"), "--s", "1", "--t", "2",
                 "--format", "json"]) == 0
    model = json.loads(capsys.readouterr().out)["result"]["model"]
    assert model_violation(g, BranchModel.from_json_dict(model, g), MinorQuery(1, 2)) is None


def test_long_odd_cycle_is_not_two_choosable_without_recursion(tmp_path, capsys):
    # 1001 vertices is past the default recursion limit of 1000; the first
    # 2-assignment of the odd cycle is already bad.
    g = cycle(1001)
    (tmp_path / "c1001.txt").write_text(to_edge_list(g))
    assert main(["check-choosable", str(tmp_path / "c1001.txt"), "--k", "2",
                 "--cap-n", "2000", "--format", "json"]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["choosable"], result["assignments"]) == (False, 1)
    witness = ListAssignment.from_json_dict(result["witness"])
    assert len(witness) == 1001 and all(len(l) == 2 for l in witness.lists)


def test_cached_parser_gives_each_call_its_own_namespace(paths, capsys):
    assert build_parser() is build_parser()
    argv = ["check-minor", str(paths / "c4.txt"), "--s", "2", "--t", "2",
            "--format", "json"]
    assert main(argv + ["--budget", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["budget"] == 1000
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["config"]["budget"] is None


# --- front-end text --------------------------------------------------------------
#
# main sends every command line the one-pass parse declines to the top-level
# parser; these are the texts one argparse pass over every token prints.

TOP_USAGE = """\
usage: kstlab [-h]
              {check-minor,check-lcolor,check-choosable,build-h,build-counterexample,bounds,experiment}
              ...
"""

CHECK_MINOR_USAGE = """\
usage: kstlab check-minor [-h] --s S --t T [--budget BUDGET] [--out OUT]
                          [--format {human,json}] [--threads THREADS]
                          [--deterministic]
                          graph
"""

MINOR_ARGS = ["check-minor", "g.txt", "--s", "2", "--t", "2"]


@pytest.fixture()
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("argv, err", [
    ([], TOP_USAGE + "kstlab: error: the following arguments are required: command\n"),
    (["bogus"], TOP_USAGE + "kstlab: error: argument command: invalid choice: 'bogus' "
     "(choose from 'check-minor', 'check-lcolor', 'check-choosable', 'build-h', "
     "'build-counterexample', 'bounds', 'experiment')\n"),
    (MINOR_ARGS + ["--bogus"], TOP_USAGE + "kstlab: error: unrecognized arguments: --bogus\n"),
    (MINOR_ARGS + ["extra", "--bogus"],
     TOP_USAGE + "kstlab: error: unrecognized arguments: extra --bogus\n"),
    (MINOR_ARGS + ["--format", "csv"], CHECK_MINOR_USAGE + "kstlab check-minor: error: "
     "argument --format: invalid choice: 'csv' (choose from 'human', 'json')\n"),
    (["check-minor"], CHECK_MINOR_USAGE +
     "kstlab check-minor: error: the following arguments are required: graph, --s, --t\n"),
])
def test_usage_error_text(columns, capsys, argv, err):
    assert main(argv) == 3
    assert capsys.readouterr() == ("", err)


def test_help_text(columns, capsys):
    assert main(["-h"]) == 0
    assert capsys.readouterr() == (TOP_USAGE + """
Exact minor testing, choosability checking, and random gadget constructions
for list-chromatic lower bounds.

positional arguments:
  {check-minor,check-lcolor,check-choosable,build-h,build-counterexample,bounds,experiment}
    check-minor         exact K_{s,t} minor search
    check-lcolor        solve one list assignment
    check-choosable     exact k-choosability
    build-h             sample a two-clique gadget
    build-counterexample
                        glue gadget copies and punch lists
    bounds              probability bound exponents
    experiment          seeded Monte Carlo degree sweep

options:
  -h, --help            show this help message and exit
""", "")
    assert main(["check-minor", "-h"]) == 0
    assert capsys.readouterr() == (CHECK_MINOR_USAGE + """
positional arguments:
  graph                 edge-list or JSON graph file

options:
  -h, --help            show this help message and exit
  --s S
  --t T
  --budget BUDGET       node-expansion cap (default: unlimited)
  --out OUT             write the report to this path
  --format {human,json}
  --threads THREADS     ignored: every command runs single-threaded (flag kept
                        for command-line compatibility)
  --deterministic       ignored: reports are always deterministic (flag kept
                        for command-line compatibility)
""", "")


def test_abbreviated_option(paths, capsys):
    assert main(["check-minor", str(paths / "c4.txt"), "--s", "2", "--t", "2",
                 "--form", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["format"] == "json"


# --- the one-pass parse against argparse ----------------------------------------
#
# main reads a well-formed command line in one pass over the command's declared
# options and leaves every other one to argparse.  The argv below are drawn from
# those declarations, with values small enough that every command answers at
# once, and mixed with the tokens the pass must decline.

COMMANDS = list(cli._parsers()[1])

_INLINE_LISTS = '{"lists": [[0, 1], [0, 1], [0, 1], [0, 1]]}'


def _values(action) -> tuple[list[str], list[str]]:
    """Values for one declared argument: those its type and choices accept,
    and those they refuse or that start with '-'."""
    by_dest = {
        "graph": (["c4.txt", "gadget.txt", "missing.txt", ""], ["-"]),
        "lists": (["lists.json", _INLINE_LISTS, "missing.json"], []),
        "out": (["r.txt", ""], ["-"]),
        "seed": (["11", "0", "18446744073709551621"], ["-1", "x"]),
    }
    if action.dest in by_dest:
        return by_dest[action.dest]
    if action.choices is not None:
        return list(action.choices), ["bogus"]
    if action.type is cli._int:
        return ["1", "2", "3", "0"], ["-1", "x", "2.5", "", "1_0", "+3", "٣"]
    if action.type is cli._fraction:
        return ["5/6", "4/3", "2/3", "1/2", "1", "0"], ["-1/2", "x"]
    assert action.type is cli._int_list, action.dest
    return ["4", "4,6", ","], ["x", "4,1_0", "+4"]


@st.composite
def command_lines(draw, name):
    """An argv for command ``name``: each declared argument absent, once or
    repeated, in any order.  About half are well formed; the rest may also
    hold refused values, options without their value and the tokens below."""
    cmd = cli._parsers()[1][name]
    parser_actions = cmd.actions + list(cmd.exclusive)
    clean = draw(st.booleans())
    # a well-formed line gives exactly one of the exclusive options
    source = draw(st.sampled_from(cmd.exclusive)) if cmd.exclusive else None
    items = []
    for a in parser_actions:
        if a.nargs != 0:
            valid, refused = _values(a)
            value = st.sampled_from(valid if clean else valid + refused)
        if clean and a in cmd.exclusive:
            counts = [1, 2] if a is source else [0]
        elif clean:
            counts = [1] if not a.option_strings else [1, 2] if a.required else [0, 1, 2]
        else:
            counts = [1, 1, 1, 0, 2] if a.required else [0, 0, 1, 2]
        for _ in range(draw(st.sampled_from(counts))):
            if not a.option_strings:
                items.append([draw(value)])
            elif a.nargs == 0:
                items.append([a.option_strings[0]])
            elif clean or draw(st.integers(0, 4)):
                items.append([a.option_strings[0], draw(value)])
            else:  # an option without its value
                items.append([a.option_strings[0]])
    if not clean:
        options = [a for a in parser_actions if a.option_strings]
        odd = st.one_of(
            st.sampled_from(["-h", "--help", "--", "", "--bogus", "-1", "-", "bogus"]),
            st.sampled_from(options).flatmap(lambda a: st.sampled_from(
                [a.option_strings[0][:-1], a.option_strings[0] + "="
                 + (_values(a)[0][0] if a.nargs != 0 else "x")])))
        items += [[t] for t in draw(st.lists(odd, max_size=2))]
    return [name] + [t for item in draw(st.permutations(items)) for t in item]


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "c4.txt").write_text(to_edge_list(cycle(4)))
    (d / "lists.json").write_text(uniform_lists(4, [0, 1]).to_json())
    (d / "gadget.txt").write_text(to_edge_list(tiny_gadget()))
    return d


def _run_main(argv):
    """main's exit code, stdout, stderr and the --out files it wrote."""
    written = [Path("r.txt"), Path("-")]
    for f in written:
        f.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [f.read_bytes() for f in written
                                                   if f.exists()]


@pytest.mark.parametrize("name", COMMANDS)
@settings(max_examples=60)
@given(data=st.data())
def test_one_pass_parse_matches_argparse(name, cli_dir, data):
    argv = data.draw(command_lines(name))
    cmd = cli._parsers()[1][name]
    args = cmd.parse(argv[1:])
    if args is not None:
        want, extras = cmd.parser.parse_known_args(argv[1:])
        assert extras == [] and vars(args) == vars(want), argv
    here = os.getcwd()
    os.chdir(cli_dir)
    try:
        got = _run_main(argv)
        with mock.patch.object(cli._Command, "parse", lambda self, tokens: None):
            assert _run_main(argv) == got, argv
    finally:
        os.chdir(here)


@pytest.mark.parametrize("argv", [
    ["check-minor", "g.txt", "--s", "3", "--t", "4", "--budget", "300000",
     "--format", "json", "--out", "r.json"],
    ["check-minor", "--s", "2", "g.txt", "--deterministic", "--t", "2", "--s", "3"],
    ["check-lcolor", "g.txt", "--format", "json", _INLINE_LISTS],
    ["check-choosable", "g.txt", "--k", "2", "--cap-n", "2000", "--threads", "4"],
    ["build-h", "--n", "6", "--m", "8", "--eps", "5/6", "--C", "4/3", "--delta", "2/3",
     "--seed", "11", "--mode", "exhaustive", "--format", "json", "--out", ""],
    ["bounds", "--eps", "1/2", "--C", "1", "--n", "5"],
    ["experiment", "--n", "8,16", "--trials", "200", "--seed", "7", "--delta", "1/2"],
    ["build-counterexample", "--fixture", "tiny"],
    ["build-counterexample", "--max-vertices", "50", "--graph", "h.txt", "--format",
     "json"],
])
def test_one_pass_parse_takes_well_formed_command_lines(argv):
    cmd = cli._parsers()[1][argv[0]]
    args = cmd.parse(argv[1:])
    assert args is not None
    assert vars(args) == vars(cmd.parser.parse_known_args(argv[1:])[0])


@pytest.mark.parametrize("argv", [
    MINOR_ARGS + ["--s=3"],
    MINOR_ARGS + ["--bud", "5"],
    MINOR_ARGS + ["--budget", "-5"],
    MINOR_ARGS + ["--out", "-"],
    MINOR_ARGS + ["--budget", "x"],
    MINOR_ARGS + ["--format", "csv"],
    MINOR_ARGS + ["--", "h.txt"],
    MINOR_ARGS + ["-h"],
    MINOR_ARGS + ["extra"],
    MINOR_ARGS + ["--budget"],
    ["check-minor", "g.txt", "--s", "2"],
    ["check-minor", "--s", "2", "--t", "2"],
    ["bounds", "--eps", "1/2", "--C", "1", "--n", "1_0"],
    ["build-counterexample", "--fixture", "tiny", "--graph", "h.txt"],
    ["build-counterexample", "--format", "json"],
])
def test_one_pass_parse_declines(argv):
    assert cli._parsers()[1][argv[0]].parse(argv[1:]) is None


# --- report shapes -----------------------------------------------------------


def test_json_report_shape(paths, capsys):
    assert main(["check-minor", str(paths / "c4.txt"), "--s", "2", "--t", "2",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format_version"] == 1
    assert doc["command"] == "check-minor"
    assert doc["result"]["status"] == "found"
    assert doc["result"]["model"] == {"side1": [[0], [2]], "side2": [[1], [3]]}
    assert doc["result"]["atoms_searched"] == 1
    # execution-resource flags stay out of the config echo
    assert "threads" not in doc["config"]
    assert "deterministic" not in doc["config"]
    assert doc["config"]["s"] == 2 and doc["config"]["t"] == 2


def test_choosable_json_carries_witness(paths, capsys):
    assert main(["check-choosable", str(paths / "k33.json"), "--k", "2",
                 "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["choosable"] is False
    lists = doc["result"]["witness"]["lists"]
    assert len(lists) == 6 and all(len(l) == 2 for l in lists)
    verdict = is_k_choosable(complete_bipartite(3, 3), 2)
    assert doc["result"]["assignments"] == verdict.assignments > 0


def test_bounds_json_values(capsys):
    assert main(["bounds", "--eps", "1/2", "--C", "1", "--n", "10",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["block_failure_exponent"] == pytest.approx(46.8319,
                                                                    abs=1e-3)
    assert doc["result"]["max_block_size"] == 2
    assert doc["result"]["delta"] == "1/16"


def test_build_counterexample_verification_record(tmp_path):
    out = tmp_path / "ce.json"
    assert main(["build-counterexample", "--fixture", "tiny",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["vertices"] == 20
    assert doc["result"]["copies"] == 9
    ver = doc["result"]["verification"]
    assert ver["list_coloring_found"] is None
    assert ver["pigeonhole"] == {"proper_b_colorings": 6, "all_blocked": True}


def test_experiment_csv_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["experiment", "--n", "16,32", "--trials", "4", "--seed", "7",
                 "--delta", "1/2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "n,seed,p,max_degree,degree_pass"
    assert len(lines) == 2 + 8
    assert [row.split(",")[0] for row in lines[2:]] == ["16"] * 4 + ["32"] * 4


def test_experiment_human_lines(capsys):
    # one line per size: edge probability, degree-property passes and the
    # largest max degree over the trials
    assert main(["experiment", "--n", "8,16,32", "--trials", "20", "--seed", "7",
                 "--delta", "1/2", "--format", "human"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "n=8: p=0.3536 pass 5/20 max degree 7",
        "n=16: p=0.2500 pass 17/20 max degree 11",
        "n=32: p=0.1768 pass 20/20 max degree 14",
    ]


def test_readme_check_minor_examples_match_the_cli(paths, tmp_path, capsys):
    # The README shows check-minor's human line on the Petersen graph and on
    # the glued tiny assembly; node counts there must follow the search
    # (for K_{1,7}, the centre sets enumerated).
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    documented = [line.removeprefix("#").strip() for line in readme.splitlines()
                  if line.startswith("#   check-minor ")]
    report = tmp_path / "ce.json"
    assert main(["build-counterexample", "--fixture", "tiny", "--out", str(report),
                 "--format", "json"]) == 0
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps(json.loads(report.read_text())["result"]["graph"]))
    capsys.readouterr()
    printed = []
    for graph, s, t in [(paths / "petersen.txt", 3, 3), (tiny, 3, 3), (tiny, 2, 3),
                        (paths / "petersen.txt", 1, 7)]:
        main(["check-minor", str(graph), "--s", str(s), "--t", str(t)])
        printed.append(capsys.readouterr().out.splitlines()[0])
    assert printed == documented


def test_readme_end_to_end_chain_matches_the_cli(tmp_path, monkeypatch, capsys):
    # Runs the README's "End to end" commands in order in one directory:
    # build-h writes the gadget file that check-minor and
    # build-counterexample --graph then read.  Each "[exit N]" line gives a
    # command's exit code and the start of its report.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## End to end\n", 1)[1].split("\n## ", 1)[0]
    col = len("#   [exit 0] ")  # where a documented report line starts
    runs = []  # [argv, documented exit code, documented report lines]
    for line in block.replace("\\\n", "").splitlines():
        if line.startswith("kstlab "):
            runs.append([shlex.split(line)[1:], None, []])
        elif line.startswith("#   [exit "):
            runs[-1][1] = int(line[len("#   [exit ")])
            runs[-1][2].append(line[col:])
        elif line.startswith("#" + " " * (col - 1)) and runs and runs[-1][2]:
            runs[-1][2].append(line[col:])
    assert [(argv[0], code) for argv, code, _ in runs] == [
        ("build-h", 0), ("build-h", 0), ("check-minor", 0), ("check-minor", 1),
        ("build-counterexample", 2), ("build-counterexample", 0), ("experiment", 0)]
    monkeypatch.chdir(tmp_path)
    for argv, code, documented in runs:
        assert main(argv) == code, argv
        out = capsys.readouterr().out
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1]).read_text()
        assert out.splitlines()[:len(documented)] == documented, argv
    # the human gadget file is the JSON report's gadget
    build_h = runs[0][0]
    assert main(build_h[:build_h.index("--out")] + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert to_json_dict(parse(Path("h.txt").read_text())) == doc["result"]["graph"]


# --- JSON report encoding ------------------------------------------------------
#
# json.dumps(doc, sort_keys=True, indent=2) is the byte contract of every JSON
# report; the tests keep it as the oracle of cli's own encoder.

_leaves = st.one_of(
    st.text(alphabet=st.sampled_from('a"\\/\n\t\x00\x1f\x7f\xe9 \U0001d11e')),
    st.text(),
    st.integers(min_value=-10**30, max_value=10**30),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e-7, 1e16, float("nan"), float("inf"), float("-inf")]),
)
_docs = st.recursive(
    _leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=30)


@settings(max_examples=300)
@given(_docs)
def test_report_encoder_matches_json_dumps(doc):
    assert _json_report(doc) == json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("pairs", [[[True, 1]], [[1, 2], (3, 4)], [[], [1]], [[1, 2, 3]],
                                   [[10**30, -1]], [[1.0, 2]], [[0, 1], [1, 2]],
                                   [[1, 2], [3]], [[1, 2], [3, 4, 5]], [[1, 2], [3, False]]])
def test_report_encoder_edge_lists(pairs):
    # graph edges take the two-int-pair path; near misses take the general one
    for doc in (pairs, {"graph": {"edges": pairs}}):
        assert _json_report(doc) == json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("doc", [{"a": {1: "x"}}, {None: 1}, {"a": 1, 2: 3},
                                 {"a": [1, {2, 3}]}, [Fraction(1, 2)]])
def test_report_encoder_rejects_what_json_reports_never_hold(doc):
    # json.dumps would print the keys 1 and None as strings; every report
    # key is a string, so a non-str key is a fault
    with pytest.raises(TypeError):
        _json_report(doc)


def test_every_json_report_is_json_dumps_indented(paths, capsys):
    # one report per command, a refusal among them; the graph's file name
    # puts a non-ASCII string in the echoed configuration
    named = paths / "c4-é\U0001d11e.txt"
    named.write_text(to_edge_list(cycle(4)))
    runs = [
        (["check-minor", str(named), "--s", "2", "--t", "2"], 0),
        (["check-minor", str(paths / "c4.txt"), "--s", "3", "--t", "3"], 1),
        (["check-lcolor", str(paths / "c4.txt"), str(paths / "lists2.json")], 0),
        (["check-choosable", str(paths / "k33.json"), "--k", "2"], 1),
        (["build-h", "--n", "6", "--m", "8", "--eps", "5/6", "--C", "4/3",
          "--delta", "2/3", "--seed", "11"], 0),
        (["build-counterexample", "--fixture", "tiny"], 0),
        (["build-counterexample", "--fixture", "tiny", "--max-vertices", "5"], 2),
        (["bounds", "--eps", "1/2", "--C", "1", "--n", "10"], 0),
        (["experiment", "--n", "8,16", "--trials", "3", "--seed", "7"], 0),
    ]
    for i, (argv, code) in enumerate(runs):
        out = paths / f"report{i}.json"
        assert main(argv + ["--format", "json", "--out", str(out)]) == code, argv
        body = out.read_bytes()
        assert body == (json.dumps(json.loads(body), sort_keys=True, indent=2)
                        + "\n").encode("ascii"), argv
    assert capsys.readouterr() == ("", "")


# --- determinism -------------------------------------------------------------


def _run_to_file(argv, path):
    code = main(argv + ["--out", str(path)])
    return code, path.read_bytes()


def test_reports_byte_identical_across_runs_and_threads(tmp_path):
    base = ["experiment", "--n", "16,32", "--trials", "6", "--seed", "123",
            "--delta", "1/2"]
    c1, b1 = _run_to_file(base + ["--threads", "1", "--deterministic"],
                          tmp_path / "a.csv")
    c2, b2 = _run_to_file(base + ["--threads", "8", "--deterministic"],
                          tmp_path / "b.csv")
    c3, b3 = _run_to_file(base, tmp_path / "c.csv")
    assert c1 == c2 == c3 == 0
    assert b1 == b2 == b3


# sha256 of two experiment reports, pinned when every draw was seeded one at
# a time through np.random.default_rng: batch seeding must keep every byte
@pytest.mark.parametrize("argv, digest", [
    (["--n", "32,64,128", "--trials", "200", "--seed", "3", "--delta", "1/2"],
     "81f3db04116b1676213057f833721c02c361a692e0fa47af37fb7919a6bf264a"),
    (["--n", "7,33,100", "--trials", "50", "--seed", "18446744073709551621",
      "--eps", "5/6", "--C", "4/3", "--delta", "2/3", "--format", "json"],
     "d553b3eca3228c8f5e92f40235c97de908ba8531770798a791d6d8c720dcffdd"),
])
def test_experiment_report_bytes_pinned(tmp_path, argv, digest):
    code, body = _run_to_file(["experiment"] + argv, tmp_path / "report")
    assert code == 0
    assert hashlib.sha256(body).hexdigest() == digest


def test_build_h_byte_identical(tmp_path):
    base = ["build-h", "--n", "6", "--m", "8", "--eps", "5/6", "--C", "4/3",
            "--delta", "2/3", "--seed", "11", "--mode", "exhaustive",
            "--format", "json"]
    _, b1 = _run_to_file(base + ["--threads", "1"], tmp_path / "h1.json")
    _, b2 = _run_to_file(base + ["--threads", "8"], tmp_path / "h2.json")
    assert b1 == b2


# --- --out rewrites in place ---------------------------------------------------

BUILD_H = ["build-h", "--eps", "5/6", "--C", "4/3", "--delta", "2/3",
           "--mode", "exhaustive"]
SMALL_H = BUILD_H + ["--n", "6", "--m", "8", "--seed", "11"]
LARGE_H = BUILD_H + ["--n", "18", "--m", "24", "--seed", "5"]


def test_shorter_report_over_a_longer_one_is_a_fresh_write(tmp_path):
    fresh, reused = tmp_path / "fresh.txt", tmp_path / "reused.txt"
    assert main(SMALL_H + ["--out", str(fresh)]) == 0
    assert main(LARGE_H + ["--out", str(reused)]) == 0
    assert reused.stat().st_size > fresh.stat().st_size
    reused.chmod(0o600)
    before = reused.stat()
    assert main(SMALL_H + ["--out", str(reused)]) == 0
    assert reused.read_bytes() == fresh.read_bytes()
    # the same file, with the permissions it had
    after = reused.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)


def test_refusal_over_a_longer_report_is_trimmed(tmp_path, capsys):
    refusal = ["build-counterexample", "--fixture", "tiny", "--max-vertices", "5",
               "--format", "json"]
    fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
    assert main(refusal + ["--out", str(fresh)]) == 2
    assert main(["build-counterexample", "--fixture", "tiny", "--format", "json",
                 "--out", str(reused)]) == 0
    assert reused.stat().st_size > fresh.stat().st_size
    assert main(refusal + ["--out", str(reused)]) == 2
    assert reused.read_bytes() == fresh.read_bytes()
    assert set(json.loads(reused.read_text())["result"]) == {"refused"}
    assert capsys.readouterr().out == ""


def test_out_through_a_symlink_updates_its_target(tmp_path):
    fresh, target, link = tmp_path / "fresh.txt", tmp_path / "target.txt", tmp_path / "link.txt"
    assert main(SMALL_H + ["--out", str(fresh)]) == 0
    target.write_text("stale\n" * 10_000)
    link.symlink_to(target)
    assert main(SMALL_H + ["--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.skipif(not Path("/dev/null").exists(), reason="no /dev/null")
def test_out_to_dev_null(paths, capsys):
    # a character device: written, but not truncated
    assert main(["check-minor", str(paths / "c4.txt"), "--s", "2", "--t", "2",
                 "--format", "json", "--out", "/dev/null"]) == 0
    assert capsys.readouterr() == ("", "")


def test_out_write_loop_takes_short_writes(tmp_path, monkeypatch):
    # os.write may write fewer bytes than it is given; the loop writes the rest
    fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
    argv = SMALL_H + ["--format", "json"]
    assert main(argv + ["--out", str(fresh)]) == 0
    assert main(LARGE_H + ["--format", "json", "--out", str(reused)]) == 0
    assert reused.stat().st_size > fresh.stat().st_size
    write, sizes = os.write, []

    def short_write(fd, data):
        sizes.append(len(data))
        return write(fd, data[:7])

    monkeypatch.setattr(os, "write", short_write)
    assert main(argv + ["--out", str(reused)]) == 0
    monkeypatch.undo()
    body = fresh.read_bytes()
    assert reused.read_bytes() == body
    assert len(sizes) == -(-len(body) // 7) and sizes[0] == len(body)


def test_out_rewrite_of_the_same_report_needs_no_trim(tmp_path, monkeypatch):
    report = tmp_path / "h.txt"
    assert main(SMALL_H + ["--out", str(report)]) == 0
    before, body = report.stat(), report.read_bytes()
    ftruncate, trims = os.ftruncate, []

    def recorded_ftruncate(fd, length):
        trims.append(length)
        ftruncate(fd, length)

    monkeypatch.setattr(os, "ftruncate", recorded_ftruncate)
    assert main(SMALL_H + ["--out", str(report)]) == 0
    assert trims == []
    assert report.read_bytes() == body and report.stat().st_ino == before.st_ino
    # over a longer report: one trim, to the new report's length
    assert main(LARGE_H + ["--out", str(report)]) == 0
    assert main(SMALL_H + ["--out", str(report)]) == 0
    assert trims == [len(body)]
    assert report.read_bytes() == body and report.stat().st_ino == before.st_ino


def test_python_dash_m_entry_point(paths):
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "kstlab", "check-minor", str(paths / "c4.txt"),
         "--s", "2", "--t", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "found" in proc.stdout

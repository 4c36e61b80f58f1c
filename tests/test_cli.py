"""Command-line interface: exit codes, report shapes, determinism.

All invocations go through ``kstlab.cli.main`` in-process; byte-identity
checks write reports through ``--out`` and compare file contents.
"""

from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

from kstlab import cycle, complete_bipartite, is_k_choosable, petersen, serialize, uniform_lists
from kstlab.cli import build_parser, main
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
    c4 = str(paths / "c4.txt")
    for budget in ("0", "-3"):
        assert main(["check-minor", c4, "--s", "2", "--t", "2", "--budget", budget]) == 3
    assert main(["check-choosable", c4, "--k", "2", "--cap-k", "0"]) == 3
    assert main(["check-choosable", c4, "--k", "2", "--cap-n", "-1"]) == 3
    assert main(["check-choosable", c4, "--k", "2", "--cap-n", "0", "--format", "json"]) == 3
    assert "refused" not in capsys.readouterr().out


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


@pytest.mark.parametrize("lists", ['{"lists": [[0, "a"], [1], [0]]}',
                                   '{"lists": [[[0]], [1], [0]]}',
                                   '{"lists": [[0, true], [1], [0]]}'])
def test_malformed_lists_json_is_a_usage_error(paths, capsys, lists):
    g = paths / "p3.txt"
    g.write_text("n=3 m=2\n0 1\n1 2\n")
    assert main(["check-lcolor", str(g), lists]) == 3
    assert "kstlab: error:" in capsys.readouterr().err


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


def test_cached_parser_gives_each_call_its_own_namespace(paths, capsys):
    assert build_parser() is build_parser()
    argv = ["check-minor", str(paths / "c4.txt"), "--s", "2", "--t", "2",
            "--format", "json"]
    assert main(argv + ["--budget", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["budget"] == 1000
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["config"]["budget"] is None


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
    # the glued tiny assembly; node counts there must follow the search.
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
    for graph, s, t in [(paths / "petersen.txt", 3, 3), (tiny, 3, 3), (tiny, 2, 3)]:
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


def test_python_dash_m_entry_point(paths):
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "kstlab", "check-minor", str(paths / "c4.txt"),
         "--s", "2", "--t", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "found" in proc.stdout

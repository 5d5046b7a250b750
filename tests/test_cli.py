import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import infowalk
from infowalk import JointDistribution, ic_and_zero, one_sided_and, tree_to_json
from infowalk.cli import main
from infowalk.disjointness import (
    DisjInstance, disj_error_audit, disj_ic_exact,
)
from infowalk.protocol import Leaf, ProtocolTree

from helpers import exchange_tree


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    return tmp_path, write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# basic commands and exit codes
# ---------------------------------------------------------------------------

def test_entropy_example(capsys):
    code, out, _ = run(capsys, "entropy", "0.25")
    assert code == 0
    assert out.startswith("0.811278")


def test_entropy_domain_error_is_code_2(capsys):
    code, _, err = run(capsys, "entropy", "1.5")
    assert code == 2
    assert "precondition" in err


def test_entropy_of_nan_is_code_2(capsys):
    code, _, err = run(capsys, "entropy", "nan")
    assert code == 2
    assert "precondition" in err


@pytest.mark.parametrize("value", ["0", "1"])
def test_entropy_at_the_ends_prints_zero(capsys, value):
    code, out, _ = run(capsys, "entropy", value)
    assert code == 0
    assert out == "0\n"


def test_parse_failures_are_code_1(capsys, files):
    tmp, write = files
    assert run(capsys, "entropy")[0] == 1
    assert run(capsys, "no-such-command")[0] == 1
    prior = write("uniform.json", [[0.25, 0.25], [0.25, 0.25]])
    # a prior matrix is not a protocol tree
    assert run(capsys, "ic", "--protocol", prior, "--prior", prior)[0] == 1
    missing = str(tmp / "absent.json")
    assert run(capsys, "ic", "--protocol", missing, "--prior", prior)[0] == 1
    bad = write("bad.json", "{not json")
    assert run(capsys, "ic", "--protocol", bad, "--prior", prior)[0] == 1
    negative = write("neg.json", [[0.5, 0.7], [-0.1, -0.1]])
    assert run(capsys, "entropy", "0.5")[0] == 0  # parser still healthy
    tree = write("tree.json", tree_to_json(exchange_tree(2, 2, [[0, 0], [0, 1]])))
    assert run(capsys, "ic", "--protocol", tree, "--prior", negative)[0] == 1


def test_tree_with_a_bad_root_is_a_parse_error(capsys, files):
    _, write = files
    prior = write("uniform.json", [[0.25, 0.25], [0.25, 0.25]])
    tree = write("tree.json", {
        "nx": 2, "ny": 2, "outputs": [0], "root": 3,
        "nodes": [{"kind": "leaf", "output": 0}],
    })
    code, out, err = run(capsys, "ic", "--protocol", tree, "--prior", prior)
    assert code == 1
    assert "parse error" in err and "Traceback" not in err
    assert out == ""


def test_tree_with_list_outputs_is_a_parse_error(capsys, files):
    _, write = files
    prior = write("uniform.json", [[0.25, 0.25], [0.25, 0.25]])
    table = write("f.json", [[0, 0], [0, 1]])
    tree = write("tree.json", {
        "nx": 2, "ny": 2, "outputs": [[0], [1]], "root": 0,
        "nodes": [{"kind": "internal", "owner": "alice", "send_one_prob": [0.0, 1.0],
                   "child0": 1, "child1": 2},
                  {"kind": "leaf", "output": [0]}, {"kind": "leaf", "output": [1]}],
    })
    for argv in (("ic", "--protocol", tree, "--prior", prior),
                 ("complete", "--protocol", tree, "--table", table, "--prior", prior)):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert "must be a JSON scalar" in err and "Traceback" not in err
        assert out == ""


def test_shape_mismatch_is_code_2(capsys, files):
    _, write = files
    tree = write("tree.json", tree_to_json(exchange_tree(2, 2, [[0, 0], [0, 1]])))
    wide = write("wide.json", [[0.2, 0.2, 0.1], [0.2, 0.2, 0.1]])
    code, _, err = run(capsys, "ic", "--protocol", tree, "--prior", wide)
    assert code == 2
    assert "precondition" in err


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == "0.1.0"


# ---------------------------------------------------------------------------
# ic
# ---------------------------------------------------------------------------

def test_ic_full_exchange_at_uniform(capsys, files):
    tmp, write = files
    tree = write(
        "exchange.json",
        tree_to_json(exchange_tree(2, 2, [["00", "01"], ["10", "11"]])),
    )
    prior = write("uniform.json", [[0.25, 0.25], [0.25, 0.25]])
    out_path = str(tmp / "ic.json")
    code, out, _ = run(
        capsys, "ic", "--protocol", tree, "--prior", prior, "--out", out_path
    )
    assert code == 0
    assert "internal 2.0 bits" in out
    payload = json.loads((tmp / "ic.json").read_text())
    assert payload["result"]["ic_internal"] == 2.0
    assert payload["config"]["version"] == "0.1.0"
    assert payload["config"]["command"] == "ic"
    assert payload["config"]["inputs"]["prior"] == prior


# ---------------------------------------------------------------------------
# buzzer / flip / complete
# ---------------------------------------------------------------------------

def test_buzzer_artifacts(capsys, files):
    tmp, write = files
    law_path = str(tmp / "law.csv")
    report_path = str(tmp / "report.json")
    code, out, _ = run(
        capsys,
        "buzzer",
        "--p", "0.5", "--q", "0.25", "--n", "512",
        "--out-law", law_path,
        "--out-report", report_path,
    )
    assert code == 0
    assert "snap=0.0" in out
    lines = (tmp / "law.csv").read_text().splitlines()
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == "ell,axis,mass"
    first = lines[header_at + 1].split(",")
    assert first[0] == "0.5" and first[1] == "x"
    assert float(first[2]) == pytest.approx(0.5, abs=2e-3)
    report = json.loads((tmp / "report.json").read_text())
    assert report["result"]["kolmogorov"] == pytest.approx(
        0.0019455252918287869, abs=1e-15
    )
    # comment lines carry provenance
    assert lines[0].startswith("# infowalk")
    assert "config" in lines[1]


def test_buzzer_start_near_an_edge_snaps_inside(capsys):
    # q·n = 15.68 used to round onto the edge b = n, which the continuous law
    # refused as a start that is not interior
    code, out, err = run(capsys, "buzzer", "--p", "0.5", "--q", "0.98", "--n", "16")
    assert code == 0, err
    assert out.startswith("n=16 start=(8,15) snap=0.0424")


def test_disj_coordinate_prior_near_an_edge(capsys, files):
    # its pretend q = 0.98358 snapped onto the edge at grid 16 (ROADMAP item 6)
    _, write = files
    prior = write("p.json", [[0.6053, 0.3475], [0.0058, 0.0414]])
    code, out, err = run(capsys, "disj", "--n", "3", "--eps", "0.1", "--coord-prior", prior,
                         "--and-grid", "16")
    assert code == 0, err
    assert out.startswith("n=3 mode=exact")


def test_buzzer_needs_start_or_prior(capsys):
    code, _, err = run(capsys, "buzzer", "--n", "64")
    assert code == 2
    assert "precondition" in err


def test_buzzer_from_a_prior_file_prints_plain_floats(capsys, files):
    _, write = files
    w = write("w.json", {"mass": [[0.5, 0.2], [0.3, 0.0]]})
    code, out, _ = run(capsys, "buzzer", "--nu-file", w, "--n", "64")
    assert code == 0
    for token in out.split():
        key, value = token.split("=")
        if key == "start":
            assert value == "(32,26)"  # the pretend start is off the lattice
        else:
            float(value)
    assert "snap=0.00624" in out


def test_buzzer_refuses_two_prior_sources(capsys, files):
    tmp, write = files
    w = write("w.json", {"mass": [[0.5, 0.2], [0.3, 0.0]]})
    report = tmp / "r.json"
    code, out, err = run(
        capsys, "buzzer", "--nu-file", w, "--p", "0.9", "--q", "0.9", "--n", "64",
        "--out-report", str(report),
    )
    assert code == 2 and out == ""
    assert "precondition" in err and "--nu-file" in err
    assert not report.exists()


def test_flip_reports_positive_gain(capsys, files):
    tmp, write = files
    w = write("w.json", {"mass": [[0.4, 0.3], [0.3, 0.0]]})
    out_path = str(tmp / "flip.json")
    code, out, _ = run(
        capsys, "flip", "--eps", "0.01", "--nu-file", w, "--n", "256",
        "--out", out_path,
    )
    assert code == 0
    payload = json.loads((tmp / "flip.json").read_text())
    assert payload["result"]["gain"] > 0.0
    assert payload["result"]["ic_flipped"] < payload["result"]["ic_base"]


def test_complete_repairs_pointwise_error(capsys, files):
    tmp, write = files
    # leaves output the wrong constant, so every input errs before completion
    tree = write("t.json", tree_to_json(exchange_tree(2, 2, [[9, 9], [9, 9]])))
    table = write("f.json", [[0, 0], [0, 1]])
    prior = write("mu.json", [[0.25, 0.25], [0.25, 0.25]])
    report_path = str(tmp / "comp.json")
    tree_path = str(tmp / "completed.json")
    code, out, _ = run(
        capsys,
        "complete",
        "--protocol", tree, "--table", table, "--prior", prior,
        "--out-report", report_path, "--out-tree", tree_path,
    )
    assert code == 0
    payload = json.loads((tmp / "comp.json").read_text())
    assert payload["result"]["max_pointwise_before"] == 1.0
    assert payload["result"]["max_pointwise_after"] == 0.0
    assert (tmp / "completed.json").read_text().startswith("{")


def test_complete_past_the_transcript_cap_is_code_3(capsys, files):
    # one leaf, 25 tests: 2**26 - 1 transcripts, refused before any is built
    tmp, write = files
    tree = write("t.json", tree_to_json(ProtocolTree(5, 5, (0,), Leaf(0))))
    table = write("f.json", [[1] * 5] * 5)
    prior = write("mu.json", [[0.04] * 5] * 5)
    report, out_tree = tmp / "comp.json", tmp / "completed.json"
    code, out, err = run(capsys, "complete", "--protocol", tree, "--table", table,
                         "--prior", prior, "--out-report", str(report),
                         "--out-tree", str(out_tree))
    assert code == 3 and out == ""
    assert "resource cap" in err and "transcripts" in err
    assert not report.exists() and not out_tree.exists()


@pytest.mark.parametrize("argv, cap", [
    ("buzzer --p .5 --q .25 --n 50000000 --out-report r.json", "grid walk"),
    ("buzzer --p .5 --q .25 --n 524288 --out-report r.json", "grid walk"),  # 2n + 1 = 2**20 + 1
    ("flip --eps 0.1 --nu-file nu.json --n 50000000 --out r.json", "grid walk"),
    ("tradeoff --eps-list 0.01 --n 50000000 --out r.json", "grid walk"),
    ("disj --n 2 --eps 0.1 --and-grid 50000000 --out-audit r.json", "grid walk"),
    ("optimize --constraint full --divisions 2000 --out r.json", "optimizer's cap"),
    ("tradeoff --eps-list 0.01 --levels 100000 --out r.json", "optimizer's cap"),
])
def test_work_past_a_size_cap_is_code_3_at_once(argv, cap, capsys, files, monkeypatch):
    # a grid walk's 2n + 1 transcripts are checked against the tree cap before
    # any phase array is made (a DISJ round's factory passes the cap on as it
    # is), and the optimizer's levels x (divisions + 1)**3 or **2 grid points
    # before the first of them is evaluated
    tmp, write = files
    write("nu.json", [[0.4, 0.2], [0.3, 0.1]])
    monkeypatch.chdir(tmp)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 5.0
    assert code == 3 and out == ""
    assert "resource cap" in err and cap in err
    assert not (tmp / "r.json").exists()


# ---------------------------------------------------------------------------
# optimize / tradeoff / xor
# ---------------------------------------------------------------------------

def test_optimize_prints_target_value(capsys, files):
    tmp, _ = files
    out_path = str(tmp / "opt.json")
    code, out, _ = run(
        capsys, "optimize", "--constraint", "zero11", "--out", out_path
    )
    assert code == 0
    assert "0.4827" in out
    payload = json.loads((tmp / "opt.json").read_text())
    assert len(payload["result"]["trace"]) == 6
    assert payload["result"]["argmax"][1][1] == 0.0


def test_tradeoff_csv(capsys, files):
    tmp, _ = files
    out_path = str(tmp / "curve.csv")
    code, out, _ = run(
        capsys,
        "tradeoff", "--eps-list", "1e-3,1e-2", "--n", "256",
        "--out", out_path,
    )
    assert code == 0
    lines = (tmp / "curve.csv").read_text().splitlines()
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == "epsilon,flip_cost,completed_cost,gain,gain_per_h"
    assert len(lines) == header_at + 3
    eps, flip_cost, _, gain, _ = map(float, lines[header_at + 1].split(","))
    assert eps == 1e-3 and gain > 0.0 and flip_cost > 0.0


def test_xor_with_search(capsys, files):
    tmp, _ = files
    csv_path = str(tmp / "xor.csv")
    search_path = str(tmp / "search.json")
    code, out, _ = run(
        capsys,
        "xor", "--eps-list", "0.1,0.25", "--search", "--seed", "3",
        "--samples", "200", "--out", csv_path, "--out-search", search_path,
    )
    assert code == 0
    assert "external=0.9" in out
    payload = json.loads((tmp / "search.json").read_text())
    for row in payload["result"]["results"]:
        if row["valid"]:
            assert row["min_external"] >= row["floor"] - 1e-9
    assert payload["config"]["seed"] == 3


def test_xor_search_without_seed_is_code_2(capsys):
    code, _, err = run(capsys, "xor", "--eps-list", "0.1", "--search")
    assert code == 2
    assert "seed" in err


def test_xor_out_search_without_search_leaves_no_output(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, "xor", "--eps-list", "0.1", "--out", "x.csv", "--out-search", "s.json"
    )
    assert code == 2 and out == ""
    assert "precondition" in err and "--search" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("xor", "--eps-list", "0.1", "--search", "--out", "x.csv"),
    ("xor", "--eps-list", "0.1", "--search", "--out-search", "s.json"),
])
def test_seedless_sampled_modes_leave_no_output(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "seed" in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# disj / trivial-check
# ---------------------------------------------------------------------------

def test_disj_exact_audit(capsys, files):
    tmp, _ = files
    audit_path = str(tmp / "audit.json")
    curve_path = str(tmp / "curve.csv")
    code, out, _ = run(
        capsys,
        "disj", "--n", "2", "--eps", "0.1", "--with-ic", "--and-grid", "16",
        "--out-audit", audit_path, "--out-curve", curve_path,
    )
    assert code == 0
    payload = json.loads((tmp / "audit.json").read_text())
    result = payload["result"]
    assert result["mode"] == "exact"
    assert result["p_one"] == pytest.approx(0.4375, abs=1e-12)
    assert result["eps_round"] == pytest.approx(0.1 / (2 * 0.4375), abs=1e-12)
    assert result["distributional"] < 0.1
    per_input = np.array(result["per_input"])
    assert per_input[0, 0] == 0.0
    assert result["ic_internal"] > 0.0
    curve_lines = (tmp / "curve.csv").read_text().splitlines()
    assert any("fitted_exponent" in line for line in curve_lines)


def test_disj_ic_at_the_default_grid(capsys, files):
    tmp, _ = files
    audit_path = str(tmp / "audit.json")
    code, _, err = run(
        capsys, "disj", "--n", "2", "--eps", "0.1", "--with-ic",
        "--out-audit", audit_path,
    )
    assert code == 0, err
    result = json.loads((tmp / "audit.json").read_text())["result"]
    assert 0.0 < result["ic_internal"] < 4.0


def test_disj_refuses_hardest_with_a_coordinate_prior(capsys, files):
    tmp, write = files
    w = write("w.json", {"mass": [[0.4, 0.3], [0.3, 0.0]]})
    audit = tmp / "a.json"
    code, out, err = run(
        capsys, "disj", "--n", "2", "--eps", "0.1", "--hardest", "--coord-prior", w,
        "--and-grid", "16", "--out-audit", str(audit),
    )
    assert code == 2 and out == ""
    assert "--hardest" in err and "--coord-prior" in err
    assert not audit.exists()


@pytest.mark.parametrize("curve_eps, exit_code", [("0.6", 2), ("0.1,abc", 1)],
                         ids=["outside-domain", "unparsable"])
def test_disj_refuses_a_bad_curve_eps_before_any_output(capsys, files, curve_eps, exit_code):
    tmp, _ = files
    audit, curve = tmp / "a.json", tmp / "c.csv"
    code, out, err = run(
        capsys, "disj", "--n", "2", "--eps", "0.1", "--and-grid", "16",
        "--out-audit", str(audit), "--out-curve", str(curve), "--curve-eps", curve_eps,
    )
    assert code == exit_code and out == "" and err
    assert not audit.exists() and not curve.exists()


def test_disj_parses_curve_eps_without_out_curve(capsys, files):
    tmp, _ = files
    audit = tmp / "a.json"
    code, out, err = run(capsys, "disj", "--n", "2", "--eps", "0.1", "--and-grid", "16",
                         "--out-audit", str(audit), "--curve-eps", "abc")
    assert code == 1 and out == "" and "bad epsilon list 'abc'" in err
    assert not audit.exists()


def test_disj_runs_at_any_n(capsys):
    # 4¹⁰ inputs fit the audit's table and 4¹¹ do not, yet both audits run,
    # and so do instances past 4096 coordinates: n has no cap
    code, out, err = run(capsys, "disj", "--n", "10", "--eps", "0.1", "--and-grid", "16")
    assert code == 0, err
    assert out.startswith("n=10 mode=exact distributional=0.010774499980894837 ")
    for n in (11, 4097, 10**7):
        code, out, err = run(capsys, "disj", "--n", str(n), "--eps", "0.1", "--with-ic",
                              "--and-grid", "16")
        assert code == 0 and err == ""
        assert out.startswith(f"n={n} mode=exact distributional=")


def test_disj_at_a_billion_coordinates_writes_a_null_table(capsys, files):
    # n is checked against the table cap's base-4 log, so no 2n-bit 4ⁿ is made
    tmp, _ = files
    audit = tmp / "a.json"
    start = time.perf_counter()
    code, out, err = run(capsys, "disj", "--n", "1000000000", "--eps", "0.1", "--with-ic",
                         "--out-audit", str(audit))
    assert time.perf_counter() - start < 5.0
    assert code == 0, err
    result = json.loads(audit.read_text())["result"]
    assert result["n"] == 10**9 and result["per_input"] is None
    assert out.startswith("n=1000000000 mode=exact ")
    assert 0.0 < result["expected_rounds"] < 10**9 and result["ic_internal"] > 0.0


def test_disj_past_the_table_cap_writes_a_null_table(capsys, files):
    # n = 11 once exited 3 at the audit's table cap; now only per_input is left out
    tmp, _ = files
    audit = tmp / "a.json"
    code, out, err = run(capsys, "disj", "--n", "11", "--eps", "0.1", "--and-grid", "8",
                         "--out-audit", str(audit))
    assert code == 0, err
    result = json.loads(audit.read_text())["result"]
    assert result["per_input"] is None
    assert out == (f"n=11 mode=exact distributional={result['distributional']!r} "
                   f"eps_round={result['eps_round']!r} "
                   f"expected_rounds={result['expected_rounds']!r}\n")


def test_disj_at_1000_coordinates_matches_its_closed_forms(tmp_path):
    # iid uniform rounds say 1 only at (1, 1), with o = 1 − ε_r there, so the
    # error and the rounds have closed forms in m = w(1, 1) and ε_r
    package_root = str(Path(infowalk.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": package_root}
    done = subprocess.run(
        [sys.executable, "-m", "infowalk", "disj", "--n", "1000", "--eps", "0.1",
         "--with-ic", "--out-audit", "a.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "a.json").read_text())["result"]
    assert result["per_input"] is None and result["ic_internal"] > 0.0
    n, m, eps_r = 1000, 0.25, result["eps_round"]
    # n-fold powers, in the audit and in the closed form: read at 1e-12
    assert result["distributional"] == pytest.approx(
        (1.0 - m + m * eps_r) ** n - (1.0 - m) ** n, rel=1e-12, abs=0.0)
    # the rounds' reach is within 2e-15 relative of exact arithmetic; the
    # closed form here is in floats
    miss = 1.0 - m * (1.0 - eps_r)
    assert result["expected_rounds"] == pytest.approx(
        (1.0 - miss**n) / (1.0 - miss), rel=1e-11, abs=0.0)


def test_disj_audit_at_1000_coordinates_takes_well_under_1_s():
    # the audit and its cost are O(runs), one run here (about 0.1 s on a
    # 2-core host, nearly all of it the AND walk); a 4ⁿ path would take far longer
    inst = DisjInstance.iid(JointDistribution.from_mass(np.full((2, 2), 0.25)), 1000)

    def factory(prior, eps):
        return one_sided_and(eps, prior, n=256)

    start = time.perf_counter()
    disj_error_audit(inst, 0.1, factory)
    disj_ic_exact(inst, 0.1, factory)
    assert time.perf_counter() - start < 1.0


def test_disj_has_no_sampled_mode(capsys):
    code, out, _ = run(capsys, "disj", "--help")
    assert code == 0 and "--with-ic" in out
    for flag, value in (("--mode", "mc"), ("--samples", "5"), ("--seed", "1")):
        assert flag not in out
        code, out_bad, err = run(capsys, "disj", "--n", "2", "--eps", "0.1", flag, value)
        assert code == 1 and out_bad == "" and "unrecognized" in err


def test_disj_with_ic_builds_each_and_walk_once(capsys, monkeypatch):
    # the audit and the cost share the walk of the one distinct prior
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return one_sided_and(*args, **kwargs)

    monkeypatch.setattr("infowalk.cli.one_sided_and", counting)
    code, out, err = run(capsys, "disj", "--n", "3", "--eps", "0.1", "--with-ic",
                         "--and-grid", "16")
    assert code == 0, err
    assert len(calls) == 1
    assert out == ("n=3 mode=exact distributional=0.037548457149625895 "
                   "eps_round=0.08648648648648649 expected_rounds=2.3670215485756025\n")


def test_shared_node_tree_file_is_code_3_at_once(capsys, files):
    # 40 levels whose two children are one node: 2**40 transcripts
    nodes = [{"kind": "internal", "owner": "alice", "send_one_prob": [0.5, 0.5],
              "child0": i + 1, "child1": i + 1} for i in range(40)]
    nodes.append({"kind": "leaf", "output": 0})
    _, write = files
    tree = write("dag40.json", {"nx": 2, "ny": 2, "outputs": [0], "root": 0,
                                "nodes": nodes})
    prior = write("u.json", [[0.25, 0.25], [0.25, 0.25]])
    start = time.perf_counter()
    code, out, err = run(capsys, "ic", "--protocol", tree, "--prior", prior)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "resource cap" in err and "transcripts" in err


def test_deep_chain_tree_file_prices(capsys, files):
    # 100 levels and no depth_cap key: deeper than such a file used to allow
    nodes = [{"kind": "internal", "owner": ("alice", "bob")[i % 2],
              "send_one_prob": [0.5, 0.25], "child0": 100, "child1": i + 1}
             for i in range(100)]
    nodes.append({"kind": "leaf", "output": 0})
    _, write = files
    tree = write("chain100.json", {"nx": 2, "ny": 2, "outputs": [0], "root": 0,
                                   "nodes": nodes})
    prior = write("u.json", [[0.25, 0.25], [0.25, 0.25]])
    code, out, _ = run(capsys, "ic", "--protocol", tree, "--prior", prior)
    assert code == 0 and "internal" in out


def test_trivial_check_verdict(capsys, files):
    tmp, write = files
    table = write("xor.json", [[0, 1], [1, 0]])
    mu = write("diag.json", {"mass": [[0.5, 0.0], [0.0, 0.5]]})
    out_path = str(tmp / "verdict.json")
    code, out, _ = run(
        capsys, "trivial-check", "--table", table, "--mu", mu, "--out", out_path
    )
    assert code == 0
    assert "internal-trivial True" in out
    payload = json.loads((tmp / "verdict.json").read_text())
    assert payload["result"]["internal"] is True
    assert payload["result"]["external"] is False
    assert payload["result"]["witness"]["ic_internal"] <= 1e-12
    assert payload["result"]["witness"]["support_error"] == 0.0


def test_trivial_check_finds_the_components_once(capsys, files, monkeypatch):
    # the witness is built from the verdict's blocks, with no second search
    from infowalk import trivial

    calls = []
    components = trivial._components
    monkeypatch.setattr(trivial, "_components", lambda mu: calls.append(mu) or components(mu))
    tmp, write = files
    table = write("xor.json", [[0, 1], [1, 0]])
    mu = write("diag.json", {"mass": [[0.5, 0.0], [0.0, 0.5]]})
    code, _, _ = run(capsys, "trivial-check", "--table", table, "--mu", mu,
                     "--out", str(tmp / "verdict.json"))
    assert code == 0 and len(calls) == 1
    assert json.loads((tmp / "verdict.json").read_text())["result"]["witness"]["kind"] \
        == "internal"


def test_trivial_check_requested_kind_unavailable(capsys, files):
    tmp, write = files
    table = write("and.json", [[0, 0], [0, 1]])
    mu = write("uniform.json", [[0.25, 0.25], [0.25, 0.25]])
    out_path = str(tmp / "verdict.json")
    code, _, _ = run(
        capsys, "trivial-check", "--table", table, "--mu", mu,
        "--kind", "internal", "--out", out_path,
    )
    assert code == 0
    payload = json.loads((tmp / "verdict.json").read_text())
    assert payload["result"]["internal"] is False
    assert payload["result"]["witness"] is None


def test_trivial_check_on_a_300x300_full_support_prior_exits_0(capsys, files):
    # linear in the table: comparing every pair of the 90000 support cells
    # would take minutes
    _, write = files
    table = write("zero.json", [[0] * 300] * 300)
    mu = write("uniform.json", np.full((300, 300), 1 / 90000).tolist())
    start = time.perf_counter()
    code, out, _ = run(capsys, "trivial-check", "--table", table, "--mu", mu)
    assert time.perf_counter() - start < 5.0
    assert code == 0 and out == "internal-trivial True external-trivial True\n"


def test_complete_past_the_cap_at_400x400_is_code_3_at_once(capsys, files):
    # every one of the 160000 cells is a test of the one leaf; the cap check
    # stops at the first leaf with too many tests
    tmp, write = files
    tree = write("leaf.json", {"nx": 400, "ny": 400, "outputs": [0], "root": 0,
                               "nodes": [{"kind": "leaf", "output": 0}]})
    table = write("ones.json", [[1] * 400] * 400)
    prior = write("uniform.json", np.full((400, 400), 1 / 160000).tolist())
    start = time.perf_counter()
    code, out, err = run(capsys, "complete", "--protocol", tree, "--table", table,
                         "--prior", prior, "--out-tree", str(tmp / "t.json"),
                         "--out-report", str(tmp / "r.json"))
    assert time.perf_counter() - start < 2.0
    assert code == 3 and out == ""
    assert "resource cap" in err and "transcripts" in err
    assert not (tmp / "t.json").exists() and not (tmp / "r.json").exists()


# ---------------------------------------------------------------------------
# the configuration every artifact embeds
# ---------------------------------------------------------------------------

ECHO_INPUTS = {
    "exchange.json": tree_to_json(exchange_tree(2, 2, [["00", "01"], ["10", "11"]])),
    "t.json": tree_to_json(exchange_tree(2, 2, [[9, 9], [9, 9]])),
    "f.json": json.dumps([[0, 0], [0, 1]]),
    "u.json": json.dumps([[0.25, 0.25], [0.25, 0.25]]),
    "w.json": json.dumps({"mass": [[0.4, 0.3], [0.3, 0.0]]}),
    "xor.json": json.dumps([[0, 1], [1, 0]]),
    "diag.json": json.dumps({"mass": [[0.5, 0.0], [0.0, 0.5]]}),
}

# (command line, artifact, inputs, outputs, params, seed)
ECHO_CASES = [
    ("ic --protocol exchange.json --prior u.json --out ic.json", "ic.json",
     {"protocol": "exchange.json", "prior": "u.json"}, {"out": "ic.json"}, {}, None),
    ("buzzer --p 0.5 --q 0.25 --n 64 --out-law law.csv --out-report r.json", "law.csv",
     {}, {"out_law": "law.csv", "out_report": "r.json"},
     {"n": 64, "p": 0.5, "q": 0.25}, None),
    ("buzzer --p 0.5 --q 0.25 --n 64 --out-law law.csv --out-report ''", "law.csv",
     {}, {"out_law": "law.csv"}, {"n": 64, "p": 0.5, "q": 0.25}, None),
    ("buzzer --nu-file w.json --n 64 --out-report r.json", "r.json",
     {"nu_file": "w.json"}, {"out_report": "r.json"}, {"n": 64}, None),
    ("flip --eps 0.01 --nu-file w.json --n 64 --out flip.json", "flip.json",
     {"nu_file": "w.json"}, {"out": "flip.json"}, {"eps": 0.01, "n": 64}, None),
    ("complete --protocol t.json --table f.json --prior u.json --out-tree c.json "
     "--out-report comp.json", "comp.json",
     {"protocol": "t.json", "table": "f.json", "prior": "u.json"},
     {"out_tree": "c.json", "out_report": "comp.json"}, {}, None),
    ("optimize --levels 2 --divisions 4 --out opt.json", "opt.json",
     {}, {"out": "opt.json"},
     {"constraint": "zero11", "levels": 2, "divisions": 4}, None),
    ("tradeoff --eps-list 1e-2 --n 64 --levels 2 --out curve.csv", "curve.csv",
     {}, {"out": "curve.csv"},
     {"eps_list": "1e-2", "constraint": "zero11", "n": 64, "levels": 2}, None),
    ("xor --eps-list 0.1 --out x.csv", "x.csv",
     {}, {"out": "x.csv"}, {"eps_list": "0.1", "search": False, "samples": 500}, None),
    ("xor --eps-list 0.1 --search --samples 20 --seed 3 --out x.csv "
     "--out-search s.json", "s.json",
     {}, {"out": "x.csv", "out_search": "s.json"},
     {"eps_list": "0.1", "search": True, "samples": 20}, 3),
    ("disj --n 2 --eps 0.1 --hardest --and-grid 16 --curve-eps 1e-3,1e-2 "
     "--out-audit a.json --out-curve dc.csv", "dc.csv",
     {}, {"out_audit": "a.json", "out_curve": "dc.csv"},
     {"n": 2, "eps": 0.1, "hardest": True, "with_ic": False, "and_grid": 16,
      "curve_eps": "1e-3,1e-2"}, None),
    ("disj --n 2 --eps 0.1 --coord-prior w.json --and-grid 16 --with-ic "
     "--out-audit a.json", "a.json",
     {"coord_prior": "w.json"}, {"out_audit": "a.json"},
     {"n": 2, "eps": 0.1, "hardest": False, "with_ic": True, "and_grid": 16,
      "curve_eps": "1e-4,1e-3,1e-2,5e-2,1e-1"}, None),
    ("trivial-check --table xor.json --mu diag.json --out v.json", "v.json",
     {"table": "xor.json", "mu": "diag.json"}, {"out": "v.json"}, {"kind": "auto"}, None),
]


@pytest.mark.parametrize(
    "line, artifact, inputs, outputs, params, seed", ECHO_CASES,
    ids=[case[0].split()[0] + ":" + case[1] for case in ECHO_CASES],
)
def test_artifact_echoes_its_configuration(
    capsys, tmp_path, monkeypatch, line, artifact, inputs, outputs, params, seed
):
    monkeypatch.chdir(tmp_path)
    for name, text in ECHO_INPUTS.items():
        (tmp_path / name).write_text(text)
    argv = shlex.split(line)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    text = (tmp_path / artifact).read_text()
    if artifact.endswith(".csv"):
        config_line = next(l for l in text.splitlines() if l.startswith("# config "))
        echo, fmt = json.loads(config_line[len("# config "):]), "csv"
    else:
        echo, fmt = json.loads(text)["config"], "json"
    assert echo == {
        "command": argv[0],
        "format": fmt,
        "inputs": inputs,
        "outputs": outputs,
        "params": params,
        "seed": seed,
        "version": infowalk.__version__,
    }


# ---------------------------------------------------------------------------
# reproducibility and real entry points
# ---------------------------------------------------------------------------

def test_artifacts_are_byte_identical_across_reruns(capsys, files):
    tmp, _ = files
    out_path = str(tmp / "opt.json")
    run(capsys, "optimize", "--constraint", "zero11", "--levels", "3",
        "--out", out_path)
    first = (tmp / "opt.json").read_bytes()
    run(capsys, "optimize", "--constraint", "zero11", "--levels", "3",
        "--out", out_path)
    assert (tmp / "opt.json").read_bytes() == first


# sha256 of artifacts that the README examples do not write: each result is a
# library record written field by field, so a renamed or retyped field shows
ARTIFACT_PINS = {
    "ic --protocol exchange.json --prior u.json --out ic.json":
        "a24b2eb2836dcfa24d22b571bbf5593053f305c44d8c2ac9b8df88308d79d5c0",
    # some tree qualifies at both ε
    "xor --eps-list 0.1,0.25 --search --samples 20 --seed 3 --out-search s.json":
        "8a0bdf76139b26148fcc884af62e232f82da44664e6feec18cb7b0be11d5db54",
    # none qualifies, so min_external is null
    "xor --eps-list 0 --search --samples 1 --seed 0 --out-search s.json":
        "bcb93d8e6e0ba4f7a4e73743c9424ced7419970daed0eaecbf41a315b3f13843",
    # past the composite law's reach: a table of 4⁵ inputs
    "disj --n 5 --eps 0.1 --and-grid 16 --with-ic --out-audit a.json":
        "f9172f7df52ec56f46f4b1a1d9f25abd2b4a51af71f3d09e87747e5eb640daf0",
    # internally trivial: two blocks and a witness
    "trivial-check --table xor.json --mu diag.json --out v.json":
        "2292f9c249ccf44cd1f894494d90eaf6c439e3b14b34551f53e15fe8683fcb17",
}


@pytest.mark.parametrize("line", ARTIFACT_PINS)
def test_artifacts_are_pinned_byte_for_byte(capsys, tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    for name, text in ECHO_INPUTS.items():
        (tmp_path / name).write_text(text)
    argv = shlex.split(line)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    written = (tmp_path / argv[-1]).read_bytes()
    assert hashlib.sha256(written).hexdigest() == ARTIFACT_PINS[line]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "infowalk", "entropy", "0.25"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("0.811278")
    bad = subprocess.run(
        [sys.executable, "-m", "infowalk", "entropy", "2.0"],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 2


def run_buzzer(tmp_path, n, *extra):
    """(IC, exit code, peak RSS in MB) of ``buzzer --p 0.5 --q 0.25 --n n``
    run in a fresh process.  The peak is the process's own high-water mark:
    Linux carries the spawning process's peak into a child's ``ru_maxrss``,
    so under pytest that reads as the test process's size."""
    script = (
        "import resource, sys\n"
        "from infowalk.cli import main\n"
        f"code = main(['buzzer', '--p', '0.5', '--q', '0.25', '--n', '{n}', *{list(extra)!r}])\n"
        "try:\n"
        "    peak = int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
        "except OSError:\n"
        "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(code, peak)\n"
    )
    package_root = str(Path(infowalk.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": package_root}
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    summary, status = done.stdout.splitlines()
    code, max_rss_kb = map(int, status.split())
    internal = float(summary.split("internal=")[1].split()[0])
    prior = JointDistribution.from_mass(np.outer([0.5, 0.5], [0.75, 0.25]))
    assert abs(internal - ic_and_zero(prior)) <= 8.0 / n**2
    return internal, code, max_rss_kb / 1024


def test_buzzer_at_65536_runs_direct_within_60_mb(tmp_path):
    # 65537 transcripts × 4 inputs, summed directly block by block.  The
    # process peaks at 48.4 MB (Python 3.11, numpy 2.4); 60 MB leaves 24%.
    internal, code, max_rss_mb = run_buzzer(tmp_path, 65536, "--out-report", "report.json")
    assert code == 0
    assert max_rss_mb < 60
    report = json.loads((tmp_path / "report.json").read_text())["result"]
    assert report["ic_internal"] == internal


def test_buzzer_at_262144_runs_within_100_mb(tmp_path):
    # 262145 transcripts; the process peaks at 88 MB (Python 3.11, numpy 2.4)
    _, code, max_rss_mb = run_buzzer(tmp_path, 262144)
    assert code == 0
    assert max_rss_mb < 100

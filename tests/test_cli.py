import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import aspcount
import aspcount.cli
from aspcount import parse_program
from aspcount.cli import run

from helpers import EXAMPLE1, path_text

REPORT_KEYS = {
    "schema_version",
    "mode",
    "answer_count",
    "decisions",
    "propagations",
    "bcp_seconds",
    "cache_lookups",
    "cache_hits",
    "cache_hit_pct",
    "cache_entries",
    "cache_evictions",
    "peak_cache_bytes",
    "unfounded_literals",
    "wall_seconds",
    "parse_seconds",
    "encode_seconds",
    "tight",
    "n_atoms",
    "n_rules",
    "n_loop_atoms",
    "n_copy_vars",
    "n_clauses_f",
    "n_clauses_g",
    "n_vars",
    "path",
}


@pytest.fixture
def example1(tmp_path):
    path = tmp_path / "example1.gnp"
    path.write_text(EXAMPLE1)
    return str(path)


def test_count_stdout_is_single_line(example1, capsys):
    assert run(["count", example1]) == 0
    out = capsys.readouterr().out
    assert out == "2\n"


def test_count_stats_json_schema(example1, capsys):
    assert run(["count", example1, "--stats", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "2\n"
    doc = json.loads(captured.err.strip())
    assert set(doc) == REPORT_KEYS
    assert doc["schema_version"] == 2
    assert doc["mode"] == "count"
    assert doc["answer_count"] == "2"
    assert doc["tight"] is False
    assert doc["n_atoms"] == 5
    assert doc["n_loop_atoms"] == doc["n_copy_vars"] == 2
    assert doc["n_clauses_g"] == 5  # the paper's six less -a | a | c'
    assert doc["n_vars"] == 7  # 4 classes (a and b are one), 1 aux, 2 copies
    assert doc["path"] is None  # only hybrid takes a path
    assert doc["cache_entries"] > 0 and doc["peak_cache_bytes"] > 0
    assert doc["cache_evictions"] == 0  # far below the 1024 MB cap
    assert doc["parse_seconds"] >= 0 and doc["encode_seconds"] >= 0
    assert doc["parse_seconds"] + doc["encode_seconds"] <= doc["wall_seconds"]
    # the unfounded-set check falsifies c and d on the branch where b holds,
    # and runs only in count mode
    assert doc["unfounded_literals"] == 2
    assert run(["enumerate", example1, "--stats", "json"]) == 0
    doc = json.loads(capsys.readouterr().err.strip())
    assert set(doc) == REPORT_KEYS
    assert doc["unfounded_literals"] == 0


def test_analyze(example1, capsys):
    assert run(["analyze", example1]) == 0
    out = capsys.readouterr().out
    assert "tight: false" in out
    assert "loop_atoms: c d" in out
    assert "underivable: \n" in out  # every atom of Example 1 is derivable
    assert "warning" not in out


def test_analyze_underivable_and_warnings(tmp_path, capsys):
    path = tmp_path / "p.gnp"
    path.write_text("a :- a.\nb :- not c.\nc :- d.\ne :- b, not b.\n")
    assert run(["analyze", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "underivable: a c d" in lines
    assert [l for l in lines if l.startswith("warning: ")] == [
        "warning: body-unsatisfiable: e :- b, not b.",
        "warning: never-in-head: d (completion forces it false)",
    ]


def test_analyze_dump_graph(example1, capsys):
    assert run(["analyze", example1, "--dump-graph"]) == 0
    out = capsys.readouterr().out
    assert "c d" in out.splitlines()  # the c -> d dependency edge


def test_gen_chain_and_hybrid(tmp_path, capsys):
    out_path = tmp_path / "chain20.gnp"
    assert run(["gen", "chain", "20", "-o", str(out_path)]) == 0
    assert run(["hybrid", str(out_path), "--stats", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1048576\n"
    doc = json.loads(captured.err.strip())
    assert doc["mode"] == "hybrid"
    assert doc["answer_count"] == "1048576"
    assert doc["path"] == "counting"
    assert doc["n_vars"] == 20  # one variable per negation pair


def test_enumerate_limit_exceeded(tmp_path, capsys):
    out_path = tmp_path / "chain12.gnp"
    assert run(["gen", "chain", "12", "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert run(["enumerate", str(out_path), "--limit", "100"]) == 0
    assert capsys.readouterr().out == "exceeded\n"
    assert run(["enumerate", str(out_path), "--limit", "5000"]) == 0
    assert capsys.readouterr().out == "4096\n"


def test_oracle_subcommand(example1, capsys):
    assert run(["oracle", example1]) == 0
    assert capsys.readouterr().out == "2\n"


def test_oracle_cap_exceeded(tmp_path, capsys):
    path = tmp_path / "big.gnp"
    path.write_text("".join(f"a{i}.\n" for i in range(30)))
    assert run(["oracle", str(path)]) == 2
    small = tmp_path / "small.gnp"
    small.write_text("".join(f"a{i}.\n" for i in range(8)))
    assert run(["oracle", str(small), "--cap", "4"]) == 2
    capsys.readouterr()
    assert run(["oracle", str(small)]) == 0
    assert capsys.readouterr().out == "1\n"


def test_translate(example1, tmp_path, capsys):
    out_path = tmp_path / "example1.cnf"
    assert run(["translate", example1, "-o", str(out_path)]) == 0
    text = out_path.read_text()
    # a and b are one class; c :- a, b. reads as {a, -a} and gets no auxiliary
    assert text.startswith("c orig 1 2 3 4\nc aux 5\nc copy 6 7\n")
    assert "c atoms 1 -1 2 3 4\n" in text
    assert "p cnf 7 14\n" in text  # no copy clause -a | a | c'
    assert run(["translate", example1]) == 0
    assert capsys.readouterr().out == text


def test_gen_hamiltonian_and_reach(tmp_path, capsys):
    graph_path = tmp_path / "c3.graph"
    graph_path.write_text("3 3\n0 1\n1 2\n2 0\n")
    ham = tmp_path / "ham.gnp"
    assert run(["gen", "hamiltonian", str(graph_path), "-o", str(ham)]) == 0
    assert run(["count", str(ham)]) == 0
    assert capsys.readouterr().out == "1\n"
    reach = tmp_path / "reach.gnp"
    assert run(["gen", "reach", str(graph_path), "0", "2", "-o", str(reach)]) == 0
    assert run(["count", str(reach)]) == 0
    assert capsys.readouterr().out == "1\n"


def test_modes_agree(example1, tmp_path, capsys):
    chain = tmp_path / "chain8.gnp"
    assert run(["gen", "chain", "8", "-o", str(chain)]) == 0
    for path, expected in ((example1, "2\n"), (str(chain), "256\n")):
        for argv in (
            ["count", path],
            ["enumerate", path, "--limit", "100000"],
            ["hybrid", path],
            ["oracle", path],
        ):
            capsys.readouterr()
            assert run(argv) == 0
            assert capsys.readouterr().out == expected


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.gnp"
    path.write_text("a :- not not b.")
    assert run(["count", str(path)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert run(["count", "/nonexistent/path.gnp"]) == 1


def test_usage_error_exit_code(capsys):
    assert run(["count"]) == 1
    assert run(["frobnicate"]) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["count", "--cache-limit-mb", "-1"], "must be >= 0, got -1", id="cache-limit-negative"),
        pytest.param(["hybrid", "--budget", "-1"], "must be >= 0, got -1.0", id="budget-negative"),
        pytest.param(["hybrid", "--budget", "nan"], "must be >= 0, got nan", id="budget-nan"),
        pytest.param(["oracle", "--cap", "-1"], "must be >= 0, got -1", id="cap-negative"),
        pytest.param(["enumerate", "--limit", "0"], "must be >= 1, got 0", id="limit-zero"),
        pytest.param(["enumerate", "--limit", "-1"], "must be >= 1, got -1", id="limit-negative"),
        pytest.param(["enumerate", "--limit", "abc"], "invalid int value: 'abc'", id="limit-not-int"),
        pytest.param(["hybrid", "--threshold", "0"], "must be >= 1, got 0", id="threshold-zero"),
    ],
)
def test_bad_numeric_option_is_usage_error(example1, capsys, argv, message):
    # the message names the option and the kind of value, never a helper
    assert run([argv[0], example1, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: argument {argv[1]}: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["translate", "{file}", "--stats", "json"], id="translate-stats"),
        pytest.param(["oracle", "{file}", "--no-cache"], id="oracle-no-cache"),
        pytest.param(["analyze", "{file}", "--cache-limit-mb", "3"], id="analyze-cache-limit"),
        pytest.param(["gen", "--seed", "5", "chain", "2"], id="gen-seed"),
        pytest.param(["count", "{file}", "--seed", "3"], id="count-seed"),
    ],
)
def test_run_mode_option_elsewhere_is_usage_error(example1, capsys, argv):
    # --stats, --no-cache and --cache-limit-mb belong to count, enumerate
    # and hybrid only; --seed belongs to no mode, as ties go to the
    # smallest index
    assert run([a.format(file=example1) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error")


def test_wall_seconds_includes_parsing(example1, capsys, monkeypatch):
    def slow_parse(text):
        time.sleep(0.05)
        return parse_program(text)

    monkeypatch.setattr(aspcount.cli, "parse_program", slow_parse)
    assert run(["count", example1, "--stats", "json"]) == 0
    doc = json.loads(capsys.readouterr().err.strip())
    assert doc["wall_seconds"] >= 0.05
    assert doc["parse_seconds"] >= 0.05


def test_python_dash_m(example1):
    src = str(Path(aspcount.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "aspcount", "count", example1],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "2\n")


def test_hybrid_cut_in_counting_reports_both_phases(tmp_path, capsys, monkeypatch):
    path = tmp_path / "path.gnp"
    path.write_text(path_text(8))

    def check(self):
        if self.stats.cache_lookups:
            raise aspcount.ResourceLimitError("time budget exhausted", self._finalize())

    monkeypatch.setattr(aspcount.Engine, "_check_deadline", check)
    assert run(["hybrid", str(path), "--threshold", "1", "--stats", "json"]) == 2
    doc = json.loads(capsys.readouterr().err.splitlines()[0])
    assert doc["answer_count"] == "exceeded" and doc["path"] == "counting"
    # enumeration's: 4 down to the first answer and 2 more to the second
    assert doc["decisions"] == 6


def test_no_cache_flag(example1, capsys):
    assert run(["count", example1, "--no-cache", "--stats", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "2\n"
    doc = json.loads(captured.err.strip())
    assert doc["cache_lookups"] == 0


def test_cache_limit_flag(example1, capsys):
    assert run(["count", example1, "--cache-limit-mb", "4"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_budget_exhaustion_exit_code(tmp_path, capsys):
    path = tmp_path / "chain14.gnp"
    assert run(["gen", "chain", "14", "-o", str(path)]) == 0
    code = run(["hybrid", str(path), "--threshold", "10", "--budget", "0.0", "--stats", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    doc = json.loads(captured.err.strip().splitlines()[0])
    assert doc["answer_count"] == "exceeded"


@pytest.mark.parametrize("mode", [["count"], ["enumerate", "--limit", "10"]])
def test_budget_bounds_count_and_enumerate(mode, example1, capsys):
    # a zero budget is exhausted before the search starts: exit 2, no count,
    # and the report still written
    code = run([*mode, example1, "--budget", "0", "--stats", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    doc = json.loads(captured.err.splitlines()[0])
    assert set(doc) == REPORT_KEYS
    assert doc["mode"] == mode[0] and doc["answer_count"] == "exceeded"
    assert captured.err.splitlines()[1] == "time budget exhausted"


def test_zero_cache_limit_exits_at_first_stored_component(tmp_path, capsys):
    # the one variable of the negation pair is a free singleton, valued
    # before the cache, so a 0 MB cap is never met
    path = tmp_path / "pair.gnp"
    path.write_text("a :- not b. b :- not a.\n")
    assert run(["count", str(path), "--cache-limit-mb", "0", "--stats", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "2\n"
    assert json.loads(captured.err)["cache_lookups"] == 0
    # path(2)'s two variables are one searched component, and a 0 MB cap
    # cannot hold its entry
    path.write_text(path_text(2))
    code = run(["count", str(path), "--cache-limit-mb", "0", "--stats", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    doc = json.loads(captured.err.splitlines()[0])
    assert set(doc) == REPORT_KEYS
    assert doc["answer_count"] == "exceeded"
    assert doc["cache_lookups"] == 1 and doc["cache_entries"] == 0

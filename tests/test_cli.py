"""CLI surface: subcommands, output formats, exit codes."""

import csv
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import satree
from satree import Policy
from satree.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(satree.__file__).resolve().parent.parent)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_run_writes_csv(tmp_path):
    out = tmp_path / "report.csv"
    rc = main([
        "run", "--algo", "move-half", "--n", "15", "--workload", "zipf",
        "--alpha", "1.0", "--m", "2000", "--seed", "7", "--out", str(out),
    ])
    assert rc == 0
    (rep,) = read_csv(out)
    assert rep["policy"] == "move-half" and rep["n"] == "15" and rep["m"] == "2000"


def test_run_json_to_stdout(capsys):
    rc = main(["run", "--algo", "fixed", "--n", "7", "--m", "50", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["policy"] == "fixed"
    assert "ws_bound" in data


def test_matrix_runs_every_combination(tmp_path):
    out = tmp_path / "matrix.csv"
    rc = main([
        "matrix", "--algo", "move-half,fixed", "--workload", "uniform,cyclic",
        "--subset", "3", "--n", "7", "--m", "200", "--seed", "1", "--out", str(out),
    ])
    assert rc == 0
    reps = read_csv(out)
    assert len(reps) == 4
    assert [r["seed"] for r in reps] == ["1", "2", "3", "4"]  # master seed plus run index


def test_unknown_policy_fails_with_diagnostic(capsys):
    rc = main(["run", "--algo", "mystery", "--n", "7", "--m", "10"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("satree:") and err.count("\n") == 1


def test_oracle_refusal_exit_code(capsys):
    rc = main(["run", "--algo", "fixed", "--n", "15", "--m", "10", "--oracle"])
    assert rc == 2
    assert "refused" in capsys.readouterr().err


def test_invalid_tree_size_fails(capsys):
    rc = main(["run", "--algo", "fixed", "--n", "10", "--m", "5"])
    assert rc == 2
    assert "2^d - 1" in capsys.readouterr().err


@pytest.mark.parametrize("option, message", [
    (["--n", "0"], "item count must be at least 1, got 0"), (["--seed", "-1"], "seed -1 out of range"),
])
def test_empty_tree_and_negative_seed_fail_with_a_diagnostic(option, message, capsys):
    rc = main(["run", "--algo", "fixed", "--n", "7", "--m", "5", *option])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"satree: {message}\n"


def test_trace_workload(tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text("# demo\n0\n2\n1\n")
    out = tmp_path / "r.csv"
    rc = main([
        "run", "--algo", "move-half", "--n", "3", "--workload", "trace",
        "--trace", str(trace), "--out", str(out),
    ])
    assert rc == 0
    (rep,) = read_csv(out)
    assert rep["m"] == "3"


def test_a_bad_last_chunk_of_a_trace_fails_with_one_line_and_no_report(tmp_path, monkeypatch, capsys):
    import satree.workloads as workloads

    trace = tmp_path / "t.txt"
    trace.write_text("# header\n" + "0\n2\n\n1\n" * 20 + "# last block\n1\nnope\n")
    monkeypatch.setattr(workloads, "CHUNK", 8)
    served = []
    serve = Policy.serve
    monkeypatch.setattr(Policy, "serve", lambda self, u: served.append(u) or serve(self, u))
    rc = main(["run", "--algo", "move-half", "--n", "3", "--workload", "trace", "--trace", str(trace)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err == f"satree: {trace}:84: not a decimal item id: 'nope'\n"
    # every chunk before the last was served; the last, "1\nnope\n", failed as it was parsed
    assert served == [0, 2, 1] * 20


def test_run_memory_does_not_grow_with_the_request_count():
    # each child reports its own peak RSS (VmHWM, which starts afresh at exec), so the
    # difference is what a million requests hold beyond ten thousand, not the parent's heap
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    code = ("import contextlib, io, sys\n"
            "from satree.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = main(sys.argv[1:])\n"
            "hwm = [line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')]\n"
            "print(rc, *hwm)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    peak_kb = {}
    for m in (10**4, 10**6):
        argv = ["run", "--algo", "fixed", "--n", "255", "--workload", "zipf", "--m", str(m)]
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout.split()
        assert out[0] == "0"
        peak_kb[m] = int(out[1])
    assert peak_kb[10**6] - peak_kb[10**4] < 3 * 1024, peak_kb


@pytest.mark.parametrize("command", ["run", "matrix"])
def test_trace_refuses_a_request_count(command, tmp_path, capsys):
    # a trace's length is its request count, so --m would be silently ignored
    trace = tmp_path / "t.txt"
    trace.write_text("0\n2\n1\n")
    argv = [command, "--algo", "fixed", "--n", "3", "--workload", "trace", "--trace", str(trace)]
    assert main(argv + ["--m", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("satree: --m") and captured.err.count("\n") == 1
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[3] == "3"


@pytest.mark.parametrize("argv", [
    ["--algo", "fixed", "--workload", "uniform,bogus"],
    ["--algo", "fixed,bogus", "--workload", "uniform"],
])
def test_matrix_checks_every_run_before_the_first(argv, monkeypatch, capsys):
    served = []
    serve = Policy.serve
    monkeypatch.setattr(Policy, "serve", lambda self, u: served.append(u) or serve(self, u))
    assert main(["matrix", "--n", "7", "--m", "200"] + argv) == 2
    assert served == []
    err = capsys.readouterr().err
    assert err.startswith("satree: unknown") and err.count("\n") == 1


def test_depth_stats_csv(tmp_path):
    out = tmp_path / "stats.csv"
    rc = main([
        "depth-stats", "--n", "15", "--m", "2000", "--seeds", "0,1", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("rank,")
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[2]) == 0.0


def test_markov_check_passes(capsys):
    rc = main(["markov-check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "binomial identity" in out and "FAIL" not in out


def test_oracle_check_small(capsys):
    rc = main(["oracle-check", "--n", "3", "--m", "4", "--algo", "move-half"])
    assert rc == 0
    assert "max cost/opt" in capsys.readouterr().out


def test_oracle_check_n7_output_is_pinned(capsys):
    rc = main(["oracle-check", "--n", "7", "--m", "6", "--algo", "move-half", "--seed", "3"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "move-half on n=7: 100 sequences, max cost/opt = 4.75, floor violations = 0\n")


@pytest.mark.parametrize("n, m", [(3, -1), (7, -2)])
def test_oracle_check_refuses_a_negative_request_count(n, m, capsys):
    rc = main(["oracle-check", "--n", str(n), "--m", str(m)])
    assert rc == 2
    assert capsys.readouterr().err == "satree: request count must be >= 0\n"


def test_readme_cli_commands_parse():
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```sh", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("satree ")]
    assert {argv[0] for argv in commands} == {
        "run", "matrix", "depth-stats", "markov-check", "oracle-check",
    }
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


@pytest.mark.parametrize("argv", [
    ["run", "--seeds", "0,1"],
    ["matrix", "--seeds", "0,1"],
    ["depth-stats", "--algo", "max-push"],
    ["markov-check", "--out", "x.csv"],
    ["oracle-check", "--format", "json"],
])
def test_subcommand_rejects_options_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_depth_stats_csv_and_json_agree(tmp_path):
    argv = ["depth-stats", "--n", "15", "--m", "2000", "--seeds", "0,1"]
    assert main(argv + ["--out", str(tmp_path / "s.csv")]) == 0
    assert main(argv + ["--format", "json", "--out", str(tmp_path / "s.json")]) == 0
    rows = read_csv(tmp_path / "s.csv")
    records = json.loads((tmp_path / "s.json").read_text())
    assert len(rows) == len(records) > 0
    for row, record in zip(rows, records):
        assert list(row) == list(record)
        for name, cell in row.items():
            value = record[name]
            if value is None:
                assert cell == ""
            elif isinstance(value, float):
                assert float(cell) == pytest.approx(value, rel=1e-5)
            else:
                assert cell == str(value)


def test_empty_outputs_keep_the_csv_header(capsys):
    assert main(["depth-stats", "--m", "0"]) == 0
    assert capsys.readouterr().out == (
        "rank,depth_samples,mean_depth,depth_bound,w_samples,mean_w,w_bound\n")
    assert main(["depth-stats", "--m", "0", "--format", "json"]) == 0
    assert capsys.readouterr().out == "[]\n"
    assert main(["matrix", "--algo", ""]) == 0
    assert capsys.readouterr().out.startswith("policy,workload,n,m,seed,")


def test_non_finite_zipf_exponent_fails(capsys):
    rc = main(["run", "--workload", "zipf", "--alpha", "nan", "--n", "7", "--m", "10"])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


def test_depth_stats_rejects_an_empty_seed_list(capsys):
    assert main(["depth-stats", "--n", "7", "--m", "10", "--seeds", ","]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("satree:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["oracle-check", "--n", "7", "--m", "6", "--seed", "-1"], "seed -1 out of range"),
    (["oracle-check", "--n", "3", "--algo", "static-mfu"],
     "oracle-check takes an online policy (move-half, random-push, max-push, fixed), got 'static-mfu'"),
    (["matrix", "--algo", ",", "--n", "7", "--m", "5"], "--algo ',' names no entry"),
    (["matrix", "--workload", ",", "--n", "7", "--m", "5"], "--workload ',' names no entry"),
    (["depth-stats", "--seeds", "a"], "--seeds entry 'a' is not an integer"),
])
def test_malformed_arguments_fail_with_one_line(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"satree: {message}\n")

import json
import os
import subprocess
import sys

import pytest

import jackcc
from jackcc.cli import Table, emit, main, run_suite
from jackcc import errors
from jackcc.errors import JackccError, UnknownSuite, UnsupportedFormat
from jackcc.jack import JackTable, jack_table


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_run_suite_matchings_jack():
    report = run_suite("matchings-jack", max_n=3)
    assert report.passed
    assert report.suite == "matchings-jack"
    descs = [c.description for c in report.checks]
    assert "3: 1 + 1*b + 2*b^2" in descs
    assert all(c.lhs == c.rhs for c in report.checks)


def test_run_suite_comb_rec_counts():
    report = run_suite("comb-rec", max_n=5)
    assert report.passed
    descs = {c.description for c in report.checks}
    assert "c(5) = 8" in descs
    assert "b~(3) = 4" in descs
    assert "bucket counts at 2,2,1" in descs


def test_run_suite_orthogonality():
    report = run_suite("orthogonality", max_n=2)
    assert report.passed
    by_desc = {c.description: c for c in report.checks}
    assert by_desc["<J_2, J_2>"].lhs == "2*a^2 + 2*a^3"


def test_run_suite_defaults_and_unknown():
    report = run_suite("i-indep", max_n=2)
    assert report.n_range == (2, 2)
    with pytest.raises(UnknownSuite):
        run_suite("spectral")


def test_run_suite_threads_agree():
    serial = run_suite("thm-rec", max_n=3)
    parallel = run_suite("thm-rec", max_n=3, threads=4)
    assert serial.checks == parallel.checks


def test_partitions_text(capsys):
    code, out = run(capsys, ["partitions", "4"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0].split() == ["4", "4", "6"]
    assert lines[-1].split() == ["1,1,1,1", "24", "1"]


def test_connect_nn_table_csv(capsys):
    code, out = run(capsys, ["connect-nn", "--n", "3", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,alpha,beta"
    assert len(lines) == 4
    assert lines[1] == "3,2 - 3*a + 2*a^2,1 + 1*b + 2*b^2"


def test_connect_value(capsys):
    code, out = run(capsys, ["connect", "--lambda", "2",
                             "--with", "2", "--with", "2"])
    assert code == 0
    assert "-1 + 1*a" in out
    code, _ = run(capsys, ["connect", "--lambda", "2", "--with", "3"])
    assert code == 2


def test_jack_single_row_json(capsys):
    code, out = run(capsys, ["jack", "--lambda", "2", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["degree"] == 2
    assert [t["mu"] for t in obj["terms"]] == ["2", "1,1"]


def test_jack_table_json_round_trip(capsys):
    code, out = run(capsys, ["jack", "--n", "2", "--format", "json"])
    assert code == 0
    rebuilt = JackTable.from_json(json.loads(out))
    table = jack_table(2)
    assert all(rebuilt.row(lam) == table.row(lam) for lam in table)


def test_jack_needs_exactly_one_selector(capsys):
    code, _ = run(capsys, ["jack"])
    assert code == 2
    code, _ = run(capsys, ["jack", "--lambda", "2", "--n", "2"])
    assert code == 2


def test_matchings_listing(capsys):
    code, out = run(capsys, ["matchings", "--lambda", "3",
                             "--weights", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "matching,weight,bipartite"
    assert len(lines) == 5
    assert sum(1 for l in lines[1:] if l.endswith("true")) == 1

    code, out = run(capsys, ["matchings", "--lambda", "3",
                             "--bipartite-only", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1:] == ['"1-2^,1^-3,2-3^",,true']

    code, out = run(capsys, ["matchings", "--lambda", "2,1", "--limit", "2",
                             "--format", "json"])
    assert len(json.loads(out)) == 2


def test_verify_exit_codes(capsys):
    code, out = run(capsys, ["verify", "--suite", "matchings-jack",
                             "--max-n", "2"])
    assert code == 0
    assert out.startswith("suite matchings-jack")
    code, _ = run(capsys, ["verify", "--suite", "nope"])
    assert code == 2


def test_verify_json_omits_timing(capsys):
    code, out = run(capsys, ["verify", "--suite", "i-indep", "--max-n", "3",
                             "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert "elapsed" not in json.dumps(obj)


def test_out_flag_byte_stable(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, out = run(capsys, ["verify", "--suite", "orthogonality",
                                 "--max-n", "2", "--format", "json",
                                 "--out", str(path)])
        assert code == 0
        assert out == ""
    assert a.read_bytes() == b.read_bytes()


def test_out_flag_bad_path(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, _ = run(capsys, ["partitions", "3", "--format", "csv",
                           "--out", str(target)])
    assert code == 2


def test_emit_rejects_unknown_format():
    table = Table(("a",), (("1",),))
    with pytest.raises(UnsupportedFormat):
        emit(table, "yaml")


def test_bad_partition_text(capsys):
    code, _ = run(capsys, ["connect-nn", "--lambda", "2,x"])
    assert code == 2
    code, _ = run(capsys, ["matchings", "--lambda", "0"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["connect-lr", "--lambda", "3", "--l", "-1"],
    ["connect-lr", "--lambda", "3", "--l", "2", "--r", "-1"],
    ["connect-lr", "--lambda", "1", "--l", "-2"],
])
def test_negative_operator_order(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_every_package_error_is_one_family():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, Exception)]
    assert len(classes) > 10
    assert all(issubclass(c, JackccError) for c in classes)


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5", ""])
def test_bad_max_n_environment(raw, capsys, monkeypatch):
    monkeypatch.setenv("JACKCC_MAX_N", raw)
    assert main(["jack", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: JACKCC_MAX_N")
    assert captured.err.count("\n") == 1


def _python(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(jackcc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("JACKCC_MAX_N", None)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_checks_survive_optimized_mode():
    probe = ("from jackcc.algebra import AlphaPoly\n"
             "from jackcc.errors import InexactDivision\n"
             "try:\n"
             "    AlphaPoly((1, 1)).exact_div(AlphaPoly((0, 1)))\n"
             "except InexactDivision:\n"
             "    print('raised')\n")
    done = _python("-O", "-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised\n"
    argv = ["-m", "jackcc.cli", "jack", "--n", "4", "--format", "json"]
    plain, optimized = _python(*argv), _python("-O", *argv)
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout
    assert json.loads(plain.stdout)["n"] == 4


def test_nonpositive_part_in_optimized_mode():
    done = _python("-O", "-m", "jackcc.cli", "connect-nn", "--lambda", "0,2")
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")

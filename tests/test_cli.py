import ast
import glob
import hashlib
import json
import os
import subprocess
import sys
import types

import pytest

import jackcc
from caches import cold
from jackcc import cli, config, matchings
from jackcc.cli import Table, emit, main, run_suite
from jackcc import errors
from jackcc.errors import (
    BadConfig, DegreeTooSmall, JackccError, UnknownSuite, UnsupportedFormat,
)
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


@cold("matchings._weight")
def test_suites_list_no_matchings(monkeypatch):
    def listing(lam):
        raise AssertionError("a suite listed the good matchings of %s" % (lam,))

    monkeypatch.setattr(matchings, "good_matchings", listing)
    monkeypatch.setattr(cli, "good_matchings", listing, raising=False)
    for suite in ("matchings-jack", "comb-rec"):
        assert run_suite(suite, max_n=5).passed, suite


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
    with pytest.raises(DegreeTooSmall):
        run_suite("i-indep", max_n=1)


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


# sha256 of the text, JSON and CSV output of each coefficient command,
# concatenated in that order, recorded while every value was still a
# RatFunc that wrote its own "den" and whose beta form could be null.
COEFF_SHA256 = {
    "connect --lambda 2,1 --with 3":
        "12db52f925ca0858d7955fecdfff53dc61b988e6cd68390bb3236d65cb00692f",
    "connect --lambda 3,1 --with 4 --with 2,2":
        "ed1403e7adc3222a592e83200f92fef4a1d617b2062aa37b6ac8db29da586ceb",
    "connect --lambda 2,2,1 --with 5 --with 3,2 --with 2,1,1,1":
        "13543a34e0fd426760e068983c57acefa640c44a377da5eae27609f02bc3d1a9",
    "connect-lr --lambda 3,2 --l 2 --r 1":
        "1f77d1cd8a9bbe09923241882e81a84faf5b1eee4cf549157e86aaeff18f2cbd",
    "connect-lr --lambda 2,1,1 --l 3 --r 2":
        "8c232c26d1f855ae446e30744b3e41c32402733b7b8445027b8b4c0d566a7301",
    "connect-lr --lambda 2,2 --l 1 --r 1":
        "999997a183b2df8cdb61c0c9cf4f9661bf0150d296d14b901e8c9e4ce4383dfd",
    "connect-nn --lambda 4,2":
        "71cb05f2451dfe7ccc6adef670cfa0a93e3e0794baeb8bad5c631420747219fa",
    "connect-nn --lambda 3,2,1":
        "348e1c9ce15702ea4e0403e1bc10c773281cd63af6858e793e38831524452e2d",
}


@pytest.mark.parametrize("command", sorted(COEFF_SHA256))
def test_coefficient_commands_are_pinned(command, capsys):
    outs = []
    for fmt in ("text", "json", "csv"):
        code, out = run(capsys, command.split() + ["--format", fmt])
        assert code == 0 and out, fmt
        outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == COEFF_SHA256[command]


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


# sha256 of `jackcc matchings --lambda L --weights --format json`, recorded
# while every listing was still built from validated Matching objects.
LISTING_SHA256 = {
    "5": "c9d7e0944ad73b81fe755c0851265ac232ea1ea49671c87c2630398b77ae939a",
    "4,1": "9f312b346b6bfa83a7bd6f99767fed3d057f37fcbe0aafc2f2f78642a48d8907",
    "3,2": "1cf6b703a0020754fa206aa438fae83395e19a65c32f2cb28da6c88b9ac5e25f",
    "3,1,1": "39a4cc5fd8d6e4fb4b5a38c109104c1f3f5b781212bff564349ce15a2ebbdaf1",
    "2,2,1": "07b230a4bf8c87f88ebff124a7161547cc0569eb7964d5a65459630faed548fb",
    "2,1,1,1": "fdc295a26aabbde44750a1f625c9a5d6ece9468232314662068657cc61485c9a",
    "1,1,1,1,1": "d241ad694fe145b5def711abe56b258b167abd48fae6507bf1c48a70326a1e59",
    "6": "3414692a96aaed928bbbd02e32b88f25d6369e639b585ba2e0b96f51b57c55a1",
    "3,2,1": "4776700c70a32ba6449c38d7f254a3e65db957a50d7a10816355eb3d654aa663",
}


@pytest.mark.parametrize("lam", sorted(LISTING_SHA256))
def test_matchings_listing_is_pinned(lam, capsys):
    code, out = run(capsys, ["matchings", "--lambda", lam, "--weights",
                             "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LISTING_SHA256[lam]


# sha256 of `verify --suite S --max-n 7 --format json`; the bench goldens
# stop at n = 6.
VERIFY_SEVEN_SHA256 = {
    "matchings-jack":
        "42b1c4c81a027415319ac7bd24fda3f8850e38924238b605dcd0109efbef1bba",
    "comb-rec":
        "ba3fa16d2f24fb6979c51a392d211b02d5fe0e22036c4e2c84489228643a7738",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_SEVEN_SHA256))
def test_degree_seven_matching_reports_are_pinned(suite, capsys, monkeypatch):
    monkeypatch.delenv("JACKCC_MAX_N", raising=False)
    code, out = run(capsys, ["verify", "--suite", suite, "--max-n", "7",
                             "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SEVEN_SHA256[suite]


def test_degree_seven_thm_rec_report_is_pinned(capsys, monkeypatch):
    # each check writes both sides' polynomial text
    monkeypatch.delenv("JACKCC_MAX_N", raising=False)
    code, out = run(capsys, ["verify", "--suite", "thm-rec", "--max-n", "7",
                             "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2d04b0203d3ed7931c793d9f0ce3ccf4c1eb55bba4336d7d27b7641ef75598ce")


def test_i_indep_report_is_pinned(capsys, monkeypatch):
    # each check writes the value pivoting on the largest part, then the
    # values pivoting on every other distinct part; the report that wrote
    # "agree" on both sides had sha256 4c3720b0...
    monkeypatch.delenv("JACKCC_MAX_N", raising=False)
    code, out = run(capsys, ["verify", "--suite", "i-indep", "--max-n", "7",
                             "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ede886c655e164fe71a602554f70d9cf86c1fffe96038839a0979c145aeea029")


# sha256 of the reports that no other pin and no bench golden covers: the
# two suites that read the operator tower, at their defaults, and one CSV.
VERIFY_REPORT_SHA256 = {
    ("gen-coeff", "--format", "json"):
        "dd826391be641a72caade5cf58481cc8d342db55eec7b1b8f6ec2e352c44400a",
    ("thm34", "--format", "json"):
        "654fd5011a793c66f6e9aaf07c7ec18cb12eceb233fba57d448f2323af7d81cd",
    ("comb-rec", "--max-n", "5", "--format", "csv"):
        "4bf8df18bf2acbad07b72e2956d04c2d7545c19f6618585320225c699de17a4b",
}


@pytest.mark.parametrize("args", sorted(VERIFY_REPORT_SHA256))
def test_verify_reports_are_pinned(args, capsys, monkeypatch):
    monkeypatch.delenv("JACKCC_MAX_N", raising=False)
    code, out = run(capsys, ["verify", "--suite", *args])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_REPORT_SHA256[args]


# what the suites compute their checks with
_CHECK_WORK = ("weight_distribution", "thm_rec_sides", "pivot_values",
               "gram_entry", "good_count", "bipartite_count",
               "counting_recurrence_check", "generator_properties")


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
def test_a_suite_above_the_bound_runs_no_check(suite, capsys, monkeypatch):
    monkeypatch.delenv("JACKCC_MAX_N", raising=False)

    def refused(*args):
        raise AssertionError("suite %s ran a check before refusing degree 9" % suite)

    for name in _CHECK_WORK:
        monkeypatch.setattr(cli, name, refused)
    assert main(["verify", "--suite", suite, "--max-n", "9"]) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured)
    assert captured.err.startswith("error: degree 9 exceeds ")


def test_suite_reports_do_not_depend_on_the_caches(monkeypatch):
    # each suite runs on empty caches, then again on the ones it filled
    monkeypatch.delenv("JACKCC_MAX_N", raising=False)
    for name in cli._SUITES:
        with cold():
            first = run_suite(name).to_json()
            assert run_suite(name).to_json() == first, name


def test_i_indep_report_shows_the_values(capsys, monkeypatch):
    """Doubling every bracket keeps the pivots in agreement, but the report
    of the compared values must change with it."""
    argv = ["verify", "--suite", "i-indep", "--max-n", "5", "--format", "json"]
    code, plain = run(capsys, argv)
    assert code == 0
    bracket = jackcc.connection._bracket
    # the recurrence cache is emptied after, or it would keep doubled values
    with cold("connection._a_nn"), monkeypatch.context() as patch:
        patch.setattr(jackcc.connection, "_bracket",
                      lambda *args: bracket(*args) * 2)
        code, doubled = run(capsys, argv)
    assert code == 0
    assert json.loads(doubled)["passed"]
    assert doubled != plain


def test_thm_rec_report_shows_the_values(capsys, monkeypatch):
    """Doubling every Cauchy value keeps each identity, but the report of
    the compared values must change with it."""
    argv = ["verify", "--suite", "thm-rec", "--max-n", "4", "--format", "json"]
    code, plain = run(capsys, argv)
    assert code == 0
    cauchy = jackcc.connection._cauchy_cached
    with cold("connection._cauchy_cached"), monkeypatch.context() as patch:
        patch.setattr(jackcc.connection, "_cauchy_cached",
                      lambda lam, others: cauchy(lam, others) * 2)
        code, doubled = run(capsys, argv)
    assert code == 0
    assert json.loads(doubled)["passed"]
    assert doubled != plain


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


def test_json_writer_matches_the_standard_encoder():
    # emit's writer must give json.dumps(obj, indent=2) byte for byte
    samples = [
        [], {}, [[]], [{}], {"a": []}, {"a": {}, "b": [[], {}]},
        "", "plain", "quote \" backslash \\ slash /", "\n\t\r\b\f\x00\x1f",
        "caf\u00e9 \u2208 \U0001d6fc", {"\u00e9": ["\u00e9"]},
        0, -1, 10 ** 40, -(10 ** 40), True, False, None,
        [True, False, None, 0, ""], (1, (2, ())), 1.5, [float("inf")],
        {"nested": [{"deeper": [[1, [2, {"x": None}]]]}]},
    ]
    for obj in samples:
        assert cli._json(obj) == json.dumps(obj, indent=2), obj


def test_json_writer_on_every_payload(capsys, monkeypatch):
    monkeypatch.setenv("JACKCC_MAX_N", "8")
    for n in range(1, 9):
        obj = jack_table(n).to_json()
        assert cli._json(obj) == json.dumps(obj, indent=2), n
    for name in cli._SUITES:
        obj = run_suite(name).to_json()
        assert cli._json(obj) == json.dumps(obj, indent=2), name
    for argv in (["partitions", "5"], ["jack", "--lambda", "3,1"],
                 ["connect", "--lambda", "2,1", "--with", "3", "--with", "2,1"],
                 ["connect", "--lambda", "2,2", "--with", "2,2"],
                 ["connect-nn", "--n", "5"], ["connect-nn", "--lambda", "3,2"],
                 ["connect-nn", "--lambda", "3,2", "--beta"],
                 ["connect-lr", "--lambda", "2,1", "--l", "3", "--r", "1"],
                 ["matchings", "--lambda", "3,1", "--weights"]):
        code, out = run(capsys, argv + ["--format", "json"])
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_emit_rejects_unknown_format():
    table = Table(("a",), (("1",),))
    with pytest.raises(UnsupportedFormat):
        emit(table, "yaml")


def test_bad_partition_text(capsys):
    code, _ = run(capsys, ["connect-nn", "--lambda", "2,x"])
    assert code == 2
    code, _ = run(capsys, ["matchings", "--lambda", "0"])
    assert code == 2
    # int() would read these as 21, 3 and (3, 3)
    for text in ("2_1", "+3", "3,\u0663"):
        assert main(["connect-nn", "--lambda", text]) == 2
        captured = capsys.readouterr()
        assert _one_error_line(captured), text
        assert text in captured.err


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


def _one_error_line(captured):
    return (captured.out == "" and captured.err.startswith("error: ")
            and captured.err.count("\n") == 1)


def test_connect_lr_with_many_D_stages(capsys):
    code, out = run(capsys, ["connect-lr", "--lambda", "1", "--l", "2",
                             "--r", "5000"])
    assert code == 0
    assert out.split() == ["1", "0", "0"]


@pytest.mark.parametrize("argv", [
    ["matchings", "--lambda", "-"],
    ["connect-nn", "--lambda", "-"],
    ["connect-lr", "--lambda", "-", "--l", "2"],
])
def test_empty_partition(argv, capsys):
    assert main(argv) == 2
    assert _one_error_line(capsys.readouterr())


@pytest.mark.parametrize("argv", [
    ["partitions", "9"],
    ["partitions", "60", "--max-n", "5"],
    ["partitions", "6", "--max-n", "5"],
    ["partitions", "-1"],
    ["connect-nn", "--lambda", "9"],
])
def test_partitions_degree_bound(argv, capsys, monkeypatch):
    monkeypatch.delenv("JACKCC_MAX_N", raising=False)
    assert main(argv) == 2
    assert _one_error_line(capsys.readouterr())


@pytest.mark.parametrize("argv", [
    ["jack", "--n", "5", "--max-n", "2"],
    ["jack", "--lambda", "3,1", "--max-n", "3"],
    ["connect", "--lambda", "3", "--with", "3", "--with", "3", "--max-n", "2"],
    ["connect-nn", "--n", "6", "--max-n", "3"],
    ["connect-nn", "--lambda", "4", "--max-n", "3"],
    ["connect-lr", "--lambda", "2,2", "--l", "2", "--max-n", "3"],
    ["matchings", "--lambda", "3,1", "--max-n", "3"],
])
def test_max_n_bounds_every_subcommand(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured)
    assert "exceeds --max-n" in captured.err


@pytest.mark.parametrize("argv", [
    ["jack", "--n", "3", "--max-n", "3"],
    ["connect", "--lambda", "3", "--with", "3", "--with", "3", "--max-n", "3"],
    ["connect-nn", "--n", "3", "--max-n", "3"],
    ["connect-lr", "--lambda", "2,1", "--l", "2", "--max-n", "3"],
    ["matchings", "--lambda", "2,1", "--max-n", "3"],
])
def test_max_n_admits_its_own_degree(argv, capsys):
    code, out = run(capsys, argv)
    assert code == 0
    assert out


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "orthogonality", "--max-n", "0"],
    ["verify", "--suite", "thm34", "--max-n", "-3"],
    ["verify", "--suite", "thm-rec", "--max-n", "1"],
    ["verify", "--suite", "i-indep", "--max-n", "1"],
    ["partitions", "0", "--max-n", "0"],
    ["jack", "--n", "1", "--max-n", "0"],
    ["connect", "--lambda", "1", "--with", "1", "--max-n", "-1"],
    ["connect-nn", "--n", "1", "--max-n", "0"],
    ["connect-lr", "--lambda", "1", "--l", "2", "--max-n", "0"],
    ["matchings", "--lambda", "1", "--max-n", "0"],
    ["matchings", "--lambda", "3", "--limit", "-1"],
])
def test_bound_below_what_runs(argv, capsys):
    assert main(argv) == 2
    assert _one_error_line(capsys.readouterr())


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("argv", [
    ["jack", "--n", "3", "--format", "xml"],
    ["jack", "--n", "abc"],
    ["jack", "--n", "3", "--bogus"],
    ["verify"],
    ["no-such-command"],
    [],
])
def test_usage_errors_are_one_line(argv, optimize):
    flags = ["-O"] if optimize else []
    done = _python(*flags, "-m", "jackcc.cli", *argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: jackcc")


def test_the_parser_carries_nothing_from_one_call_to_the_next(capsys):
    # main builds its parser once per process, so each call must start
    # from a fresh namespace: a --with list left over from the call
    # before would make the second call a_cauchy(2,1; 3, 3, 3), which is
    # -4a + 6a^2 - 6a^3 + 4a^4, not 0
    argv = ["connect", "--lambda", "2,1", "--format", "json"]
    code, first = run(capsys, argv + ["--with", "3", "--with", "3"])
    assert code == 0
    assert json.loads(first)["beta"] == [["0", "1"], ["2", "1"], ["2", "1"]]
    code, second = run(capsys, argv + ["--with", "3"])
    assert code == 0
    assert json.loads(second)["beta"] == []
    assert run(capsys, argv + ["--with", "3", "--with", "3"]) == (0, first)
    with pytest.raises(SystemExit) as exit_info:
        main(["connect", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: jackcc connect")


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--suite", "thm-rec", "--threads", "2"])
    assert exit_info.value.code == 2


def test_partitions_within_max_n(capsys):
    code, out = run(capsys, ["partitions", "5", "--max-n", "5"])
    assert code == 0
    assert len(out.splitlines()) == 7


def test_every_package_error_is_one_family():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, Exception)]
    assert len(classes) > 10
    assert all(issubclass(c, JackccError) for c in classes)


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5", "", "1_0", "+8",
                                 "\u0668"])
def test_bad_max_n_environment(raw, capsys, monkeypatch):
    monkeypatch.setenv("JACKCC_MAX_N", raw)
    assert main(["jack", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: JACKCC_MAX_N")
    assert captured.err.count("\n") == 1


def test_degree_bound_follows_the_environment(monkeypatch):
    # the parse is cached per raw value, so each change must still be read
    monkeypatch.setenv("JACKCC_MAX_N", "5")
    assert config.degree_bound() == 5
    monkeypatch.setenv("JACKCC_MAX_N", " 11 ")
    assert config.degree_bound() == 11
    monkeypatch.setenv("JACKCC_MAX_N", "0")
    for _ in range(2):
        with pytest.raises(BadConfig):
            config.degree_bound()
    monkeypatch.setenv("JACKCC_MAX_N", "5")
    assert config.degree_bound() == 5
    monkeypatch.delenv("JACKCC_MAX_N")
    assert config.degree_bound() == config.DEFAULT_BOUND


def _python(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(jackcc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("JACKCC_MAX_N", None)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_checks_survive_optimized_mode():
    probe = ("from jackcc.algebra import _divide_int, _divide_linear\n"
             "from jackcc.errors import InexactDivision\n"
             "for call in [lambda: _divide_linear([1, 1], 0, 1),\n"
             "             lambda: _divide_int([6, 3], 2)]:\n"
             "    try:\n"
             "        call()\n"
             "    except InexactDivision:\n"
             "        print('raised')\n")
    done = _python("-O", "-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised\n" * 2
    argv = ["-m", "jackcc.cli", "jack", "--n", "4", "--format", "json"]
    plain, optimized = _python(*argv), _python("-O", *argv)
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout
    assert json.loads(plain.stdout)["n"] == 4


def test_csv_module_loads_only_for_csv_output():
    probe = ("import contextlib, io, sys\n"
             "import jackcc.cli\n"
             "print('csv' in sys.modules)\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    jackcc.cli.main(['partitions', '3', '--format', 'json'])\n"
             "print('csv' in sys.modules)\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    jackcc.cli.main(['partitions', '3', '--format', 'csv'])\n"
             "print('csv' in sys.modules)\n")
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\nFalse\nTrue\n"


def test_input_checks_in_optimized_mode():
    probe = ("from jackcc import errors\n"
             "from jackcc.algebra import ALPHA\n"
             "from jackcc.jack import gram_entry\n"
             "from jackcc.partitions import Partition as P, generate_partitions,"
             " up_kl\n"
             "for call, kind in [(lambda: ALPHA ** -1, errors.BadExponent),\n"
             "                   (lambda: generate_partitions(-2), errors.NegativeOrder),\n"
             "                   (lambda: up_kl(P([3]), 0, 2), errors.MissingPart),\n"
             "                   (lambda: gram_entry((2,), (1,)),"
             " errors.DegreeMismatch)]:\n"
             "    try:\n"
             "        call()\n"
             "    except kind:\n"
             "        print('raised')\n")
    done = _python("-O", "-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised\n" * 4
    done = _python("-O", "-m", "jackcc.cli", "partitions", "60", "--max-n", "5")
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def _imported_roots(node):
    """The top-level modules that an absolute import statement names; the
    empty set for a relative import or any other node."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and not node.level:
        return {node.module.split(".")[0]}
    return set()


def test_no_assert_in_package_source():
    # python -O strips assert statements, so no check may live in one; and
    # the package runs serially, so it imports neither threading nor
    # concurrent.futures
    found = ["%s:%d" % (module, node.lineno)
             for module, tree in _package_trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)
             or _imported_roots(node) & {"threading", "concurrent"}]
    assert found == []


def test_the_package_holds_no_fraction():
    # every coefficient is an int: no module imports fractions or numbers,
    # and the CLI imported in an isolated interpreter loads neither, nor
    # decimal, which fractions imports
    found = ["%s:%d" % (module, node.lineno)
             for module, tree in _package_trees().items()
             for node in ast.walk(tree)
             if _imported_roots(node) & {"fractions", "numbers"}]
    assert found == []
    src = os.path.dirname(os.path.dirname(os.path.abspath(jackcc.__file__)))
    probe = ("import sys\n"
             "sys.path.insert(0, %r)\n"
             "import jackcc.cli\n"
             "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))\n"
             % src)
    done = _python("-I", "-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _cached_defs(body, prefix):
    """The qualified names of the defs in body decorated with @cached."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if any(isinstance(d, ast.Name) and d.id == "cached"
                   for d in node.decorator_list):
                yield name
            inner = ".<locals>." if isinstance(node, ast.FunctionDef) else "."
            yield from _cached_defs(node.body, name + inner)


def test_every_cache_is_registered():
    # config.cached is the package's one cache mechanism: no other module
    # imports functools or names lru_cache, and the @cached definitions are
    # exactly the entries of config.CACHES once the CLI is imported
    trees = _package_trees()
    found = ["%s:%d" % (module, node.lineno)
             for module, tree in trees.items() if module != "config"
             for node in ast.walk(tree)
             if "functools" in _imported_roots(node)
             or "lru_cache" in (getattr(node, "id", None), getattr(node, "attr", None),
                                getattr(node, "name", None))]
    assert found == []
    defined = {"%s.%s" % (module, name) for module, tree in trees.items()
               for name in _cached_defs(tree.body, "")}
    assert defined == set(config.CACHES)
    assert len(defined) == 19


_API_MODULES = ("algebra", "partitions", "psum", "jack", "connection",
                "matchings", "cli")
_BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench")
# public names that no command, suite or route runs, kept because the
# benchmark reads them, each with the file under bench/ that does
_BENCH_HELD = {
    "algebra.RatFunc": "workloads.py",  # coeff-routes; spans.py wraps it too
    "connection.verify_i_independence": "workloads.py",  # coeff-routes
    "connection.verify_thm_rec": "workloads.py",  # coeff-routes
    "matchings.good_matchings": "spans.py",  # hit_frac off its cache_info
}


def _bench_source(name):
    with open(os.path.join(_BENCH, name), encoding="utf-8") as handle:
        return handle.read()


def _loads_outside_own_definition(tree, name):
    """Whether the module reads name anywhere but in its own def or class
    and in the targets of attribute assignments, such as a cache_info alias."""
    for node in ast.iter_child_nodes(tree):
        if ((isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == name)
                or (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store))):
            continue
        if (isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Load)):
            return True
        if _loads_outside_own_definition(node, name):
            return True
    return False


def test_every_public_name_resolves():
    # bench/spans.install reads getattr(jackcc.algebra, name) for every name
    # of algebra.__all__, and the layers' names likewise, so a stale name
    # would break a traced benchmark run
    modules = [jackcc] + [getattr(jackcc, module) for module in _API_MODULES]
    missing = ["%s.%s" % (module.__name__, name)
               for module in modules for name in module.__all__
               if not hasattr(module, name)]
    assert missing == []


def _package_trees():
    """The parsed source of every module of the package, by module name."""
    src = os.path.dirname(os.path.abspath(jackcc.__file__))
    trees = {}
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            name = os.path.basename(path)[:-3]
            trees[name] = ast.parse(handle.read(), filename=path)
    return trees


def test_every_public_name_has_a_caller():
    # a public name must be run by the package, be held for the benchmark
    # or be the console entry point; exporting it from jackcc keeps only a
    # type or a constant.  Code that only its own unit test calls does not
    # belong in the package: the tests keep such oracles under tests/
    trees = _package_trees()
    imported = {("%s.%s" % (node.module, alias.name))
                for module, tree in trees.items() if module != "__init__"
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module != module
                for alias in node.names}
    kept = imported | set(_BENCH_HELD) | {"cli.main"}
    unused = []
    for module in _API_MODULES:
        for name in getattr(jackcc, module).__all__:
            value = getattr(getattr(jackcc, module), name)
            if ("%s.%s" % (module, name) not in kept
                    and (name not in jackcc.__all__
                         or isinstance(value, types.FunctionType))
                    and not _loads_outside_own_definition(trees[module], name)):
                unused.append("%s.%s" % (module, name))
    assert unused == []
    stale = [qualname for qualname, path in _BENCH_HELD.items()
             if qualname.split(".")[1] not in _bench_source(path)]
    assert stale == []


def test_the_benchmark_reads_resolve():
    # bench/ is only read here.  Every jackcc.X and connection.X that
    # bench/workloads.py reads must exist, and every cache whose hit_frac
    # bench/spans.py reports must be a public name with cache_info(), since
    # spans wraps only the names of __all__; otherwise a removal from the
    # package breaks the traced benchmark
    reads = {(node.value.id, node.attr)
             for node in ast.walk(ast.parse(_bench_source("workloads.py")))
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id in ("jackcc", "connection")}
    owners = {"jackcc": jackcc, "connection": jackcc.connection}
    assert ("connection", "verify_thm_rec") in reads
    assert [read for read in sorted(reads)
            if not hasattr(owners[read[0]], read[1])] == []
    cached = {node.args[0].value
              for node in ast.walk(ast.parse(_bench_source("spans.py")))
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "hit_frac"}
    assert cached == {"partitions.generate_partitions",
                      "connection.a_nn_recurrence", "matchings.good_matchings"}
    for qualname in cached:
        module, name = qualname.split(".")
        assert name in getattr(jackcc, module).__all__, qualname
        assert hasattr(getattr(getattr(jackcc, module), name), "cache_info")


def test_every_error_class_is_raised():
    # an error class that no module raises or builds is dead code; the base
    # JackccError is only caught
    trees = _package_trees()
    defined = {node.name for node in trees["errors"].body
               if isinstance(node, ast.ClassDef)}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            target = (node.func if isinstance(node, ast.Call)
                      else node.exc if isinstance(node, ast.Raise) else None)
            used.add(getattr(target, "id", getattr(target, "attr", None)))
    assert sorted(defined - used - {"JackccError"}) == []


def test_nonpositive_part_in_optimized_mode():
    done = _python("-O", "-m", "jackcc.cli", "connect-nn", "--lambda", "0,2")
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")

"""Tests for the repro-mf user-interface tool (the paper's missing piece)."""
import json
import os

import pytest

import repro.tools.cli as cli
from repro.compiler import RunConfig
from repro.profiling import IfProbber, ProfileDatabase
from repro.tools.cli import main

PROGRAM = """
arr counts[26];
func main() {
    var c = getc();
    while (c != -1) {
        if (c >= 'a' && c <= 'z') { counts[c - 'a'] += 1; }
        c = getc();
    }
    var i; var best = 0; var besti = 0;
    for (i = 0; i < 26; i += 1) {
        if (counts[i] > best) { best = counts[i]; besti = i; }
    }
    putc('a' + besti);
    return 0;
}
"""


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    program = tmp_path / "histogram.mf"
    program.write_text(PROGRAM)
    (tmp_path / "d1.txt").write_bytes(b"the quick brown fox jumps over the lazy dog")
    (tmp_path / "d2.txt").write_bytes(b"sphinx of black quartz judge my vow")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_run_prints_output_and_exit_code(workdir, capsysbinary):
    code = main(["run", "histogram.mf", "--input", "d1.txt"])
    assert code == 0
    assert capsysbinary.readouterr().out == b"o"


def test_run_stats_on_stderr(workdir, capsys):
    main(["run", "histogram.mf", "--input", "d1.txt", "--stats"])
    err = capsys.readouterr().err
    assert "instructions:" in err
    assert "instrs/break (self):" in err


def test_profile_accumulates_database(workdir, capsys):
    assert main(["profile", "histogram.mf", "--dataset", "d1",
                 "--input", "d1.txt", "--db", "prof.json"]) == 0
    assert main(["profile", "histogram.mf", "--dataset", "d1",
                 "--input", "d1.txt", "--db", "prof.json"]) == 0
    with open("prof.json") as handle:
        data = json.load(handle)
    (entry,) = data["entries"]
    assert entry["dataset"] == "d1"
    assert entry["profile"]["runs"] == 2


def test_report_lists_datasets(workdir, capsys):
    main(["profile", "histogram.mf", "--dataset", "d1",
          "--input", "d1.txt", "--db", "prof.json"])
    main(["profile", "histogram.mf", "--dataset", "d2",
          "--input", "d2.txt", "--db", "prof.json"])
    capsys.readouterr()
    assert main(["report", "--db", "prof.json"]) == 0
    out = capsys.readouterr().out
    assert "histogram:" in out and "d1" in out and "d2" in out


def test_feedback_and_predict_round_trip(workdir, capsys):
    main(["profile", "histogram.mf", "--dataset", "d1",
          "--input", "d1.txt", "--db", "prof.json"])
    assert main(["feedback", "histogram.mf", "--db", "prof.json",
                 "-o", "fb.mf"]) == 0
    assert os.path.exists("fb.mf")
    assert "IFPROB" in open("fb.mf").read()
    capsys.readouterr()
    # Predicting from the directives embedded in the feedback source.
    assert main(["predict", "fb.mf", "--input", "d2.txt"]) == 0
    out = capsys.readouterr().out
    assert "predicted correctly" in out
    assert "IFPROB directives in source" in out


def test_feedback_prints_what_ifprobber_writes(workdir, capsys):
    # Two profiled datasets accumulate into one program profile.
    for dataset in ("d1", "d2"):
        main(["profile", "histogram.mf", "--dataset", dataset,
              "--input", f"{dataset}.txt", "--db", "prof.json"])
    capsys.readouterr()
    assert main(["feedback", "histogram.mf", "--db", "prof.json"]) == 0
    probber = IfProbber(
        PROGRAM, name="histogram", database=ProfileDatabase.load("prof.json")
    )
    assert capsys.readouterr().out == probber.feedback_source()


def test_predict_from_database(workdir, capsys):
    main(["profile", "histogram.mf", "--dataset", "d1",
          "--input", "d1.txt", "--db", "prof.json"])
    capsys.readouterr()
    assert main(["predict", "histogram.mf", "--input", "d2.txt",
                 "--db", "prof.json"]) == 0
    assert "database prof.json" in capsys.readouterr().out


def test_predict_without_profile_fails(workdir, capsys):
    code = main(["predict", "histogram.mf", "--input", "d1.txt"])
    assert code == 1
    assert "no --db" in capsys.readouterr().err


def test_feedback_for_unknown_program_fails(workdir, capsys):
    main(["profile", "histogram.mf", "--dataset", "d1",
          "--input", "d1.txt", "--db", "prof.json"])
    other = workdir / "other.mf"
    other.write_text("func main() { return 0; }")
    code = main(["feedback", "other.mf", "--db", "prof.json"])
    assert code == 1


def test_run_exit_code_propagates(workdir, capsysbinary):
    program = workdir / "seven.mf"
    program.write_text("func main() { return 7; }")
    assert main(["run", "seven.mf"]) == 7


def test_compile_flags_accepted(workdir, capsysbinary):
    assert main(["run", "histogram.mf", "--input", "d1.txt",
                 "--dce", "--inline", "--ifconvert"]) == 0
    assert capsysbinary.readouterr().out == b"o"


#: Every subcommand that compiles, with the arguments it needs to run.
COMPILING_COMMANDS = {
    "run": ["--input", "d1.txt"],
    "profile": ["--dataset", "d1", "--input", "d1.txt", "--db", "p.json"],
    "predict": ["--input", "d2.txt", "--db", "p.json"],
    "dynsim": ["--input", "d1.txt", "--table-size", "16"],
    "lint": [],
    "disasm": [],
}

FLAG_SETS = {
    (): RunConfig(),
    ("--dce",): RunConfig(dce=True),
    ("--inline",): RunConfig(inline=True),
    ("--ifconvert",): RunConfig(if_conversion=True),
    ("--dce", "--inline", "--ifconvert"): RunConfig(
        dce=True, inline=True, if_conversion=True
    ),
}


def test_compile_flags_reach_the_compiler(workdir, monkeypatch, capsys):
    seen = []
    real_compile = cli.compile_source

    def spy(source, name, config):
        seen.append(config)
        return real_compile(source, name=name, config=config)

    monkeypatch.setattr(cli, "compile_source", spy)
    for command, arguments in COMPILING_COMMANDS.items():
        for flags, expected in FLAG_SETS.items():
            seen.clear()
            main([command, "histogram.mf", *arguments, *flags])
            assert seen == [expected], (command, flags)
    capsys.readouterr()


def test_dynsim_scores_the_zoo(workdir, capsys):
    assert main(["dynsim", "histogram.mf", "--input", "d1.txt",
                 "--table-size", "16", "--table-size", "64"]) == 0
    out = capsys.readouterr().out
    assert "branch executions" in out
    for name in ("bimodal@16", "gshare@64", "local@16", "tournament@64"):
        assert name in out
    assert "bimodal@1024" not in out  # only the requested sizes


def test_dynsim_with_profile_database(workdir, capsys):
    main(["profile", "histogram.mf", "--dataset", "d1",
          "--input", "d1.txt", "--db", "prof.json"])
    capsys.readouterr()
    assert main(["dynsim", "histogram.mf", "--input", "d2.txt",
                 "--db", "prof.json"]) == 0
    out = capsys.readouterr().out
    assert "static-feedback" in out and "bimodal@256" in out


def test_dynsim_rejects_bad_table_size(workdir, capsys):
    assert main(["dynsim", "histogram.mf", "--input", "d1.txt",
                 "--table-size", "100"]) == 1
    assert "power of two" in capsys.readouterr().err


def test_disasm_subcommand(workdir, capsys):
    assert main(["disasm", "histogram.mf"]) == 0
    out = capsys.readouterr().out
    assert "func main" in out
    assert "br " in out and "main#0" in out

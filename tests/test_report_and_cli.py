"""Report rendering and CLI tests."""
import pytest

from repro.experiments.cli import main as cli_main
from repro.experiments.report import TextTable, percent


class TestTextTable:
    def test_basic_rendering(self):
        table = TextTable("Title", ["name", "value"])
        table.add_row("alpha", 1.5)
        table.add_row("b", 22)
        text = table.format_text()
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert lines[1] == "=" * len("Title")
        assert "alpha" in lines[4]
        # Numeric columns are right-aligned.
        assert lines[4].index("1.5") > lines[4].index("alpha")

    def test_float_formatting(self):
        table = TextTable("T", ["a"])
        table.add_row(3.14159)
        assert "3.1" in table.format_text()

    def test_none_renders_dash(self):
        table = TextTable("T", ["a", "b"])
        table.add_row("x", None)
        assert "-" in table.format_text().splitlines()[-1]

    def test_notes_are_appended(self):
        table = TextTable("T", ["a"])
        table.add_row("x")
        table.add_note("hello")
        assert table.format_text().endswith("note: hello")

    def test_column_widths_track_longest_cell(self):
        table = TextTable("T", ["a", "b"])
        table.add_row("short", "very-long-cell-content")
        header_line = table.format_text().splitlines()[2]
        row_line = table.format_text().splitlines()[4]
        assert len(header_line) <= len(row_line)


def test_percent():
    assert percent(0.5) == "50.0%"
    assert percent(1.0) == "100.0%"


class TestCli:
    def test_single_experiment(self, capsys):
        assert cli_main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "spice2g6" in out

    def test_table3_uses_cache(self, capsys, runner):
        # The session runner has already warmed the on-disk cache, so the
        # CLI (a fresh runner) serves from disk.
        assert cli_main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "tomcatv" in out

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            cli_main(["nonesuch"])

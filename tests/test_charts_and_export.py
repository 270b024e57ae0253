"""ASCII chart and JSON export tests."""
import json

import pytest

from repro.experiments import export, figure1, figure2, figure3
from repro.experiments.charts import ascii_bars


class TestAsciiBars:
    def test_basic_shape(self):
        text = ascii_bars(
            "T", [("a", 10.0, 5.0), ("b", 100.0, None)], log=False
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "#" in lines[3]
        assert "-" in lines[4]
        assert "10.0" in lines[3]

    def test_longest_bar_fills_width(self):
        text = ascii_bars("T", [("a", 10.0, None), ("b", 100.0, None)],
                          width=30, log=False)
        bar_a = text.splitlines()[3].count("#")
        bar_b = text.splitlines()[4].count("#")
        assert bar_b == 30
        assert 0 < bar_a < bar_b

    def test_log_scale_compresses_outliers(self):
        linear = ascii_bars("T", [("a", 10.0, None), ("b", 1000.0, None)],
                            width=40, log=False)
        logged = ascii_bars("T", [("a", 10.0, None), ("b", 1000.0, None)],
                            width=40, log=True)
        ratio_linear = (
            linear.splitlines()[4].count("#") / linear.splitlines()[3].count("#")
        )
        ratio_log = (
            logged.splitlines()[4].count("#") / logged.splitlines()[3].count("#")
        )
        assert ratio_log < ratio_linear

    def test_zero_value(self):
        text = ascii_bars("T", [("a", 0.0, 0.0)])
        assert "0.0" in text

    def test_empty(self):
        assert ascii_bars("T", []) == "T"


class TestFigureCharts:
    def test_figure_charts_render(self, runner):
        for module in (figure1, figure2, figure3):
            chart = module.run(runner).format_chart()
            assert "#" in chart and "-" in chart
            assert "chart" in chart


class TestExport:
    @pytest.fixture(scope="class")
    def document(self, runner, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("export") / "results.json")
        return export.export_json(path, runner), path

    def test_all_sections_present(self, document):
        data, _ = document
        for key in (
            "table1", "table2", "table3", "figure1", "figure2", "figure3",
            "informal", "runlengths", "coverage", "ablations",
        ):
            assert key in data

    def test_keys_are_the_cli_experiment_names(self, document):
        from repro.experiments.cli import EXPERIMENTS

        data, _ = document
        assert sorted(data) == sorted(EXPERIMENTS)
        assert set(data["informal"]) == {
            "combine_modes", "heuristics", "percent_taken", "compress_cross",
            "wrong_measure", "dynamic_comparison",
        }
        assert set(data["ablations"]) == {"inlining", "if_conversion"}

    def test_file_is_valid_json(self, document):
        _, path = document
        with open(path) as handle:
            reloaded = json.load(handle)
        assert reloaded["table1"]["rows"]

    def test_values_match_experiment_objects(self, runner, document):
        data, _ = document
        from repro.experiments import table3

        live = table3.run(runner)
        exported = data["table3"]["rows"]
        assert len(exported) == len(live.rows)
        assert exported[0]["program"] == live.rows[0].program
        assert exported[0]["instructions_per_break"] == pytest.approx(
            live.rows[0].instructions_per_break
        )

    def test_dataclass_flattening_handles_nested_dicts(self, document):
        data, _ = document
        combine = data["informal"]["combine_modes"]["rows"][0]
        assert set(combine["fraction_of_self"]) == {
            "scaled", "unscaled", "polling",
        }

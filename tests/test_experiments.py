"""Experiment reproductions: assert the paper's qualitative findings hold.

These tests run the real experiment code over the full workload suite (the
session runner's disk cache keeps repeat runs fast) and check the *shape*
of each result against what the paper reports.
"""
import pytest

from repro.experiments import (
    figure1,
    figure2,
    figure3,
    informal,
    table1,
    table2,
    table3,
)


@pytest.fixture(scope="module")
def table1_result(runner):
    return table1.run(runner)


@pytest.fixture(scope="module")
def figure1_result(runner):
    return figure1.run(runner)


@pytest.fixture(scope="module")
def figure2_result(runner):
    return figure2.run(runner)


@pytest.fixture(scope="module")
def figure3_result(runner):
    return figure3.run(runner)


class TestTable1:
    def test_covers_all_spec_programs(self, table1_result):
        assert set(table1_result.by_program()) == set(table1.PAPER_DEAD_CODE)

    def test_li_has_no_dead_code(self, table1_result):
        assert table1_result.by_program()["li"].dead_fraction < 0.01

    def test_matrix300_has_most_dead_code(self, table1_result):
        rows = table1_result.by_program()
        matrix300 = rows["matrix300"].dead_fraction
        assert matrix300 > 0.2
        assert matrix300 == max(row.dead_fraction for row in rows.values())

    def test_dead_code_ordering_tracks_paper(self, table1_result):
        """Programs the paper found dead-code-light must measure light here
        too, and the heavy ones heavy (exact percentages differ)."""
        rows = table1_result.by_program()
        light = {"li", "fpppp", "spice2g6", "gcc", "doduc", "eqntott"}
        heavy = {"tomcatv", "espresso", "nasa7", "matrix300"}
        worst_light = max(rows[name].dead_fraction for name in light)
        best_heavy = min(rows[name].dead_fraction for name in heavy)
        assert worst_light < 0.10
        assert best_heavy > 0.05

    def test_formatting(self, table1_result):
        text = table1_result.format_text()
        assert "Table 1" in text and "matrix300" in text


class TestTable2:
    def test_inventory_matches_registry(self, runner):
        result = table2.run(runner)
        names = [row.program for row in result.rows]
        assert names[0] == "spice2g6" and "li" in names and len(names) == 15

    def test_formatting(self, runner):
        text = table2.run(runner).format_text()
        assert "greybig" in text and "fortran_metric" in text


class TestTable3:
    def test_program_ordering_matches_paper(self, runner):
        result = table3.run(runner)
        assert result.ordering_matches_paper()

    def test_all_values_are_large(self, runner):
        # Every Table 3 program is highly predictable: instructions per
        # break in the hundreds or thousands.
        result = table3.run(runner)
        assert all(row.instructions_per_break > 150 for row in result.rows)

    def test_tomcatv_is_most_predictable(self, runner):
        result = table3.run(runner)
        best = max(result.rows, key=lambda row: row.instructions_per_break)
        assert best.program == "tomcatv"

    def test_formatting(self, runner):
        text = table3.run(runner).format_text()
        assert "7461" in text  # the paper's value column is present


class TestFigure1:
    def test_panels_are_populated(self, figure1_result):
        assert len(figure1_result.fortran_bars) >= 15
        assert len(figure1_result.c_bars) >= 25

    def test_call_breaks_only_reduce_ipb(self, figure1_result):
        for bar in figure1_result.fortran_bars + figure1_result.c_bars:
            assert bar.ipb_white <= bar.ipb_black + 1e-9

    def test_fpppp_is_the_outlier(self, figure1_result):
        """fpppp is 'very uncharacteristic in having 150-170 instructions
        per break' — it must dominate Figure 1a."""
        by_program = {}
        for bar in figure1_result.fortran_bars:
            by_program.setdefault(bar.program, []).append(bar.ipb_black)
        fpppp_best = max(by_program["fpppp"])
        others = [
            value
            for name, values in by_program.items()
            if name != "fpppp"
            for value in values
        ]
        assert fpppp_best > max(others)

    def test_c_programs_have_5_to_20_instructions_per_break(
        self, figure1_result
    ):
        values = [bar.ipb_black for bar in figure1_result.c_bars]
        assert min(values) >= 4
        assert max(values) <= 25

    def test_formatting(self, figure1_result):
        text = figure1_result.format_text()
        assert "Figure 1a" in text and "Figure 1b" in text


class TestFigure2:
    def test_spice_panel_has_nine_datasets(self, figure2_result):
        assert len(figure2_result.spice_bars) == 9

    def test_combined_never_beats_self(self, figure2_result):
        for bar in figure2_result.all_bars():
            assert bar.ipb_combined <= bar.ipb_self + 1e-9

    def test_prediction_helps_everywhere(self, figure2_result):
        for bar in figure2_result.all_bars():
            assert bar.ipb_combined > bar.ipb_unpredicted

    def test_c_programs_land_in_the_papers_band(self, figure2_result):
        """Paper: 'instructions per break range from about 40 to about
        160' for the C programs (combined predictor)."""
        values = [bar.ipb_combined for bar in figure2_result.c_bars]
        assert min(values) > 25
        assert max(values) < 250

    def test_combined_predictor_is_generally_effective(self, figure2_result):
        fractions = [
            bar.combined_fraction_of_self for bar in figure2_result.c_bars
        ]
        good = sum(1 for fraction in fractions if fraction >= 0.75)
        assert good / len(fractions) >= 0.8

    def test_spice_is_hardest_to_predict(self, figure2_result):
        spice_mean = sum(
            bar.combined_fraction_of_self for bar in figure2_result.spice_bars
        ) / len(figure2_result.spice_bars)
        c_mean = sum(
            bar.combined_fraction_of_self for bar in figure2_result.c_bars
        ) / len(figure2_result.c_bars)
        assert spice_mean < c_mean

    def test_formatting(self, figure2_result):
        text = figure2_result.format_text()
        assert "Figure 2a" in text and "sum of others" in text


class TestFigure3:
    def test_worst_below_best(self, figure3_result):
        for bar in figure3_result.all_bars():
            assert bar.worst_percent <= bar.best_percent + 1e-9

    def test_spice_has_dramatic_worst_cases(self, figure3_result):
        worst = min(bar.worst_percent for bar in figure3_result.spice_bars)
        assert worst < 40.0

    def test_some_c_program_worst_cases_hover_lower(self, figure3_result):
        """Paper: 'the worst tended to hover around 50-70% of what was
        possible' for espresso, li, compress, spiff, eqntott."""
        worst_values = [bar.worst_percent for bar in figure3_result.c_bars]
        assert min(worst_values) < 70.0

    def test_best_is_usually_nearly_perfect(self, figure3_result):
        best_values = [bar.best_percent for bar in figure3_result.c_bars]
        good = sum(1 for value in best_values if value >= 90.0)
        assert good / len(best_values) >= 0.7

    def test_formatting(self, figure3_result):
        text = figure3_result.format_text()
        assert "Figure 3a" in text and "worst" in text


class TestInformal:
    @pytest.fixture(scope="class")
    def answers(self, runner):
        batch = informal.requests()
        return dict(zip(batch, runner.run_many(batch)))

    def test_polling_is_the_worst_combiner(self, answers):
        result = informal.combine_modes(answers)
        scaled = result.mean_fraction("scaled")
        unscaled = result.mean_fraction("unscaled")
        polling = result.mean_fraction("polling")
        assert polling <= scaled + 1e-9
        assert polling <= unscaled + 1e-9
        # Paper: scaled and unscaled "appeared to perform as well as each
        # other ... on average they were indistinguishably close."
        assert abs(scaled - unscaled) < 0.08
        assert "polling" in result.format_text()

    def test_heuristics_lose_about_a_factor_of_two(self, runner, answers):
        result = informal.heuristics(runner, answers)
        factor = result.mean_loop_factor()
        assert factor > 1.4  # the paper says "about a factor of two"
        assert "factor" in result.format_text()

    def test_heuristics_never_beat_self_prediction(self, runner, answers):
        result = informal.heuristics(runner, answers)
        for row in result.rows:
            assert row.ipb_loop_heuristic <= row.ipb_self + 1e-9
            assert row.ipb_opcode_heuristic <= row.ipb_self + 1e-9

    def test_percent_taken_is_roughly_constant(self, answers):
        result = informal.percent_taken(answers)
        spreads = {row.program: row.spread for row in result.rows}
        # spice2g6 must show a notably large spread, like the paper.
        assert spreads["spice2g6"] > 0.15
        # Most other programs stay tight.
        tight = [
            name for name, spread in spreads.items()
            if name != "spice2g6" and spread <= 0.10
        ]
        assert len(tight) >= 5
        assert "spread" in result.format_text()

    def test_compress_modes_do_not_predict_each_other(self, answers):
        result = informal.compress_cross(answers)
        for mode in ("compress", "uncompress"):
            assert (
                result.fraction_by_target[mode]
                < result.same_mode_fraction[mode]
            )
        # "Using the data from one to predict the other is a very bad idea."
        assert min(result.fraction_by_target.values()) < 0.75
        assert "very bad idea" in result.format_text()

    def test_wrong_measure_reproduces_fpppp_vs_li(self, answers):
        result = informal.wrong_measure(answers)
        fpppp = result.find("fpppp", "8atoms")
        li = result.find("li", "6queens")
        # Percent-correct is close between the two...
        assert abs(fpppp.percent_correct_self - li.percent_correct_self) < 0.15
        # ...but branch density differs by an order of magnitude.
        assert fpppp.branch_density > 10 * li.branch_density
        assert "wrong measure" in result.format_text()

    def test_dynamic_predictors(self, answers):
        result = informal.dynamic_comparison(answers)
        assert {row.program for row in result.rows} == set(
            informal.DYNAMIC_PROGRAMS
        )
        for row in result.rows:
            assert 0.5 < row.two_bit_accuracy <= 1.0
            # 2-bit counters beat 1-bit on loop-dominated code.
            if row.program in ("tomcatv", "lfk"):
                assert row.two_bit_accuracy >= row.one_bit_accuracy
        fortran_2bit = result.mean_accuracy("fortran", "two_bit_accuracy")
        c_2bit = result.mean_accuracy("c", "two_bit_accuracy")
        # The literature's contrast: scientific code predicts better.
        assert fortran_2bit > c_2bit
        assert "2-bit" in result.format_text()

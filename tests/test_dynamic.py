"""Tests for the dynamic branch-predictor subsystem (repro.dynamic)."""
import pytest

from repro.dynamic import (
    BimodalPredictor,
    DynamicScoreMonitor,
    GSharePredictor,
    TournamentPredictor,
    TwoLevelLocalPredictor,
    branch_pc,
    build_model,
    default_zoo,
)
from repro.experiments import dynamic_compare
from repro.ir.instructions import BranchId
from repro.prediction.base import ProfilePredictor
from repro.prediction.evaluate import PredictionReport, evaluate_static
from repro.vm.machine import run_program
from repro.vm.monitors import BranchMonitor

ONE_BRANCH = [BranchId("main", 0)]


def drive(model, outcomes, index=0, branch_table=None):
    """Reset a model and feed it an outcome stream; returns predictions."""
    model.reset(branch_table if branch_table is not None else ONE_BRANCH)
    return [model.observe(index, taken) for taken in outcomes]


# -- saturating-counter transition tables -------------------------------------


class TestSaturatingCounters:
    def test_one_bit_transitions(self):
        model = BimodalPredictor(table_size=None, num_bits=1)
        model.reset(ONE_BRANCH)
        # state 0 predicts not-taken; a single taken flips it, and back.
        assert model.predict(0) is False
        model.update(0, True)
        assert model.snapshot() == ((1,),)
        assert model.predict(0) is True
        model.update(0, True)
        assert model.snapshot() == ((1,),)  # saturates at 1
        model.update(0, False)
        assert model.snapshot() == ((0,),)
        model.update(0, False)
        assert model.snapshot() == ((0,),)  # saturates at 0

    def test_two_bit_transitions(self):
        model = BimodalPredictor(table_size=None, num_bits=2)
        model.reset(ONE_BRANCH)
        states = []
        for taken in (True, True, True, True, False, False, True, False):
            model.update(0, taken)
            states.append(model.snapshot()[0][0])
        # 0 -> 1 -> 2 -> 3 (saturate) -> 3 -> 2 -> 1 -> 2 -> 1
        assert states == [1, 2, 3, 3, 2, 1, 2, 1]

    def test_two_bit_hysteresis_survives_one_exception(self):
        # Classic 2-bit property: a single not-taken inside a taken run
        # does not flip the prediction (unlike 1-bit).
        one = BimodalPredictor(table_size=None, num_bits=1)
        two = BimodalPredictor(table_size=None, num_bits=2)
        stream = [True, True, True, False, True]
        assert drive(one, stream)[-1] is False   # flipped by the exception
        assert drive(two, stream)[-1] is True    # hysteresis held

    def test_threshold_is_top_half(self):
        model = BimodalPredictor(table_size=None, num_bits=2, initial_state=2)
        model.reset(ONE_BRANCH)
        assert model.predict(0) is True
        model = BimodalPredictor(table_size=None, num_bits=2, initial_state=1)
        model.reset(ONE_BRANCH)
        assert model.predict(0) is False

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="num_bits"):
            BimodalPredictor(num_bits=0)
        with pytest.raises(ValueError, match="initial_state"):
            BimodalPredictor(num_bits=1, initial_state=2)
        with pytest.raises(ValueError, match="power of two"):
            BimodalPredictor(table_size=100)


# -- hashing and aliasing ------------------------------------------------------


class TestIndexing:
    def test_branch_pc_is_stable(self):
        # The FNV-1a constant for "main#0" must never change: finite-table
        # simulations are only reproducible across processes if indexing
        # does not depend on Python's salted hash().
        assert branch_pc(BranchId("main", 0)) == branch_pc(BranchId("main", 0))
        assert branch_pc(BranchId("main", 0)) != branch_pc(BranchId("main", 1))
        assert branch_pc(BranchId("main", 0)) == 0xAA5D7873E9A81CD3

    def test_finite_bimodal_aliases_when_table_is_small(self):
        branches = [BranchId("f", i) for i in range(64)]
        small = BimodalPredictor(table_size=4)
        small.reset(branches)
        assert len(set(small._slots)) <= 4
        infinite = BimodalPredictor(table_size=None)
        infinite.reset(branches)
        assert len(set(infinite._slots)) == 64

    def test_aliased_branches_share_state(self):
        branches = [BranchId("f", i) for i in range(64)]
        model = BimodalPredictor(table_size=1, num_bits=2)
        model.reset(branches)
        # Every branch maps to the single entry: training one branch
        # taken trains them all.
        model.update(0, True)
        model.update(0, True)
        assert all(model.predict(i) is True for i in range(64))


class TestGShare:
    def test_history_register_tracks_recent_outcomes(self):
        model = GSharePredictor(table_size=16, history_bits=4)
        drive(model, [True, False, True, True])
        # history = last 4 outcomes, oldest first: 1011
        assert model.snapshot()[1] == 0b1011

    def test_history_length_is_bounded(self):
        model = GSharePredictor(table_size=16, history_bits=2)
        drive(model, [True] * 10)
        assert model.snapshot()[1] == 0b11

    def test_same_stream_same_snapshot(self):
        branches = [BranchId("f", i) for i in range(8)]
        stream = [(i % 3, i % 2 == 0) for i in range(200)]
        snaps = []
        for _ in range(2):
            model = GSharePredictor(table_size=16)
            model.reset(branches)
            predictions = [model.observe(i, t) for i, t in stream]
            snaps.append((model.snapshot(), predictions))
        assert snaps[0] == snaps[1]

    def test_index_mixes_history_and_address(self):
        model = GSharePredictor(table_size=16, history_bits=4)
        model.reset(ONE_BRANCH)
        before = model.slot(0)
        model.update(0, True)
        after = model.slot(0)
        # Same branch, different history context -> different entry.
        assert before != after

    def test_learns_an_alternating_pattern_bimodal_cannot(self):
        stream = [i % 2 == 0 for i in range(400)]
        gshare = GSharePredictor(table_size=16)
        bimodal = BimodalPredictor(table_size=16)
        gshare_correct = sum(
            p == t for p, t in zip(drive(gshare, stream), stream)
        )
        bimodal_correct = sum(
            p == t for p, t in zip(drive(bimodal, stream), stream)
        )
        assert gshare_correct > 390  # perfect after warmup
        assert bimodal_correct < 250  # alternation defeats counters


class TestTwoLevelLocal:
    def test_learns_a_short_period_loop(self):
        # taken,taken,taken,not-taken repeating: a 4-iteration inner loop.
        stream = ([True, True, True, False] * 100)
        model = TwoLevelLocalPredictor(table_size=16)
        predictions = drive(model, stream)
        correct = sum(p == t for p, t in zip(predictions, stream))
        assert correct > 380  # near-perfect after pattern warmup

    def test_snapshot_has_both_levels(self):
        model = TwoLevelLocalPredictor(table_size=8)
        drive(model, [True, False, True])
        histories, patterns = model.snapshot()
        assert len(histories) == 8 and len(patterns) == 8


class TestTournament:
    def test_chooser_migrates_to_the_better_component(self):
        # Alternating outcomes: gshare perfect, bimodal hopeless.  The
        # chooser must end up trusting gshare and track its predictions.
        model = TournamentPredictor(table_size=16)
        stream = [i % 2 == 0 for i in range(600)]
        drive(model, stream)
        assert model._chooser[model._slots[0]] >= 2
        assert model.predict(0) == model.gshare.predict(0)

    def test_budget_sums_components_and_chooser(self):
        model = TournamentPredictor(table_size=64)
        expected = (
            model.bimodal.budget_bits()
            + model.gshare.budget_bits()
            + 64 * 2
        )
        assert model.budget_bits() == expected


class TestBudgets:
    def test_budget_accounting(self):
        assert BimodalPredictor(table_size=1024).budget_bits() == 2048
        assert BimodalPredictor(table_size=None).budget_bits() is None
        assert GSharePredictor(table_size=1024).budget_bits() == 2048 + 10
        local = TwoLevelLocalPredictor(table_size=1024)
        assert local.budget_bits() == 1024 * 10 + 1024 * 2

    def test_zoo_builds_every_family_at_every_size(self):
        zoo = default_zoo(table_sizes=(16, 64))
        assert [model.name for model in zoo] == [
            "bimodal@16", "bimodal@64", "gshare@16", "gshare@64",
            "local@16", "local@64", "tournament@16", "tournament@64",
        ]
        with pytest.raises(ValueError, match="unknown predictor family"):
            build_model("neural", 64)


# -- scoring against real runs -------------------------------------------------


@pytest.fixture(scope="module")
def doduc_run(runner):
    branch_table = runner.compiled("doduc").lowered.branch_table
    return runner, branch_table


class StaticDirections(BranchMonitor):
    """A static predictor scored event by event on the live stream: one
    fixed direction per static branch, resolved at construction."""

    def __init__(self, predictor, branch_table):
        self.directions = [predictor.predict(bid) for bid in branch_table]

    def on_run_start(self, num_branches):
        self.branch_execs = self.mispredicted = 0

    def on_branch(self, branch_index, taken, icount):
        self.branch_execs += 1
        if self.directions[branch_index] != taken:
            self.mispredicted += 1


class TestStaticFromCounters:
    @pytest.mark.parametrize("predictor_dataset", ["tiny", "small"])
    def test_mispredicts_match_evaluate_static(
        self, doduc_run, predictor_dataset
    ):
        """Scoring a static predictor event by event on the live stream
        must agree exactly with the counter arithmetic of evaluate_static."""
        runner, branch_table = doduc_run
        profile = runner.profile("doduc", predictor_dataset)
        predictor = ProfilePredictor(profile, name=predictor_dataset)
        live = StaticDirections(predictor, branch_table)
        result = runner.run("doduc", "ref", monitors=[live])
        assert evaluate_static(result, predictor) == PredictionReport(
            program=result.program,
            predictor=predictor_dataset,
            instructions=result.instructions,
            branch_execs=live.branch_execs,
            mispredicted=live.mispredicted,
            unavoidable_breaks=(
                result.events.indirect_calls + result.events.indirect_returns
            ),
        )

    def test_self_prediction_is_static_optimum(self, doduc_run):
        runner, _ = doduc_run
        target = runner.run("doduc", "tiny")
        self_report = evaluate_static(
            target, ProfilePredictor(runner.profile("doduc", "tiny"))
        )
        cross_report = evaluate_static(
            target, ProfilePredictor(runner.profile("doduc", "ref"))
        )
        assert self_report.mispredicted <= cross_report.mispredicted


class LonghandCounters(BranchMonitor):
    """The original per-branch scheme written out longhand: one n-bit
    saturating counter per static branch, predicting taken in its top
    half, starting at zero."""

    def __init__(self, num_bits):
        self.max_state = (1 << num_bits) - 1
        self.threshold = 1 << (num_bits - 1)

    def on_run_start(self, num_branches):
        self.states = [0] * num_branches
        self.hits = self.misses = 0

    def on_branch(self, branch_index, taken, icount):
        state = self.states[branch_index]
        if (state >= self.threshold) == taken:
            self.hits += 1
        else:
            self.misses += 1
        if taken:
            self.states[branch_index] = min(state + 1, self.max_state)
        else:
            self.states[branch_index] = max(state - 1, 0)


class TestInfiniteBimodalMatchesLegacyMonitor:
    def test_same_numbers_as_online_predictor_monitor(self, doduc_run):
        """BimodalPredictor(table_size=None) must reproduce the per-branch
        counters exactly (the informal experiment depends on it)."""
        runner, branch_table = doduc_run
        longhand_one, longhand_two = LonghandCounters(1), LonghandCounters(2)
        monitor = DynamicScoreMonitor(
            [
                BimodalPredictor(table_size=None, num_bits=1),
                BimodalPredictor(table_size=None, num_bits=2),
            ],
            branch_table,
        )
        result = runner.run(
            "doduc", "small", monitors=[longhand_one, longhand_two, monitor]
        )
        one, two = monitor.scores(result)
        assert one.mispredicted == longhand_one.misses
        assert two.mispredicted == longhand_two.misses
        for score, longhand in ((one, longhand_one), (two, longhand_two)):
            total = longhand.hits + longhand.misses
            assert score.percent_correct == longhand.hits / total

    def test_infinite_bimodal_exposes_states(self):
        model = BimodalPredictor(table_size=None, num_bits=2)
        monitor = DynamicScoreMonitor(
            [model], [BranchId("main", index) for index in range(3)]
        )
        monitor.on_run_start(3)
        monitor.on_branch(1, True, 10)
        assert model.snapshot() == ((0, 1, 0),)


class TestVacuousAccuracy:
    def test_monitor_and_report_agree_on_zero_branches(self):
        from repro.compiler import compile_source

        lowered = compile_source("func main() { return 0; }").lowered
        monitor = DynamicScoreMonitor(
            [BimodalPredictor(table_size=None)], lowered.branch_table
        )
        result = run_program(lowered, monitors=[monitor])
        report = PredictionReport(
            program="p", predictor="q", instructions=10,
            branch_execs=0, mispredicted=0, unavoidable_breaks=0,
        )
        assert monitor.score(0, result).percent_correct == 1.0
        assert report.percent_correct == 1.0

    def test_dynamic_score_agrees(self):
        """The monitor's reports carry each model's table and budget."""
        from repro.compiler import compile_source

        lowered = compile_source("func main() { return 0; }").lowered
        monitor = DynamicScoreMonitor(
            [BimodalPredictor(table_size=64), BimodalPredictor(table_size=None)],
            lowered.branch_table,
        )
        result = run_program(lowered, monitors=[monitor])
        finite, infinite = monitor.scores(result)
        assert (finite.table_size, finite.budget_bits) == (64, 128)
        assert (infinite.table_size, infinite.budget_bits) == (None, None)
        assert finite.percent_correct == infinite.percent_correct == 1.0


class TestScoreMonitor:
    def test_rejects_mismatched_branch_table(self):
        monitor = DynamicScoreMonitor([BimodalPredictor()], ONE_BRANCH)
        with pytest.raises(ValueError, match="built for 1"):
            monitor.on_run_start(7)

    def test_counts_every_branch_event(self, doduc_run):
        runner, branch_table = doduc_run
        monitor = DynamicScoreMonitor([BimodalPredictor()], branch_table)
        result = runner.run("doduc", "tiny", monitors=[monitor])
        score = monitor.scores(result)[0]
        assert score.branch_execs == result.total_branch_execs
        assert score.unavoidable_breaks == (
            result.events.indirect_calls + result.events.indirect_returns
        )


# -- the comparison experiment -------------------------------------------------


class TestDynamicCompareExperiment:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return dynamic_compare.run(
            runner, programs=["doduc"], table_sizes=(16, 64, 256)
        )

    def test_covers_the_full_grid(self, result):
        datasets = {row.dataset for row in result.rows}
        predictors = {row.predictor for row in result.rows}
        assert datasets == {"tiny", "small", "ref"}
        assert "static-self" in predictors and "static-cross" in predictors
        # 4 families x 3 sizes + 2 static rows, for each of 3 datasets.
        assert len(result.rows) == 3 * (4 * 3 + 2)

    def test_static_self_dominates_static_cross_per_dataset(self, result):
        by_key = {
            (row.dataset, row.predictor): row for row in result.rows
        }
        for dataset in ("tiny", "small", "ref"):
            self_row = by_key[(dataset, "static-self")]
            cross_row = by_key[(dataset, "static-cross")]
            assert self_row.mispredicted <= cross_row.mispredicted

    def test_formatting(self, result):
        text = result.format_text()
        assert "Dynamic vs static prediction" in text
        assert "% correct" in text and "instrs/mispredict" in text
        assert "bimodal@16" in text and "tournament@256" in text
        chart = result.format_chart()
        assert "instrs per mispredict" in chart

    def test_single_dataset_workload_rejected(self, runner):
        with pytest.raises(ValueError, match="single dataset"):
            dynamic_compare.run(runner, programs=["tomcatv"])


def test_cli_dynamic_serial_vs_jobs2_byte_identical(
    tmp_path, capsys, monkeypatch
):
    """The acceptance gate: `repro-experiments dynamic --jobs 2` output
    must be byte-identical to the serial run."""
    from repro.experiments.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "dyn-cache"))
    monkeypatch.setattr(dynamic_compare, "DEFAULT_PROGRAMS", ["doduc"])
    assert main(["dynamic", "--jobs", "2"]) == 0
    parallel_out = capsys.readouterr().out
    assert main(["dynamic"]) == 0
    serial_out = capsys.readouterr().out
    assert parallel_out == serial_out
    assert "Dynamic vs static prediction" in parallel_out

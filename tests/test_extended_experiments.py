"""Tests for the ablation, run-length and coverage experiments."""
import pytest

import repro.vm.monitors as vm_monitors
from repro.core.runner import WorkloadRunner
from repro.experiments import ablations, coverage, runlengths
from repro.ir.instructions import BranchId
from repro.prediction.base import FixedPredictor, ProfilePredictor
from repro.profiling.branch_profile import BranchProfile
from repro.vm.monitors import RunLengthMonitor


@pytest.fixture(scope="module")
def ablations_result(runner):
    return ablations.run(runner)


class TestInliningAblation:
    @pytest.fixture(scope="class")
    def result(self, ablations_result):
        return ablations_result.inlining

    def test_outputs_unchanged_by_construction(self, result):
        # The ablation machinery itself verified outputs via the runner's
        # deterministic runs; here we check the report invariants.
        for row in result.rows:
            assert row.calls_inlined <= row.calls_base

    def test_inlining_shrinks_call_breaks_somewhere(self, result):
        assert any(row.calls_inlined < row.calls_base for row in result.rows)

    def test_white_ipb_never_gets_worse_when_calls_vanish(self, result):
        for row in result.rows:
            if row.calls_inlined < row.calls_base * 0.5:
                assert row.ipb_with_calls_inlined >= row.ipb_with_calls_base

    def test_formatting(self, result):
        assert "Inlining ablation" in result.format_text()


class TestIfConversionAblation:
    @pytest.fixture(scope="class")
    def result(self, ablations_result):
        return ablations_result.if_conversion

    def test_branch_execs_never_increase(self, result):
        for row in result.rows:
            assert row.branch_execs_converted <= row.branch_execs_base

    def test_dynamic_effect_is_tiny_like_the_papers_footnote(self, result):
        # Paper footnote 2: selects were well under 1% of operations.
        for row in result.rows:
            assert row.branch_reduction < 0.05

    def test_formatting(self, result):
        assert "If-conversion ablation" in result.format_text()


class TestRunLengths:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return runlengths.run(runner)

    def test_breaks_match_self_misprediction_counts(self, runner, result):
        from repro.prediction import self_prediction

        for row in result.rows:
            baseline = runner.run(row.program, row.dataset)
            expected = self_prediction(baseline).mispredicted
            # Every misprediction terminates a run, plus the flushed tail
            # run (instructions after the last misprediction, terminated
            # by program exit) when it is non-empty.
            assert row.stats["count"] in (expected, expected + 1)

    def test_runs_are_not_evenly_spaced(self, result):
        # The paper's claim: an evenly-spaced process would have cv ~ 0.
        assert all(row.stats["cv"] > 0.3 for row in result.rows)

    def test_mean_tracks_ipb(self, runner, result):
        from repro.metrics import ipb_self_prediction

        li = result.find("li")
        baseline = runner.run("li", li.dataset)
        # Run-length mean between mispredicted branches approximates the
        # instructions-per-mispredicted-branch measure (no indirect calls
        # in li's accounting here).
        assert li.stats["mean"] == pytest.approx(
            ipb_self_prediction(baseline), rel=0.1
        )

    def test_formatting(self, result):
        assert "run lengths" in result.format_text().lower()

    def test_chunk_size_does_not_change_the_table(self, result, monkeypatch):
        # A fresh runner: the session runner has the monitored runs memoized.
        monkeypatch.setattr(vm_monitors, "CHUNK_EVENTS", 7)
        fresh = WorkloadRunner()
        assert runlengths.run(fresh).format_text() == result.format_text()


TWO_BRANCHES = [BranchId("main", 0), BranchId("main", 1)]


def chunk(*events):
    """The chunk of (branch_index, taken, icount) events."""
    return [
        item
        for index, taken, icount in events
        for item in (index << 1 | taken, icount)
    ]


class TestRunLengthMonitor:
    def test_records_gaps(self):
        # Branch 0 is predicted taken, branch 1 not taken.
        profile = BranchProfile(
            "main", {TWO_BRANCHES[0]: (1.0, 1.0), TWO_BRANCHES[1]: (1.0, 0.0)}
        )
        monitor = RunLengthMonitor(ProfilePredictor(profile))
        monitor.on_run_start(TWO_BRANCHES)
        monitor.replay(chunk((0, True, 10)))  # predicted: no break
        monitor.replay(chunk(
            (1, True, 25),    # mispredicted: gap 25
            (0, False, 40),   # mispredicted: gap 15
        ))
        assert monitor.run_lengths == [25, 15]
        stats = monitor.stats()
        assert stats["count"] == 2
        assert stats["mean"] == 20.0

    def test_ties_and_unexecuted_branches_break_when_taken(self):
        # The self-prediction rule: taken > executed - taken, so a tie and
        # a branch the profile never saw are both predicted not taken.
        profile = BranchProfile("main", {TWO_BRANCHES[0]: (2.0, 1.0)})
        monitor = RunLengthMonitor(ProfilePredictor(profile))
        monitor.on_run_start(TWO_BRANCHES)
        monitor.replay(chunk((0, True, 10), (1, True, 15), (1, False, 30)))
        assert monitor.run_lengths == [10, 5]

    def test_empty_stats(self):
        monitor = RunLengthMonitor(FixedPredictor(False))
        monitor.on_run_start([])
        assert monitor.stats()["count"] == 0


class TestCoverage:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return coverage.run(runner)

    def test_pair_count(self, result):
        # Every multi-dataset workload contributes n*(n-1) ordered pairs.
        from repro.workloads import multi_dataset_workloads

        expected = sum(
            len(wl.datasets) * (len(wl.datasets) - 1)
            for wl in multi_dataset_workloads()
        )
        assert len(result.pairs) == expected

    def test_measures_are_fractions(self, result):
        for pair in result.pairs:
            for value in pair.measures.values():
                assert -1e-9 <= value <= 1.0 + 1e-9

    def test_correlations_are_valid(self, result):
        for value in result.correlations.values():
            assert -1.0 <= value <= 1.0

    def test_weighted_coverage_is_informative_here(self, result):
        # Our finding (a deviation from the paper's null result, recorded
        # in EXPERIMENTS.md): coverage correlates positively with quality.
        assert result.correlations["weighted_coverage"] > 0.3

    def test_formatting(self, result):
        assert "Coverage measures" in result.format_text()


class TestCoverageMeasureUnits:
    def make_profile(self, counts):
        from repro.ir.instructions import BranchId
        from repro.profiling import BranchProfile

        profile = BranchProfile(program="p")
        for index, (executed, taken) in enumerate(counts):
            profile.counts[BranchId("f", index)] = (
                float(executed), float(taken),
            )
        return profile

    def test_full_coverage(self):
        a = self.make_profile([(10, 5), (20, 5)])
        assert coverage.weighted_coverage(a, a) == 1.0
        assert coverage.emphasis_overlap(a, a) == pytest.approx(1.0)

    def test_zero_coverage(self):
        a = self.make_profile([(10, 5)])
        b = self.make_profile([(0, 0), (30, 10)])
        b.counts.pop(list(b.counts)[0])
        assert coverage.weighted_coverage(a, b) == 0.0

    def test_pearson_degenerate(self):
        assert coverage.pearson([1.0], [2.0]) == 0.0
        assert coverage.pearson([1.0, 1.0], [1.0, 2.0]) == 0.0

    def test_pearson_perfect(self):
        assert coverage.pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert coverage.pearson([1, 2, 3], [-2, -4, -6]) == pytest.approx(-1.0)

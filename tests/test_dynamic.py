"""Tests for the dynamic branch-predictor subsystem (repro.dynamic)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.vm.monitors as vm_monitors
from repro.core.runner import WorkloadRunner
from repro.core.specs import standalone_model
from repro.dynamic import (
    MODEL_FAMILIES,
    BimodalPredictor,
    GSharePredictor,
    TournamentPredictor,
    TwoLevelLocalPredictor,
    branch_pc,
    default_zoo,
    monitors_for,
)
from repro.experiments import dynamic_compare
from repro.ir.instructions import BranchId
from repro.prediction.base import ProfilePredictor
from repro.prediction.evaluate import PredictionReport, evaluate_static
from repro.profiling.branch_profile import BranchProfile
from repro.vm.machine import run_program
from repro.vm.monitors import BranchMonitor, deliver
from tests.helpers import run_with_monitors

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
        assert model.observe(0, True) is False
        assert model.snapshot() == ((1,),)
        assert model.observe(0, True) is True
        assert model.snapshot() == ((1,),)  # saturates at 1
        assert model.observe(0, False) is True
        assert model.snapshot() == ((0,),)
        assert model.observe(0, False) is False
        assert model.snapshot() == ((0,),)  # saturates at 0

    def test_two_bit_transitions(self):
        model = BimodalPredictor(table_size=None, num_bits=2)
        model.reset(ONE_BRANCH)
        states = []
        for taken in (True, True, True, True, False, False, True, False):
            model.observe(0, taken)
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
        # Counters start at 0: states 0 and 1 predict not-taken, 2 taken.
        model = BimodalPredictor(table_size=None, num_bits=2)
        assert drive(model, [True, True, True]) == [False, False, True]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="num_bits"):
            BimodalPredictor(num_bits=0)
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
        model.observe(0, True)
        model.observe(0, True)
        assert all(model.observe(i, True) is True for i in range(64))


class TestGShare:
    def test_history_register_tracks_recent_outcomes(self):
        model = GSharePredictor(table_size=16)  # 4 history bits
        drive(model, [True, False, True, True])
        # history = last 4 outcomes, oldest first: 1011
        assert model.snapshot()[1] == 0b1011

    def test_history_length_is_bounded(self):
        model = GSharePredictor(table_size=4)  # 2 history bits
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
        model = GSharePredictor(table_size=16)
        drive(model, [True, True])
        # Same branch, different history context -> different entry: two
        # counters at 1 rather than one counter at 2.
        assert sorted(model.snapshot()[0])[-2:] == [1, 1]

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
        predictions = drive(model, stream)
        assert model._chooser[model._slots[0]] >= 2
        alone = drive(GSharePredictor(table_size=16), stream)
        assert predictions[-100:] == alone[-100:]

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
        with pytest.raises(ValueError, match="unknown model spec"):
            standalone_model("neural@64")

    def test_zoo_models_at_a_size_share_its_tournament_pass(self):
        zoo = default_zoo(table_sizes=(16, 64))
        bimodals, gshares, locals_, tournaments = (
            zoo[index:index + 2] for index in range(0, 8, 2)
        )
        for bimodal, gshare, tournament in zip(bimodals, gshares, tournaments):
            assert tournament.bimodal is bimodal and tournament.gshare is gshare
            assert bimodal.fed_by is gshare.fed_by is tournament
        assert monitors_for(zoo) == tournaments + locals_
        # A component alone is still fed, by its tournament.
        assert monitors_for([zoo[0]]) == [tournaments[0]]


# -- replay against a longhand per-event oracle --------------------------------


class LonghandBimodal:
    """One n-bit counter per slot, stepped one event at a time."""

    def __init__(self, table_size, num_bits=2):
        self.table_size = table_size
        self.num_bits = num_bits

    def reset(self, branch_table):
        if self.table_size is None:
            self.slots = list(range(len(branch_table)))
            self.table = [0] * len(branch_table)
        else:
            self.slots = [branch_pc(bid) % self.table_size for bid in branch_table]
            self.table = [0] * self.table_size

    def step(self, index, taken):
        slot = self.slots[index]
        state = self.table[slot]
        if taken:
            self.table[slot] = min(state + 1, 2 ** self.num_bits - 1)
        else:
            self.table[slot] = max(state - 1, 0)
        return state >= 2 ** (self.num_bits - 1)

    def snapshot(self):
        return (tuple(self.table),)


class LonghandGShare:
    def __init__(self, table_size):
        self.table_size = table_size
        self.history_bits = max(1, table_size.bit_length() - 1)

    def reset(self, branch_table):
        self.pcs = [branch_pc(bid) for bid in branch_table]
        self.table = [0] * self.table_size
        self.history = 0

    def step(self, index, taken):
        slot = (self.pcs[index] ^ self.history) % self.table_size
        state = self.table[slot]
        self.table[slot] = min(state + 1, 3) if taken else max(state - 1, 0)
        self.history = (self.history * 2 + taken) % 2 ** self.history_bits
        return state >= 2

    def snapshot(self):
        return (tuple(self.table), self.history)


class LonghandLocal:
    def __init__(self, table_size):
        self.table_size = table_size
        self.history_bits = max(1, table_size.bit_length() - 1)

    def reset(self, branch_table):
        self.slots = [branch_pc(bid) % self.table_size for bid in branch_table]
        self.histories = [0] * self.table_size
        self.patterns = [0] * self.table_size

    def step(self, index, taken):
        slot = self.slots[index]
        history = self.histories[slot]
        pattern = history % self.table_size
        state = self.patterns[pattern]
        self.patterns[pattern] = (
            min(state + 1, 3) if taken else max(state - 1, 0)
        )
        self.histories[slot] = (history * 2 + taken) % 2 ** self.history_bits
        return state >= 2

    def snapshot(self):
        return (tuple(self.histories), tuple(self.patterns))


class LonghandTournament:
    def __init__(self, table_size):
        self.table_size = table_size
        self.bimodal = LonghandBimodal(table_size)
        self.gshare = LonghandGShare(table_size)

    def reset(self, branch_table):
        self.bimodal.reset(branch_table)
        self.gshare.reset(branch_table)
        self.slots = [branch_pc(bid) % self.table_size for bid in branch_table]
        self.chooser = [1] * self.table_size

    def step(self, index, taken):
        from_bimodal = self.bimodal.step(index, taken)
        from_gshare = self.gshare.step(index, taken)
        slot = self.slots[index]
        state = self.chooser[slot]
        if from_bimodal != from_gshare:
            if from_gshare == taken:
                self.chooser[slot] = min(state + 1, 3)
            else:
                self.chooser[slot] = max(state - 1, 0)
        return from_gshare if state >= 2 else from_bimodal

    def snapshot(self):
        return (
            self.bimodal.snapshot(), self.gshare.snapshot(), tuple(self.chooser)
        )


LONGHAND = {
    "bimodal": LonghandBimodal,
    "gshare": LonghandGShare,
    "local": LonghandLocal,
    "tournament": LonghandTournament,
}

#: Every zoo family at an edge, a small and a default size, plus the
#: infinite-table 1-bit and 2-bit counters of the informal experiment.
REPLAY_MODELS = [
    pytest.param(
        lambda family=family, size=size: standalone_model(f"{family}@{size}"),
        lambda family=family, size=size: LONGHAND[family](size),
        id=f"{family}@{size}",
    )
    for family in MODEL_FAMILIES
    for size in (1, 4, 64)
] + [
    pytest.param(
        lambda bits=bits: BimodalPredictor(table_size=None, num_bits=bits),
        lambda bits=bits: LonghandBimodal(None, num_bits=bits),
        id=f"bimodal@inf-{bits}bit",
    )
    for bits in (1, 2)
]


@st.composite
def split_streams(draw):
    """A branch table, an outcome stream over it, and cut points."""
    num_branches = draw(st.integers(1, 12))
    events = draw(st.lists(
        st.tuples(st.integers(0, num_branches - 1), st.booleans()),
        max_size=300,
    ))
    cuts = sorted(draw(st.lists(st.integers(0, len(events)), max_size=6)))
    branch_table = [BranchId("f", index) for index in range(num_branches)]
    return branch_table, events, cuts


@pytest.mark.parametrize("make_model, make_longhand", REPLAY_MODELS)
@given(split_streams())
@settings(max_examples=60, deadline=None)
def test_replay_matches_longhand_in_any_chunking(
    make_model, make_longhand, stream
):
    branch_table, events, cuts = stream
    outcomes = [index << 1 | taken for index, taken in events]

    longhand = make_longhand()
    longhand.reset(branch_table)
    predicted = [longhand.step(index, taken) for index, taken in events]
    expected = sum(
        guess != taken for guess, (_, taken) in zip(predicted, events)
    )

    whole = make_model()
    whole.reset(branch_table)
    assert whole.simulate(outcomes) == expected
    assert whole.snapshot() == longhand.snapshot()

    # As a monitor: bound at run start, handed chunks of (outcome, icount)
    # pairs cut anywhere, tallying its own executions and mispredicts.
    split = make_model()
    split.on_run_start(branch_table)
    bounds = [0] + cuts + [len(outcomes)]
    for start, end in zip(bounds, bounds[1:]):
        split.replay(
            [item for outcome in outcomes[start:end] for item in (outcome, 0)]
        )
    assert (split.executions, split.mispredicts) == (len(events), expected)
    assert split.snapshot() == longhand.snapshot()

    stepped = make_model()
    stepped.reset(branch_table)
    assert [
        stepped.observe(index, taken) for index, taken in events
    ] == predicted
    assert stepped.snapshot() == longhand.snapshot()


@given(split_streams(), st.sampled_from([1, 4, 64]))
@settings(max_examples=60, deadline=None)
def test_tournament_leaves_components_where_standalone_replays_would(
    stream, size
):
    branch_table, events, _ = stream
    outcomes = [index << 1 | taken for index, taken in events]
    tournament = TournamentPredictor(table_size=size)
    bimodal = BimodalPredictor(table_size=size)
    gshare = GSharePredictor(table_size=size)
    for model in (tournament, bimodal, gshare):
        model.reset(branch_table)
        model.simulate(outcomes)
    assert tournament.bimodal.snapshot() == bimodal.snapshot()
    assert tournament.gshare.snapshot() == gshare.snapshot()


def _chunks(outcomes, cuts):
    """The stream cut at ``cuts`` into monitor chunks of (outcome, icount)
    pairs."""
    bounds = [0] + cuts + [len(outcomes)]
    return [
        [item for outcome in outcomes[start:end] for item in (outcome, 0)]
        for start, end in zip(bounds, bounds[1:])
    ]


@given(split_streams())
@settings(max_examples=60, deadline=None)
def test_zoo_passes_score_each_model_as_its_own_replay_would(stream):
    """Attached as the zoo hands them out, 6 passes leave each of the 12
    models with the tallies and state of that model replayed alone and of
    its longhand oracle."""
    branch_table, events, cuts = stream
    outcomes = [index << 1 | taken for index, taken in events]
    sizes = (1, 4, 64)
    models = default_zoo(table_sizes=sizes)
    monitors = monitors_for(models)
    assert len(monitors) == 2 * len(sizes)
    for monitor in monitors:
        monitor.on_run_start(branch_table)
    for chunk in _chunks(outcomes, cuts):
        deliver(monitors, chunk)

    grid = [(family, size) for family in MODEL_FAMILIES for size in sizes]
    assert len(models) == len(grid) == 12
    for model, (family, size) in zip(models, grid):
        alone = standalone_model(f"{family}@{size}")
        alone.on_run_start(branch_table)
        for chunk in _chunks(outcomes, cuts):
            alone.replay(chunk)
        longhand = LONGHAND[family](size)
        longhand.reset(branch_table)
        expected = sum(
            longhand.step(index, taken) != taken for index, taken in events
        )
        assert model.name == alone.name
        assert (model.executions, model.mispredicts) == (
            alone.executions, alone.mispredicts
        ) == (len(events), expected)
        assert model.snapshot() == alone.snapshot() == longhand.snapshot()


def test_a_component_attached_beside_its_tournament_is_refused():
    """Attaching the 12 models themselves would feed bimodal@N and
    gshare@N twice, once by tournament@N's pass and once as their own
    monitors; the run refuses before it starts."""
    from repro.compiler import compile_source

    lowered = compile_source(
        "func main() { var i = 0; while (i < 5) { i += 1; } return i; }"
    ).lowered
    models = default_zoo(table_sizes=(4,))
    with pytest.raises(ValueError, match="bimodal@4 is advanced by tournament@4"):
        run_program(lowered, monitors=models)
    result = run_program(lowered, monitors=monitors_for(models))
    assert [model.score(result).branch_execs for model in models] == [6] * 4


# -- scoring against real runs -------------------------------------------------


class StaticDirections(BranchMonitor):
    """A static predictor scored event by event on the live stream: one
    fixed direction per static branch, resolved at run start."""

    def __init__(self, predictor):
        self.predictor = predictor

    def on_run_start(self, branch_table):
        self.directions = [self.predictor.predict(bid) for bid in branch_table]
        self.branch_execs = self.mispredicted = 0

    def replay(self, chunk):
        for outcome in chunk[0::2]:
            branch_index, taken = outcome >> 1, bool(outcome & 1)
            self.branch_execs += 1
            if self.directions[branch_index] != taken:
                self.mispredicted += 1


class TestStaticFromCounters:
    @pytest.mark.parametrize("predictor_dataset", ["tiny", "small"])
    def test_mispredicts_match_evaluate_static(self, runner, predictor_dataset):
        """Scoring a static predictor event by event on the live stream
        must agree exactly with the counter arithmetic of evaluate_static."""
        profile = BranchProfile.from_run(runner.run("doduc", predictor_dataset))
        predictor = ProfilePredictor(profile, name=predictor_dataset)
        live = StaticDirections(predictor)
        result = run_with_monitors(runner, "doduc", "ref", [live])
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

    def test_self_prediction_is_static_optimum(self, runner):
        target = runner.run("doduc", "tiny")
        self_report = evaluate_static(
            target, ProfilePredictor(BranchProfile.from_run(target))
        )
        cross_report = evaluate_static(
            target,
            ProfilePredictor(BranchProfile.from_run(runner.run("doduc", "ref"))),
        )
        assert self_report.mispredicted <= cross_report.mispredicted


class LonghandCounters(BranchMonitor):
    """The original per-branch scheme written out longhand: one n-bit
    saturating counter per static branch, predicting taken in its top
    half, starting at zero."""

    def __init__(self, num_bits):
        self.max_state = (1 << num_bits) - 1
        self.threshold = 1 << (num_bits - 1)

    def on_run_start(self, branch_table):
        self.states = [0] * len(branch_table)
        self.hits = self.misses = 0

    def replay(self, chunk):
        for outcome in chunk[0::2]:
            branch_index, taken = outcome >> 1, bool(outcome & 1)
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
    def test_same_numbers_as_online_predictor_monitor(self, runner):
        """BimodalPredictor(table_size=None) must reproduce the per-branch
        counters exactly (the informal experiment depends on it)."""
        longhand_one, longhand_two = LonghandCounters(1), LonghandCounters(2)
        models = [
            BimodalPredictor(table_size=None, num_bits=1),
            BimodalPredictor(table_size=None, num_bits=2),
        ]
        result = run_with_monitors(
            runner, "doduc", "small", [longhand_one, longhand_two, *models]
        )
        one, two = (model.score(result) for model in models)
        assert one.mispredicted == longhand_one.misses
        assert two.mispredicted == longhand_two.misses
        for score, longhand in ((one, longhand_one), (two, longhand_two)):
            total = longhand.hits + longhand.misses
            assert score.percent_correct == longhand.hits / total

    def test_infinite_bimodal_exposes_states(self):
        model = BimodalPredictor(table_size=None, num_bits=2)
        model.on_run_start([BranchId("main", index) for index in range(3)])
        model.replay([1 << 1 | 1, 10])  # branch 1 taken at icount 10
        assert model.snapshot() == ((0, 1, 0),)
        assert (model.executions, model.mispredicts) == (1, 1)


class TestVacuousAccuracy:
    def test_monitor_and_report_agree_on_zero_branches(self):
        from repro.compiler import compile_source

        lowered = compile_source("func main() { return 0; }").lowered
        model = BimodalPredictor(table_size=None)
        result = run_program(lowered, monitors=[model])
        report = PredictionReport(
            program="p", predictor="q", instructions=10,
            branch_execs=0, mispredicted=0, unavoidable_breaks=0,
        )
        assert model.score(result).percent_correct == 1.0
        assert report.percent_correct == 1.0

    def test_dynamic_score_agrees(self):
        """Each model's report carries its table and budget."""
        from repro.compiler import compile_source

        lowered = compile_source("func main() { return 0; }").lowered
        models = [BimodalPredictor(table_size=64), BimodalPredictor(table_size=None)]
        result = run_program(lowered, monitors=models)
        finite, infinite = (model.score(result) for model in models)
        assert (finite.table_size, finite.budget_bits) == (64, 128)
        assert (infinite.table_size, infinite.budget_bits) == (None, None)
        assert finite.percent_correct == infinite.percent_correct == 1.0


class TestScoreMonitor:
    def test_counts_every_branch_event(self, runner):
        model = BimodalPredictor()
        result = run_with_monitors(runner, "doduc", "tiny", [model])
        score = model.score(result)
        assert score.branch_execs == result.total_branch_execs
        assert score.unavoidable_breaks == (
            result.events.indirect_calls + result.events.indirect_returns
        )

    def test_rebinds_to_each_run_it_observes(self, runner):
        """One model attached to two runs scores each from scratch, bound
        to that run's branch table."""
        model = standalone_model("gshare@64")
        first = run_with_monitors(runner, "doduc", "tiny", [model])
        first_score = model.score(first)
        run_with_monitors(runner, "compress", "cmprss", [model])
        again = run_with_monitors(runner, "doduc", "tiny", [model])
        assert model.score(again) == first_score


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

    def test_chunk_size_does_not_change_the_table(self, result, monkeypatch):
        # A fresh runner: the session runner has the monitored runs memoized.
        monkeypatch.setattr(vm_monitors, "CHUNK_EVENTS", 7)
        chunked = dynamic_compare.run(
            WorkloadRunner(), programs=["doduc"], table_sizes=(16, 64, 256)
        )
        assert chunked.format_text() == result.format_text()

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

"""Branch profile and database tests."""
import pytest

from repro.ir.instructions import BranchId
from repro.prediction.combine import database_predict
from repro.profiling import BranchProfile, IfProbber, ProfileDatabase

from tests.helpers import compile_and_run

BIASED_LOOP = """
func main() {
    var i; var n = 0;
    for (i = 0; i < 20; i += 1) {
        if (i % 4 == 0) { n += 1; }
    }
    return n;
}
"""


def test_profile_from_run_counts():
    run = compile_and_run(BIASED_LOOP)
    profile = BranchProfile.from_run(run)
    assert profile.runs == 1
    loop_branch = BranchId("main", 0)
    inner_branch = BranchId("main", 1)
    assert profile.counts[loop_branch] == (21.0, 20.0)
    assert profile.counts[inner_branch] == (20.0, 5.0)


def test_profile_directions():
    run = compile_and_run(BIASED_LOOP)
    profile = BranchProfile.from_run(run)
    assert profile.direction(BranchId("main", 0)) is True
    assert profile.direction(BranchId("main", 1)) is False
    assert profile.direction(BranchId("main", 99)) is None


def test_direction_tie_predicts_not_taken():
    profile = BranchProfile(program="p")
    profile.counts[BranchId("f", 0)] = (10.0, 5.0)
    assert profile.direction(BranchId("f", 0)) is False


def test_database_record_accumulates_runs():
    run = compile_and_run(BIASED_LOOP)
    database = ProfileDatabase()
    database.record(run, "d1")
    database.record(run, "d1")
    profile = database.dataset_profile(run.program, "d1")
    assert profile.runs == 2
    assert profile.counts[BranchId("main", 0)] == (42.0, 40.0)


def test_database_record_profile_into_other_program_raises():
    run = compile_and_run(BIASED_LOOP, name="a")
    other = compile_and_run(BIASED_LOOP, name="b")
    database = ProfileDatabase()
    database.record(run, "d1")
    with pytest.raises(ValueError):
        database.record_profile("a", "d1", BranchProfile.from_run(other))
    assert database.dataset_profile("a", "d1").runs == 1


def test_weighted_add_profile():
    run = compile_and_run(BIASED_LOOP)
    base = BranchProfile.from_run(run)
    combined = BranchProfile(program=run.program)
    combined.add_profile(base, weight=0.5)
    assert combined.counts[BranchId("main", 0)] == (10.5, 10.0)


def test_percent_taken():
    run = compile_and_run(BIASED_LOOP)
    profile = BranchProfile.from_run(run)
    assert profile.percent_taken() == pytest.approx(25 / 41)


def test_profile_round_trips_through_dict():
    run = compile_and_run(BIASED_LOOP)
    profile = BranchProfile.from_run(run)
    restored = BranchProfile.from_dict(profile.to_dict())
    assert restored.counts == profile.counts
    assert restored.program == profile.program
    assert restored.runs == profile.runs


def test_database_record_and_query():
    database = ProfileDatabase()
    run = compile_and_run(BIASED_LOOP, name="prog")
    database.record(run, "d1")
    database.record(run, "d1")
    database.record(run, "d2")
    assert database.programs() == ["prog"]
    assert database.datasets("prog") == ["d1", "d2"]
    assert database.dataset_profile("prog", "d1").runs == 2
    merged = database.program_profile("prog")
    assert merged.counts[BranchId("main", 0)] == (63.0, 60.0)


def test_database_leave_one_out():
    database = ProfileDatabase()
    run = compile_and_run(BIASED_LOOP, name="prog")
    database.record(run, "d1")
    database.record(run, "d2")
    loo, datasets = database_predict(database, "prog", "unscaled", exclude="d2")
    assert datasets == ["d1"]
    assert loo.counts[BranchId("main", 0)] == (21.0, 20.0)


def test_database_missing_profile_raises():
    with pytest.raises(KeyError):
        ProfileDatabase().dataset_profile("nope", "d")


def test_database_persistence(tmp_path):
    database = ProfileDatabase()
    run = compile_and_run(BIASED_LOOP, name="prog")
    database.record(run, "d1")
    path = str(tmp_path / "profiles.json")
    database.save(path)
    loaded = ProfileDatabase.load(path)
    assert loaded.dataset_profile("prog", "d1").counts == (
        database.dataset_profile("prog", "d1").counts
    )


def test_database_record_profile_matches_record(tmp_path):
    run = compile_and_run(BIASED_LOOP, name="prog")
    via_run = ProfileDatabase()
    via_run.record(run, "d1")
    via_run.record(run, "d1")
    via_profile = ProfileDatabase()
    via_profile.record_profile("prog", "d1", BranchProfile.from_run(run))
    via_profile.record_profile("prog", "d1", BranchProfile.from_run(run))
    assert via_profile.to_dict() == via_run.to_dict()


def test_database_record_profile_program_mismatch():
    run = compile_and_run(BIASED_LOOP, name="prog")
    with pytest.raises(ValueError):
        ProfileDatabase().record_profile(
            "other", "d1", BranchProfile.from_run(run)
        )


def test_database_save_survives_concurrent_writers(tmp_path):
    """Regression: ``save`` used a shared ``<path>.tmp``, so concurrent
    writers interleaved JSON and raced the rename — FileNotFoundError or
    a corrupt database.  Per-writer mkstemp temp files make every
    observable state a complete database from exactly one writer."""
    import json
    import threading

    run = compile_and_run(BIASED_LOOP, name="prog")
    databases = []
    for index in range(4):
        database = ProfileDatabase()
        for repeat in range(index + 1):
            database.record(run, f"d{index}")
        databases.append(database)
    valid_dumps = {
        json.dumps(database.to_dict(), sort_keys=True)
        for database in databases
    }

    path = str(tmp_path / "hammered.json")
    errors = []

    def hammer(database):
        try:
            for _ in range(25):
                database.save(path)
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(database,))
        for database in databases
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors, f"concurrent saves raised: {errors!r}"
    with open(path) as handle:
        final = json.dumps(json.load(handle), sort_keys=True)
    assert final in valid_dumps
    leftovers = [name for name in tmp_path.iterdir() if ".tmp" in name.name]
    assert not leftovers, f"temp files leaked: {leftovers}"


def test_ifprobber_full_feedback_loop():
    probber = IfProbber(BIASED_LOOP, name="prog")
    probber.run_dataset("d1", b"")
    feedback_source = probber.feedback_source()
    assert "IFPROB(main, 0, 21, 20)" in feedback_source

    # Recompiling the feedback source recovers the same profile.
    from repro.compiler import compile_source
    from repro.profiling import profile_from_feedback

    recompiled = compile_source(feedback_source, name="prog")
    recovered = profile_from_feedback(recompiled)
    assert recovered.counts[BranchId("main", 0)] == (21.0, 20.0)
    assert recovered.counts[BranchId("main", 1)] == (20.0, 5.0)


def test_ifprobber_feedback_is_idempotent():
    probber = IfProbber(BIASED_LOOP, name="prog")
    probber.run_dataset("d1", b"")
    once = probber.feedback_source()
    probber_again = IfProbber(once, name="prog")
    probber_again.run_dataset("d1", b"")
    twice = probber_again.feedback_source()
    assert once.count("IFPROB") == twice.count("IFPROB")

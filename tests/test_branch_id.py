"""The ``BranchId`` contract: a ``(function, index)`` tuple with a name.

Every profile, static predictor, profile database and serve message is a
dict keyed by ``BranchId``, so its hashing, equality and ordering must be
the tuple's own, run in C, and its text forms must not move.
"""
import json
import pickle

import pytest

from repro.core.cache import run_result_from_dict, run_result_to_dict
from repro.ir.instructions import BranchId
from repro.profiling.branch_profile import BranchProfile
from repro.workloads.registry import workload_names

from tests.helpers import compile_and_run

NESTED = """
func helper(x) {
    if (x > 2) { return 1; }
    return 0;
}
func main() {
    var i; var n = 0;
    for (i = 0; i < 5; i += 1) {
        if (i % 2 == 0 && helper(i)) { n += 1; }
    }
    return n;
}
"""


def test_branch_id_hashes_and_compares_like_its_tuple():
    branch_id = BranchId("f", 1)
    assert branch_id == BranchId("f", 1)
    assert branch_id == ("f", 1)
    assert hash(branch_id) == hash(BranchId("f", 1)) == hash(("f", 1))
    assert branch_id != BranchId("f", 2)
    assert branch_id != BranchId("g", 1)
    assert BranchId("f", 2) < BranchId("g", 0) < BranchId("g", 10)
    assert {branch_id: "x"}[("f", 1)] == "x"


def test_branch_id_keys_hash_and_sort_in_c():
    """The dataclass this replaced generated Python-level ``__hash__`` and
    ``__lt__``, which made every profile dict lookup several times
    slower; this fails if the key goes back to such methods."""
    assert BranchId.__hash__ is tuple.__hash__
    assert BranchId.__eq__ is tuple.__eq__
    assert BranchId.__lt__ is tuple.__lt__


@pytest.mark.parametrize("workload", workload_names())
def test_sorting_a_branch_table_sorts_its_tuples(runner, workload):
    table = runner.compiled(workload).lowered.branch_table
    assert len(table) > 1
    assert [tuple(branch_id) for branch_id in sorted(table)] == sorted(
        (branch_id.function, branch_id.index) for branch_id in table
    )


def test_branch_id_text_forms():
    branch_id = BranchId("f", 1)
    assert str(branch_id) == "f#1"
    assert f"{branch_id}" == "f#1"
    assert repr(branch_id) == "BranchId(function='f', index=1)"


def test_branch_id_is_immutable():
    branch_id = BranchId("f", 1)
    with pytest.raises(AttributeError):
        branch_id.index = 2
    with pytest.raises(AttributeError):
        branch_id.function = "g"
    assert branch_id == BranchId("f", 1)


def test_branch_id_survives_pickle_and_the_cache_round_trip():
    branch_id = BranchId("main", 3)
    restored = pickle.loads(pickle.dumps(branch_id))
    assert restored == branch_id
    assert type(restored) is BranchId

    run = compile_and_run(NESTED)
    assert len(run.branch_table) >= 3
    stored = json.loads(json.dumps(run_result_to_dict(run)))
    loaded = run_result_from_dict(stored)
    assert loaded.branch_table == run.branch_table
    assert all(type(branch_id) is BranchId for branch_id in loaded.branch_table)
    assert loaded.branch_counts() == run.branch_counts()


def test_profile_keys_read_back_as_branch_ids():
    """``BranchProfile.from_dict`` builds its keys without the
    constructor; they are still ``BranchId``\\ s that hash, compare and
    print as the constructor's do."""
    profile = BranchProfile.from_run(compile_and_run(NESTED))
    assert len(profile.counts) >= 3
    loaded = BranchProfile.from_dict(json.loads(json.dumps(profile.to_dict())))
    assert loaded == profile
    for key in loaded.counts:
        built = BranchId(key.function, key.index)
        assert type(key) is BranchId
        assert key == built and hash(key) == hash(built)
        assert str(key) == str(built) and repr(key) == repr(built)
        assert (key.function, key.index) == (built.function, built.index)
        assert type(key.index) is int

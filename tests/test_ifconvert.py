"""If-conversion tests."""
from repro.compiler import RunConfig, compile_source
from repro.ir import validate_module

from tests.helpers import compile_and_run

DIAMOND = """
func main() {
    var i; var x = 0; var y = 0; var s = 0;
    for (i = 0; i < 40; i += 1) {
        if (i & 1) {
            x = i * 3;
            y = y + x;
        } else {
            x = i + 7;
            y = y - 1;
        }
        s = s + x + y;
    }
    return s % 256;
}
"""


def test_conversion_preserves_semantics():
    base = compile_and_run(DIAMOND)
    converted = compile_and_run(DIAMOND, config=RunConfig(if_conversion=True))
    assert base.exit_code == converted.exit_code


def test_conversion_removes_the_branch():
    base = compile_and_run(DIAMOND)
    converted = compile_and_run(DIAMOND, config=RunConfig(if_conversion=True))
    assert len(converted.branch_counts()) < len(base.branch_counts())
    assert converted.events.selects > 0


def test_converted_module_is_valid():
    program = compile_source(DIAMOND, config=RunConfig(if_conversion=True))
    validate_module(program.module)


def test_memory_touching_arms_are_not_converted():
    source = """
    arr data[8];
    func main() {
        var i; var s = 0;
        for (i = 0; i < 16; i += 1) {
            if (i & 1) { data[i % 8] = i; } else { s += data[i % 8]; }
        }
        return s % 256;
    }
    """
    base = compile_and_run(source)
    converted = compile_and_run(source, config=RunConfig(if_conversion=True))
    assert base.exit_code == converted.exit_code
    # Stores/loads in the arms keep the branch.
    assert len(converted.branch_counts()) == len(base.branch_counts())


def test_division_arms_are_not_converted():
    source = """
    func main() {
        var i; var s = 0; var q = 0;
        for (i = 0; i < 10; i += 1) {
            var d = i - 5;
            if (d != 0) { q = 100 / d; } else { q = 0; }
            s += q;
        }
        return (s + 128) % 256;
    }
    """
    base = compile_and_run(source)
    converted = compile_and_run(source, config=RunConfig(if_conversion=True))
    # Converting would divide by zero at i == 5.
    assert base.exit_code == converted.exit_code


def test_one_sided_hammock_conversion():
    source = """
    func main() {
        var i; var best = 0; var second = 0;
        for (i = 0; i < 20; i += 1) {
            var score = (i * 37) % 23;
            if (score > best) {
                second = best;
                best = score;
            }
        }
        return best * 100 + second;
    }
    """
    base = compile_and_run(source)
    converted = compile_and_run(source, config=RunConfig(if_conversion=True))
    assert base.exit_code == converted.exit_code
    assert len(converted.branch_counts()) <= len(base.branch_counts())


def test_conversion_keeps_branch_when_arm_has_call():
    source = """
    var calls;
    func note(v) { calls += 1; return v; }
    func main() {
        var i; var x = 0;
        for (i = 0; i < 10; i += 1) {
            if (i & 1) { x = note(i); } else { x = 0; }
        }
        return calls;
    }
    """
    base = compile_and_run(source)
    converted = compile_and_run(source, config=RunConfig(if_conversion=True))
    # Calls must not be speculated: exactly 5 in both configurations.
    assert base.exit_code == converted.exit_code == 5

"""End-to-end language semantics: compile and execute MF programs.

These are the ground-truth tests for the whole toolchain: front end,
optimizer (default configuration) and virtual machine together.
"""
import pytest

from repro.compiler import RunConfig
from repro.ir.opcodes import FOLD_SHIFT_BITS, BinOp, fold_binop
from repro.vm.errors import VMError

from tests.helpers import (
    EXPERIMENT_CONFIGS,
    SELECT_OFF,
    UNOPTIMIZED,
    compile_and_run,
    run_main,
)

ALL_CONFIGS = [RunConfig(), RunConfig(dce=True), UNOPTIMIZED]


@pytest.fixture(params=ALL_CONFIGS, ids=["default", "dce", "unopt"])
def config(request):
    """Semantics must not depend on the optimization configuration."""
    return request.param


def test_return_constant(config):
    assert run_main("func main() { return 42; }", config=config) == 42


def test_arithmetic(config):
    assert run_main(
        "func main() { return (2 + 3) * 4 - 10 / 2; }", config=config
    ) == 15


def test_c_style_division_truncates_toward_zero(config):
    assert run_main("func main() { return -7 / 2; }", config=config) == -3
    assert run_main("func main() { return 7 / -2; }", config=config) == -3
    assert run_main("func main() { return -7 % 2; }", config=config) == -1
    assert run_main("func main() { return 7 % -2; }", config=config) == 1


def test_bitwise_and_shifts(config):
    assert run_main(
        "func main() { return (12 & 10) | (1 << 4) ^ 3; }", config=config
    ) == ((12 & 10) | (1 << 4) ^ 3)
    assert run_main("func main() { return -16 >> 2; }", config=config) == -4
    assert run_main("func main() { return ~5; }", config=config) == -6


def test_comparisons_produce_zero_or_one(config):
    assert run_main("func main() { return (3 < 5) + (5 <= 5) + (6 > 9); }",
                    config=config) == 2


def test_logical_not(config):
    assert run_main("func main() { return !0 + !7; }", config=config) == 1


def test_unary_minus(config):
    assert run_main("func main() { var x = 5; return -x; }", config=config) == -5


def test_globals_and_arrays(config):
    source = """
    var g = 7;
    arr a[8] = {10, 20, 30};
    func main() {
        g = g + a[1];
        a[3] = g;
        return a[3] + a[0] + a[7];
    }
    """
    assert run_main(source, config=config) == 37


def test_while_loop(config):
    source = """
    func main() {
        var i = 0; var sum = 0;
        while (i < 10) { sum += i; i += 1; }
        return sum;
    }
    """
    assert run_main(source, config=config) == 45


def test_do_while_executes_at_least_once(config):
    source = """
    func main() {
        var n = 0;
        do { n += 1; } while (0);
        return n;
    }
    """
    assert run_main(source, config=config) == 1


def test_for_loop_with_break_and_continue(config):
    source = """
    func main() {
        var i; var sum = 0;
        for (i = 0; i < 100; i += 1) {
            if (i == 10) { break; }
            if (i % 2 == 1) { continue; }
            sum += i;
        }
        return sum;
    }
    """
    assert run_main(source, config=config) == 0 + 2 + 4 + 6 + 8


def test_nested_loops_break_binds_innermost(config):
    source = """
    func main() {
        var i; var j; var count = 0;
        for (i = 0; i < 3; i += 1) {
            for (j = 0; j < 10; j += 1) {
                if (j == 2) { break; }
                count += 1;
            }
        }
        return count;
    }
    """
    assert run_main(source, config=config) == 6


def test_short_circuit_and_skips_rhs(config):
    source = """
    var effects;
    func bump() { effects += 1; return 1; }
    func main() {
        if (0 && bump()) { return 99; }
        if (1 && bump()) { }
        return effects;
    }
    """
    assert run_main(source, config=config) == 1


def test_short_circuit_or_skips_rhs(config):
    source = """
    var effects;
    func bump() { effects += 1; return 0; }
    func main() {
        if (1 || bump()) { }
        if (0 || bump()) { return 99; }
        return effects;
    }
    """
    assert run_main(source, config=config) == 1


def test_logical_as_value(config):
    source = """
    func main() {
        var a = 3 && 0;
        var b = 3 && 2;
        var c = 0 || 0;
        var d = 0 || 9;
        return a * 1000 + b * 100 + c * 10 + d;
    }
    """
    assert run_main(source, config=config) == 101


def test_switch_dispatch_and_default(config):
    source = """
    func pick(x) {
        switch (x) {
        case 1: return 10;
        case 2, 3: return 20;
        default: return -1;
        }
    }
    func main() {
        return pick(1) * 1000 + pick(3) * 10 + (pick(9) == -1);
    }
    """
    assert run_main(source, config=config) == 10201


def test_switch_fallthrough(config):
    source = """
    func main() {
        var n = 0;
        switch (2) {
        case 1: n += 1;
        case 2: n += 10;
        case 3: n += 100;
        break;
        case 4: n += 1000;
        }
        return n;
    }
    """
    assert run_main(source, config=config) == 110


def test_switch_default_position_is_matched_last(config):
    source = """
    func main() {
        var n = 0;
        switch (5) {
        case 1: n = 1; break;
        default: n = 7; break;
        case 5: n = 5; break;
        }
        return n;
    }
    """
    assert run_main(source, config=config) == 5


def test_recursion(config):
    source = """
    func fib(n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    func main() { return fib(12); }
    """
    assert run_main(source, config=config) == 144


def test_mutual_recursion(config):
    source = """
    func is_even(n) { if (n == 0) { return 1; } return is_odd(n - 1); }
    func is_odd(n) { if (n == 0) { return 0; } return is_even(n - 1); }
    func main() { return is_even(10) * 10 + is_odd(7); }
    """
    assert run_main(source, config=config) == 11


def test_indirect_call_through_variable(config):
    source = """
    func double(x) { return 2 * x; }
    func triple(x) { return 3 * x; }
    func main() {
        var f = &double;
        var a = f(10);
        f = &triple;
        return a + f(10);
    }
    """
    assert run_main(source, config=config) == 50


def test_indirect_call_through_table(config):
    source = """
    arr ops[2];
    func inc(x) { return x + 1; }
    func dec(x) { return x - 1; }
    func main() {
        ops[0] = &inc;
        ops[1] = &dec;
        return ops[0](10) * 100 + ops[1](10);
    }
    """
    assert run_main(source, config=config) == 1109


def test_indirect_calls_counted_as_events(config):
    source = """
    func f() { return 1; }
    func main() { var g = &f; return g() + g(); }
    """
    result = compile_and_run(source, config=config)
    assert result.events.indirect_calls == 2
    assert result.events.indirect_returns == 2
    assert result.events.direct_calls == 0


def test_getc_putc_roundtrip(config):
    source = """
    func main() {
        var c = getc();
        while (c != -1) {
            putc(c);
            c = getc();
        }
        return 0;
    }
    """
    result = compile_and_run(source, input_data=b"hello", config=config)
    assert result.output == b"hello"


def test_getc_returns_minus_one_at_eof(config):
    assert run_main("func main() { return getc(); }", config=config) == -1


def test_halt_stops_program(config):
    source = """
    func main() {
        putc('a');
        halt;
    }
    """
    result = compile_and_run(source, config=config)
    assert result.output == b"a"
    assert result.exit_code == 0


def test_compound_assignment_on_array_element(config):
    source = """
    arr a[4] = {5};
    func main() { a[0] *= 3; a[0] += 1; return a[0]; }
    """
    assert run_main(source, config=config) == 16


def test_function_falls_off_end_returns_zero(config):
    source = "func f() { } func main() { return f() + 5; }"
    assert run_main(source, config=config) == 5


def test_statements_after_return_are_dead(config):
    source = """
    func main() {
        return 1;
        return 2;
    }
    """
    assert run_main(source, config=config) == 1


def test_division_by_zero_raises_vmerror(config):
    with pytest.raises(VMError, match="division by zero"):
        run_main("func main() { var z = 0; return 5 / z; }", config=config)


@pytest.mark.parametrize(
    "config", EXPERIMENT_CONFIGS, ids=[config.tag() for config in EXPERIMENT_CONFIGS]
)
def test_dead_negative_shift_compiles(config):
    # Constant folding once raised Python's ValueError on the dead shift.
    source = """
    var DEBUG = 0;
    func main() { var x = 7; if (DEBUG) { x = 1 << -1; } return x; }
    """
    assert run_main(source, config=config) == 7


def test_wide_constant_shift_is_not_folded():
    # The folder once built the whole int: 128 KB for this one.
    assert fold_binop(BinOp.SHL, 1, 1 << 20) is None
    assert fold_binop(BinOp.SHL, 3, FOLD_SHIFT_BITS - 2) == 3 << FOLD_SHIFT_BITS - 2
    assert fold_binop(BinOp.SHL, 3, FOLD_SHIFT_BITS - 1) is None


def test_wide_shift_stays_a_run_time_op(config):
    source = """
    var DEBUG = 0;
    func main() { var x = (1 << 200) >> 197; if (DEBUG) { x = 1 << 1048576; }
        return x; }
    """
    assert run_main(source, config=config) == 8


@pytest.mark.parametrize(
    "body",
    [
        "return 1 << -1;",
        "var s = -1; return 1 << s;",
        "var s = -2; return 64 >> s;",
    ],
)
def test_negative_shift_count_raises_vmerror(config, body):
    with pytest.raises(VMError, match="negative shift count"):
        run_main(f"func main() {{ {body} }}", config=config)


def test_out_of_bounds_store_raises_vmerror(config):
    with pytest.raises(VMError, match="bad address"):
        run_main("arr a[2]; func main() { a[5] = 1; return 0; }", config=config)


def test_negative_index_raises_vmerror(config):
    with pytest.raises(VMError, match="bad address"):
        run_main(
            "arr a[2]; func main() { var i = -1; return a[i]; }", config=config
        )


def test_bad_indirect_target_raises_vmerror(config):
    with pytest.raises(VMError, match="indirect call"):
        run_main("func main() { var f = 999; return f(); }", config=config)


def test_select_conversion_is_semantics_preserving():
    source = """
    func main() {
        var best = 0;
        var i;
        for (i = 0; i < 10; i += 1) {
            if ((i ^ 5) > best) { best = i ^ 5; }
        }
        return best;
    }
    """
    with_select = compile_and_run(source)
    without = compile_and_run(source, config=SELECT_OFF)
    assert with_select.exit_code == without.exit_code == 13
    assert with_select.events.selects > 0
    assert without.events.selects == 0
    # Select conversion suppresses the inner if's branch.
    assert with_select.total_branch_execs < without.total_branch_execs


def test_select_not_applied_to_division():
    # if (b != 0) x = a / b; else x = 0; must NOT evaluate a/b when b == 0.
    source = """
    func main() {
        var a = 10; var b = 0; var x;
        if (b != 0) { x = a / b; } else { x = -1; }
        return x;
    }
    """
    assert run_main(source) == -1


def test_exit_code_is_mains_return_value(config):
    assert run_main("func main() { return 123; }", config=config) == 123

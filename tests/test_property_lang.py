"""Property-based tests: MF expression semantics against a Python oracle."""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import RunConfig, compile_source
from repro.vm.machine import run_program

from tests.helpers import SELECT_OFF, UNOPTIMIZED, compile_with

# -- random expression trees over integer literals ---------------------------

_SAFE_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
}


def _c_div(a, b):
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


@st.composite
def expressions(draw, depth=0):
    """(source_text, value) pairs for random MF expressions."""
    if depth >= 4 or draw(st.booleans()):
        value = draw(st.integers(min_value=-1000, max_value=1000))
        if value < 0:
            return f"(0 - {-value})", value
        return str(value), value
    kind = draw(st.sampled_from(["bin", "div", "mod", "neg", "not", "cmp"]))
    left_text, left = draw(expressions(depth=depth + 1))
    if kind == "neg":
        return f"(-{left_text})", -left
    if kind == "not":
        return f"(!{left_text})", 0 if left else 1
    right_text, right = draw(expressions(depth=depth + 1))
    if kind == "div":
        if right == 0:
            return left_text, left
        return f"({left_text} / {right_text})", _c_div(left, right)
    if kind == "mod":
        if right == 0:
            return left_text, left
        return (
            f"({left_text} % {right_text})",
            left - _c_div(left, right) * right,
        )
    if kind == "cmp":
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        import operator

        fn = {
            "<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
        }[op]
        return f"({left_text} {op} {right_text})", int(fn(left, right))
    op = draw(st.sampled_from(sorted(_SAFE_BINOPS)))
    return f"({left_text} {op} {right_text})", _SAFE_BINOPS[op](left, right)


@given(expressions())
@settings(max_examples=120, deadline=None)
def test_expression_evaluation_matches_oracle(expr):
    text, expected = expr
    # Exit codes are arbitrary ints in the VM, so compare via output bytes.
    source = f"""
    func main() {{
        var v = {text};
        putc(v & 255);
        putc((v >> 8) & 255);
        putc((v >> 16) & 255);
        return 0;
    }}
    """
    result = run_program(compile_source(source).lowered)
    assert result.output == bytes(
        [(expected >> shift) & 255 for shift in (0, 8, 16)]
    )


@given(expressions())
@settings(max_examples=60, deadline=None)
def test_optimization_configs_agree_on_expressions(expr):
    text, _ = expr
    source = f"""
    func main() {{
        var v = {text};
        putc(v & 255);
        return 0;
    }}
    """
    outputs = {
        run_program(compile_with(source, config).lowered).output
        for config in (RunConfig(), RunConfig(dce=True), UNOPTIMIZED, SELECT_OFF)
    }
    assert len(outputs) == 1


# -- random loop programs: configs must agree on everything -------------------


@st.composite
def loop_programs(draw):
    """Small deterministic programs with data-dependent branches."""
    bound = draw(st.integers(min_value=1, max_value=30))
    step = draw(st.integers(min_value=1, max_value=4))
    modulus = draw(st.integers(min_value=1, max_value=7))
    threshold = draw(st.integers(min_value=0, max_value=40))
    adjust = draw(st.integers(min_value=-5, max_value=5))
    return f"""
    var total;
    func main() {{
        var i;
        for (i = 0; i < {bound}; i += {step}) {{
            if (i % {modulus} == 0 && i < {threshold}) {{
                total += i + {adjust};
            }} else {{
                total -= 1;
            }}
        }}
        putc(total & 255);
        return 0;
    }}
    """


@given(loop_programs())
@settings(max_examples=60, deadline=None)
def test_optimization_configs_agree_on_loops(source):
    results = [
        run_program(compile_with(source, config).lowered)
        for config in (RunConfig(), RunConfig(dce=True), UNOPTIMIZED)
    ]
    assert len({result.output for result in results}) == 1
    # Branch counters keyed by BranchId must agree wherever both configs
    # kept the branch (DCE may remove constant branches entirely).
    base = results[0].branch_counts()
    unopt = results[2].branch_counts()
    assert base == unopt


@given(st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
       st.integers(min_value=-(2 ** 20), max_value=2 ** 20).filter(bool))
@settings(max_examples=80, deadline=None)
def test_division_semantics_match_c(a, b):
    source = f"""
    func main() {{
        var q = ({a}) / ({b});
        var r = ({a}) % ({b});
        var ok1 = q * ({b}) + r == ({a});
        var ok2 = 1;
        if (r != 0) {{
            if (({a}) < 0) {{ ok2 = r < 0; }} else {{ ok2 = r > 0; }}
        }}
        return ok1 * 2 + ok2;
    }}
    """
    result = run_program(compile_source(source).lowered)
    assert result.exit_code == 3  # both invariants hold

"""IR lint suite tests: each rule on crafted IR, plus the pipeline sanitizer.

The first half pins every rule's trigger on hand-built CFGs; the second
half is the integration contract: all real workloads are lint-error-free,
``optimize_module(..., sanitize=True)`` stays quiet on clean input, and an
intentionally broken pass is caught *by name*.
"""
import pytest

from repro.analysis.lint import (
    ERROR,
    INFO,
    WARNING,
    format_findings,
    lint_errors,
    lint_function,
    severity_counts,
)
from repro.ir.cfg import BasicBlock, Function
from repro.ir.instructions import BranchId, Instr
from repro.ir.opcodes import Opcode
from repro.opt import pipeline
from repro.opt.pipeline import PipelineSanityError, optimize_module
from repro.workloads.registry import all_workloads

from tests.helpers import compile_reference


def rules_of(findings):
    return {finding.rule for finding in findings}


def _br(cond, then_label, else_label, index=0):
    return Instr(
        Opcode.BR,
        a=cond,
        then_label=then_label,
        else_label=else_label,
        branch_id=BranchId("main", index),
    )


# -- one test per rule ----------------------------------------------------------


def test_use_before_def_fires_on_one_armed_init():
    func = Function(name="main", num_params=1, num_regs=2)
    func.blocks = [
        BasicBlock("entry", [_br(0, "t", "join")]),
        BasicBlock("t", [Instr(Opcode.CONST, dst=1, imm=1),
                         Instr(Opcode.JMP, then_label="join")]),
        BasicBlock("join", [Instr(Opcode.RET, a=1)]),
    ]
    findings = lint_function(func, min_severity=ERROR)
    assert rules_of(findings) == {"use-before-def"}
    assert all(finding.severity == ERROR for finding in findings)


def test_register_width_fires_on_out_of_range_register():
    func = Function(name="main", num_params=0, num_regs=1)
    func.blocks = [
        BasicBlock("entry", [Instr(Opcode.CONST, dst=5, imm=0),
                             Instr(Opcode.RET, a=5)]),
    ]
    findings = lint_function(func, min_severity=ERROR)
    assert "register-width" in rules_of(findings)
    assert any("r5" in finding.message for finding in findings)


def test_dead_store_fires_on_unused_definition():
    func = Function(name="main", num_params=0, num_regs=2)
    func.blocks = [
        BasicBlock("entry", [Instr(Opcode.CONST, dst=0, imm=7),
                             Instr(Opcode.CONST, dst=1, imm=0),
                             Instr(Opcode.RET, a=1)]),
    ]
    findings = lint_function(func, min_severity=WARNING)
    dead = [f for f in findings if f.rule == "dead-store"]
    assert len(dead) == 1
    assert "r0" in dead[0].message


def test_degenerate_branch_fires_on_identical_targets():
    func = Function(name="main", num_params=1, num_regs=1)
    func.blocks = [
        BasicBlock("entry", [_br(0, "join", "join")]),
        BasicBlock("join", [Instr(Opcode.RET, a=0)]),
    ]
    findings = lint_function(func, min_severity=WARNING)
    assert "degenerate-branch" in rules_of(findings)


def test_unreachable_block_fires_on_orphan():
    func = Function(name="main", num_params=0, num_regs=1)
    func.blocks = [
        BasicBlock("entry", [Instr(Opcode.CONST, dst=0, imm=0),
                             Instr(Opcode.RET, a=0)]),
        BasicBlock("orphan", [Instr(Opcode.RET, a=0)]),
    ]
    findings = lint_function(func, min_severity=INFO)
    orphaned = [f for f in findings if f.rule == "unreachable-block"]
    assert [f.label for f in orphaned] == ["orphan"]


def test_critical_edge_fires_on_branch_into_join():
    # entry has two successors; join has two predecessors; the direct
    # entry -> join edge is critical.
    func = Function(name="main", num_params=1, num_regs=1)
    func.blocks = [
        BasicBlock("entry", [_br(0, "t", "join")]),
        BasicBlock("t", [Instr(Opcode.JMP, then_label="join")]),
        BasicBlock("join", [Instr(Opcode.RET, a=0)]),
    ]
    findings = lint_function(func, min_severity=INFO)
    critical = [f for f in findings if f.rule == "critical-edge"]
    assert len(critical) == 1
    assert critical[0].label == "entry"


def test_severity_filter_and_formatting():
    func = Function(name="main", num_params=1, num_regs=1)
    func.blocks = [
        BasicBlock("entry", [_br(0, "join", "join")]),
        BasicBlock("join", [Instr(Opcode.RET, a=0)]),
        BasicBlock("orphan", [Instr(Opcode.RET, a=0)]),
    ]
    infos = lint_function(func, min_severity=INFO)
    warnings = lint_function(func, min_severity=WARNING)
    assert rules_of(infos) == {"degenerate-branch", "unreachable-block"}
    assert rules_of(warnings) == {"degenerate-branch"}
    counts = severity_counts(infos)
    assert counts[WARNING] == 1 and counts[INFO] == 1
    text = format_findings(infos)
    assert "degenerate-branch" in text and "unreachable-block" in text
    assert str(infos[0]).startswith("warning: [degenerate-branch]")


# -- real workloads are clean ---------------------------------------------------


def test_all_workloads_are_lint_error_free(runner):
    for workload in all_workloads():
        compiled = runner.compiled(workload.name)
        errors = lint_errors(compiled.module)
        assert errors == [], (
            f"{workload.name}: " + format_findings(errors)
        )


# -- the pipeline sanitizer -----------------------------------------------------


def test_sanitized_pipeline_is_quiet_on_all_workloads():
    for workload in all_workloads():
        program = compile_reference(
            workload.source, select=True, optimize=False, name=workload.name
        )
        optimize_module(program.module, sanitize=True)  # must not raise


def test_broken_pass_is_caught_by_name():
    def clobber_jump_target(func, const_globals):
        for block in func.blocks:
            term = block.terminator
            if term is not None and term.op == Opcode.JMP:
                term.then_label = "__nowhere__"
                return True
        return False

    program = compile_reference(
        """
        func main() {
            var n = 0;
            if (getc()) { n = 1; }
            return n;
        }
        """,
        select=False,
        optimize=False,
    )
    index = next(
        i for i, p in enumerate(pipeline.PASSES) if p.name == "jump-threading"
    )
    original = pipeline.PASSES[index]
    pipeline.PASSES[index] = pipeline.Pass(
        name="jump-threading", run=clobber_jump_target
    )
    try:
        with pytest.raises(PipelineSanityError) as excinfo:
            optimize_module(program.module, sanitize=True)
    finally:
        pipeline.PASSES[index] = original
    assert excinfo.value.pass_name == "jump-threading"
    assert "__nowhere__" in excinfo.value.details
    # Without sanitize the corruption would go unnoticed until lowering.


def test_sanitizer_rejects_invalid_input_module():
    func = Function(name="main", num_params=0, num_regs=1)
    func.blocks = [
        BasicBlock("entry", [Instr(Opcode.JMP, then_label="__nowhere__")]),
    ]
    from repro.ir.cfg import Module

    module = Module(name="broken", functions=[func])
    with pytest.raises(PipelineSanityError) as excinfo:
        optimize_module(module, sanitize=True)
    assert excinfo.value.pass_name == "<input>"


# -- the CLI --------------------------------------------------------------------


def test_cli_lint_reports_clean_program(tmp_path, capsys):
    from repro.tools.cli import main

    path = tmp_path / "tiny.mf"
    path.write_text("func main() { return getc(); }\n")
    assert main(["lint", str(path), "--min-severity", "error"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_cli_lint_prints_info_findings(tmp_path, capsys):
    from repro.tools.cli import main

    path = tmp_path / "branchy.mf"
    path.write_text(
        """
        func main() {
            var n = 0; var i;
            for (i = 0; i < 4; i += 1) {
                if (getc() > 0) { n += 1; }
            }
            return n;
        }
        """
    )
    assert main(["lint", str(path)]) == 0  # infos never fail the build
    out = capsys.readouterr().out
    assert "critical-edge" in out

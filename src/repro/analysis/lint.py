"""IR sanitizer: lint rules over the dataflow analyses.

Three severities:

* **error** — an invariant no correct code generator or optimizer output
  may violate; the pipeline sanitizer (``optimize_module(...,
  sanitize=True)``) fails on these and names the offending pass.
* **warning** — legal but wasteful or suspicious shapes an optimizer is
  expected to clean up (or, in the paper configuration, deliberately
  leaves in place).
* **info** — structural observations useful when reading dumps.

Rule catalog (``docs/ANALYSIS.md`` has the prose version):

=====================  ========  =================================================
rule                   severity  meaning
=====================  ========  =================================================
``use-before-def``     error     a reachable read not definitely assigned on
                                 every path from entry (VM zero-fill makes this
                                 a silent wrong value, not a crash)
``register-width``     error     an instruction references a register outside
                                 ``0 .. num_regs - 1``
``dead-store``         warning   a side-effect-free instruction whose result is
                                 never live afterwards
``degenerate-branch``  warning   a two-way branch with identical targets
``unreachable-block``  info      a block no CFG path from entry reaches
``critical-edge``      info      an edge from a multi-successor block into a
                                 multi-predecessor block
=====================  ========  =================================================
"""
from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List

from repro.analysis.liveness import dead_instructions
from repro.analysis.reachdefs import maybe_uninitialized_uses
from repro.ir.analysis import cfg_edges, predecessor_map, reachable_from_entry
from repro.ir.cfg import Function, Module
from repro.ir.opcodes import Opcode

ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITY_ORDER = {ERROR: 0, WARNING: 1, INFO: 2}


@dataclasses.dataclass(frozen=True)
class LintFinding:
    """One diagnosed location."""

    rule: str
    severity: str
    function: str
    label: str
    message: str

    def __str__(self) -> str:
        return (
            f"{self.severity}: [{self.rule}] {self.function}/{self.label}: "
            f"{self.message}"
        )


def _lint_use_before_def(func: Function) -> List[LintFinding]:
    findings = []
    for label, position, instr, reg in maybe_uninitialized_uses(func):
        findings.append(
            LintFinding(
                rule="use-before-def",
                severity=ERROR,
                function=func.name,
                label=label,
                message=(
                    f"instruction {position} ({instr.op.name.lower()}) reads "
                    f"r{reg}, which is not assigned on every path from entry"
                ),
            )
        )
    return findings


def _lint_register_width(func: Function) -> List[LintFinding]:
    findings = []
    for block in func.blocks:
        for position, instr in enumerate(block.instrs):
            registers = list(instr.uses())
            if instr.dst is not None:
                registers.append(instr.dst)
            for reg in registers:
                if not 0 <= reg < func.num_regs:
                    findings.append(
                        LintFinding(
                            rule="register-width",
                            severity=ERROR,
                            function=func.name,
                            label=block.label,
                            message=(
                                f"instruction {position} "
                                f"({instr.op.name.lower()}) references r{reg} "
                                f"outside 0..{func.num_regs - 1}"
                            ),
                        )
                    )
    return findings


def _lint_dead_stores(func: Function) -> List[LintFinding]:
    findings = []
    dead = dead_instructions(func)
    for block in func.blocks:
        for position in dead.get(block.label, ()):
            instr = block.instrs[position]
            findings.append(
                LintFinding(
                    rule="dead-store",
                    severity=WARNING,
                    function=func.name,
                    label=block.label,
                    message=(
                        f"instruction {position} ({instr.op.name.lower()}) "
                        f"defines r{instr.dst} but the value is never used"
                    ),
                )
            )
    return findings


def _lint_degenerate_branches(func: Function) -> List[LintFinding]:
    findings = []
    for block in func.blocks:
        term = block.terminator
        if (
            term is not None
            and term.op == Opcode.BR
            and term.then_label == term.else_label
        ):
            findings.append(
                LintFinding(
                    rule="degenerate-branch",
                    severity=WARNING,
                    function=func.name,
                    label=block.label,
                    message=(
                        f"two-way branch with identical targets "
                        f"{term.then_label!r}"
                    ),
                )
            )
    return findings


def _lint_unreachable_blocks(func: Function) -> List[LintFinding]:
    findings = []
    reachable = reachable_from_entry(func)
    for block in func.blocks:
        if block.label not in reachable:
            findings.append(
                LintFinding(
                    rule="unreachable-block",
                    severity=INFO,
                    function=func.name,
                    label=block.label,
                    message="no path from entry reaches this block",
                )
            )
    return findings


def _lint_critical_edges(func: Function) -> List[LintFinding]:
    findings = []
    preds = predecessor_map(func)
    by_source: Dict[str, List[str]] = {}
    for source, target in cfg_edges(func):
        by_source.setdefault(source, []).append(target)
    for source, targets in by_source.items():
        if len(set(targets)) < 2:
            continue
        for target in sorted(set(targets)):
            if len(preds.get(target, [])) > 1:
                findings.append(
                    LintFinding(
                        rule="critical-edge",
                        severity=INFO,
                        function=func.name,
                        label=source,
                        message=(
                            f"edge to {target!r} leaves a multi-successor "
                            f"block and enters a multi-predecessor block"
                        ),
                    )
                )
    return findings


_RULES: List[Callable[[Function], List[LintFinding]]] = [
    _lint_use_before_def,
    _lint_register_width,
    _lint_dead_stores,
    _lint_degenerate_branches,
    _lint_unreachable_blocks,
    _lint_critical_edges,
]


def lint_function(
    func: Function, min_severity: str = INFO
) -> List[LintFinding]:
    """All findings for one function at or above ``min_severity``."""
    threshold = _SEVERITY_ORDER[min_severity]
    findings: List[LintFinding] = []
    for rule in _RULES:
        findings.extend(
            finding
            for finding in rule(func)
            if _SEVERITY_ORDER[finding.severity] <= threshold
        )
    return findings


def lint_module(
    module: Module, min_severity: str = INFO
) -> List[LintFinding]:
    """All findings for a module, in function order."""
    findings: List[LintFinding] = []
    for func in module.functions:
        findings.extend(lint_function(func, min_severity))
    return findings


def lint_errors(module: Module) -> List[LintFinding]:
    """Only the invariant violations (error severity)."""
    return lint_module(module, min_severity=ERROR)


def format_findings(findings: List[LintFinding]) -> str:
    return "\n".join(str(finding) for finding in findings)


def severity_counts(findings: List[LintFinding]) -> "dict[str, int]":
    counts = {ERROR: 0, WARNING: 0, INFO: 0}
    for finding in findings:
        counts[finding.severity] += 1
    return counts

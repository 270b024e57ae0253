"""The optimization pipeline and its configuration.

The default configuration mirrors the paper's: "we allowed most of the
typical classical intraprocedural optimizations ... but suppressed some more
advanced optimizations that would have changed the flow of control", and
"we had to turn off the compiler's global dead code elimination".  So the
classical scalar passes (including plain dead-instruction cleanup) are on by
default, and *global dead code elimination* — branch folding plus
unreachable-block removal — is off; Table 1 turns it on to measure what it
would have removed.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, List, Mapping, Optional

from repro.analysis.lint import format_findings, lint_errors
from repro.ir.cfg import Function, IRError, Module
from repro.ir.printer import format_module
from repro.ir.validate import validate_module
from repro.opt.branch_folding import fold_branches
from repro.opt.constant_folding import fold_function
from repro.opt.copy_propagation import propagate_function
from repro.opt.cse import cse_function
from repro.opt.deadcode import eliminate_dead_instructions
from repro.opt.globalconst import constant_globals
from repro.opt.ifconvert import if_convert_function
from repro.opt.jump_threading import thread_jumps
from repro.opt.unreachable import remove_unreachable


@dataclasses.dataclass
class OptOptions:
    """Which passes run.  Defaults reproduce the paper's compiler setup.

    Dead-*instruction* elimination (removing pure computations whose results
    are never used, e.g. copy-propagation leftovers) is a classical scalar
    cleanup and is on by default.  What the paper calls "global dead code
    elimination" — folding constant-outcome branches and deleting the code
    they guard, which "removes conditional branches with constant outcome,
    hence changes the total number and order of conditional branches" — is
    the ``branch_folding`` + ``remove_unreachable`` pair, off by default and
    enabled only to measure Table 1.  (A computation whose only use sits
    behind a constant-false guard stays live until the guard is folded, so
    those two passes are also what unlocks removing it.)
    """

    constant_folding: bool = True
    copy_propagation: bool = True
    cse: bool = True
    jump_threading: bool = True
    global_constants: bool = True
    dead_instructions: bool = True
    # Global dead code elimination (paper: OFF for all measurements).
    branch_folding: bool = False
    remove_unreachable: bool = False
    # If-conversion (paper: suppressed; enabled only by the ablation).
    if_conversion: bool = False
    max_iterations: int = 10

    @classmethod
    def classical(cls) -> "OptOptions":
        """The paper's configuration: classical optimizations, no DCE."""
        return cls()

    @classmethod
    def with_dce(cls) -> "OptOptions":
        """Classical optimizations plus global dead code elimination."""
        return cls(branch_folding=True, remove_unreachable=True)

    @classmethod
    def none(cls) -> "OptOptions":
        """No optimization at all (for debugging and baselines)."""
        return cls(
            constant_folding=False,
            copy_propagation=False,
            cse=False,
            jump_threading=False,
            global_constants=False,
            dead_instructions=False,
        )


@dataclasses.dataclass(frozen=True)
class Pass:
    """A named pipeline pass: an enable switch plus a per-function body."""

    name: str
    enabled: Callable[[OptOptions], bool]
    run: Callable[[Function, Mapping[str, int]], bool]


#: Pipeline order.  Each entry runs over every function before the next
#: starts; passes are intraprocedural, so this produces the same IR as the
#: historical function-major loop while giving the sanitizer a well-defined
#: "after pass X" point to re-check invariants at.
PASSES: List[Pass] = [
    Pass(
        "constant-folding",
        lambda options: options.constant_folding,
        fold_function,
    ),
    Pass(
        "copy-propagation",
        lambda options: options.copy_propagation,
        lambda func, const_globals: propagate_function(func),
    ),
    Pass("cse", lambda options: options.cse, lambda func, _: cse_function(func)),
    Pass(
        "jump-threading",
        lambda options: options.jump_threading,
        lambda func, _: thread_jumps(func),
    ),
    Pass(
        "if-conversion",
        lambda options: options.if_conversion,
        lambda func, _: if_convert_function(func),
    ),
    Pass(
        "branch-folding",
        lambda options: options.branch_folding,
        fold_branches,
    ),
    Pass(
        "remove-unreachable",
        lambda options: options.remove_unreachable,
        lambda func, _: remove_unreachable(func),
    ),
    Pass(
        "dead-instructions",
        lambda options: options.dead_instructions,
        lambda func, _: eliminate_dead_instructions(func),
    ),
]


class PipelineSanityError(IRError):
    """An optimization pass left the module in an invalid state.

    Carries the name of the offending pass — the whole point of the
    sanitizer is turning "some pass somewhere broke the IR" into "pass X
    broke invariant Y".
    """

    def __init__(self, pass_name: str, details: str) -> None:
        super().__init__(
            f"IR invariants violated after pass {pass_name!r}:\n{details}"
        )
        self.pass_name = pass_name
        self.details = details


def _check_invariants(module: Module, pass_name: str) -> None:
    try:
        validate_module(module)
    except IRError as exc:
        raise PipelineSanityError(pass_name, str(exc)) from exc
    errors = lint_errors(module)
    if errors:
        raise PipelineSanityError(pass_name, format_findings(errors))


def optimize_module(
    module: Module,
    options: Optional[OptOptions] = None,
    sanitize: bool = False,
) -> Module:
    """Run the configured passes to a fixpoint (bounded), in place.

    The loop stops after an iteration in which no pass reports a change,
    or which leaves the printed module unchanged: some passes undo each
    other (CSE turns a duplicate ``const`` into a ``mov`` and constant
    folding turns it back), so "changed" alone would never settle.  Passes
    depend only on the printed state, so a further iteration would repeat
    the same round trip.

    With ``sanitize``, the module is re-validated (structural checks plus
    error-severity lint rules) after every pass that changed it;
    a violation raises :class:`PipelineSanityError` naming the pass.
    """
    if options is None:
        options = OptOptions.classical()
    if sanitize:
        _check_invariants(module, "<input>")
    printed = format_module(module)
    for _ in range(options.max_iterations):
        changed = False
        const_globals = (
            constant_globals(module) if options.global_constants else {}
        )
        for pipeline_pass in PASSES:
            if not pipeline_pass.enabled(options):
                continue
            pass_changed = False
            for func in module.functions:
                pass_changed |= pipeline_pass.run(func, const_globals)
            if sanitize and pass_changed:
                _check_invariants(module, pipeline_pass.name)
            changed |= pass_changed
        if not changed:
            break
        before, printed = printed, format_module(module)
        if printed == before:
            break
    return module

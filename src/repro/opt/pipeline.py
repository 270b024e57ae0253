"""The optimization pipeline.

It mirrors the paper's compiler: "we allowed most of the typical classical
intraprocedural optimizations ... but suppressed some more advanced
optimizations that would have changed the flow of control", and "we had to
turn off the compiler's global dead code elimination".  So the classical
scalar passes (including plain dead-instruction cleanup) always run, and
*global dead code elimination* — branch folding plus unreachable-block
removal — runs only with ``dce``; Table 1 turns it on to measure what it
would have removed.  If-conversion runs only with ``if_conversion``.
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

#: The most pipeline iterations one ``optimize_module`` call runs.
MAX_ITERATIONS = 10


@dataclasses.dataclass(frozen=True)
class Pass:
    """A named pipeline pass and its per-function body.

    ``switch`` names the ``optimize_module`` flag that enables the pass
    (spelled like the ``RunConfig`` field it carries), or is ``None`` for
    a classical pass that always runs.
    """

    name: str
    run: Callable[[Function, Mapping[str, int]], bool]
    switch: Optional[str] = None


#: Pipeline order.  Each entry runs over every function before the next
#: starts; passes are intraprocedural, so this produces the same IR as the
#: historical function-major loop while giving the sanitizer a well-defined
#: "after pass X" point to re-check invariants at.
#:
#: Dead-*instruction* elimination (removing pure computations whose results
#: are never used, e.g. copy-propagation leftovers) is a classical scalar
#: cleanup and always runs.  What the paper calls "global dead code
#: elimination" — folding constant-outcome branches and deleting the code
#: they guard, which "removes conditional branches with constant outcome,
#: hence changes the total number and order of conditional branches" — is
#: the branch-folding + remove-unreachable pair.  (A computation whose only
#: use sits behind a constant-false guard stays live until the guard is
#: folded, so those two passes are also what unlocks removing it.)
PASSES: List[Pass] = [
    Pass("constant-folding", fold_function),
    Pass(
        "copy-propagation",
        lambda func, const_globals: propagate_function(func),
    ),
    Pass("cse", lambda func, _: cse_function(func)),
    Pass("jump-threading", lambda func, _: thread_jumps(func)),
    Pass(
        "if-conversion",
        lambda func, _: if_convert_function(func),
        "if_conversion",
    ),
    Pass("branch-folding", fold_branches, "dce"),
    Pass(
        "remove-unreachable", lambda func, _: remove_unreachable(func), "dce"
    ),
    Pass(
        "dead-instructions",
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
    *,
    dce: bool = False,
    if_conversion: bool = False,
    sanitize: bool = False,
) -> Module:
    """Run the passes to a fixpoint (at most ``MAX_ITERATIONS``), in place.

    The classical passes always run; ``dce`` adds global dead code
    elimination and ``if_conversion`` adds if-conversion (see ``PASSES``).

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
    switches = {"dce": dce, "if_conversion": if_conversion}
    if sanitize:
        _check_invariants(module, "<input>")
    printed = format_module(module)
    for _ in range(MAX_ITERATIONS):
        changed = False
        const_globals = constant_globals(module)
        for pipeline_pass in PASSES:
            if pipeline_pass.switch and not switches[pipeline_pass.switch]:
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

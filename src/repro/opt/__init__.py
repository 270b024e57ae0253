"""Classical compiler optimizations over the CFG-form IR."""
from repro.opt.branch_folding import fold_branches
from repro.opt.constant_folding import fold_function
from repro.opt.copy_propagation import propagate_function
from repro.opt.cse import cse_function
from repro.opt.deadcode import eliminate_dead_instructions
from repro.opt.globalconst import constant_globals, written_symbols
from repro.opt.ifconvert import if_convert_function
from repro.opt.inline import inline_function, inline_module
from repro.opt.jump_threading import thread_jumps
from repro.opt.pipeline import optimize_module
from repro.opt.unreachable import remove_unreachable

__all__ = [
    "constant_globals",
    "cse_function",
    "eliminate_dead_instructions",
    "fold_branches",
    "fold_function",
    "if_convert_function",
    "inline_function",
    "inline_module",
    "optimize_module",
    "propagate_function",
    "remove_unreachable",
    "thread_jumps",
    "written_symbols",
]

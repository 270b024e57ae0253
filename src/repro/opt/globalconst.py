"""Module-level constant-global analysis.

A global *scalar* whose address never reaches a store is a constant with its
initializer value (MF has no address-of for data, so data addresses cannot
escape through calls or memory).

The analysis is a flow-insensitive, per-function fixpoint: for every virtual
register we compute the set of global symbols whose storage it may point
into; a store writes every symbol its address register may point into.  An
address of unknown provenance (a set that is empty at a store) conservatively
invalidates the whole analysis — this cannot arise from our code generator,
whose store addresses are always ``ADDR`` or ``ADDR``-plus-offset chains.
The facts are kept per function (``function_writes``), so the optimizer
recomputes only the functions a round changed (``constants_given``).

This is what lets ``if (DEBUG)`` and similar generality knobs become
constant-outcome branches — the branches the paper's Table 1 says dead code
elimination would have removed, and which it deliberately left in.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.ir.cfg import Function, Module
from repro.ir.opcodes import Opcode

_EMPTY: FrozenSet[str] = frozenset()

#: Opcodes whose destination may carry an address derived from the operands.
_PROPAGATING = frozenset({Opcode.MOV, Opcode.BIN, Opcode.UN, Opcode.SELECT})


def _points_to_sets(func: Function) -> Dict[int, FrozenSet[str]]:
    """Fixpoint of reg -> symbols-whose-storage-it-may-address."""
    points_to: Dict[int, FrozenSet[str]] = {}
    flows: List[Tuple[int, List[int]]] = []  # (dst, the registers it copies)
    for block in func.blocks:
        for instr in block.instrs:
            if instr.dst is None:
                continue
            if instr.op == Opcode.ADDR:
                points_to[instr.dst] = points_to.get(instr.dst, _EMPTY) | {
                    instr.symbol
                }
            elif instr.op in _PROPAGATING:
                flows.append((instr.dst, instr.uses()))
    changed = True
    while changed:
        changed = False
        for dst, sources in flows:
            old = points_to.get(dst, _EMPTY)
            new = old.union(*[points_to.get(reg, _EMPTY) for reg in sources])
            if len(new) != len(old):
                points_to[dst] = new
                changed = True
    return points_to


def function_writes(func: Function) -> Optional[FrozenSet[str]]:
    """Global symbols ``func``'s stores may write, or ``None`` when a store's
    address is of unknown provenance."""
    addresses = [
        instr.a
        for block in func.blocks
        for instr in block.instrs
        if instr.op == Opcode.STORE
    ]
    if not addresses:
        return _EMPTY
    points_to = _points_to_sets(func)
    written: Set[str] = set()
    for address in addresses:
        targets = points_to.get(address, _EMPTY)
        if not targets:
            return None
        written |= targets
    return frozenset(written)


def constants_given(
    module: Module, writes: Iterable[Optional[FrozenSet[str]]]
) -> Dict[str, int]:
    """The constant globals of ``module`` given each function's
    ``function_writes``; an unknown provenance gives up entirely."""
    written: Set[str] = set()
    for symbols in writes:
        if symbols is None:
            return {}
        written |= symbols
    constants: Dict[str, int] = {}
    for var in module.globals:
        if var.size == 1 and var.name not in written:
            constants[var.name] = var.init[0] if var.init else 0
    return constants


def constant_globals(module: Module) -> Dict[str, int]:
    """Names of never-written global scalars mapped to their constant value."""
    return constants_given(module, map(function_writes, module.functions))

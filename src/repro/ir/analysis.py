"""CFG analyses: edges, dominators, natural loops.

Used by the heuristic predictors (loop/non-loop distinction), the
trace-selection extension, the optimization passes (shared successor /
predecessor derivation instead of per-pass ad-hoc scans) and the
:mod:`repro.analysis` dataflow framework.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Set, Tuple

from repro.ir.cfg import BasicBlock, Function
from repro.ir.opcodes import Opcode


def retarget_block(block: BasicBlock, resolve: Callable[[str], str]) -> bool:
    """Rewrite the block's terminator targets through ``resolve``.

    Returns whether any target changed.  Shared by the passes that redirect
    control-flow edges (jump threading, and any future CFG simplification)
    so edge rewriting lives in one place.
    """
    term = block.terminator
    if term is None:
        return False
    changed = False
    if term.op in (Opcode.JMP, Opcode.BR) and term.then_label is not None:
        target = resolve(term.then_label)
        if target != term.then_label:
            term.then_label = target
            changed = True
    if term.op == Opcode.BR and term.else_label is not None:
        target = resolve(term.else_label)
        if target != term.else_label:
            term.else_label = target
            changed = True
    return changed


def successor_map(func: Function) -> Dict[str, List[str]]:
    """Label -> successor labels, for every block (reachable or not)."""
    return {block.label: block.successors() for block in func.blocks}


def predecessor_map(func: Function) -> Dict[str, List[str]]:
    """Label -> predecessor labels, for every block (reachable or not).

    Edges to unknown labels are skipped, not raised on: malformed modules
    are the validator's business, and analyses should be runnable on
    anything the validator accepts.
    """
    preds: Dict[str, List[str]] = {block.label: [] for block in func.blocks}
    for block in func.blocks:
        for succ in block.successors():
            if succ in preds:
                preds[succ].append(block.label)
    return preds


def cfg_edges(func: Function) -> List[Tuple[str, str]]:
    """All (source, target) control-flow edges, in layout order.

    A two-way branch with identical targets contributes the edge twice —
    callers that care about edge multiplicity (critical-edge checks,
    degenerate-branch detection) need to see both.
    """
    edges: List[Tuple[str, str]] = []
    for block in func.blocks:
        for succ in block.successors():
            edges.append((block.label, succ))
    return edges


def reachable_from_entry(func: Function) -> Set[str]:
    """Labels of blocks reachable from the entry block."""
    succs = successor_map(func)
    reachable: Set[str] = set()
    worklist: List[str] = [func.blocks[0].label] if func.blocks else []
    while worklist:
        label = worklist.pop()
        if label in reachable:
            continue
        reachable.add(label)
        worklist.extend(succ for succ in succs[label] if succ in succs)
    return reachable


def reachable_labels(func: Function) -> List[str]:
    """Labels reachable from entry, in reverse-postorder."""
    block_map = func.block_map()
    entry = func.blocks[0].label
    order: List[str] = []
    visited: Set[str] = set()

    def visit(label: str) -> None:
        stack = [(label, iter(block_map[label].successors()))]
        visited.add(label)
        while stack:
            current, successors = stack[-1]
            advanced = False
            for succ in successors:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(block_map[succ].successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(current)
                stack.pop()

    visit(entry)
    order.reverse()
    return order


def dominators(func: Function) -> Dict[str, Set[str]]:
    """Label -> set of labels that dominate it (including itself).

    Only reachable blocks are included.  The classic iterative dataflow,
    solved in reverse postorder for fast convergence.
    """
    order = reachable_labels(func)
    entry = order[0]
    all_labels = set(order)
    preds = predecessor_map(func)
    dom: Dict[str, Set[str]] = {
        label: ({label} if label == entry else set(all_labels))
        for label in order
    }
    changed = True
    while changed:
        changed = False
        for label in order:
            if label == entry:
                continue
            pred_doms = [dom[p] for p in preds[label] if p in dom]
            if pred_doms:
                new = set.intersection(*pred_doms)
            else:
                new = set()
            new.add(label)
            if new != dom[label]:
                dom[label] = new
                changed = True
    return dom


def exit_labels(func: Function) -> List[str]:
    """Labels of blocks that leave the function (``ret`` or ``halt``)."""
    exits: List[str] = []
    for block in func.blocks:
        term = block.terminator
        if term is not None and term.op in (Opcode.RET, Opcode.HALT):
            exits.append(block.label)
    return exits


def back_edges(func: Function) -> Set[Tuple[str, str]]:
    """(source, header) pairs where the edge target dominates the source —
    the back edges of natural loops."""
    dom = dominators(func)
    block_map = func.block_map()
    edges: Set[Tuple[str, str]] = set()
    for label in dom:
        for succ in block_map[label].successors():
            if succ in dom.get(label, set()):
                edges.add((label, succ))
    return edges


def natural_loop_bodies(func: Function) -> Dict[str, Set[str]]:
    """Header label -> all labels in that header's natural loop.

    Back edges sharing a header are merged into one loop, per the usual
    natural-loop definition.
    """
    preds = predecessor_map(func)
    bodies: Dict[str, Set[str]] = {}
    for source, header in back_edges(func):
        loop = bodies.setdefault(header, {header})
        worklist = [source]
        loop.add(source)
        while worklist:
            label = worklist.pop()
            if label == header:
                continue
            for pred in preds[label]:
                if pred not in loop:
                    loop.add(pred)
                    worklist.append(pred)
    return bodies

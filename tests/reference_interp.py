"""A direct AST-walking reference interpreter for MF.

Used by the differential property tests: hypothesis generates random MF
programs, and the whole production pipeline (codegen, optimizer, lowering,
VM) must agree with this deliberately naive evaluator on outputs, exit
codes and division faults.  The two implementations share nothing past the
parser, so agreement is strong evidence of semantic correctness.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_source
from repro.lang.sema import BUILTINS, analyze


class ReferenceFault(Exception):
    """Raised for the faults the VM also traps (bad address, div by 0,
    negative shift count)."""


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: int):
        self.value = value


class _Halt(Exception):
    pass


def _c_div(a: int, b: int) -> int:
    if b == 0:
        raise ReferenceFault("division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _c_mod(a: int, b: int) -> int:
    return a - _c_div(a, b) * b


def _shift(a: int, b: int, shift) -> int:
    if b < 0:
        raise ReferenceFault("negative shift count")
    return shift(a, b)


_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _c_div,
    "%": _c_mod,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: _shift(a, b, int.__lshift__),
    ">>": lambda a, b: _shift(a, b, int.__rshift__),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
}

_COMPOUND = {
    "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
    "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>",
}


class ReferenceInterpreter:
    """Evaluates a parsed MF program directly over the AST."""

    def __init__(self, source: str):
        self.program = parse_source(source)
        self.info = analyze(self.program)
        self.functions: Dict[str, ast.FuncDecl] = {
            func.ident: func for func in self.program.functions
        }

    def run(self, input_data: bytes = b"") -> Tuple[int, bytes]:
        """Execute main; returns (exit_code, output)."""
        self.globals: Dict[str, int] = {}
        self.arrays: Dict[str, List[int]] = {}
        for decl in self.program.globals:
            if isinstance(decl, ast.VarDecl):
                self.globals[decl.ident] = decl.const_init or 0
            else:
                cells = list(decl.init) + [0] * (decl.size - len(decl.init))
                self.arrays[decl.ident] = cells
        self.input = input_data
        self.in_pos = 0
        self.output = bytearray()
        try:
            exit_code = self.call("main", [])
        except _Halt:
            exit_code = 0
        return exit_code, bytes(self.output)

    # -- calls -----------------------------------------------------------------

    def call(self, name: str, args: List[int]) -> int:
        func = self.functions[name]
        local: Dict[str, int] = {
            var: 0 for var in self.info.locals_by_function[name]
        }
        for param, value in zip(func.params, args):
            local[param] = value
        try:
            self.exec_block(func.body, local)
        except _Return as ret:
            return ret.value
        return 0

    # -- statements ----------------------------------------------------------------

    def exec_block(self, stmts: List[ast.Node], local: Dict[str, int]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt, local)

    def exec_stmt(self, stmt: ast.Node, local: Dict[str, int]) -> None:
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                local[stmt.ident] = self.eval(stmt.init, local)
        elif isinstance(stmt, ast.Assign):
            self.assign(stmt, local)
        elif isinstance(stmt, ast.ExprStmt):
            self.eval(stmt.expr, local)
        elif isinstance(stmt, ast.If):
            if self.eval(stmt.cond, local):
                self.exec_block(stmt.then_body, local)
            else:
                self.exec_block(stmt.else_body, local)
        elif isinstance(stmt, ast.While):
            while self.eval(stmt.cond, local):
                try:
                    self.exec_block(stmt.body, local)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(stmt, ast.DoWhile):
            while True:
                try:
                    self.exec_block(stmt.body, local)
                except _Break:
                    break
                except _Continue:
                    pass
                if not self.eval(stmt.cond, local):
                    break
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self.exec_stmt(stmt.init, local)
            while stmt.cond is None or self.eval(stmt.cond, local):
                try:
                    self.exec_block(stmt.body, local)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.step is not None:
                    self.exec_stmt(stmt.step, local)
        elif isinstance(stmt, ast.Switch):
            self.exec_switch(stmt, local)
        elif isinstance(stmt, ast.Break):
            raise _Break()
        elif isinstance(stmt, ast.Continue):
            raise _Continue()
        elif isinstance(stmt, ast.Return):
            value = 0 if stmt.value is None else self.eval(stmt.value, local)
            raise _Return(value)
        elif isinstance(stmt, ast.Halt):
            raise _Halt()
        else:  # pragma: no cover
            raise ReferenceFault(f"unknown statement {type(stmt).__name__}")

    def exec_switch(self, stmt: ast.Switch, local: Dict[str, int]) -> None:
        value = self.eval(stmt.scrutinee, local)
        start: Optional[int] = None
        default_at: Optional[int] = None
        for position, arm in enumerate(stmt.arms):
            if arm.values is None:
                default_at = position
            elif value in arm.values:
                start = position
                break
        if start is None:
            start = default_at
        if start is None:
            return
        try:
            for arm in stmt.arms[start:]:
                self.exec_block(arm.body, local)
        except _Break:
            pass

    def assign(self, stmt: ast.Assign, local: Dict[str, int]) -> None:
        value = self.eval(stmt.value, local)
        operator = _COMPOUND.get(stmt.op)
        if isinstance(stmt.target, ast.Name):
            name = stmt.target.ident
            if name in local:
                old = local[name]
                local[name] = (
                    value if operator is None else _BINOPS[operator](old, value)
                )
            else:
                old = self.globals[name]
                self.globals[name] = (
                    value if operator is None else _BINOPS[operator](old, value)
                )
        else:
            array = self.arrays[stmt.target.array]
            index = self.eval(stmt.target.index, local)
            if not (0 <= index < len(array)):
                raise ReferenceFault("bad address")
            old = array[index]
            array[index] = (
                value if operator is None else _BINOPS[operator](old, value)
            )

    # -- expressions ------------------------------------------------------------------

    def eval(self, expr: ast.Node, local: Dict[str, int]) -> int:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.Name):
            if expr.ident in local:
                return local[expr.ident]
            return self.globals[expr.ident]
        if isinstance(expr, ast.Index):
            array = self.arrays[expr.array]
            index = self.eval(expr.index, local)
            if not (0 <= index < len(array)):
                raise ReferenceFault("bad address")
            return array[index]
        if isinstance(expr, ast.Unary):
            operand = self.eval(expr.operand, local)
            if expr.op == "-":
                return -operand
            if expr.op == "!":
                return int(operand == 0)
            return ~operand
        if isinstance(expr, ast.Binary):
            if expr.op == "&&":
                return (
                    int(self.eval(expr.right, local) != 0)
                    if self.eval(expr.left, local)
                    else 0
                )
            if expr.op == "||":
                return (
                    1
                    if self.eval(expr.left, local)
                    else int(self.eval(expr.right, local) != 0)
                )
            left = self.eval(expr.left, local)
            right = self.eval(expr.right, local)
            return _BINOPS[expr.op](left, right)
        if isinstance(expr, ast.FuncRef):
            # Function "addresses" are indices in definition order, matching
            # the lowering.
            return list(self.functions).index(expr.ident)
        if isinstance(expr, ast.Call):
            return self.eval_call(expr, local)
        if isinstance(expr, ast.IndirectCall):
            target = self.eval(expr.callee, local)
            names = list(self.functions)
            if not (0 <= target < len(names)):
                raise ReferenceFault("indirect call to bad target")
            args = [self.eval(arg, local) for arg in expr.args]
            callee = self.functions[names[target]]
            if len(args) != len(callee.params):
                raise ReferenceFault("indirect call arity mismatch")
            return self.call(names[target], args)
        raise ReferenceFault(f"unknown expression {type(expr).__name__}")

    def eval_call(self, expr: ast.Call, local: Dict[str, int]) -> int:
        name = expr.func
        if name in self.functions:
            args = [self.eval(arg, local) for arg in expr.args]
            return self.call(name, args)
        if name in BUILTINS:
            if name == "getc":
                if self.in_pos < len(self.input):
                    value = self.input[self.in_pos]
                    self.in_pos += 1
                    return value
                return -1
            value = self.eval(expr.args[0], local)
            self.output.append(value & 0xFF)
            return 0
        # Indirect call through a variable holding a function index.
        callee = ast.Name(line=expr.line, ident=name)
        return self.eval(
            ast.IndirectCall(line=expr.line, callee=callee, args=expr.args),
            local,
        )

"""IR construction, validation, printing and lowering tests."""
import pytest

from repro.ir import (
    BasicBlock,
    BinOp,
    BranchId,
    Function,
    GlobalVar,
    IRBuilder,
    IRError,
    Instr,
    Module,
    Opcode,
    format_module,
    lower_module,
    validate_module,
)
from repro.vm.machine import run_program


def build_simple_module():
    """return 2 + 3 via hand-built IR."""
    func = Function(name="main", num_params=0, num_regs=0)
    builder = IRBuilder(func)
    entry = builder.add_block("entry")
    builder.set_block(entry)
    two = builder.const(2)
    three = builder.const(3)
    total = builder.bin(BinOp.ADD, two, three)
    builder.ret(total)
    return Module(name="m", functions=[func])


def test_builder_produces_valid_module():
    module = build_simple_module()
    validate_module(module)


def test_hand_built_module_runs():
    module = build_simple_module()
    result = run_program(lower_module(module))
    assert result.exit_code == 5
    assert result.instructions == 4


def test_emitting_into_terminated_block_raises():
    func = Function(name="main", num_params=0, num_regs=0)
    builder = IRBuilder(func)
    builder.set_block(builder.add_block("entry"))
    builder.ret(None)
    with pytest.raises(IRError, match="terminated"):
        builder.const(1)


def test_validate_rejects_missing_terminator():
    func = Function(name="main", num_params=0, num_regs=1)
    func.blocks.append(
        BasicBlock("entry", [Instr(Opcode.CONST, dst=0, imm=1)])
    )
    with pytest.raises(IRError, match="terminator"):
        validate_module(Module(name="m", functions=[func]))


def test_validate_rejects_unknown_branch_target():
    func = Function(name="main", num_params=0, num_regs=1)
    func.blocks.append(
        BasicBlock("entry", [Instr(Opcode.JMP, then_label="nowhere")])
    )
    with pytest.raises(IRError, match="undefined label"):
        validate_module(Module(name="m", functions=[func]))


def test_validate_rejects_out_of_range_register():
    func = Function(name="main", num_params=0, num_regs=1)
    func.blocks.append(
        BasicBlock(
            "entry",
            [Instr(Opcode.CONST, dst=5, imm=1), Instr(Opcode.RET, a=None)],
        )
    )
    with pytest.raises(IRError, match="out of range"):
        validate_module(Module(name="m", functions=[func]))


def test_validate_rejects_branch_without_id():
    func = Function(name="main", num_params=0, num_regs=1)
    func.blocks.append(
        BasicBlock(
            "entry",
            [
                Instr(Opcode.CONST, dst=0, imm=1),
                Instr(Opcode.BR, a=0, then_label="entry", else_label="entry"),
            ],
        )
    )
    with pytest.raises(IRError, match="BranchId"):
        validate_module(Module(name="m", functions=[func]))


def test_validate_rejects_duplicate_branch_ids():
    func = Function(name="main", num_params=0, num_regs=1)
    bid = BranchId("main", 0)
    block_a = BasicBlock(
        "entry",
        [
            Instr(Opcode.CONST, dst=0, imm=1),
            Instr(Opcode.BR, a=0, then_label="b", else_label="b", branch_id=bid),
        ],
    )
    block_b = BasicBlock(
        "b",
        [
            Instr(Opcode.BR, a=0, then_label="b", else_label="b", branch_id=bid),
        ],
    )
    func.blocks = [block_a, block_b]
    with pytest.raises(IRError, match="duplicate BranchId"):
        validate_module(Module(name="m", functions=[func]))


def test_validate_rejects_missing_main():
    func = Function(name="f", num_params=0, num_regs=0)
    func.blocks.append(BasicBlock("entry", [Instr(Opcode.RET, a=None)]))
    with pytest.raises(IRError, match="main"):
        validate_module(Module(name="m", functions=[func]))


def test_validate_rejects_call_arity_mismatch():
    callee = Function(name="f", num_params=2, num_regs=2)
    callee.blocks.append(BasicBlock("entry", [Instr(Opcode.RET, a=None)]))
    caller = Function(name="main", num_params=0, num_regs=1)
    caller.blocks.append(
        BasicBlock(
            "entry",
            [
                Instr(Opcode.CONST, dst=0, imm=1),
                Instr(Opcode.CALL, dst=None, symbol="f", args=(0,)),
                Instr(Opcode.RET, a=None),
            ],
        )
    )
    with pytest.raises(IRError, match="expects 2"):
        validate_module(Module(name="m", functions=[caller, callee]))


def test_global_layout_and_initializers():
    module = Module(
        name="m",
        globals=[
            GlobalVar("a", 3, (1, 2)),
            GlobalVar("b", 1, (9,)),
        ],
    )
    func = Function(name="main", num_params=0, num_regs=1)
    builder = IRBuilder(func)
    builder.set_block(builder.add_block("entry"))
    addr = builder.addr("b")
    value = builder.load(addr)
    builder.ret(value)
    module.functions.append(func)
    lowered = lower_module(module)
    assert lowered.symbols == {"a": 0, "b": 3}
    assert lowered.memory_init == [1, 2, 0, 9]
    assert run_program(lowered).exit_code == 9


def test_global_size_must_be_positive():
    with pytest.raises(IRError, match="size"):
        GlobalVar("bad", 0)


def test_fallthrough_jump_elided_in_lowering():
    func = Function(name="main", num_params=0, num_regs=1)
    builder = IRBuilder(func)
    entry = builder.add_block("entry")
    builder.set_block(entry)
    builder.jmp("next")
    nxt = builder.add_block("next")
    builder.set_block(nxt)
    builder.ret(None)
    lowered = lower_module(Module(name="m", functions=[func]))
    # The JMP to the lexically-next block disappears.
    assert [ins[0] for ins in lowered.functions[0].code] == [int(Opcode.RET)]


def test_branch_table_is_deduplicated_and_ordered():
    source_module = build_simple_module()
    lowered = lower_module(source_module)
    assert lowered.branch_table == []


def test_printer_output_mentions_everything():
    module = build_simple_module()
    module.globals.append(GlobalVar("g", 4, (1,)))
    text = format_module(module)
    assert "module m" in text
    assert "global g[4]" in text
    assert "func main" in text
    assert "ret" in text

"""Disassembler and suite-overview tests."""
from repro.compiler import compile_source
from repro.ir.disasm import disassemble, disassemble_function
from repro.experiments import overview


def test_disassemble_covers_every_opcode_family():
    source = """
    var g;
    arr buf[4];
    func f(x) { return x * 2; }
    func main() {
        var p = &f;
        buf[0] = getc();
        g = p(buf[0]);
        putc(g & 255);
        var t;
        if (g > 3) { t = 1; } else { t = 2; }
        while (t > 0) { t -= 1; }
        switch (g) { case 1: halt; }
        return f(t);
    }
    """
    program = compile_source(source)
    text = disassemble(program.lowered)
    for fragment in (
        "program", ".data g", ".data buf", "func f", "func main",
        "const", "load", "store", "getc", "putc", "icall", "call",
        "select", "br", "ret", "halt",
    ):
        assert fragment in text, fragment


def test_disassemble_marks_branch_targets():
    program = compile_source(
        "func main() { var i = 0; while (i < 3) { i += 1; } return i; }"
    )
    text = disassemble_function(program.lowered, program.lowered.functions[0])
    assert "@" in text


def test_overview_covers_every_run(runner):
    result = overview.run(runner)
    from repro.workloads import all_workloads

    expected = sum(len(wl.datasets) for wl in all_workloads())
    assert len(result.rows) == expected
    assert result.total_instructions() > 50_000_000
    li = result.find("li", "6queens")
    assert li.branch_density < 15
    assert "Suite overview" in result.format_text()


def test_overview_fetches_every_run_in_one_batch(runner, monkeypatch):
    """One ``run_many`` batch of all 51 runs, so ``--jobs`` fans them
    out; fetching them one ``runner.run`` at a time issued 51 batches of
    one, which a pool cannot spread."""
    batches = []
    run_many = runner.run_many

    def spy(requests, *args, **kwargs):
        batches.append(len(requests))
        return run_many(requests, *args, **kwargs)

    monkeypatch.setattr(runner, "run_many", spy)
    overview.run(runner)
    assert batches == [51]

"""CFG analysis tests: reverse postorder, dominators, loops."""
from repro.ir.analysis import (
    back_edges,
    cfg_edges,
    dominators,
    exit_labels,
    natural_loop_bodies,
    predecessor_map,
    reachable_labels,
    successor_map,
)

from tests.helpers import compile_reference


def function_of(source, name="main"):
    program = compile_reference(source, select=False, optimize=True)
    return program.module.function(name)


SIMPLE_LOOP = """
func main() {
    var i; var n = 0;
    while (i < 10) { n += i; i += 1; }
    return n;
}
"""

NESTED_LOOPS = """
func main() {
    var i; var j; var n = 0;
    for (i = 0; i < 4; i += 1) {
        for (j = 0; j < 4; j += 1) {
            if (j == 2) { n += 1; }
        }
    }
    return n;
}
"""


def test_reverse_postorder_starts_at_entry():
    func = function_of(SIMPLE_LOOP)
    order = reachable_labels(func)
    assert order[0] == func.blocks[0].label
    assert len(order) == len(set(order))


def test_entry_dominates_everything():
    func = function_of(SIMPLE_LOOP)
    dom = dominators(func)
    entry = func.blocks[0].label
    for label, doms in dom.items():
        assert entry in doms
        assert label in doms  # reflexive


def test_loop_header_dominates_body():
    func = function_of(SIMPLE_LOOP)
    dom = dominators(func)
    bodies = natural_loop_bodies(func)
    assert len(bodies) == 1
    header, members = next(iter(bodies.items()))
    for label in members:
        assert header in dom[label]


def test_back_edges_point_at_headers():
    func = function_of(SIMPLE_LOOP)
    edges = back_edges(func)
    assert len(edges) == 1
    dom = dominators(func)
    for source, header in edges:
        assert header in natural_loop_bodies(func)
        assert header in dom[source]


def test_nested_loops_have_two_headers():
    func = function_of(NESTED_LOOPS)
    bodies = natural_loop_bodies(func)
    assert len(bodies) == 2
    # The inner loop's blocks are inside the outer loop's body set too.
    inner, outer = sorted(bodies.values(), key=len)
    assert inner < outer
    assert len(outer) >= 5


def test_straight_line_has_no_loops():
    func = function_of("func main() { return 3; }")
    assert back_edges(func) == set()
    assert natural_loop_bodies(func) == {}


def test_do_while_loop_detected():
    func = function_of(
        "func main() { var i = 0; do { i += 1; } while (i < 5); return i; }"
    )
    assert len(natural_loop_bodies(func)) == 1


def test_unreachable_blocks_excluded_from_order():
    source = """
    func main() {
        return 1;
        return 2;
    }
    """
    func = function_of(source)
    order = reachable_labels(func)
    assert len(order) <= len(func.blocks)


def test_cfg_edges_match_successor_and_predecessor_maps():
    func = function_of(NESTED_LOOPS)
    edges = cfg_edges(func)
    succs = successor_map(func)
    preds = predecessor_map(func)
    for source_label, target in edges:
        assert target in succs[source_label]
        assert source_label in preds[target]
    # Every successor pair appears as an edge.
    derived = {(s, t) for s, targets in succs.items() for t in targets}
    assert derived == set(edges)


def test_exit_labels_are_return_blocks():
    func = function_of(SIMPLE_LOOP)
    exits = exit_labels(func)
    assert exits
    for label in exits:
        block = next(b for b in func.blocks if b.label == label)
        assert not block.successors()


def test_natural_loop_bodies_keyed_by_header():
    func = function_of(NESTED_LOOPS)
    bodies = natural_loop_bodies(func)
    assert set(bodies) == {header for _, header in back_edges(func)}
    for source, header in back_edges(func):
        assert header in bodies[header]
        assert source in bodies[header]

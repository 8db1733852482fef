import numpy as np
import pytest

from schemegrad.anf import to_anf
from schemegrad.compiler import compile_source, disassemble
from schemegrad.errors import CycleDetected, UnboundVariable
from schemegrad.experiments.registry import FEYNMAN
from schemegrad.graph import BlockIR, ComputeGraph, Node, build_graph, toposort
from schemegrad.lowering import lower_tail_calls
from schemegrad.machine import eval_program
from schemegrad.sexpr import parse
from schemegrad.values import Value, bit_equal

TWO_OP_SRC = "(* (+ x 1) (- y 2))"

TWO_OP_DISASSEMBLY = """\
slot[0] = 1.0                     ; constant
slot[1] = x                       ; input
slot[2] = slot[1] + slot[0]       ; __t0
slot[3] = y                       ; input
slot[4] = 2.0                     ; constant
slot[5] = slot[3] - slot[4]       ; __t1
slot[6] = slot[2] * slot[5]       ; output"""


def test_two_op_disassembly_golden():
    prog = compile_source(TWO_OP_SRC, inputs=("x", "y"))
    assert disassemble(prog) == TWO_OP_DISASSEMBLY
    assert prog.slot_count == 7


LOOP_SUM_SRC = "(loop ((i 0) (acc 0)) (if (< i n) (recur (+ i 1) (+ acc i)) acc))"

# The body numbers its own slots: i, acc, then the captured n.
LOOP_SUM_DISASSEMBLY = """\
slot[0] = 0.0                     ; constant
slot[1] = n                       ; input
slot[2] = loop(slot[0], slot[0], slot[1]); output
  ; vars slot[0], slot[1]; captures slot[2]
  slot[3] = <(slot[0], slot[2])
  if slot[3]:
    slot[4] = 1.0
    slot[5] = slot[0] + slot[4]
    slot[6] = slot[1] + slot[0]
    recur slot[5], slot[6]
  else:
    return slot[1]"""


def test_loop_sum_disassembly_lists_the_body_golden():
    assert disassemble(compile_source(LOOP_SUM_SRC, inputs=("n",))) == LOOP_SUM_DISASSEMBLY


def test_two_op_graph_has_seven_nodes_in_order():
    anf = lower_tail_calls(to_anf(parse(TWO_OP_SRC)))
    graph = build_graph(anf, ("x", "y"), ())
    kinds = [(n.kind, n.aux if n.kind in ("const", "input") else n.op)
             for n in graph.nodes]
    assert kinds == [
        ("const", 1.0), ("input", "x"), ("prim", "+"),
        ("input", "y"), ("const", 2.0), ("prim", "-"), ("prim", "*"),
    ]


def test_toposort_order_and_determinism():
    anf = lower_tail_calls(to_anf(parse(TWO_OP_SRC)))
    graph = build_graph(anf, ("x", "y"), ())
    order = [n.id for n in toposort(graph)]
    assert order == list(range(7))
    assert order == [n.id for n in toposort(graph)]


def test_toposort_single_const():
    graph = build_graph(lower_tail_calls(to_anf(parse("42"))), (), ())
    assert [n.kind for n in toposort(graph)] == ["const"]


def test_toposort_diamond():
    graph = build_graph(lower_tail_calls(to_anf(parse("(* (+ x x) (- x 1))"))), ("x",), ())
    order = toposort(graph)
    pos = {n.id: i for i, n in enumerate(order)}
    x_node = next(n for n in graph.nodes if n.kind == "input")
    for n in graph.nodes:
        for o in n.operands:
            assert pos[o] < pos[n.id]
    assert any(x_node.id in n.operands for n in graph.nodes if n.kind == "prim")


def test_cycle_detected_defensively():
    graph = ComputeGraph(
        nodes=[Node(0, "prim", "+", (1,)), Node(1, "prim", "+", (0,))],
        output=0, input_slots={}, param_slots={}, functions=[], block=BlockIR((), ("exit", 0)),
    )
    with pytest.raises(CycleDetected):
        toposort(graph)


def test_node_count_goldens_table():
    expected = {
        "planck": 3, "hooke": 5, "kinetic": 6, "gravity": 8, "ideal_gas": 5,
        "pendulum_period": 6, "heat_energy": 5, "coulomb": 8, "gaussian": 15,
        "rel_energy": 14, "sound": 7, "barometric": 14, "efield": 6,
        "oscillator": 8, "lorentz": 10,
    }
    for eid, eq in FEYNMAN.items():
        prog = compile_source(eq.source, inputs=eq.inputs,
                              params=tuple(eq.params) + tuple(eq.frozen))
        assert prog.node_count == expected[eid], eid
        assert eq.nodes == expected[eid]


def test_gravity_graph_example():
    prog = compile_source("(/ (* G (* m1 m2)) (pow r 2))",
                          inputs=("m1", "m2", "r"), params=("G",))
    assert prog.node_count == 8
    assert prog.num_params == 1


def test_planck_has_one_param_slot():
    prog = compile_source("(* h f)", inputs=("f",), params=("h",))
    assert list(prog.param_slots) == ["h"]
    assert prog.node_count == 3


def test_heat_step_output_shape_matches_u():
    prog = compile_source("(+ u (scale (* dt alpha) (matvec L u)))",
                          inputs=("u", "L", "dt"), params=("alpha",))
    store = {"alpha": Value.scalar(0.01)}
    L = np.diag(-2.0 * np.ones(10)) + np.diag(np.ones(9), 1) + np.diag(np.ones(9), -1)
    u = Value.vector(np.zeros(10))
    out = eval_program(prog, {"u": u, "L": Value.matrix(L), "dt": 0.1}, store)
    assert out.kind == "vector" and out.data.shape == (10,)
    assert np.array_equal(out.data, np.zeros(10))  # zero fixed point


def test_identity_program():
    prog = compile_source("x", inputs=("x",))
    assert eval_program(prog, {"x": 3.5}).item() == 3.5


def test_constants_dedupe_by_bit_value():
    prog = compile_source("(+ (* x 2) (/ x 2))", inputs=("x",))
    consts = [i for i in prog.block.instrs if i[0] == "const"]
    assert len(consts) == 1


def test_pow_constant_exponent_folds_to_immediate():
    prog = compile_source("(pow r 2)", inputs=("r",))
    assert prog.node_count == 2
    prims = [i for i in prog.block.instrs if i[0] == "prim"]
    assert prims[0][2] == "pow" and prims[0][4] == 2.0
    # variable exponent stays a two-operand instruction
    prog2 = compile_source("(pow r e)", inputs=("r", "e"))
    assert prog2.node_count == 3


def test_unbound_variable_reported():
    with pytest.raises(UnboundVariable):
        compile_source("(+ x q)", inputs=("x",))


def test_freeze_property_identical_bits():
    prog = compile_source("(/ (exp (sin x)) (+ (cos x) 2))", inputs=("x",))
    x = Value.batch_scalars(np.linspace(-2, 2, 101))
    a = eval_program(prog, {"x": x})
    b = eval_program(prog, {"x": x})
    assert bit_equal(a, b)


def test_compile_time_under_10ms():
    from schemegrad.experiments.registry import FEYNMAN

    worst = 0.0
    for eq in FEYNMAN.values():
        prog = compile_source(eq.source, inputs=eq.inputs,
                              params=tuple(eq.params) + tuple(eq.frozen))
        worst = max(worst, prog.compile_seconds)
    assert worst < 0.010


def test_select_lowering_value_context():
    prog = compile_source("(if (> x 0) x (- 0 x))", inputs=("x",))
    assert eval_program(prog, {"x": -3.0}).item() == 3.0
    batched = Value.batch_scalars(np.array([-3.0, 4.0]))
    assert np.array_equal(eval_program(prog, {"x": batched}).data, [3.0, 4.0])


def test_lazy_branch_in_loop_tail_terminates():
    # the recur branch must not evaluate when the guard fails at n=0
    src = ("(loop ((n 5) (acc 1))"
           " (if (> n 0) (recur (- n 1) (* acc n)) acc))")
    prog = compile_source(src)
    assert eval_program(prog, {}).item() == 120.0


def test_disassembly_shows_pow_immediate():
    prog = compile_source("(pow r 2)", inputs=("r",))
    assert "pow(slot[0], 2.0)" in disassemble(prog)

import numpy as np

from schemegrad.anf import (
    AnfProgram,
    LoopApp,
    PrimApp,
    Return,
    SelectApp,
    TailIf,
    count_bindings,
    fresh_temp,
    to_anf,
)
from schemegrad.interpreter import interpret_ast
from schemegrad.sexpr import Const, If, Let, Letrec, Loop, Prim, Var, parse
from schemegrad.values import bit_equal

from corpus import CORPUS


def _subtrees(node) -> tuple:
    if isinstance(node, (Const, Var)):
        return ()
    if isinstance(node, If):
        return (node.cond, node.then, node.orelse)
    if isinstance(node, (Let, Loop)):
        pairs = node.bindings if isinstance(node, Let) else node.vars
        return tuple(e for _, e in pairs) + (node.body,)
    if isinstance(node, Letrec):
        return (node.fnbody, node.body)
    return node.args  # Prim, Recur, Call


def count_ast_nodes(ast) -> int:
    return 1 + sum(count_ast_nodes(t) for t in _subtrees(ast))


def count_prim_nodes(ast) -> int:
    return isinstance(ast, Prim) + sum(count_prim_nodes(t) for t in _subtrees(ast))


def count_prim_bindings(prog: AnfProgram) -> int:
    bodies = [fn.body for fn in prog.functions]
    if isinstance(prog.tail, TailIf):
        bodies += [prog.tail.then, prog.tail.orelse]
    total = 0
    for _, rhs in prog.bindings:
        total += isinstance(rhs, PrimApp)
        bodies += [rhs.then, rhs.orelse] if isinstance(rhs, SelectApp) else []
        bodies += [rhs.body] if isinstance(rhs, LoopApp) else []
    return total + sum(count_prim_bindings(b) for b in bodies)


def test_fresh_temp_format_and_freshness():
    assert fresh_temp(0) == "__t0"
    assert fresh_temp(1) == "__t1"
    assert fresh_temp(3) != fresh_temp(4)


def test_two_op_anf_structure():
    anf = to_anf(parse("(* (+ x 1) (- y 2))"))
    assert [name for name, _ in anf.bindings] == ["__t0", "__t1", "__t2"]
    assert anf.bindings[0][1] == PrimApp("+", (Var("x"), Const(1.0)))
    assert anf.bindings[1][1] == PrimApp("-", (Var("y"), Const(2.0)))
    assert anf.bindings[2][1] == PrimApp("*", (Var("__t0"), Var("__t1")))
    assert anf.tail == Return(Var("__t2"))


def test_trivial_program_has_no_bindings():
    anf = to_anf(parse("x"))
    assert anf.bindings == ()
    assert anf.tail == Return(Var("x"))


def test_nested_unary_chain():
    anf = to_anf(parse("(sin (cos z))"))
    assert [rhs.op for _, rhs in anf.bindings] == ["cos", "sin"]
    # oracle: interpreter equality at a few points
    ast = parse("(sin (cos z))")
    for z in (0.0, 1.0, -2.0):
        direct = interpret_ast(ast, {"z": z})
        assert float(direct.data) == np.sin(np.cos(z))


def test_prim_binding_count_matches_prim_nodes():
    for prog in CORPUS:
        if prog.has_loops:
            continue
        ast = parse(prog.source)
        anf = to_anf(ast)
        assert count_prim_bindings(anf) == count_prim_nodes(ast), prog.id


def test_linear_size():
    for prog in CORPUS:
        ast = parse(prog.source)
        anf = to_anf(ast)
        assert count_bindings(anf) <= count_ast_nodes(ast), prog.id


def _prim_to_ast(rhs: PrimApp):
    from schemegrad.sexpr import Prim

    return Prim(rhs.op, rhs.args)


def _anf_to_ast(anf: AnfProgram):
    """Rebuild a nested-let parse tree from straight-line ANF (test helper
    for the idempotence property)."""
    assert isinstance(anf.tail, Return)
    node = anf.tail.value
    for name, rhs in reversed(anf.bindings):
        assert isinstance(rhs, PrimApp)
        node = Let(((name, _prim_to_ast(rhs)),), node)
    return node


def test_idempotence_zero_new_bindings():
    for src in ["(* (+ x 1) (- y 2))", "(sin (cos z))", "(+ (* a b) (/ a b))"]:
        first = to_anf(parse(src))
        again = to_anf(_anf_to_ast(first))
        assert count_bindings(again) == count_bindings(first)


def test_user_let_names_alias_resolved():
    anf = to_anf(parse("(let ((a (+ x 1))) (* a a))"))
    # one binding for (+ x 1), one for the product; no copy binding for `a`
    assert len(anf.bindings) == 2
    assert anf.bindings[1][1] == PrimApp("*", (Var("__t0"), Var("__t0")))


def test_semantic_preservation_via_interpreter():
    # evaluating the rebuilt nested-let AST equals the original program
    rng = np.random.default_rng(0)
    for src, names in [
        ("(* (+ x 1) (- y 2))", ("x", "y")),
        ("(+ (* a b) (/ a (+ b 3)))", ("a", "b")),
    ]:
        ast = parse(src)
        rebuilt = _anf_to_ast(to_anf(ast))
        for _ in range(10):
            env = {n: rng.uniform(0.5, 2.0) for n in names}
            assert bit_equal(interpret_ast(ast, env), interpret_ast(rebuilt, env))

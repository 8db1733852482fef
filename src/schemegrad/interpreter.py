"""Reference tree-walking interpreter.

Evaluates the parse tree directly with the same primitive semantics and
domain rule as the compiled path; used as the independent oracle for
compiled evaluation.  It recurses in Python once per call, so past Python's
recursion limit (below the compiled depth limit) it raises `EvalError`.
"""

from __future__ import annotations

from .compiler import DEFAULT_MAX_DEPTH
from .errors import DepthLimitExceeded, EvalError
from .ops import OPS
from .runtime import (ERROR_POLICY, PROPAGATE_POLICY, SafeDomainPolicy, Violations,
                      apply_primitive, pow_immediate, select)
from .sexpr import Call, Const, If, Let, Letrec, Loop, Node, Prim, Recur, Var
from .values import Value


class _RecurSignal(Exception):
    def __init__(self, args):
        self.args_values = args


class _Closure:
    __slots__ = ("params", "body", "env", "fns", "name")

    def __init__(self, name, params, body, env, fns):
        self.name = name
        self.params = params
        self.body = body
        self.env = env
        self.fns = fns


def interpret_ast(
    ast: Node,
    env: dict[str, Value],
    policy: SafeDomainPolicy = ERROR_POLICY,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Value:
    env = {k: Value.of(v) for k, v in env.items()}
    state = {"depth": 0}
    violations = Violations() if policy.raises else None

    def ev(node: Node, scope: dict, fns: dict) -> Value:
        if isinstance(node, Const):
            return Value.scalar(node.value)
        if isinstance(node, Var):
            try:
                return scope[node.name]
            except KeyError:
                raise EvalError(f"unbound variable {node.name!r}") from None
        if isinstance(node, Prim):
            row = OPS[node.op]
            if node.op == "pow" and isinstance(node.args[1], Const):
                base = ev(node.args[0], scope, fns)
                out = pow_immediate(base, node.args[1].value, PROPAGATE_POLICY)
            else:
                args = [ev(a, scope, fns) for a in node.args]
                out = apply_primitive(node.op, args, policy if row.eager else PROPAGATE_POLICY)
            if violations is not None and row.partial:
                violations.check(node.op, None, out)
            return out
        if isinstance(node, If):
            cond = ev(node.cond, scope, fns)
            if cond.kind == "scalar" and not cond.batched:
                branch = node.then if float(cond.data) != 0.0 else node.orelse
                return ev(branch, scope, fns)
            try:
                then = ev(node.then, scope, fns)
                orelse = ev(node.orelse, scope, fns)
            except _RecurSignal:
                raise EvalError(
                    "recur cannot be guarded by a batched or non-scalar condition"
                ) from None
            return select(cond, then, orelse)
        if isinstance(node, Let):
            inner = dict(scope)
            for name, expr in node.bindings:
                inner[name] = ev(expr, inner, fns)
            return ev(node.body, inner, fns)
        if isinstance(node, Loop):
            # every initial value is read in the enclosing scope
            inner = dict(scope)
            for name, expr in node.vars:
                inner[name] = ev(expr, scope, fns)
            names = [name for name, _ in node.vars]
            while True:
                try:
                    return ev(node.body, inner, fns)
                except _RecurSignal as sig:
                    for name, v in zip(names, sig.args_values):
                        inner[name] = v
        if isinstance(node, Recur):
            args = [ev(a, scope, fns) for a in node.args]
            raise _RecurSignal(args)
        if isinstance(node, Letrec):
            closure = _Closure(node.name, node.params, node.fnbody, scope, None)
            inner_fns = dict(fns)
            inner_fns[node.name] = closure
            closure.fns = inner_fns
            return ev(node.body, scope, inner_fns)
        if isinstance(node, Call):
            try:
                closure = fns[node.name]
            except KeyError:
                raise EvalError(f"call to undefined function {node.name!r}") from None
            args = [ev(a, scope, fns) for a in node.args]
            if state["depth"] >= max_depth:
                raise DepthLimitExceeded(node.name, max_depth)
            state["depth"] += 1
            try:
                call_scope = dict(closure.env)
                for name, v in zip(closure.params, args):
                    call_scope[name] = v
                return ev(closure.body, call_scope, closure.fns)
            finally:
                state["depth"] -= 1
        raise TypeError(f"not an AST node: {node!r}")

    try:
        out = ev(ast, env, {})
    except RecursionError:
        raise EvalError("reference interpreter: call nesting exceeds Python's "
                        "recursion limit") from None
    if violations is not None:
        violations.finalize(out, None)
    return out

"""A-normal form: every operation argument is a constant or a variable.

Compound subexpressions are let-bound to fresh ``__t<N>`` temporaries, one
binding per operation, which gives the graph builder its one-node-per-binding
correspondence.  Conditional branches stay as nested programs so the
compiler can choose eager (select) or lazy lowering; loop and function
bodies are nested programs with explicit tails.  A function's call to
itself in tail position is a ``TailRecur``, as a loop's ``recur`` is: the
executor runs both as a jump back to the start of the body.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sexpr import Call, Const, If, Let, Letrec, Loop, Node, Prim, Recur, Var


def fresh_temp(counter: int) -> str:
    """Temp name for a given counter value; '__' is reserved so these can
    never collide with user symbols."""
    return f"__t{counter}"


# ---------------------------------------------------------------------------
# ANF structures


@dataclass(frozen=True)
class PrimApp:
    op: str
    args: tuple  # trivials (Const | Var)


@dataclass(frozen=True)
class SelectApp:
    cond: object  # trivial
    then: "AnfProgram"
    orelse: "AnfProgram"


@dataclass(frozen=True)
class LoopApp:
    loop_vars: tuple  # of (name, trivial)
    body: "AnfProgram"


@dataclass(frozen=True)
class CallApp:
    fn: str  # unique function id
    args: tuple


@dataclass(frozen=True)
class Return:
    value: object  # trivial


@dataclass(frozen=True)
class TailRecur:
    args: tuple


@dataclass(frozen=True)
class TailIf:
    cond: object
    then: "AnfProgram"
    orelse: "AnfProgram"


@dataclass
class AnfFunction:
    uid: str
    user_name: str
    params: tuple  # freshened parameter names
    body: "AnfProgram"


@dataclass
class AnfProgram:
    bindings: tuple  # of (temp name, rhs)
    tail: object
    functions: tuple = ()  # populated on the top-level program only


# ---------------------------------------------------------------------------
# the transform


class _Ctx:
    def __init__(self):
        self.temp_counter = 0
        self.var_counter = 0
        self.fn_counter = 0
        self.functions: list[AnfFunction] = []

    def temp(self) -> str:
        name = fresh_temp(self.temp_counter)
        self.temp_counter += 1
        return name

    def var(self, user: str) -> str:
        name = f"__v{self.var_counter}_{user}"
        self.var_counter += 1
        return name

    def fn_uid(self, user: str) -> str:
        uid = f"__f{self.fn_counter}_{user}"
        self.fn_counter += 1
        return uid


class _Builder:
    def __init__(self, ctx: _Ctx):
        self.ctx = ctx
        self.bindings: list = []

    def emit(self, rhs) -> Var:
        name = self.ctx.temp()
        self.bindings.append((name, rhs))
        return Var(name)


def _norm(node: Node, scope: dict, fns: dict, b: _Builder, ctx: _Ctx):
    """Normalize in value context; returns a trivial."""
    if isinstance(node, Const):
        return Const(node.value)
    if isinstance(node, Var):  # a name bound outside the program is itself
        return scope.get(node.name) or Var(node.name)
    if isinstance(node, Prim):
        args = tuple(_norm(a, scope, fns, b, ctx) for a in node.args)
        return b.emit(PrimApp(node.op, args))
    if isinstance(node, If):
        cond = _norm(node.cond, scope, fns, b, ctx)
        then = _norm_body(node.then, scope, fns, ctx, lazy=False)
        orelse = _norm_body(node.orelse, scope, fns, ctx, lazy=False)
        return b.emit(SelectApp(cond, then, orelse))
    if isinstance(node, Let):
        inner = dict(scope)
        for name, expr in node.bindings:
            inner[name] = _norm(expr, inner, fns, b, ctx)  # alias, no copy binding
        return _norm(node.body, inner, fns, b, ctx)
    if isinstance(node, Loop):
        inner = dict(scope)
        lvars = []
        for name, expr in node.vars:
            init = _norm(expr, scope, fns, b, ctx)  # initial values see the enclosing scope
            fresh = ctx.var(name)
            inner[name] = Var(fresh)
            lvars.append((fresh, init))
        body = _norm_body(node.body, inner, fns, ctx, lazy=True)
        return b.emit(LoopApp(tuple(lvars), body))
    if isinstance(node, Letrec):
        uid = _hoist_function(node, scope, fns, ctx)
        inner_fns = dict(fns)
        inner_fns[node.name] = uid
        return _norm(node.body, scope, inner_fns, b, ctx)
    if isinstance(node, Call):
        args = tuple(_norm(a, scope, fns, b, ctx) for a in node.args)
        return b.emit(CallApp(fns[node.name], args))
    if isinstance(node, Recur):
        raise AssertionError("recur outside tail position survived parsing")
    raise TypeError(f"not an AST node: {node!r}")


def _hoist_function(node: Letrec, scope: dict, fns: dict, ctx: _Ctx) -> str:
    uid = ctx.fn_uid(node.name)
    fresh_params = tuple(ctx.var(p) for p in node.params)
    fn_scope = dict(scope)
    for user, fresh in zip(node.params, fresh_params):
        fn_scope[user] = Var(fresh)
    fn_fns = dict(fns)
    fn_fns[node.name] = uid
    body = _norm_body(node.fnbody, fn_scope, fn_fns, ctx, lazy=True, self_uid=uid)
    ctx.functions.append(AnfFunction(uid, node.name, fresh_params, body))
    return uid


def _norm_body(node: Node, scope: dict, fns: dict, ctx: _Ctx, lazy: bool,
               self_uid: str | None = None) -> AnfProgram:
    b = _Builder(ctx)
    tail = _norm_tail(node, scope, fns, b, ctx, lazy, self_uid)
    return AnfProgram(tuple(b.bindings), tail)


def _norm_tail(node: Node, scope: dict, fns: dict, b: _Builder, ctx: _Ctx, lazy: bool,
               self_uid: str | None = None):
    """Normalize in tail position.  ``self_uid`` is the function whose body
    this tail ends, if any: a call to it here is a jump back to the body's
    start with new arguments, so it becomes a ``TailRecur``."""
    if isinstance(node, Recur):
        args = tuple(_norm(a, scope, fns, b, ctx) for a in node.args)
        return TailRecur(args)
    if isinstance(node, Let):
        inner = dict(scope)
        for name, expr in node.bindings:
            inner[name] = _norm(expr, inner, fns, b, ctx)
        return _norm_tail(node.body, inner, fns, b, ctx, lazy, self_uid)
    if isinstance(node, Letrec):
        uid = _hoist_function(node, scope, fns, ctx)
        inner_fns = dict(fns)
        inner_fns[node.name] = uid
        return _norm_tail(node.body, scope, inner_fns, b, ctx, lazy, self_uid)
    if lazy and isinstance(node, If):
        cond = _norm(node.cond, scope, fns, b, ctx)
        then = _norm_body(node.then, scope, fns, ctx, lazy=True, self_uid=self_uid)
        orelse = _norm_body(node.orelse, scope, fns, ctx, lazy=True, self_uid=self_uid)
        return TailIf(cond, then, orelse)
    if isinstance(node, Call) and fns[node.name] == self_uid:
        return TailRecur(tuple(_norm(a, scope, fns, b, ctx) for a in node.args))
    value = _norm(node, scope, fns, b, ctx)
    return Return(value)


def to_anf(ast: Node) -> AnfProgram:
    """Flatten a parse tree to A-normal form."""
    ctx = _Ctx()
    prog = _norm_body(ast, {}, {}, ctx, lazy=False)
    return AnfProgram(prog.bindings, prog.tail, tuple(ctx.functions))


# ---------------------------------------------------------------------------
# name and counting helpers


def names_in_program(prog: AnfProgram):
    """(used, bound, called) name sets over a program, descending into
    nested branch/loop bodies.  Names are globally unique, so flat sets
    suffice."""
    used: set[str] = set()
    bound: set[str] = set()
    called: set[str] = set()

    def triv(t):
        if isinstance(t, Var):
            used.add(t.name)

    def scan(p: AnfProgram):
        for name, rhs in p.bindings:
            bound.add(name)
            if isinstance(rhs, PrimApp):
                for a in rhs.args:
                    triv(a)
            elif isinstance(rhs, SelectApp):
                triv(rhs.cond)
                scan(rhs.then)
                scan(rhs.orelse)
            elif isinstance(rhs, LoopApp):
                for vname, t in rhs.loop_vars:
                    bound.add(vname)
                    triv(t)
                scan(rhs.body)
            elif isinstance(rhs, CallApp):
                called.add(rhs.fn)
                for a in rhs.args:
                    triv(a)
        tail = p.tail
        if isinstance(tail, Return):
            triv(tail.value)
        elif isinstance(tail, TailRecur):
            for a in tail.args:
                triv(a)
        elif isinstance(tail, TailIf):
            triv(tail.cond)
            scan(tail.then)
            scan(tail.orelse)

    scan(prog)
    return used, bound, called


def count_bindings(prog: AnfProgram) -> int:
    total = len(prog.bindings)
    for _, rhs in prog.bindings:
        if isinstance(rhs, SelectApp):
            total += count_bindings(rhs.then) + count_bindings(rhs.orelse)
        elif isinstance(rhs, LoopApp):
            total += count_bindings(rhs.body)
    if isinstance(prog.tail, TailIf):
        total += count_bindings(prog.tail.then) + count_bindings(prog.tail.orelse)
    for fn in prog.functions:
        total += count_bindings(fn.body)
    return total

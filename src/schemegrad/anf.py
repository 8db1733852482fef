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

from dataclasses import dataclass, field

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
    scope_map: dict = field(default_factory=dict)  # user name -> trivial


# ---------------------------------------------------------------------------
# the transform


class _Ctx:
    def __init__(self):
        self.temp_counter = 0
        self.var_counter = 0
        self.fn_counter = 0
        self.functions: list[AnfFunction] = []
        self.scope_map: dict[str, str] = {}

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


def _trivial(node) -> bool:
    return isinstance(node, (Const, Var))


def _norm(node: Node, scope: dict, fns: dict, b: _Builder, ctx: _Ctx):
    """Normalize in value context; returns a trivial."""
    if isinstance(node, Const):
        return Const(node.value)
    if isinstance(node, Var):
        return scope[node.name]
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
            tv = _norm(expr, inner, fns, b, ctx)
            inner[name] = tv  # alias, no copy binding
            ctx.scope_map.setdefault(name, tv.name if isinstance(tv, Var) else repr(tv.value))
        return _norm(node.body, inner, fns, b, ctx)
    if isinstance(node, Loop):
        inner = dict(scope)
        lvars = []
        for name, expr in node.vars:
            init = _norm(expr, inner, fns, b, ctx)
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
            tv = _norm(expr, inner, fns, b, ctx)
            inner[name] = tv
            ctx.scope_map.setdefault(name, tv.name if isinstance(tv, Var) else repr(tv.value))
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
    scope = {name: Var(name) for name in _free_names(ast)}
    prog = _norm_body(ast, scope, {}, ctx, lazy=False)
    return AnfProgram(prog.bindings, prog.tail, tuple(ctx.functions), ctx.scope_map)


def _free_names(ast: Node) -> set[str]:
    free: set[str] = set()

    def walk(node, bound):
        if isinstance(node, Var):
            if node.name not in bound:
                free.add(node.name)
        elif isinstance(node, Const):
            pass
        elif isinstance(node, Prim):
            for a in node.args:
                walk(a, bound)
        elif isinstance(node, If):
            walk(node.cond, bound)
            walk(node.then, bound)
            walk(node.orelse, bound)
        elif isinstance(node, Let):
            inner = set(bound)
            for name, expr in node.bindings:
                walk(expr, inner)
                inner.add(name)
            walk(node.body, inner)
        elif isinstance(node, Loop):
            inner = set(bound)
            for name, expr in node.vars:
                walk(expr, bound)
                inner.add(name)
            walk(node.body, inner)
        elif isinstance(node, (Recur, Call)):
            for a in node.args:
                walk(a, bound)
        elif isinstance(node, Letrec):
            walk(node.fnbody, bound | set(node.params))
            walk(node.body, bound)
        else:
            raise TypeError(f"not an AST node: {node!r}")

    walk(ast, set())
    return free


# ---------------------------------------------------------------------------
# name and counting helpers


def count_prim_nodes(ast: Node) -> int:
    if isinstance(ast, (Const, Var)):
        return 0
    if isinstance(ast, Prim):
        return 1 + sum(count_prim_nodes(a) for a in ast.args)
    if isinstance(ast, If):
        return sum(count_prim_nodes(x) for x in (ast.cond, ast.then, ast.orelse))
    if isinstance(ast, Let):
        return sum(count_prim_nodes(e) for _, e in ast.bindings) + count_prim_nodes(ast.body)
    if isinstance(ast, Loop):
        return sum(count_prim_nodes(e) for _, e in ast.vars) + count_prim_nodes(ast.body)
    if isinstance(ast, (Recur, Call)):
        return sum(count_prim_nodes(a) for a in ast.args)
    if isinstance(ast, Letrec):
        return count_prim_nodes(ast.fnbody) + count_prim_nodes(ast.body)
    raise TypeError(f"not an AST node: {ast!r}")


def count_ast_nodes(ast: Node) -> int:
    if isinstance(ast, (Const, Var)):
        return 1
    if isinstance(ast, Prim):
        return 1 + sum(count_ast_nodes(a) for a in ast.args)
    if isinstance(ast, If):
        return 1 + sum(count_ast_nodes(x) for x in (ast.cond, ast.then, ast.orelse))
    if isinstance(ast, Let):
        return 1 + sum(count_ast_nodes(e) for _, e in ast.bindings) + count_ast_nodes(ast.body)
    if isinstance(ast, Loop):
        return 1 + sum(count_ast_nodes(e) for _, e in ast.vars) + count_ast_nodes(ast.body)
    if isinstance(ast, (Recur, Call)):
        return 1 + sum(count_ast_nodes(a) for a in ast.args)
    if isinstance(ast, Letrec):
        return 1 + count_ast_nodes(ast.fnbody) + count_ast_nodes(ast.body)
    raise TypeError(f"not an AST node: {ast!r}")


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


def count_prim_bindings(prog: AnfProgram) -> int:
    total = 0
    for _, rhs in prog.bindings:
        if isinstance(rhs, PrimApp):
            total += 1
        elif isinstance(rhs, SelectApp):
            total += count_prim_bindings(rhs.then) + count_prim_bindings(rhs.orelse)
        elif isinstance(rhs, LoopApp):
            total += count_prim_bindings(rhs.body)
    if isinstance(prog.tail, TailIf):
        total += count_prim_bindings(prog.tail.then) + count_prim_bindings(prog.tail.orelse)
    for fn in prog.functions:
        total += count_prim_bindings(fn.body)
    return total


# ---------------------------------------------------------------------------
# debug text form (nested lets)


def _triv_text(t) -> str:
    if isinstance(t, Const):
        v = t.value
        return repr(v)
    return t.name


def _rhs_text(rhs) -> str:
    if isinstance(rhs, PrimApp):
        return "(" + " ".join([rhs.op] + [_triv_text(a) for a in rhs.args]) + ")"
    if isinstance(rhs, SelectApp):
        return f"(if {_triv_text(rhs.cond)} {anf_to_text(rhs.then)} {anf_to_text(rhs.orelse)})"
    if isinstance(rhs, LoopApp):
        bs = " ".join(f"({n} {_triv_text(t)})" for n, t in rhs.loop_vars)
        return f"(loop ({bs}) {anf_to_text(rhs.body)})"
    if isinstance(rhs, CallApp):
        return "(" + " ".join(["call", rhs.fn] + [_triv_text(a) for a in rhs.args]) + ")"
    raise TypeError(f"not an ANF rhs: {rhs!r}")


def _tail_text(tail) -> str:
    if isinstance(tail, Return):
        return _triv_text(tail.value)
    if isinstance(tail, TailRecur):
        return "(" + " ".join(["recur"] + [_triv_text(a) for a in tail.args]) + ")"
    if isinstance(tail, TailIf):
        return f"(if {_triv_text(tail.cond)} {anf_to_text(tail.then)} {anf_to_text(tail.orelse)})"
    raise TypeError(f"not an ANF tail: {tail!r}")


def anf_to_text(prog: AnfProgram) -> str:
    """Nested-let text form; the final binding is inlined as the body when
    it directly feeds the result."""
    bindings = list(prog.bindings)
    if (
        bindings
        and isinstance(prog.tail, Return)
        and isinstance(prog.tail.value, Var)
        and prog.tail.value.name == bindings[-1][0]
        and not _temp_used_elsewhere(prog, bindings[-1][0])
    ):
        name, rhs = bindings.pop()
        body = _rhs_text(rhs)
    else:
        body = _tail_text(prog.tail)
    for name, rhs in reversed(bindings):
        body = f"(let (({name} {_rhs_text(rhs)})) {body})"
    return body


def _temp_used_elsewhere(prog: AnfProgram, temp: str) -> bool:
    def in_trivs(args):
        return any(isinstance(a, Var) and a.name == temp for a in args)

    for _, rhs in prog.bindings:
        if isinstance(rhs, PrimApp) and in_trivs(rhs.args):
            return True
        if isinstance(rhs, SelectApp) and isinstance(rhs.cond, Var) and rhs.cond.name == temp:
            return True
        if isinstance(rhs, LoopApp) and in_trivs([t for _, t in rhs.loop_vars]):
            return True
        if isinstance(rhs, CallApp) and in_trivs(rhs.args):
            return True
    return False

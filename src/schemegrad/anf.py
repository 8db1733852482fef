"""A-normal form: every operation argument is a constant or a variable.

Compound subexpressions are let-bound to fresh ``__t<N>`` temporaries, one
binding per operation, which gives the graph builder its one-node-per-binding
correspondence.  Conditional branches stay as nested programs so the
compiler can choose eager (select) or lazy lowering; loop and function
bodies are nested programs with explicit tails.  A function's call to
itself in tail position is a ``TailRecur``, as a loop's ``recur`` is: the
executor runs both as a jump back to the start of the body.

ANF nodes are slotted dataclasses, like the AST's (see ``sexpr``): they are
not frozen, which would make them over twice as costly to build, but no
phase assigns to one after building it, since equality and hashing read its
fields.  The trivials are ``Const`` and ``Var`` nodes, often the parse
tree's own.
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

_anf_node = dataclass(slots=True, unsafe_hash=True)


@_anf_node
class PrimApp:
    op: str
    args: tuple  # trivials (Const | Var)


@_anf_node
class SelectApp:
    cond: object  # trivial
    then: "AnfProgram"
    orelse: "AnfProgram"


@_anf_node
class LoopApp:
    loop_vars: tuple  # of (name, trivial)
    body: "AnfProgram"


@_anf_node
class CallApp:
    fn: str  # unique function id
    args: tuple


@_anf_node
class Return:
    value: object  # trivial


@_anf_node
class TailRecur:
    args: tuple


@_anf_node
class TailIf:
    cond: object
    then: "AnfProgram"
    orelse: "AnfProgram"


@dataclass(slots=True)
class AnfFunction:
    uid: str
    user_name: str
    params: tuple  # freshened parameter names
    body: "AnfProgram"


@dataclass(slots=True)
class AnfProgram:
    bindings: tuple  # of (temp name, rhs)
    tail: object
    functions: tuple = ()  # populated on the top-level program only


# ---------------------------------------------------------------------------
# the transform
#
# ``scope`` maps a source name to the trivial that holds its value, ``fns``
# a function's source name to its unique id, and ``out`` is the binding list
# of the program being built.


class _Normalizer:
    """Fresh-name counters and the hoisted functions of one transform."""

    def __init__(self):
        self.temp_counter = 0
        self.var_counter = 0
        self.fn_counter = 0
        self.functions: list[AnfFunction] = []

    def fresh_var(self, user: str) -> str:
        name = f"__v{self.var_counter}_{user}"
        self.var_counter += 1
        return name

    def emit(self, rhs, out: list) -> Var:
        name = fresh_temp(self.temp_counter)
        self.temp_counter += 1
        out.append((name, rhs))
        return Var(name)

    def value(self, node: Node, scope: dict, fns: dict, out: list):
        """Normalize in value context; returns a trivial."""
        cls = node.__class__
        if cls is Var:  # a name bound outside the program is itself
            return scope.get(node.name, node)
        if cls is Const:
            return node
        if cls is Prim:
            args = []
            for a in node.args:
                kind = a.__class__
                if kind is Var:
                    a = scope.get(a.name, a)
                elif kind is not Const:
                    a = self.value(a, scope, fns, out)
                args.append(a)
            return self.emit(PrimApp(node.op, tuple(args)), out)
        if cls is If:
            cond = self.value(node.cond, scope, fns, out)
            then = self.body(node.then, scope, fns, lazy=False)
            orelse = self.body(node.orelse, scope, fns, lazy=False)
            return self.emit(SelectApp(cond, then, orelse), out)
        if cls is Let:
            inner = dict(scope)
            for name, expr in node.bindings:
                inner[name] = self.value(expr, inner, fns, out)  # alias, no copy binding
            return self.value(node.body, inner, fns, out)
        if cls is Loop:
            inner = dict(scope)
            lvars = []
            for name, expr in node.vars:
                init = self.value(expr, scope, fns, out)  # initial values see the enclosing scope
                fresh = self.fresh_var(name)
                inner[name] = Var(fresh)
                lvars.append((fresh, init))
            body = self.body(node.body, inner, fns, lazy=True)
            return self.emit(LoopApp(tuple(lvars), body), out)
        if cls is Letrec:
            return self.value(node.body, scope, self.hoist(node, scope, fns), out)
        if cls is Call:
            args = tuple([self.value(a, scope, fns, out) for a in node.args])
            return self.emit(CallApp(fns[node.name], args), out)
        if cls is Recur:
            raise AssertionError("recur outside tail position survived parsing")
        raise TypeError(f"not an AST node: {node!r}")

    def hoist(self, node: Letrec, scope: dict, fns: dict) -> dict:
        """Lift a letrec function to the top level; returns ``fns`` with its
        name bound."""
        uid = f"__f{self.fn_counter}_{node.name}"
        self.fn_counter += 1
        fresh_params = tuple([self.fresh_var(p) for p in node.params])
        fn_scope = dict(scope)
        for user, fresh in zip(node.params, fresh_params):
            fn_scope[user] = Var(fresh)
        inner_fns = dict(fns)
        inner_fns[node.name] = uid
        body = self.body(node.fnbody, fn_scope, inner_fns, lazy=True, self_uid=uid)
        self.functions.append(AnfFunction(uid, node.name, fresh_params, body))
        return inner_fns

    def body(self, node: Node, scope: dict, fns: dict, lazy: bool,
             self_uid: str | None = None) -> AnfProgram:
        out = []
        tail = self.tail(node, scope, fns, out, lazy, self_uid)
        return AnfProgram(tuple(out), tail)

    def tail(self, node: Node, scope: dict, fns: dict, out: list, lazy: bool,
             self_uid: str | None):
        """Normalize in tail position.  ``self_uid`` is the function whose body
        this tail ends, if any: a call to it here is a jump back to the body's
        start with new arguments, so it becomes a ``TailRecur``."""
        cls = node.__class__
        if cls is Recur:
            return TailRecur(tuple([self.value(a, scope, fns, out) for a in node.args]))
        if cls is Let:
            inner = dict(scope)
            for name, expr in node.bindings:
                inner[name] = self.value(expr, inner, fns, out)
            return self.tail(node.body, inner, fns, out, lazy, self_uid)
        if cls is Letrec:
            return self.tail(node.body, scope, self.hoist(node, scope, fns), out, lazy,
                             self_uid)
        if lazy and cls is If:
            cond = self.value(node.cond, scope, fns, out)
            then = self.body(node.then, scope, fns, lazy=True, self_uid=self_uid)
            orelse = self.body(node.orelse, scope, fns, lazy=True, self_uid=self_uid)
            return TailIf(cond, then, orelse)
        if cls is Call and fns[node.name] == self_uid:
            return TailRecur(tuple([self.value(a, scope, fns, out) for a in node.args]))
        return Return(self.value(node, scope, fns, out))


def to_anf(ast: Node) -> AnfProgram:
    """Flatten a parse tree to A-normal form."""
    norm = _Normalizer()
    out = []
    tail = norm.tail(ast, {}, {}, out, lazy=False, self_uid=None)
    return AnfProgram(tuple(out), tail, tuple(norm.functions))


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

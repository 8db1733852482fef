"""Tail-call lowering: letrec functions whose self-calls all sit in tail
position become iterative loops; the rest stay as stack-dispatched
recursive functions, whose depth limit the machine reads from the
compiled program."""

from __future__ import annotations

from dataclasses import dataclass

from .anf import (
    AnfProgram,
    CallApp,
    LoopApp,
    PrimApp,
    Return,
    SelectApp,
    TailCall,
    TailIf,
    TailRecur,
)
from .errors import LoweringError
from .sexpr import Var

DEFAULT_MAX_DEPTH = 10_000


@dataclass
class RecursiveFn:
    """A function that could not be turned into a loop; evaluated by
    stack-based dispatch."""

    uid: str
    user_name: str
    params: tuple
    body: AnfProgram


# ---------------------------------------------------------------------------
# analysis


def _tail_self_calls_only(fn) -> bool:
    """True when every reference to fn.uid within its own body is a TailCall
    in the body's direct tail structure."""
    ok = True

    def scan_prog(prog: AnfProgram, tail_ok: bool):
        nonlocal ok
        for _, rhs in prog.bindings:
            if isinstance(rhs, CallApp) and rhs.fn == fn.uid:
                ok = False
            elif isinstance(rhs, SelectApp):
                scan_prog(rhs.then, False)
                scan_prog(rhs.orelse, False)
            elif isinstance(rhs, LoopApp):
                scan_prog(rhs.body, False)
        tail = prog.tail
        if isinstance(tail, TailIf):
            scan_prog(tail.then, tail_ok)
            scan_prog(tail.orelse, tail_ok)
        elif isinstance(tail, TailCall) and tail.fn == fn.uid and not tail_ok:
            ok = False

    scan_prog(fn.body, True)
    return ok


def _called_fns(prog: AnfProgram) -> set[str]:
    out: set[str] = set()

    def scan(p: AnfProgram):
        for _, rhs in p.bindings:
            if isinstance(rhs, CallApp):
                out.add(rhs.fn)
            elif isinstance(rhs, SelectApp):
                scan(rhs.then)
                scan(rhs.orelse)
            elif isinstance(rhs, LoopApp):
                scan(rhs.body)
        if isinstance(p.tail, TailIf):
            scan(p.tail.then)
            scan(p.tail.orelse)
        elif isinstance(p.tail, TailCall):
            out.add(p.tail.fn)

    scan(prog)
    return out


# ---------------------------------------------------------------------------
# rewriting


class _Renamer:
    def __init__(self, counter_start: int):
        self.counter = counter_start

    def fresh(self, base: str) -> str:
        name = f"__l{self.counter}_{base.lstrip('_')}"
        self.counter += 1
        return name


def _rename_triv(t, mapping):
    if isinstance(t, Var) and t.name in mapping:
        return Var(mapping[t.name])
    return t


def _rename_prog(prog: AnfProgram, mapping: dict) -> AnfProgram:
    def rn(t):
        return _rename_triv(t, mapping)

    bindings = []
    for name, rhs in prog.bindings:
        if isinstance(rhs, PrimApp):
            rhs = PrimApp(rhs.op, tuple(rn(a) for a in rhs.args))
        elif isinstance(rhs, SelectApp):
            rhs = SelectApp(rn(rhs.cond), _rename_prog(rhs.then, mapping),
                            _rename_prog(rhs.orelse, mapping))
        elif isinstance(rhs, LoopApp):
            rhs = LoopApp(tuple((v, rn(t)) for v, t in rhs.loop_vars),
                          _rename_prog(rhs.body, mapping))
        elif isinstance(rhs, CallApp):
            rhs = CallApp(rhs.fn, tuple(rn(a) for a in rhs.args))
        bindings.append((name, rhs))
    tail = prog.tail
    if isinstance(tail, Return):
        tail = Return(rn(tail.value))
    elif isinstance(tail, TailRecur):
        tail = TailRecur(tuple(rn(a) for a in tail.args))
    elif isinstance(tail, TailCall):
        tail = TailCall(tail.fn, tuple(rn(a) for a in tail.args))
    elif isinstance(tail, TailIf):
        tail = TailIf(rn(tail.cond), _rename_prog(tail.then, mapping),
                      _rename_prog(tail.orelse, mapping))
    return AnfProgram(tuple(bindings), tail, prog.functions, prog.scope_map)


def _self_calls_to_recur(prog: AnfProgram, uid: str) -> AnfProgram:
    bindings = []
    for name, rhs in prog.bindings:
        if isinstance(rhs, SelectApp):
            rhs = SelectApp(rhs.cond, _self_calls_to_recur(rhs.then, uid),
                            _self_calls_to_recur(rhs.orelse, uid))
        bindings.append((name, rhs))
    tail = prog.tail
    if isinstance(tail, TailCall) and tail.fn == uid:
        tail = TailRecur(tail.args)
    elif isinstance(tail, TailIf):
        tail = TailIf(tail.cond, _self_calls_to_recur(tail.then, uid),
                      _self_calls_to_recur(tail.orelse, uid))
    return AnfProgram(tuple(bindings), tail, prog.functions, prog.scope_map)


def _loop_for_call(fn, args, renamer: _Renamer) -> LoopApp:
    mapping = {p: renamer.fresh(p) for p in fn.params}
    body = _rename_prog(_self_calls_to_recur(fn.body, fn.uid), mapping)
    loop_vars = tuple((mapping[p], a) for p, a in zip(fn.params, args))
    return LoopApp(loop_vars, body)


class _SiteRewriter:
    """Replaces call sites of one lowerable function with loops."""

    def __init__(self, fn, renamer: _Renamer, temp_alloc):
        self.fn = fn
        self.renamer = renamer
        self.temp_alloc = temp_alloc

    def rewrite(self, prog: AnfProgram) -> AnfProgram:
        bindings = []
        for name, rhs in prog.bindings:
            if isinstance(rhs, CallApp) and rhs.fn == self.fn.uid:
                if len(rhs.args) != len(self.fn.params):
                    raise LoweringError(
                        f"call to {self.fn.user_name!r} with {len(rhs.args)} args, "
                        f"expected {len(self.fn.params)}"
                    )
                rhs = _loop_for_call(self.fn, rhs.args, self.renamer)
            elif isinstance(rhs, SelectApp):
                rhs = SelectApp(rhs.cond, self.rewrite(rhs.then), self.rewrite(rhs.orelse))
            elif isinstance(rhs, LoopApp):
                rhs = LoopApp(rhs.loop_vars, self.rewrite(rhs.body))
            bindings.append((name, rhs))
        tail = prog.tail
        if isinstance(tail, TailCall) and tail.fn == self.fn.uid:
            temp = self.temp_alloc()
            bindings.append((temp, _loop_for_call(self.fn, tail.args, self.renamer)))
            tail = Return(Var(temp))
        elif isinstance(tail, TailIf):
            tail = TailIf(tail.cond, self.rewrite(tail.then), self.rewrite(tail.orelse))
        return AnfProgram(tuple(bindings), tail, prog.functions, prog.scope_map)


def _finalize_tail_calls(prog: AnfProgram, temp_alloc) -> AnfProgram:
    """Turn leftover tail calls (to stack-dispatched functions) into plain
    call bindings."""
    bindings = []
    for name, rhs in prog.bindings:
        if isinstance(rhs, SelectApp):
            rhs = SelectApp(rhs.cond, _finalize_tail_calls(rhs.then, temp_alloc),
                            _finalize_tail_calls(rhs.orelse, temp_alloc))
        elif isinstance(rhs, LoopApp):
            rhs = LoopApp(rhs.loop_vars, _finalize_tail_calls(rhs.body, temp_alloc))
        bindings.append((name, rhs))
    tail = prog.tail
    if isinstance(tail, TailCall):
        temp = temp_alloc()
        bindings.append((temp, CallApp(tail.fn, tail.args)))
        tail = Return(Var(temp))
    elif isinstance(tail, TailIf):
        tail = TailIf(tail.cond, _finalize_tail_calls(tail.then, temp_alloc),
                      _finalize_tail_calls(tail.orelse, temp_alloc))
    return AnfProgram(tuple(bindings), tail, prog.functions, prog.scope_map)


def lower_tail_calls(anf: AnfProgram) -> AnfProgram:
    """Rewrite tail-recursive functions into loops.

    Functions with non-tail self-calls remain and will be dispatched on an
    explicit stack at evaluation time.  Mutual recursion between distinct
    letrec bindings is rejected.
    """
    functions = {fn.uid: fn for fn in anf.functions}

    # Reject cross-function cycles (single-name letrec semantics only).
    edges = {uid: _called_fns(fn.body) - {uid} for uid, fn in functions.items()}
    seen: dict[str, int] = {}

    def visit(uid, stack):
        if uid in stack:
            raise LoweringError("mutual recursion between letrec functions is not supported")
        if seen.get(uid):
            return
        stack.add(uid)
        for callee in edges.get(uid, ()):
            visit(callee, stack)
        stack.discard(uid)
        seen[uid] = 1

    for uid in functions:
        visit(uid, set())

    lowerable = [fn for fn in anf.functions if _tail_self_calls_only(fn)]

    # Callee-first order so inlined bodies already carry their own loops.
    order: list = []
    placed: set[str] = set()

    def place(fn):
        if fn.uid in placed:
            return
        for callee in edges[fn.uid]:
            if callee in functions and any(f.uid == callee for f in lowerable):
                place(functions[callee])
        placed.add(fn.uid)
        if any(f.uid == fn.uid for f in lowerable):
            order.append(fn)

    for fn in lowerable:
        place(fn)

    counter = {"t": _max_temp(anf) + 1, "l": 0}

    def temp_alloc():
        name = f"__t{counter['t']}"
        counter["t"] += 1
        return name

    renamer = _Renamer(0)

    top = anf
    remaining = {uid: fn for uid, fn in functions.items()}
    for fn in order:
        # Self tail-calls become recur when the body is copied at each site.
        rewriter = _SiteRewriter(fn, renamer, temp_alloc)
        top = rewriter.rewrite(top)
        for other_uid, other in remaining.items():
            if other_uid != fn.uid:
                other.body = rewriter.rewrite(other.body)
        del remaining[fn.uid]

    kept = []
    for uid, fn in remaining.items():
        body = _finalize_tail_calls(fn.body, temp_alloc)
        kept.append(RecursiveFn(uid, fn.user_name, fn.params, body))
    top = _finalize_tail_calls(top, temp_alloc)

    return AnfProgram(top.bindings, top.tail, tuple(kept), anf.scope_map)


def _max_temp(prog: AnfProgram) -> int:
    best = -1

    def scan_name(name):
        nonlocal best
        if name.startswith("__t"):
            try:
                best = max(best, int(name[3:]))
            except ValueError:
                pass

    def scan(p: AnfProgram):
        for name, rhs in p.bindings:
            scan_name(name)
            if isinstance(rhs, SelectApp):
                scan(rhs.then)
                scan(rhs.orelse)
            elif isinstance(rhs, LoopApp):
                scan(rhs.body)
        if isinstance(p.tail, TailIf):
            scan(p.tail.then)
            scan(p.tail.orelse)

    scan(prog)
    for fn in prog.functions:
        scan(fn.body)
    return best

"""The letrec check between ANF and the graph: mutual recursion between
distinct letrec functions is rejected.  Everything else passes through;
tail self-calls are already jumps (``TailRecur``) and every other call is
a stack-dispatched ``CallApp``, whose depth limit the machine reads from
the compiled program."""

from __future__ import annotations

from .anf import AnfProgram, names_in_program
from .errors import LoweringError


def lower_tail_calls(anf: AnfProgram) -> AnfProgram:
    """Reject mutual recursion between distinct letrec functions (single-name
    letrec semantics only) and return the program unchanged."""
    edges = {fn.uid: names_in_program(fn.body)[2] - {fn.uid} for fn in anf.functions}
    done: set[str] = set()

    def visit(uid, stack):
        if uid in stack:
            raise LoweringError("mutual recursion between letrec functions is not supported")
        if uid in done:
            return
        stack.add(uid)
        for callee in edges[uid]:
            visit(callee, stack)
        stack.discard(uid)
        done.add(uid)

    for uid in edges:
        visit(uid, set())
    return anf

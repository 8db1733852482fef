"""Compute-graph construction from ANF.

Each binding becomes one node; constants dedupe by bit pattern within a
block; inputs and parameters get one node per name on first use.  A `pow`
whose exponent is a literal, a `ref` whose index is, and an `eye`, `zeros`
or `ones` whose sizes are finite literals fold them into the node as its
aux instead of materializing constants.  A value-position
`if` is a prim node of the `if` row over its condition and both arms'
results; a tail `if` ends its block in a branch.  Loop and function
bodies become nested frames that import outer values through capture
nodes.

The builder makes each node's instruction tuple (see ``machine``) as it
makes the node, in one pass, and notes on the way what every run reads:
the top level's ``input`` and ``param`` instructions in order, and
whether the program is scalar-closed and straight-line (see
``compiler.CompiledProgram``).  A ``Node`` is a named tuple, so it cannot
change once built; ``ComputeGraph.nodes`` lists the top level's nodes, whose
ids are their slots.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from dataclasses import dataclass
from math import isfinite

from .anf import (AnfProgram, CallApp, LoopApp, PrimApp, Return, SelectApp, TailIf,
                  TailRecur, names_in_program)
from .errors import CycleDetected, UnboundVariable
from .ops import OPS
from .sexpr import Const
from .values import frozen_scalar

# kind: const | input | param | prim | loop | call execute as instructions;
# loopvar | capture are frame entries whose slots the loop/call machinery
# writes.
Node = namedtuple("Node", "id kind op operands aux debug_name",
                  defaults=(None, (), None, None))

# Rows whose literal second operand folds into the node as its aux: pow's
# exponent and ref's index.
_IMMEDIATE = frozenset(("pow", "ref"))
# Rows whose finite literal sizes fold into the node as its aux, all as one
# tuple.
_SIZED = frozenset(("eye", "zeros", "ones"))

_new_tuple = tuple.__new__


@dataclass
class BodyIR:
    """A loop or function body with its own slot space.  Entering it writes
    the loop's initial values or the call's arguments into ``var_slots``
    and the imported outer values into ``capture_slots``; a ``recur`` tail
    writes new values into ``var_slots`` and jumps back to the start."""

    var_slots: tuple
    capture_slots: tuple
    slot_count: int
    block: "BlockIR"
    user_name: str | None = None  # functions only
    capture_names: tuple = ()  # functions only: names each call site passes


@dataclass
class BlockIR:
    instrs: tuple
    tail: tuple  # ('exit', slot) | ('recur', slots) | ('branch', cond, BlockIR, BlockIR)


@dataclass
class ComputeGraph:
    nodes: list
    output: int
    functions: list  # function BodyIRs, in order of first call
    block: BlockIR  # the top level's instructions and tail
    leaves: tuple = ()  # the top level's input and param instructions, in order
    scalar_closed: bool = False  # every prim in every block has a scalar kernel to apply
    straight_line: bool = False  # one block of prims whose output is a prim's result


# Ops whose n-ary application folds from the right; their operands are
# interned right-to-left (accumulator order), everything else left-to-right.
_RIGHT_FOLD = frozenset(["+", "*"])

_pack_double = struct.Struct("<d").pack


def _const_values(v: float) -> tuple:
    """What a const instruction stores into its slot, built once and shared
    by every run and tape: a read-only 0-d array Value, and its bare
    float64 for a raw run's kernel (see ``kernels.Kernel``)."""
    arr = frozen_scalar(v)
    return arr, arr.data[()]


class _Frame:
    """Graph-building state for one slot space (top level, loop body, or
    function body).  ``instrs`` and ``consts`` belong to the open block:
    a constant first seen inside a lazy branch must not be shared with code
    outside it."""

    __slots__ = ("builder", "parent", "nodes", "env", "capture_names", "capture_outer",
                 "instrs", "consts")

    def __init__(self, builder: "_Builder", parent: "_Frame | None"):
        self.builder = builder
        self.parent = parent  # the enclosing frame of a loop body
        self.nodes: list[Node] = []
        self.env: dict[str, int] = {}
        self.capture_names: list[str] = []
        self.capture_outer: list[int] = []  # parent ids (loop bodies)
        self.instrs: list[tuple] = []
        self.consts: dict[bytes, int] = {}  # bit pattern -> node id

    def node(self, kind, op=None, operands=(), aux=None, debug_name=None) -> int:
        nid = len(self.nodes)
        self.nodes.append(_new_tuple(Node, (nid, kind, op, operands, aux, debug_name)))
        return nid

    def const(self, v: float) -> int:
        key = _pack_double(v)
        nid = self.consts.get(key)
        if nid is None:
            nid = self.consts[key] = self.node("const", aux=v)
            self.instrs.append(("const", nid, v) + _const_values(v))
        return nid

    def triv(self, t) -> int:
        if t.__class__ is Const:
            return self.const(t.value)
        nid = self.env.get(t.name)
        return self.resolve(t.name) if nid is None else nid

    def resolve(self, name: str) -> int:
        nid = self.env.get(name)
        if nid is not None:
            return nid
        if self is self.builder.top:
            return self.builder.leaf(name)
        nid = self.env[name] = self.node("capture", aux=name)
        self.capture_names.append(name)
        if self.parent is not None:
            # loop body: import the outer value through a capture slot
            self.capture_outer.append(self.parent.resolve(name))
        # a function frame's captures are resolved by name at each call site
        return nid


def _function_captures(functions) -> dict[str, tuple]:
    """Names each function must import from its call sites, including those
    needed only to forward to callees (fixpoint over the call graph)."""
    info = {}
    for fn in functions:
        used, bound, called = names_in_program(fn.body)
        info[fn.uid] = {
            "free": used - bound - set(fn.params),
            "bound": bound | set(fn.params),
            "called": called,
        }
    captures = {uid: set(rec["free"]) for uid, rec in info.items()}
    changed = True
    while changed:
        changed = False
        for uid, rec in info.items():
            for callee in rec["called"]:
                extra = captures.get(callee, set()) - rec["bound"]
                if not extra <= captures[uid]:
                    captures[uid] |= extra
                    changed = True
    return {uid: tuple(sorted(names)) for uid, names in captures.items()}


class _Builder:
    def __init__(self, inputs, params, functions):
        self.input_names = tuple(inputs)
        self.param_names = tuple(params)
        self.fn_defs = {fn.uid: fn for fn in functions}
        self.fn_captures = _function_captures(functions) if functions else {}
        self.fn_irs: dict[str, BodyIR] = {}
        self.leaves: list[tuple] = []
        self.scalar_closed = True  # noted as prim nodes are built
        self.straight_line = True  # noted as loop and call nodes are built
        self.top = _Frame(self, None)

    def build_top(self, prog: AnfProgram) -> ComputeGraph:
        frame = self.top
        block = self._block(frame, prog)
        return ComputeGraph(
            nodes=frame.nodes,
            output=block.tail[1] if block.tail[0] == "exit" else -1,
            functions=list(self.fn_irs.values()),
            block=block,
            leaves=tuple(self.leaves),
            scalar_closed=self.scalar_closed,
            straight_line=(self.straight_line and block.tail[0] == "exit"
                           and frame.nodes[block.tail[1]].kind == "prim"),
        )

    def leaf(self, name: str) -> int:
        """Top-frame resolution: declared inputs/params become leaf nodes."""
        frame = self.top
        if name in self.input_names:
            kind = "input"
        elif name in self.param_names:
            kind = "param"
        else:
            raise UnboundVariable(f"unbound variable {name!r}")
        nid = frame.env[name] = frame.node(kind, aux=name)
        ins = (kind, nid, name)
        frame.instrs.append(ins)
        self.leaves.append(ins)
        return nid

    def _block(self, frame: _Frame, prog: AnfProgram) -> BlockIR:
        """A program built into the frame's open block, as that block."""
        tail = self._build_program(frame, prog)
        return BlockIR(tuple(frame.instrs), tail)

    def _build_program(self, frame: _Frame, prog: AnfProgram) -> tuple:
        """Emit a program's bindings into the frame's open block; returns
        its tail over node ids."""
        env = frame.env
        for temp, rhs in prog.bindings:
            if rhs.__class__ is PrimApp:
                env[temp] = self._build_prim(frame, rhs, temp)
            else:
                env[temp] = self._build_rhs(frame, rhs, temp)
        tail = prog.tail
        if tail.__class__ is Return:
            return "exit", frame.triv(tail.value)
        if tail.__class__ is TailRecur:
            return "recur", tuple([frame.triv(a) for a in tail.args])
        if tail.__class__ is TailIf:
            cond = frame.triv(tail.cond)
            outer = frame.instrs, frame.consts
            frame.instrs, frame.consts = [], {}
            then_block = self._block(frame, tail.then)
            frame.instrs, frame.consts = [], {}
            else_block = self._block(frame, tail.orelse)
            frame.instrs, frame.consts = outer
            return "branch", cond, then_block, else_block
        raise TypeError(f"not an ANF tail: {tail!r}")

    def _build_rhs(self, frame: _Frame, rhs, temp: str) -> int:
        if isinstance(rhs, SelectApp):
            cond = frame.triv(rhs.cond)
            then_tail = self._build_program(frame, rhs.then)
            else_tail = self._build_program(frame, rhs.orelse)
            assert then_tail[0] == "exit" and else_tail[0] == "exit"
            operands = (cond, then_tail[1], else_tail[1])
            nid = frame.node("prim", "if", operands, debug_name=temp)
            frame.instrs.append(("prim", nid, "if", operands, None, OPS["if"]))
            return nid
        if isinstance(rhs, LoopApp):
            init_ids = tuple([frame.triv(t) for _, t in rhs.loop_vars])
            body = _Frame(self, parent=frame)
            var_slots = []
            for name, _ in rhs.loop_vars:
                slot = body.env[name] = body.node("loopvar", aux=name)
                var_slots.append(slot)
            block = self._block(body, rhs.body)
            loop_ir = BodyIR(
                var_slots=tuple(var_slots),
                capture_slots=tuple([body.env[n] for n in body.capture_names]),
                slot_count=len(body.nodes),
                block=block,
            )
            return self._call_node(frame, "loop", loop_ir, init_ids,
                                   tuple(body.capture_outer), temp)
        if isinstance(rhs, CallApp):
            fn_ir = self._fn_ir(rhs.fn)
            arg_ids = tuple([frame.triv(a) for a in rhs.args])
            cap_ids = tuple([frame.resolve(n) for n in fn_ir.capture_names])
            return self._call_node(frame, "call", fn_ir, arg_ids, cap_ids, temp)
        raise TypeError(f"not an ANF rhs: {rhs!r}")

    def _call_node(self, frame: _Frame, kind: str, ir: BodyIR, var_ids: tuple, cap_ids: tuple,
                   temp: str) -> int:
        self.straight_line = False
        nid = frame.node(kind, operands=var_ids + cap_ids, aux=ir, debug_name=temp)
        frame.instrs.append((kind, nid, ir, var_ids, cap_ids))
        return nid

    def _build_prim(self, frame: _Frame, rhs: PrimApp, temp: str) -> int:
        op = rhs.op
        args = rhs.args
        row = OPS[op]
        aux = None
        if op in _SIZED and all([a.__class__ is Const and isfinite(a.value) for a in args]):
            aux, operands = tuple([a.value for a in args]), ()
            self.scalar_closed = False
        elif op in _IMMEDIATE and args[1].__class__ is Const:
            aux = args[1].value
            operands = (frame.triv(args[0]),)
            if row.scalar is None:
                self.scalar_closed = False
        elif op == "-" and len(args) == 1:
            zero = frame.const(0.0)
            operands = (zero, frame.triv(args[0]))
        else:
            if row.scalar is None or (len(args) == 1 and row.max_arity != 1):
                self.scalar_closed = False  # no kernel, or an n-ary op with nothing to fold
            if op in _RIGHT_FOLD:
                # intern in fold order
                operands = [frame.triv(a) for a in reversed(args)]
                operands.reverse()
                operands = tuple(operands)
            else:
                operands = tuple([frame.triv(a) for a in args])
        nid = frame.node("prim", op, operands, aux, temp)
        frame.instrs.append(("prim", nid, op, operands, aux, row))
        return nid

    def _fn_ir(self, uid: str) -> BodyIR:
        ir = self.fn_irs.get(uid)
        if ir is not None:
            return ir
        fn = self.fn_defs[uid]
        capture_names = self.fn_captures[uid]
        frame = _Frame(self, parent=None)
        var_slots = []
        for p in fn.params:
            slot = frame.env[p] = frame.node("loopvar", aux=p)
            var_slots.append(slot)
        capture_slots = []
        for name in capture_names:
            slot = frame.env[name] = frame.node("capture", aux=name)
            frame.capture_names.append(name)
            capture_slots.append(slot)
        # Registered before the body builds so recursive call sites resolve
        # against the final capture list.
        ir = BodyIR(tuple(var_slots), tuple(capture_slots), 0, None, fn.user_name,
                    capture_names)
        self.fn_irs[uid] = ir
        ir.block = self._block(frame, fn.body)
        assert tuple(frame.capture_names) == capture_names, (
            "capture analysis missed a name"
        )
        ir.slot_count = len(frame.nodes)
        return ir


def build_graph(anf: AnfProgram, inputs, params) -> ComputeGraph:
    """Construct the compute graph for an ANF program."""
    builder = _Builder(inputs, params, anf.functions)
    return builder.build_top(anf)


def toposort(graph: ComputeGraph) -> list[Node]:
    """Deterministic topological order (Kahn's algorithm, ties broken by
    node id).  The builder already emits nodes in order, so this doubles as
    a structural check; cycles cannot arise from ANF but are reported
    defensively."""
    import heapq

    nodes = graph.nodes
    indeg = {n.id: 0 for n in nodes}
    consumers: dict[int, list[int]] = {n.id: [] for n in nodes}
    for n in nodes:
        for o in n.operands:
            indeg[n.id] += 1
            consumers[o].append(n.id)
    ready = [n.id for n in nodes if indeg[n.id] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        nid = heapq.heappop(ready)
        out.append(nodes[nid])
        for c in consumers[nid]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    if len(out) != len(nodes):
        raise CycleDetected("cycle detected in compute graph")
    return out

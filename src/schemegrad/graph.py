"""Compute-graph construction from ANF.

Each binding becomes one node; constants dedupe by bit pattern within a
block; inputs and parameters get one node per name on first use.  A `pow`
whose exponent is a literal folds the exponent into the node instead of
materializing a constant.  Loop and function bodies become nested frames
that import outer values through capture nodes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .anf import (AnfProgram, CallApp, LoopApp, PrimApp, Return, SelectApp, TailIf,
                  TailRecur, names_in_program)
from .errors import CycleDetected, UnboundVariable
from .ops import OPS
from .sexpr import Const, Var
from .values import frozen_scalar

# Node kinds that execute as instructions plus frame-entry kinds
# (loopvar/capture) whose slots are written by the loop/call machinery.


@dataclass
class Node:
    id: int
    kind: str  # const | input | param | prim | select | loop | call | loopvar | capture
    op: str | None = None
    operands: tuple = ()
    aux: object = None
    debug_name: str | None = None


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
    input_slots: dict
    param_slots: dict
    functions: list  # function BodyIRs, in order of first call
    block: BlockIR  # the top level's instructions and tail
    scalar_closed: bool = False  # every prim in every block has a scalar kernel to apply


def _const_key(v: float) -> bytes:
    return struct.pack("<d", v)


# Ops whose n-ary application folds from the right; their operands are
# interned right-to-left (accumulator order), everything else left-to-right.
_RIGHT_FOLD = frozenset(["+", "*"])


class _Frame:
    """Graph-building state for one slot space (top level, loop body, or
    function body)."""

    def __init__(self, builder: "_Builder", parent: "_Frame | None", is_top: bool = False):
        self.builder = builder
        self.parent = parent
        self.is_top = is_top
        self.nodes: list[Node] = []
        self.env: dict[str, int] = {}
        self.input_slots: dict[str, int] = {}
        self.param_slots: dict[str, int] = {}
        self.capture_names: list[str] = []
        self.capture_outer: list[int] = []  # parent ids (loop bodies)
        # Constant pools are per block: a value first seen inside a lazy
        # branch must not be shared with code outside it.
        self._const_pools: list[dict[bytes, int]] = [{}]
        self._blocks: list[list[int]] = [[]]  # node ids per open block

    # -- node allocation --

    def new_node(self, kind, op=None, operands=(), aux=None, debug_name=None,
                 executes=True) -> int:
        nid = len(self.nodes)
        self.nodes.append(Node(nid, kind, op, operands, aux, debug_name))
        if executes:
            self._blocks[-1].append(nid)
        return nid

    def _push_block(self):
        self._blocks.append([])
        self._const_pools.append({})

    def _pop_block(self) -> list[int]:
        self._const_pools.pop()
        return self._blocks.pop()

    # -- interning --

    def intern_const(self, v: float) -> int:
        pool = self._const_pools[-1]
        key = _const_key(v)
        nid = pool.get(key)
        if nid is None:
            nid = self.new_node("const", aux=v)
            pool[key] = nid
        return nid

    def resolve(self, name: str) -> int:
        nid = self.env.get(name)
        if nid is not None:
            return nid
        if self.is_top:
            return self.builder._resolve_leaf(self, name)
        if self.parent is not None:
            # loop body: import the outer value through a capture slot
            outer = self.parent.resolve(name)
            nid = self.new_node("capture", aux=name, executes=False)
            self.env[name] = nid
            self.capture_names.append(name)
            self.capture_outer.append(outer)
            return nid
        # function frame: captures are resolved by name at each call site
        nid = self.new_node("capture", aux=name, executes=False)
        self.env[name] = nid
        self.capture_names.append(name)
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
        self.input_names = list(inputs)
        self.param_names = list(params)
        self.fn_defs = {fn.uid: fn for fn in functions}
        self.fn_captures = _function_captures(functions)
        self.fn_irs: dict[str, BodyIR] = {}
        self.scalar_closed = True  # noted as prim nodes are built

    # -- frames --

    def build_top(self, prog: AnfProgram) -> ComputeGraph:
        frame = _Frame(self, parent=None, is_top=True)
        block_ids, tail = self._build_program(frame, prog)
        return ComputeGraph(
            nodes=frame.nodes,
            output=tail[1] if tail[0] == "exit" else -1,
            input_slots=frame.input_slots,
            param_slots=frame.param_slots,
            functions=list(self.fn_irs.values()),
            block=_to_block(frame, block_ids, tail),
            scalar_closed=self.scalar_closed,
        )

    def _resolve_leaf(self, frame: _Frame, name: str) -> int:
        """Top-frame resolution: declared inputs/params become leaf nodes."""
        if name in frame.env:
            return frame.env[name]
        if name in self.input_names:
            nid = frame.new_node("input", aux=name)
            frame.env[name] = nid
            frame.input_slots[name] = nid
            return nid
        if name in self.param_names:
            nid = frame.new_node("param", aux=name)
            frame.env[name] = nid
            frame.param_slots[name] = nid
            return nid
        raise UnboundVariable(f"unbound variable {name!r}")

    def _build_program(self, frame: _Frame, prog: AnfProgram):
        """Emit nodes for a program's bindings into the frame's current
        block; returns (block node ids, tail tuple over node ids)."""
        for temp, rhs in prog.bindings:
            nid = self._build_rhs(frame, rhs, temp)
            frame.env[temp] = nid
        tail = prog.tail
        if isinstance(tail, Return):
            return frame._blocks[-1], ("exit", self._triv(frame, tail.value))
        if isinstance(tail, TailRecur):
            return frame._blocks[-1], ("recur", tuple(self._triv(frame, a) for a in tail.args))
        if isinstance(tail, TailIf):
            cond = self._triv(frame, tail.cond)
            frame._push_block()
            then_ids, then_tail = self._build_program(frame, tail.then)
            frame._pop_block()
            frame._push_block()
            else_ids, else_tail = self._build_program(frame, tail.orelse)
            frame._pop_block()
            return frame._blocks[-1], (
                "branch", cond, (tuple(then_ids), then_tail), (tuple(else_ids), else_tail)
            )
        raise TypeError(f"not an ANF tail: {tail!r}")

    def _triv(self, frame: _Frame, t) -> int:
        if isinstance(t, Const):
            return frame.intern_const(t.value)
        return frame.resolve(t.name)

    def _build_rhs(self, frame: _Frame, rhs, temp: str) -> int:
        if isinstance(rhs, PrimApp):
            return self._build_prim(frame, rhs, temp)
        if isinstance(rhs, SelectApp):
            cond = self._triv(frame, rhs.cond)
            then_ids, then_tail = self._build_program(frame, rhs.then)
            else_ids, else_tail = self._build_program(frame, rhs.orelse)
            assert then_tail[0] == "exit" and else_tail[0] == "exit"
            return frame.new_node(
                "select", operands=(cond, then_tail[1], else_tail[1]), debug_name=temp
            )
        if isinstance(rhs, LoopApp):
            init_ids = tuple(self._triv(frame, t) for _, t in rhs.loop_vars)
            body = _Frame(self, parent=frame)
            var_slots = tuple(
                body.new_node("loopvar", aux=name, executes=False)
                for name, _ in rhs.loop_vars
            )
            for (name, _), slot in zip(rhs.loop_vars, var_slots):
                body.env[name] = slot
            block_ids, tail = self._build_program(body, rhs.body)
            loop_ir = BodyIR(
                var_slots=var_slots,
                capture_slots=tuple(body.env[n] for n in body.capture_names),
                slot_count=len(body.nodes),
                block=_to_block(body, block_ids, tail),
            )
            cap_outer = tuple(body.capture_outer)
            return frame.new_node(
                "loop", operands=init_ids + cap_outer, aux=loop_ir, debug_name=temp
            )
        if isinstance(rhs, CallApp):
            fn_ir = self._fn_ir(rhs.fn)
            arg_ids = tuple(self._triv(frame, a) for a in rhs.args)
            cap_ids = tuple(self._triv(frame, Var(n)) for n in fn_ir.capture_names)
            return frame.new_node(
                "call", operands=arg_ids + cap_ids, aux=fn_ir, debug_name=temp
            )
        raise TypeError(f"not an ANF rhs: {rhs!r}")

    def _build_prim(self, frame: _Frame, rhs: PrimApp, temp: str) -> int:
        op = rhs.op
        args = rhs.args
        if op == "pow" and isinstance(args[1], Const):
            base = self._triv(frame, args[0])
            return frame.new_node("prim", op="pow", operands=(base,),
                                  aux=args[1].value, debug_name=temp)
        if op == "-" and len(args) == 1:
            zero = frame.intern_const(0.0)
            x = self._triv(frame, args[0])
            return frame.new_node("prim", op="-", operands=(zero, x), debug_name=temp)
        row = OPS[op]
        if row.scalar is None or (len(args) == 1 and row.max_arity != 1):
            self.scalar_closed = False  # no kernel, or an n-ary op with nothing to fold
        order = reversed(args) if op in _RIGHT_FOLD else args
        for a in order:
            self._triv(frame, a)  # intern in fold order; resolution is idempotent
        operands = tuple(self._triv(frame, a) for a in args)
        return frame.new_node("prim", op=op, operands=operands, debug_name=temp)

    def _fn_ir(self, uid: str) -> BodyIR:
        ir = self.fn_irs.get(uid)
        if ir is not None:
            return ir
        fn = self.fn_defs[uid]
        capture_names = self.fn_captures[uid]
        frame = _Frame(self, parent=None)
        var_slots = tuple(
            frame.new_node("loopvar", aux=p, executes=False) for p in fn.params
        )
        for p, slot in zip(fn.params, var_slots):
            frame.env[p] = slot
        capture_slots = []
        for name in capture_names:
            slot = frame.new_node("capture", aux=name, executes=False)
            frame.env[name] = slot
            frame.capture_names.append(name)
            capture_slots.append(slot)
        # Registered before the body builds so recursive call sites resolve
        # against the final capture list.
        ir = BodyIR(var_slots, tuple(capture_slots), 0, None, fn.user_name, capture_names)
        self.fn_irs[uid] = ir
        block_ids, tail = self._build_program(frame, fn.body)
        assert tuple(frame.capture_names) == capture_names, (
            "capture analysis missed a name"
        )
        ir.slot_count = len(frame.nodes)
        ir.block = _to_block(frame, block_ids, tail)
        return ir


def _to_block(frame: _Frame, block_ids, tail) -> BlockIR:
    instrs = tuple(_node_to_instr(frame.nodes[i]) for i in block_ids)
    if tail[0] == "branch":
        _, cond, (t_ids, t_tail), (e_ids, e_tail) = tail
        tail = ("branch", cond, _to_block(frame, t_ids, t_tail), _to_block(frame, e_ids, e_tail))
    return BlockIR(instrs, tail)


def _const_values(v: float) -> tuple:
    """What a const instruction stores into its slot, built once and shared
    by every run and tape: a read-only 0-d array Value, and its bare
    float64 for a raw-slot run (see ``machine``)."""
    arr = frozen_scalar(v)
    return arr, arr.data[()]


def _node_to_instr(node: Node) -> tuple:
    if node.kind == "const":
        return ("const", node.id, node.aux) + _const_values(node.aux)
    if node.kind == "input":
        return ("input", node.id, node.aux)
    if node.kind == "param":
        return ("param", node.id, node.aux)
    if node.kind == "prim":
        return ("prim", node.id, node.op, node.operands, node.aux, OPS[node.op])
    if node.kind == "select":
        return ("select", node.id) + node.operands
    if node.kind in ("loop", "call"):
        n = len(node.aux.var_slots)
        return (node.kind, node.id, node.aux, node.operands[:n], node.operands[n:])
    raise AssertionError(f"node kind {node.kind} does not execute")


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

"""End-to-end compilation: source text to a frozen slot-addressed
instruction program, plus the textual disassembly used by golden tests."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import sexpr
from .anf import to_anf
from .graph import BlockIR, build_graph
from .lowering import lower_tail_calls

DEFAULT_MAX_DEPTH = 10_000


@dataclass(frozen=True)
class CompileConfig:
    max_recursion_depth: int = DEFAULT_MAX_DEPTH


@dataclass
class CompiledProgram:
    """A frozen compiled program.  Nothing here mutates after compilation
    but ``kernels``, the memo of the generated kernels its runs have taken
    (see ``kernels``); evaluation state lives in per-call slot arrays.

    ``leaves`` are the top level's ``input`` and ``param`` instructions in
    order, each name once: every input and parameter the program reads,
    and the order of a run's signature.  ``scalar_closed`` notes that every
    prim in every block has a scalar kernel, and ``straight_line`` that the
    program is one block of prims whose output is a prim's result (see
    ``machine``)."""

    block: BlockIR
    slot_count: int
    output_slot: int
    functions: tuple  # function BodyIRs, referenced by call instructions
    input_names: tuple
    param_names: tuple
    source_text: str
    node_count: int = 0
    compile_seconds: float = 0.0
    max_recursion_depth: int = DEFAULT_MAX_DEPTH
    debug_names: dict = field(default_factory=dict, repr=False)
    leaves: tuple = ()
    scalar_closed: bool = False
    straight_line: bool = False
    kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_params(self) -> int:
        return len(self.param_names)


def compile_source(
    source: str,
    inputs=(),
    params=(),
    config: CompileConfig | None = None,
) -> CompiledProgram:
    """parse -> scope check -> ANF -> letrec check -> graph -> emit."""
    config = config or CompileConfig()
    t0 = time.perf_counter()
    ast = sexpr.parse(source)
    sexpr.check_scope(ast, inputs, params)
    anf = to_anf(ast)
    anf = lower_tail_calls(anf)
    graph = build_graph(anf, inputs, params)
    debug = {
        n.id: n.debug_name for n in graph.nodes if n.debug_name is not None
    }
    elapsed = time.perf_counter() - t0
    return CompiledProgram(
        block=graph.block,
        slot_count=len(graph.nodes),
        output_slot=graph.output,
        functions=tuple(graph.functions),
        input_names=tuple(inputs),
        param_names=tuple(params),
        source_text=source,
        node_count=len(graph.nodes),
        compile_seconds=elapsed,
        max_recursion_depth=config.max_recursion_depth,
        debug_names=debug,
        leaves=graph.leaves,
        scalar_closed=graph.scalar_closed,
        straight_line=graph.straight_line,
    )


# ---------------------------------------------------------------------------
# disassembly


_INFIX = {"+", "-", "*", "/"}


def _slot(s: int) -> str:
    return f"slot[{s}]"


def _instr_text(ins) -> str:
    kind = ins[0]
    if kind == "const":
        return f"{ins[2]!r}"
    if kind in ("input", "param"):
        return str(ins[2])
    if kind == "prim":
        op, operands, aux = ins[2:5]
        if op in _INFIX and len(operands) == 2:
            return f"{_slot(operands[0])} {op} {_slot(operands[1])}"
        parts = [_slot(o) for o in operands]
        if aux is not None:  # constant operands: an exponent, an index or sizes
            parts += map(repr, aux if type(aux) is tuple else (aux,))
        return f"{op}(" + ", ".join(parts) + ")"
    if kind == "loop":
        _, _, ir, inits, caps = ins
        return "loop(" + ", ".join(_slot(o) for o in inits + caps) + ")"
    if kind == "call":
        _, _, ir, args, caps = ins
        return f"call {ir.user_name}(" + ", ".join(_slot(o) for o in args + caps) + ")"
    raise ValueError(f"unknown instruction {ins!r}")


def disassemble(prog: CompiledProgram, roles: bool = True) -> str:
    """Slot-table text of the top-level instruction sequence, one line per
    slot, mirroring the compiled execution order.  Each loop body is listed,
    indented, under its loop instruction, and each function body once, after
    the top level.  A body numbers its own slots; its first line names the
    slots that hold its loop variables (or arguments) and its captures."""
    lines = []
    for ins in prog.block.instrs:
        dest = ins[1]
        text = f"slot[{dest}] = {_instr_text(ins)}"
        if roles:
            kind = ins[0]
            if kind == "const":
                role = "constant"
            elif kind == "input":
                role = "input"
            elif kind == "param":
                role = "parameter"
            elif dest == prog.output_slot:
                role = "output"
            else:
                role = prog.debug_names.get(dest, "")
            if role:
                text = f"{text:<34}; {role}"
        lines.extend(_instr_lines(ins, text))
    tail = prog.block.tail
    if tail[0] != "exit" or tail[1] != (prog.block.instrs[-1][1] if prog.block.instrs else -1):
        lines.extend(_tail_lines(tail))
    for fn in prog.functions:
        lines.append(f"function {fn.user_name}/{len(fn.var_slots)}:")
        lines.extend("  " + l for l in _body_lines(fn))
    return "\n".join(lines)


def _instr_lines(ins, text: str) -> list[str]:
    """An instruction's line; a loop's body follows it, indented."""
    if ins[0] != "loop":
        return [text]
    return [text] + ["  " + l for l in _body_lines(ins[2])]


def _body_lines(ir) -> list[str]:
    """A loop or function body: a header naming its var and capture slots."""
    slots = [f"{label} " + ", ".join(_slot(s) for s in group)
             for label, group in (("vars", ir.var_slots), ("captures", ir.capture_slots))
             if group]
    return ["; " + ("; ".join(slots) or "no vars or captures")] + _block_lines(ir.block)


def _tail_lines(tail) -> list[str]:
    if tail[0] == "exit":
        return [f"return slot[{tail[1]}]"]
    if tail[0] == "recur":
        return ["recur " + ", ".join(_slot(s) for s in tail[1])]
    _, cond, then_b, else_b = tail
    lines = [f"if slot[{cond}]:"]
    lines.extend("  " + l for l in _block_lines(then_b))
    lines.append("else:")
    lines.extend("  " + l for l in _block_lines(else_b))
    return lines


def _block_lines(block: BlockIR) -> list[str]:
    lines = []
    for ins in block.instrs:
        lines.extend(_instr_lines(ins, f"slot[{ins[1]}] = {_instr_text(ins)}"))
    lines.extend(_tail_lines(block.tail))
    return lines

"""Render a :class:`~repro.codegen.program.Program` as Python source.

The generated artifact is a *generator function* (a coroutine machine):
all persistent variables live as locals of a suspended frame, so every
access compiles to ``LOAD_FAST``/``STORE_FAST`` and no per-step
packing/unpacking of state is needed.  The protocol:

- prime with ``next(gen)``;
- ``gen.send((0, V))`` runs one vector and returns the output list;
- ``gen.send((1,))`` returns the persistent state (masked words);
- ``gen.send((2, values))`` loads persistent state;
- ``gen.send((3, VS, OUT))`` runs the whole batch ``VS`` with the
  vector loop *inside* the generated code, appending every emitted
  word to the caller-supplied list ``OUT`` (flat, in vector order) and
  returning ``OUT``.  A pattern-packed batch uses the same opcode:
  each element of ``VS`` is then a *group* of per-input lane words —
  bit ``j`` of word ``k`` carrying input ``k`` of packed vector ``j``
  — so one pass through the statement body evaluates up to
  ``word_width`` vectors (packing is a data-layout contract, not
  different code).

The batch opcode is what makes ``Machine.step_many`` cheap on this
backend: one ``send`` drives thousands of vectors, so the per-vector
generator-protocol round trip (tuple allocation, resume, yield,
output-list allocation) disappears from the hot path.  Both opcodes
share a single copy of the statement body — opcode 0 is just a batch
of one — so generated source size (and ``compile()`` time) does not
grow.

Python ints are unbounded, so programs that shift left must mask each
assignment to the word width (``Program.mask_assignments``); purely
bit-wise programs (the PC-set method generates no shifts at all) skip
the masks and only mask at the observation points, exactly as a C
implementation's fixed-width variables would.
"""

from __future__ import annotations

from repro.codegen.program import (
    OPCODES,
    Assign,
    Bin,
    Comment,
    Const,
    Emit,
    Expr,
    Input,
    Program,
    Stmt,
    Un,
    Var,
)
from repro.errors import CodegenError

__all__ = ["emit_python", "render_expr_python"]


def render_expr_python(expr: Expr, masked: bool = False) -> str:
    """Render an expression with conservative parenthesization.

    With ``masked`` (used when the program masks assignments), the
    results of unary ``~`` and ``-`` are masked inline: Python ints are
    signed and unbounded, so a bare ``-x`` would right-shift
    *arithmetically* and smear its sign bit over the whole word —
    unlike the unsigned machine words the programs are written for.
    """
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Input):
        return f"V[{expr.slot}]"
    if isinstance(expr, Un):
        if expr.op == "popcount":
            # Mask the argument (unbounded Python ints may carry
            # overflow bits the C word would have dropped); the result
            # is at most word_width, so it needs no mask of its own.
            return f"_popcount({_child(expr.a, masked)} & MASK)"
        body = f"{expr.op}{_child(expr.a, masked)}"
        if masked:
            return f"({body}) & MASK"
        return body
    if isinstance(expr, Bin):
        if expr.op == "sar":
            # Arithmetic right shift: convert to the signed value with
            # the (x ^ H) - H identity, then use Python's (arithmetic)
            # shift; the surrounding assignment mask truncates again.
            if not isinstance(expr.a, Var):
                raise CodegenError(
                    f"sar is only generated over plain variables: {expr!r}"
                )
            assert isinstance(expr.b, Const)
            return (
                f"(({expr.a.name} ^ HBIT) - HBIT) >> {expr.b.value}"
            )
        if masked and expr.op == ">>" and _contains_lshift(expr.a):
            raise CodegenError(
                "right shift over an unmasked left shift would leak "
                f"high bits: {expr!r}"
            )
        return (
            f"{_child(expr.a, masked)} {expr.op} {_child(expr.b, masked)}"
        )
    raise CodegenError(f"unknown expression node: {expr!r}")


def _contains_lshift(expr: Expr) -> bool:
    if isinstance(expr, Bin):
        if expr.op == "<<":
            return True
        return _contains_lshift(expr.a) or _contains_lshift(expr.b)
    if isinstance(expr, Un):
        # Unary results are masked inline in masked mode.
        return False
    return False


def _child(expr: Expr, masked: bool = False) -> str:
    text = render_expr_python(expr, masked)
    if isinstance(expr, (Bin, Un)):
        return f"({text})"
    return text


def _check_shifts(expr: Expr, width: int) -> None:
    if isinstance(expr, Bin):
        if expr.op in ("<<", ">>", "sar"):
            amount = expr.b
            assert isinstance(amount, Const)
            if not 0 <= amount.value < width:
                raise CodegenError(
                    f"shift by {amount.value} outside word width {width}"
                )
        _check_shifts(expr.a, width)
        _check_shifts(expr.b, width)
    elif isinstance(expr, Un):
        _check_shifts(expr.a, width)


def _statement_lines(
    stmts: list[Stmt], program: Program, indent: str
) -> list[str]:
    lines: list[str] = []
    mask = program.mask_assignments
    for stmt in stmts:
        if isinstance(stmt, Comment):
            lines.append(f"{indent}# {stmt.text}")
        elif isinstance(stmt, Assign):
            _check_shifts(stmt.expr, program.word_width)
            rhs = render_expr_python(stmt.expr, masked=mask)
            if mask and not isinstance(stmt.expr, Un):
                # Unary expressions are already masked inline.
                lines.append(f"{indent}{stmt.dest} = ({rhs}) & MASK")
            else:
                lines.append(f"{indent}{stmt.dest} = {rhs}")
        elif isinstance(stmt, Emit):
            _check_shifts(stmt.expr, program.word_width)
            rhs = render_expr_python(stmt.expr, masked=mask)
            lines.append(f"{indent}_append(({rhs}) & OUTMASK)")
        else:
            raise CodegenError(f"unknown statement: {stmt!r}")
    return lines


def emit_python(program: Program) -> str:
    """Produce the full Python source of the coroutine machine."""
    program.validate()
    state_names = program.state_vars
    lines: list[str] = [
        f"# generated by repro - program {program.name!r}",
        f"# word width {program.word_width}, "
        f"{len(program.state_vars)} state vars",
        "def machine():",
        f"    MASK = {program.word_mask}",
        f"    OUTMASK = {program.output_mask}",
        f"    HBIT = {1 << (program.word_width - 1)}",
    ]
    if program.stats().popcounts:
        lines.append(
            "    _popcount = getattr(int, 'bit_count', None) or "
            "(lambda x: bin(x).count('1'))"
        )
    for name in state_names:
        lines.append(f"    {name} = {program.state_init[name]}")
    op = OPCODES
    lines.append("    cmd = yield None")
    lines.append("    while 1:")
    lines.append("        op = cmd[0]")
    lines.append(f"        if op == {op['step']} or op == {op['run_block']}:")
    lines.append(f"            if op == {op['step']}:")
    lines.append("                VS = (cmd[1],)")
    lines.append("                OUT = []")
    lines.append("            else:")
    lines.append("                VS = cmd[1]")
    lines.append("                OUT = cmd[2]")
    lines.append("            _append = OUT.append")
    lines.append("            for V in VS:")
    body_indent = "                "
    for section in (program.init, program.body, program.output):
        lines += _statement_lines(section, program, body_indent)
    # A bare ``pass`` keeps the loop syntactically valid when every
    # section is empty (or holds only comments); it compiles to no
    # bytecode, so populated programs pay nothing for it.
    lines.append(f"{body_indent}pass")
    lines.append("            cmd = yield OUT")
    lines.append(f"        elif op == {op['dump_state']}:")
    if state_names:
        dump = ", ".join(f"{name} & MASK" for name in state_names)
        lines.append(f"            cmd = yield [{dump}]")
    else:
        lines.append("            cmd = yield []")
    lines.append("        else:")
    lines.append("            _s = cmd[1]")
    for i, name in enumerate(state_names):
        lines.append(f"            {name} = _s[{i}]")
    lines.append("            cmd = yield None")
    lines.append("")
    return "\n".join(lines)

"""Render a :class:`~repro.codegen.program.Program` as C source.

The original work generated C and compiled it with the system compiler;
this emitter restores that: the program becomes a shared library with a
``step`` entry point operating on fixed-width unsigned words
(``uint8_t``..``uint64_t`` according to the program's word width), the
batch entry ``run_block`` (one pass per element of the batch — a
scalar vector, or a pattern-packed group of lane words, see
:mod:`repro.codegen.packing`), plus ``dump_state``/``load_state``
accessors used to seed and inspect the persistent variables.  Every
exported name carries the ``repro_`` prefix of the
:data:`~repro.codegen.program.ENTRY_POINTS` table, so the library
loads with a plain ``cc -shared -fPIC`` and no symbol of it collides
with the C library's.  Masking is free — the C types wrap naturally —
so the emitted expressions match the paper's listings one for one.
"""

from __future__ import annotations

from repro.codegen.program import (
    C_SYMBOL_PREFIX,
    ENTRY_POINTS,
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

__all__ = ["emit_c", "render_expr_c", "C_WORD_TYPES"]

C_WORD_TYPES = {
    8: "uint8_t",
    16: "uint16_t",
    32: "uint32_t",
    64: "uint64_t",
}

#: Signed counterparts, used to render the arithmetic shift ``sar``.
C_SWORD_TYPES = {
    8: "int8_t",
    16: "int16_t",
    32: "int32_t",
    64: "int64_t",
}


def render_expr_c(expr: Expr, word_type: str) -> str:
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Const):
        suffix = "ULL" if word_type == "uint64_t" else "U"
        return f"{expr.value}{suffix}"
    if isinstance(expr, Input):
        return f"V[{expr.slot}]"
    if isinstance(expr, Un):
        child = _child(expr.a, word_type)
        if expr.op == "~":
            # Cast back: C integer promotion widens uint8/uint16 to int.
            return f"({word_type})~{child}"
        if expr.op == "popcount":
            return f"popcount_w({child})"
        return f"({word_type})(0 - {child})"
    if isinstance(expr, Bin):
        a = _child(expr.a, word_type)
        b = _child(expr.b, word_type)
        if expr.op == "sar":
            # One signed-shift instruction: the high-order bit
            # replicates into the vacated positions.
            return f"({word_type})((sword){a} >> {b})"
        if expr.op in ("<<", ">>", "+"):
            # Promotion again: keep sub-int widths honest.
            return f"({word_type})({a} {expr.op} {b})"
        return f"{a} {expr.op} {b}"
    raise CodegenError(f"unknown expression node: {expr!r}")


def _child(expr: Expr, word_type: str) -> str:
    text = render_expr_c(expr, word_type)
    if isinstance(expr, (Bin, Un)):
        return f"({text})"
    return text


def _statement_lines(
    stmts: list[Stmt], program: Program, word_type: str, indent: str
) -> list[str]:
    lines: list[str] = []
    for stmt in stmts:
        if isinstance(stmt, Comment):
            lines.append(f"{indent}/* {stmt.text} */")
        elif isinstance(stmt, Assign):
            rhs = render_expr_c(stmt.expr, word_type)
            lines.append(f"{indent}{stmt.dest} = {rhs};")
        elif isinstance(stmt, Emit):
            rhs = render_expr_c(stmt.expr, word_type)
            lines.append(f"{indent}*OUT++ = ({rhs}) & OUTMASK;")
        else:
            raise CodegenError(f"unknown statement: {stmt!r}")
    return lines


def emit_c(program: Program) -> str:
    """Produce the full C source of the shared-library machine."""
    program.validate()
    word_type = C_WORD_TYPES[program.word_width]
    suffix = "ULL" if word_type == "uint64_t" else "U"
    interface = program.interface()
    lines: list[str] = [
        f"/* generated by repro - program {program.name!r} */",
        "#include <stdint.h>",
        "",
        f"#define OUTMASK {program.output_mask}{suffix}",
        f"typedef {word_type} word;",
        f"typedef {C_SWORD_TYPES[program.word_width]} sword;",
        "",
    ]
    if program.stats().popcounts:
        lines += [
            "#if defined(__GNUC__) || defined(__clang__)",
            "static inline word popcount_w(word x) {",
            "    return (word)__builtin_popcountll("
            "(unsigned long long)x);",
            "}",
            "#else",
            "static inline word popcount_w(word x) {",
            "    word n = 0;",
            "    while (x) { x &= (word)(x - 1); n++; }",
            "    return n;",
            "}",
            "#endif",
            "",
        ]
    for name in program.state_vars:
        lines.append(
            f"static word {name} = {program.state_init[name]}{suffix};"
        )
    lines.append("")
    num_outputs = interface.output_words
    symbol = {ep.name: ep.c_symbol for ep in ENTRY_POINTS}
    lines.append(f"int {C_SYMBOL_PREFIX}num_state(void) "
                 f"{{ return {interface.state_words}; }}")
    lines.append(f"int {C_SYMBOL_PREFIX}num_outputs(void) "
                 f"{{ return {num_outputs}; }}")
    lines.append("")
    lines.append(f"void {symbol['step']}(const word *V, word *OUT) {{")
    if program.temp_vars:
        lines.append(f"    word {', '.join(program.temp_vars)};")
    lines.append("    (void)V; (void)OUT;")
    for section in (program.init, program.body, program.output):
        lines += _statement_lines(section, program, word_type, "    ")
    lines.append("}")
    lines.append("")
    num_inputs = max(1, interface.vector_words)
    lines.append(f"#define NUM_INPUTS {num_inputs}")
    lines.append(f"#define NUM_OUTPUTS {num_outputs}")
    lines.append(f"static word OUT_SCRATCH[{max(1, num_outputs)}];")
    # The batch driver: the whole vector loop stays inside the shared
    # library.  OUT == NULL discards outputs (the timing fast path);
    # otherwise each pass's emitted words land at OUT + i*NUM_OUTPUTS
    # in the caller-supplied buffer.  A pattern-packed batch is the
    # same loop over groups of lane words: packing is a data-layout
    # contract, not different code.
    step = symbol["step"]
    lines.append(f"void {symbol['run_block']}(const word *V, long n,"
                 " word *OUT) {")
    lines.append("    long i;")
    lines.append("    if (OUT) {")
    lines.append("        for (i = 0; i < n; i++) {")
    lines.append(f"            {step}(V + i * NUM_INPUTS,"
                 " OUT + i * NUM_OUTPUTS);")
    lines.append("        }")
    lines.append("    } else {")
    lines.append("        for (i = 0; i < n; i++) {")
    lines.append(f"            {step}(V + i * NUM_INPUTS, OUT_SCRATCH);")
    lines.append("        }")
    lines.append("    }")
    lines.append("}")
    lines.append("")
    lines.append(f"void {symbol['dump_state']}(word *S) {{")
    lines.append("    (void)S;")
    for i, name in enumerate(program.state_vars):
        lines.append(f"    S[{i}] = {name};")
    lines.append("}")
    lines.append("")
    lines.append(f"void {symbol['load_state']}(const word *S) {{")
    lines.append("    (void)S;")
    for i, name in enumerate(program.state_vars):
        lines.append(f"    {name} = S[{i}];")
    lines.append("}")
    lines.append("")
    return "\n".join(lines)

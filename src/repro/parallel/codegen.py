"""Code generation for the parallel technique (§3) and bit-field
trimming (§4, Fig. 9).

Unoptimized layout: every net gets a ``depth + 1``-bit field aligned at
time 0, rounded up to machine words.  Per vector:

- *init*: primary-input fields are filled with the new value in every
  bit; every other field moves its high-order bit (the previous final
  value) into bit 0;
- *body*: per gate in levelized order, a bit-parallel evaluation
  followed by a one-bit left shift ORed over the output field
  (Figs. 5-8);
- *output*: the bit-fields of the monitored nets (word mode), or the
  per-time sliding-mask samples (bit mode).

With ``trimming=True``, words classified LOW_FINAL/GAP by
:class:`~repro.parallel.bitfields.FieldLayout` are filled by bit
replication instead of being simulated and shifted, exactly as Fig. 9
describes.  The only subtlety beyond the paper's prose is the carry bit
into an ACTIVE word whose predecessor was trimmed: when the time at the
word boundary is itself a potential change of the net, the carry is
computed from the inputs' high-order bits rather than taken from the
(then stale) predecessor word.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro import telemetry
from repro.analysis.levelize import levelize
from repro.analysis.pcsets import compute_pc_sets
from repro.codegen.gates import gate_expression
from repro.codegen.program import (
    Assign,
    Bin,
    Comment,
    Const,
    Emit,
    Expr,
    Input,
    Program,
    Un,
    Var,
)
from repro.errors import CodegenError
from repro.logic import GateType
from repro.netlist.circuit import Circuit
from repro.parallel.bitfields import FieldLayout, WordClass

__all__ = ["generate_parallel_program"]


def generate_parallel_program(
    circuit: Circuit,
    *,
    word_width: int = 32,
    trimming: bool = False,
    monitored: Optional[Iterable[str]] = None,
    emit_outputs: bool = True,
    output_mode: str = "words",
    comments: bool = False,
) -> tuple[Program, FieldLayout]:
    """Generate the (un)trimmed parallel-technique program.

    Returns ``(program, layout)``.  ``output_mode`` is ``"words"``
    (emit each monitored net's field words; fast, decoded host-side) or
    ``"bits"`` (emit one value per net per time unit — the paper's
    sliding-mask trace printer).
    """
    if output_mode not in ("words", "bits"):
        raise CodegenError(f"unknown output mode: {output_mode!r}")
    with telemetry.span("emit", technique="parallel",
                        trimming=trimming, circuit=circuit.name):
        return _generate_parallel_program(
            circuit, word_width=word_width, trimming=trimming,
            monitored=monitored, emit_outputs=emit_outputs,
            output_mode=output_mode, comments=comments,
        )


def _generate_parallel_program(
    circuit: Circuit,
    *,
    word_width: int,
    trimming: bool,
    monitored: Optional[Iterable[str]],
    emit_outputs: bool,
    output_mode: str,
    comments: bool,
) -> tuple[Program, FieldLayout]:
    monitored_list = (
        list(monitored) if monitored is not None else circuit.outputs
    )
    levels = levelize(circuit)
    pc = compute_pc_sets(circuit, levels) if trimming else None
    layout = FieldLayout(
        circuit,
        levels,
        word_width=word_width,
        pc_sets=pc,
        trimming=trimming,
    )
    w = word_width
    program = Program(
        f"parallel_{circuit.name}" + ("_trim" if trimming else ""),
        word_width=w,
        inputs=circuit.inputs,
        mask_assignments=True,
    )

    # Declarations.  Constant nets hold their value in every bit and are
    # never touched again.
    const_nets: dict[str, int] = {}
    for gate in circuit.gates.values():
        if gate.gate_type is GateType.CONST0:
            const_nets[gate.output] = 0
        elif gate.gate_type is GateType.CONST1:
            const_nets[gate.output] = program.word_mask
    for net_name in circuit.nets:
        spec = layout.field(net_name)
        for word in spec.words:
            program.declare(word, const_nets.get(net_name, 0))

    num_words = layout.max_words()
    temps = [program.declare_temp(f"tmp{j}") for j in range(num_words)]

    _generate_init(program, circuit, layout, const_nets, comments)
    _generate_body(
        program, circuit, levels, layout, pc, temps, const_nets, comments
    )
    if emit_outputs:
        _generate_outputs(
            program, layout, monitored_list, levels.depth, output_mode
        )
    program.validate()
    return program, layout


def _generate_init(
    program: Program,
    circuit: Circuit,
    layout: FieldLayout,
    const_nets: dict[str, int],
    comments: bool,
) -> None:
    w = layout.word_width
    if comments:
        program.init.append(Comment("per-vector field initialization"))
    for slot, net_name in enumerate(circuit.inputs):
        spec = layout.field(net_name)
        # Primary inputs change only at time 0: every bit gets the new
        # value (0/1 replicated by two's-complement negation).
        for word in spec.words:
            program.init.append(Assign(word, Un("-", Input(slot))))
    for net_name, net in circuit.nets.items():
        if net.driver is None or net_name in const_nets:
            continue
        spec = layout.field(net_name)
        top = Var(spec.top)
        if spec.classes[0] is WordClass.LOW_FINAL:
            # Whole low word(s) hold the previous final value.
            program.init.append(
                Assign(spec.words[0], Bin("sar", top, Const(w - 1)))
            )
            for j in range(1, spec.num_words):
                if spec.classes[j] is WordClass.LOW_FINAL:
                    program.init.append(
                        Assign(spec.words[j], Var(spec.words[0]))
                    )
        else:
            # Previous final value (high-order bit) into bit 0.
            program.init.append(
                Assign(spec.words[0], Bin(">>", top, Const(w - 1)))
            )


def _generate_body(
    program: Program,
    circuit: Circuit,
    levels,
    layout: FieldLayout,
    pc,
    temps: list[str],
    const_nets: dict[str, int],
    comments: bool,
) -> None:
    w = layout.word_width
    ordered = sorted(
        circuit.topological_gates(),
        key=lambda g: levels.gate_levels[g.name],
    )
    for gate in ordered:
        if gate.fan_in == 0:
            continue
        out_spec = layout.field(gate.output)
        in_specs = [layout.field(n) for n in gate.inputs]
        if comments:
            program.body.append(
                Comment(
                    f"{gate.gate_type.value} {gate.name} -> {gate.output}"
                )
            )

        def word_expr(j: int) -> Expr:
            return gate_expression(
                gate.gate_type, [Var(s.words[j]) for s in in_specs]
            )

        if not layout.trimming:
            _emit_untrimmed(program, gate, out_spec, word_expr, temps, w)
        else:
            _emit_trimmed(
                program, gate, out_spec, word_expr, in_specs, pc, temps, w
            )


def _emit_untrimmed(
    program: Program, gate, out_spec, word_expr, temps: list[str], w: int
) -> None:
    n = out_spec.num_words
    if n == 1:
        # Fig. 6 form: C = C | ((A & B) << 1);
        out = out_spec.words[0]
        program.body.append(
            Assign(out, Bin("|", Var(out), Bin("<<", word_expr(0), Const(1))))
        )
        return
    # Fig. 8 form: temps, carries, shifted ORs.
    for j in range(n):
        program.body.append(Assign(temps[j], word_expr(j)))
    for j in range(1, n):
        program.body.append(
            Assign(out_spec.words[j],
                   Bin(">>", Var(temps[j - 1]), Const(w - 1)))
        )
    for j in range(n):
        out = out_spec.words[j]
        program.body.append(
            Assign(out, Bin("|", Var(out),
                            Bin("<<", Var(temps[j]), Const(1))))
        )


def _emit_trimmed(
    program: Program,
    gate,
    out_spec,
    word_expr,
    in_specs,
    pc,
    temps: list[str],
    w: int,
) -> None:
    net_name = gate.output
    reps = set(pc.raw_net_pc_sets[net_name])
    classes = out_spec.classes
    n = out_spec.num_words
    if n == 1 and classes[0] is WordClass.ACTIVE:
        # Single-word fields cannot be trimmed ("it has no effect on
        # circuits whose bit-fields fit in a single word", §4): emit the
        # exact unoptimized Fig. 6 form.
        _emit_untrimmed(program, gate, out_spec, word_expr, temps, w)
        return
    # Which temps are needed: an ACTIVE word needs its own temp; the
    # carry into word j reuses temp j-1 only if word j-1 is ACTIVE.
    for j in range(n):
        if classes[j] is not WordClass.ACTIVE:
            continue
        program.body.append(Assign(temps[j], word_expr(j)))
    for j in range(n):
        word = out_spec.words[j]
        cls = classes[j]
        if cls is WordClass.LOW_FINAL:
            continue  # filled during initialization
        if cls is WordClass.GAP:
            # Replicate the high-order bit of the preceding word.
            program.body.append(
                Assign(word, Bin("sar", Var(out_spec.words[j - 1]),
                                 Const(w - 1)))
            )
            continue
        # ACTIVE: carry bit, then the shifted OR.
        if j == 0:
            program.body.append(
                Assign(word, Bin("|", Var(word),
                                 Bin("<<", Var(temps[0]), Const(1))))
            )
            continue
        boundary_time = j * w  # time of this word's bit 0 (alignment 0)
        if classes[j - 1] is WordClass.ACTIVE:
            carry: Expr = Bin(">>", Var(temps[j - 1]), Const(w - 1))
        elif boundary_time in reps:
            # The boundary is a potential change: the predecessor word
            # was trimmed, so compute f(inputs at boundary-1) from the
            # inputs' high-order bits.
            operands = [
                Bin(">>", Var(s.words[j - 1]), Const(w - 1))
                for s in in_specs
            ]
            carry = Bin(
                "&",
                gate_expression(gate.gate_type, operands),
                Const(1),
            )
        else:
            # No change possible at the boundary: the value carries over
            # from the (already filled) predecessor word.
            carry = Bin(">>", Var(out_spec.words[j - 1]), Const(w - 1))
        program.body.append(Assign(word, carry))
        program.body.append(
            Assign(word, Bin("|", Var(word),
                             Bin("<<", Var(temps[j]), Const(1))))
        )


def _generate_outputs(
    program: Program,
    layout: FieldLayout,
    monitored: list[str],
    depth: int,
    output_mode: str,
) -> None:
    if output_mode == "words":
        for net_name in monitored:
            spec = layout.field(net_name)
            for j, word in enumerate(spec.words):
                program.output.append(Emit(Var(word), (net_name, j)))
        return
    # Sliding-mask trace: one emitted value per (net, time).
    for time in range(depth + 1):
        for net_name in monitored:
            word_index, bit = layout.word_index(net_name, time)
            spec = layout.field(net_name)
            program.output.append(
                Emit(
                    Bin("&", Bin(">>", Var(spec.words[word_index]),
                                 Const(bit)), Const(1)),
                    (net_name, time),
                )
            )

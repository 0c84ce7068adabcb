"""Code generation for the shift-eliminated parallel technique (§4).

With per-net alignments the gate result is *already aligned* with its
output field (the unit delay is absorbed by condition 4), so no shift
follows a gate evaluation; instead each reader aligns its operands —
"shifts are done at the inputs of a gate rather than the outputs"
(Fig. 18).  Right shifts replicate the high-order bit into the vacated
positions (the settled value); left shifts replicate bit 0 (the
previous vector's value, guaranteed available because left-shifted nets
are aligned strictly below their minlevel).

Initialization shrinks to the primary inputs (negative alignments fill
the bits of negative index with the previous value, §4) — unless
bit-field trimming is also on, in which case the low-order words
without PC-set representatives are re-initialized from the previous
final value, exactly as §5 notes for the Fig. 24 combination.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro import telemetry
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
from repro.parallel.alignment import Alignment
from repro.parallel.bitfields import FieldLayout, FieldSpec, WordClass

__all__ = ["generate_aligned_program"]


def generate_aligned_program(
    circuit: Circuit,
    alignment: Alignment,
    *,
    word_width: int = 32,
    trimming: bool = False,
    monitored: Optional[Iterable[str]] = None,
    emit_outputs: bool = True,
    output_mode: str = "words",
    comments: bool = False,
) -> tuple[Program, FieldLayout]:
    """Generate the shift-eliminated program for ``circuit``.

    ``alignment`` comes from :func:`~repro.parallel.pathtrace.
    path_tracing_alignment` or :func:`~repro.parallel.cyclebreak.
    cycle_breaking_alignment`.  Returns ``(program, layout)``.
    """
    if output_mode not in ("words", "bits"):
        raise CodegenError(f"unknown output mode: {output_mode!r}")
    with telemetry.span("emit", technique="parallel-aligned",
                        trimming=trimming, circuit=circuit.name):
        return _generate_aligned_program(
            circuit, alignment, word_width=word_width, trimming=trimming,
            monitored=monitored, emit_outputs=emit_outputs,
            output_mode=output_mode, comments=comments,
        )


def _generate_aligned_program(
    circuit: Circuit,
    alignment: Alignment,
    *,
    word_width: int,
    trimming: bool,
    monitored: Optional[Iterable[str]],
    emit_outputs: bool,
    output_mode: str,
    comments: bool,
) -> tuple[Program, FieldLayout]:
    alignment.validate()
    monitored_list = (
        list(monitored) if monitored is not None else circuit.outputs
    )
    levels = alignment.levels
    pc = compute_pc_sets(circuit, levels)
    layout = FieldLayout(
        circuit,
        levels,
        word_width=word_width,
        alignments=alignment.alignments_dict(),
        pc_sets=pc,
        trimming=trimming,
    )
    w = word_width
    program = Program(
        f"parallel_{circuit.name}_{alignment.algorithm}"
        + ("_trim" if trimming else ""),
        word_width=w,
        inputs=circuit.inputs,
        mask_assignments=True,
    )

    const_nets: dict[str, int] = {}
    for gate in circuit.gates.values():
        if gate.gate_type is GateType.CONST0:
            const_nets[gate.output] = 0
        elif gate.gate_type is GateType.CONST1:
            const_nets[gate.output] = program.word_mask
    for net_name in circuit.nets:
        for word in layout.field(net_name).words:
            program.declare(word, const_nets.get(net_name, 0))
    t_old = program.declare_temp("t_old")

    _generate_init(
        program, circuit, layout, const_nets, t_old, comments
    )
    _generate_body(
        program, circuit, levels, layout, alignment, const_nets, comments
    )
    if emit_outputs:
        _generate_outputs(
            program, layout, monitored_list, levels.depth, output_mode
        )
    program.validate()
    return program, layout


# ----------------------------------------------------------------------
# initialization
# ----------------------------------------------------------------------
def _generate_init(
    program: Program,
    circuit: Circuit,
    layout: FieldLayout,
    const_nets: dict[str, int],
    t_old: str,
    comments: bool,
) -> None:
    w = layout.word_width
    if comments:
        program.init.append(Comment("primary-input reads"))
    for slot, net_name in enumerate(circuit.inputs):
        spec = layout.field(net_name)
        zero_bit = spec.bitpos(0)  # index of time 0 (= -alignment >= 0)
        if zero_bit == 0:
            for word in spec.words:
                program.init.append(Assign(word, Un("-", Input(slot))))
            continue
        # Bits below the time-0 index keep the previous value (taken
        # from the settled high-order bit), bits at or above it get the
        # new value (§4's negative-alignment rule).
        program.init.append(
            Assign(t_old, Bin("sar", Var(spec.top), Const(w - 1)))
        )
        for j, word in enumerate(spec.words):
            low = zero_bit - j * w  # first new bit within this word
            if low >= w:
                program.init.append(Assign(word, Var(t_old)))
            elif low <= 0:
                program.init.append(Assign(word, Un("-", Input(slot))))
            else:
                old_part = Bin("&", Var(t_old), Const((1 << low) - 1))
                new_part = Bin("<<", Un("-", Input(slot)), Const(low))
                program.init.append(
                    Assign(word, Bin("|", old_part, new_part))
                )
    if not layout.trimming:
        return
    if comments:
        program.init.append(Comment("trimmed low-word re-initialization"))
    for net_name, net in circuit.nets.items():
        if net.driver is None or net_name in const_nets:
            continue
        spec = layout.field(net_name)
        first_low = None
        for j, cls in enumerate(spec.classes):
            if cls is WordClass.LOW_FINAL:
                if first_low is None:
                    first_low = j
                    program.init.append(
                        Assign(spec.words[j],
                               Bin("sar", Var(spec.top), Const(w - 1)))
                    )
                else:
                    program.init.append(
                        Assign(spec.words[j], Var(spec.words[first_low]))
                    )


# ----------------------------------------------------------------------
# gate bodies
# ----------------------------------------------------------------------
def _extract_word(
    spec: FieldSpec, start_bit: int, w: int
) -> Expr:
    """W bits of a net's field starting at (possibly out-of-range)
    ``start_bit``.

    Bits above the field replicate the high-order bit (the settled
    value) — realized with the arithmetic shift ``sar``, one
    instruction, exactly the paper's "replicated from the high-order
    bit".  Bits below bit 0 replicate bit 0 (the previous vector's
    value — legal only for left-shifted nets, which the alignment pass
    keeps strictly below their minlevel).
    """
    n = spec.num_words
    q, r = divmod(start_bit, w)

    def word_at(m: int) -> Expr:
        if 0 <= m < n:
            return Var(spec.words[m])
        if m >= n:
            return Bin("sar", Var(spec.top), Const(w - 1))
        return Un("-", Bin("&", Var(spec.words[0]), Const(1)))

    if r == 0:
        return word_at(q)
    if q >= n:
        # Entirely above the field: replicated settled value.
        return Bin("sar", Var(spec.top), Const(w - 1))
    if q == n - 1:
        # Straddles the top: one arithmetic shift does shift + replicate.
        return Bin("sar", Var(spec.top), Const(r))
    if q < -1:
        # Entirely below the field: replicated previous value.
        return word_at(-1)
    low = word_at(q)
    high = word_at(q + 1)
    return Bin("|", Bin(">>", low, Const(r)),
               Bin("<<", high, Const(w - r)))


def _generate_body(
    program: Program,
    circuit: Circuit,
    levels,
    layout: FieldLayout,
    alignment: Alignment,
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
        shifts = [
            alignment.input_shift(gate.name, n) for n in gate.inputs
        ]
        if comments:
            shift_note = ",".join(str(s) for s in shifts)
            program.body.append(
                Comment(
                    f"{gate.gate_type.value} {gate.name} -> {gate.output}"
                    f" (input shifts {shift_note})"
                )
            )
        for j in range(out_spec.num_words):
            cls = out_spec.classes[j]
            if cls is WordClass.LOW_FINAL:
                continue  # re-initialized per vector
            word = out_spec.words[j]
            if cls is WordClass.GAP:
                program.body.append(
                    Assign(word, Bin("sar", Var(out_spec.words[j - 1]),
                                     Const(w - 1)))
                )
                continue
            operands = [
                _extract_word(spec, j * w + shift, w)
                for spec, shift in zip(in_specs, shifts)
            ]
            program.body.append(
                Assign(word, gate_expression(gate.gate_type, operands))
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
    for time in range(depth + 1):
        for net_name in monitored:
            spec = layout.field(net_name)
            pos = max(0, spec.bitpos(time))
            program.output.append(
                Emit(
                    Bin("&", Bin(">>", Var(spec.words[pos // layout.word_width]),
                                 Const(pos % layout.word_width)), Const(1)),
                    (net_name, time),
                )
            )

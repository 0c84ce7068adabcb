"""Zero-delay LCC code generation and simulation (Fig. 1).

One variable per net; one statement per gate, in levelized order.  Each
run settles the circuit on a vector, so this simulator also provides the
compiled steady-state engine used to seed the unit-delay simulators.

Because the generated code is purely bit-wise (no shifts), the very same
program simulates ``word_width`` independent vectors at once when the
inputs are packed one vector per bit — classic compiled zero-delay
bit-parallelism, reproduced here for the §5 "1/23" comparison.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Sequence

from repro import telemetry
from repro.analysis.levelize import levelize
from repro.codegen.gates import gate_expression
from repro.codegen.naming import NameAllocator
from repro.codegen.packing import packing_mode, validate_packed_words
from repro.codegen.probes import ProbeSpec, instrument_lcc_program
from repro.codegen.program import Assign, Emit, Input, Program, Var
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.simbase import CompiledSimulator

__all__ = ["generate_lcc_program", "LCCSimulator"]


def generate_lcc_program(
    circuit: Circuit,
    *,
    word_width: int = 32,
    emit_outputs: bool = True,
) -> Program:
    """Generate the zero-delay LCC program for a circuit.

    Input slot ``k`` carries the value(s) of the ``k``-th primary input:
    bit ``j`` belongs to packed vector ``j``, so passing plain 0/1 values
    simulates a single vector.
    """
    with telemetry.span("emit", technique="lcc", circuit=circuit.name):
        return _generate_lcc_program(
            circuit, word_width=word_width, emit_outputs=emit_outputs
        )


def _generate_lcc_program(
    circuit: Circuit,
    *,
    word_width: int,
    emit_outputs: bool,
) -> Program:
    program = Program(
        f"lcc_{circuit.name}",
        word_width=word_width,
        inputs=circuit.inputs,
        mask_assignments=False,
    )
    names = NameAllocator()
    for net_name in circuit.nets:
        program.declare(names.get(net_name))
    for slot, net_name in enumerate(circuit.inputs):
        program.init.append(Assign(names.get(net_name), Input(slot)))
    levels = levelize(circuit)
    ordered = sorted(
        circuit.topological_gates(),
        key=lambda g: (levels.gate_levels[g.name], g.name),
    )
    for gate in ordered:
        operands = [Var(names.get(i)) for i in gate.inputs]
        program.body.append(
            Assign(names.get(gate.output),
                   gate_expression(gate.gate_type, operands))
        )
    if emit_outputs:
        for net_name in circuit.outputs:
            program.output.append(
                Emit(Var(names.get(net_name)), (net_name,))
            )
    program.validate()
    return program


class LCCSimulator(CompiledSimulator):
    """Compiled zero-delay simulator.

    ``backend`` is ``"python"`` or ``"c"``.  ``evaluate`` settles one
    vector and returns the monitored outputs; ``apply_vectors`` settles
    a whole batch with the vector loop inside the generated code;
    ``run_batch`` times many vectors and folds a checksum compatible
    with the interpreted
    :class:`repro.eventsim.zerodelay.ZeroDelaySimulator`.  Execution
    — packing, prepared batches, probes — is the shared
    :class:`~repro.simbase.CompiledSimulator` executor; the program is
    memoryless, so no :meth:`reset` is needed before running.

    Pattern-lane packing: the LCC program is shift-free and memoryless
    (:func:`repro.codegen.packing.packing_mode` returns ``"full"``), so
    batches of plain 0/1 vectors are automatically transposed into lane
    words and driven ``word_width`` vectors per compiled pass.
    ``packed="auto"`` (default) packs whenever the batch is eligible
    (all values 0/1); ``packed=False`` forces the scalar
    ``run_block`` path — the paper's one-vector-per-pass
    configuration; ``packed=True`` requires packing and raises
    :class:`SimulationError` when a batch is ineligible.  Both paths
    are bit-identical in their results; only the per-pass lane count
    differs.  (The machine's persistent state is scratch for this
    memoryless program, so only outputs are specified across paths.)
    Input words pass through unmasked: a multi-bit word is the classic
    packed-input mode of :meth:`evaluate_packed` and runs scalar.

    Probes: ``probes=`` compiles per-net toggle counters into the
    generated pass (see :mod:`repro.codegen.probes`).  A pseudo-input
    carries the lane-occupancy mask — a 1 appended to every vector, so
    a packed batch's pattern block gains one all-ones bit plane and
    counts all ``word_width`` lanes with one popcount per net per pass.
    Seed the baseline with :meth:`probe_reset`, run batches, then read
    :meth:`activity_report` (zero delay sees at most one transition
    per net per vector, so functional toggles equal total toggles).
    Probed batches require plain 0/1 vectors (the counters chain
    consecutive lanes as consecutive vectors).
    """

    _words_masked = False

    def __init__(
        self,
        circuit: Circuit,
        *,
        backend: str = "python",
        word_width: int = 32,
        packed: bool | str = "auto",
        probes=None,
    ) -> None:
        if packed not in (True, False, "auto"):
            raise SimulationError(
                f"packed must be True, False or 'auto': {packed!r}"
            )
        spec = ProbeSpec.coerce(probes)
        program = generate_lcc_program(circuit, word_width=word_width)
        # Recorded *before* probe instrumentation: the probe statements
        # use shifts and popcounts, which are lane-safe here by
        # construction but would classify the program ``"none"``.
        mode = packing_mode(program)
        super().__init__(
            circuit, program, backend=backend,
            probe_plan=(
                instrument_lcc_program(program, circuit, spec)
                if spec is not None else None
            ),
            packing_override=mode,
        )
        self.word_width = word_width
        self.packed = packed
        self._outputs = circuit.outputs
        # Memoryless: every pass settles from the inputs alone.
        self._settled = True

    def _encode_state(self, settled: Mapping[str, int]) -> list[int]:
        # One variable per net, in circuit order (scratch: every pass
        # rewrites it before reading it).
        return [settled[net] & 1 for net in self.circuit.nets]

    def _vector_words(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> list[int]:
        """The vector's words, unmasked; probed runs append the 1 of
        the ``__probe_en`` occupancy input."""
        values = super()._vector_words(vector)
        if self._probe_runtime is None:
            return values
        for value in values:
            if value not in (0, 1):
                raise SimulationError(
                    "probed runs take plain 0/1 vectors; the "
                    "counters chain lanes as consecutive vectors, "
                    "so pre-packed multi-bit words are not countable"
                )
        return values + [1]

    def evaluate(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> dict[str, int]:
        """Settle on one vector; returns monitored output values."""
        out = self.apply_vector(vector)
        return {name: value & 1 for name, value in zip(self._outputs, out)}

    def evaluate_packed(
        self, vector: Sequence[int]
    ) -> dict[str, int]:
        """Settle ``word_width`` packed vectors at once.

        Slot ``k`` of ``vector`` carries bit ``j`` = value of input ``k``
        in packed vector ``j``; the returned words are packed the same
        way.  Words are validated against the word width up front —
        an oversized word would be truncated by the C backend (and not
        by the Python one), silently corrupting whole lanes.
        """
        if self._probe_runtime is not None:
            raise SimulationError(
                "evaluate_packed carries word_width unrelated vectors "
                "per call; probe counting chains lanes as consecutive "
                "vectors — use apply_vectors with 0/1 vectors instead"
            )
        words = self._vector_words(vector)
        validate_packed_words(
            words, self.word_width, context="packed input word"
        )
        out = self.machine.step(words)
        return dict(zip(self._outputs, out))

    def evaluate_all_nets(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> dict[str, int]:
        """Settle and return every net's value (from machine state)."""
        self.apply_vector(vector)
        state = self.machine.state_dict()
        # State variable order matches circuit.nets insertion order
        # (probe state is declared after every net variable).
        return {
            net_name: state[var] & 1
            for net_name, var in zip(self.circuit.nets, state)
        }

    def apply_vectors(
        self, vectors: Sequence[Mapping[str, int] | Sequence[int]]
    ) -> list[list[int]]:
        """Settle a batch; returns per-vector raw output words.

        Bit-identical to ``[self.machine.step(v) for v in vectors]``.
        Eligible 0/1 batches are pattern-packed — ``word_width``
        vectors per compiled pass — and the exact scalar words are
        reconstructed on unpacking
        (:func:`~repro.codegen.packing.packed_apply`); everything else
        runs through the scalar ``run_block`` loop.  (Defined here, not
        only inherited, so ``perfbench/tracing.py`` can wrap it as the
        zero-delay facade.)
        """
        return super().apply_vectors(vectors)

    # ------------------------------------------------------------------
    # checksum folding
    # ------------------------------------------------------------------
    @property
    def _fold_bits(self) -> int:
        """Width of the checksum accumulator, derived from the word.

        ``2 * word_width - 2`` — at the historical default width of 32
        this is the 62-bit fold the interpreted
        :class:`~repro.eventsim.zerodelay.ZeroDelaySimulator` uses, so
        the two engines stay checksum-compatible; wider/narrower
        programs get a proportionally sized accumulator instead of a
        hardcoded rotate.
        """
        return 2 * self.word_width - 2

    def _fold(self, folded: int, bit: int) -> int:
        bits = self._fold_bits
        folded = ((folded << 1) | (folded >> (bits - 1))) & ((1 << bits) - 1)
        return folded ^ bit

    def run_batch(self, vectors: Sequence[Sequence[int]]) -> int:
        """Simulate many (unpacked) vectors; fold outputs to a checksum.

        The checksum folds each output's *logical* (bit-0) value, so the
        packed and scalar paths produce the same result; eligible
        batches run packed (one pass per ``word_width`` vectors).
        """
        checksum = 0
        for out in self.apply_vectors(vectors):
            folded = 0
            for value in out:
                folded = self._fold(folded, value & 1)
            checksum ^= folded
        return checksum

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def probe_reset(
        self, vector: Mapping[str, int] | Sequence[int] | None = None
    ) -> None:
        """Seed the toggle baseline from one settled (uncounted) vector.

        Settles ``vector`` (default all zeros), keeps the resulting
        per-net values as the previous-value bits, and zeroes the
        counters — the next batch's first vector toggles relative to
        this baseline, exactly like a zero-delay reference that starts
        from the same vector.
        """
        if self._probe_runtime is None:
            raise SimulationError(
                "simulator was built without probes=; nothing to seed"
            )
        if vector is None:
            vector = [0] * len(self._inputs)
        self.machine.step(self._vector_words(vector))
        self._probe_runtime.discard(self.machine)

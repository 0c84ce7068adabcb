"""Shared behaviour of the compiled-simulator facades.

Every compiled technique (PC-set, parallel, and their optimized
variants) wraps a generated :class:`~repro.codegen.program.Program` the
same way: compile it on a backend, seed the persistent state from a
zero-delay steady state, feed vectors, decode outputs.  This module
hosts that common machinery; the technique-specific subclasses provide
only the program generation and the state encoding/decoding.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Optional, Sequence

from repro import telemetry
from repro.codegen.packing import (
    PatternBlock,
    packed_apply,
    packing_mode,
    pattern_block,
)
from repro.codegen.probes import ProbePlan, ProbeRuntime
from repro.codegen.program import Program
from repro.codegen.runtime import CMachine, Machine, compile_program
from repro.errors import SimulationError
from repro.eventsim.zerodelay import steady_state
from repro.netlist.circuit import Circuit

__all__ = ["CompiledSimulator"]


class CompiledSimulator:
    """Base class for compiled unit-delay simulator facades.

    Parameters
    ----------
    circuit:
        The acyclic circuit being simulated.
    program:
        The generated program (built by the subclass).
    backend:
        ``"python"`` (default) or ``"c"``.
    with_outputs:
        When false, the program's output section is dropped before
        compilation — the configuration benchmarks time, matching the
        paper's methodology of excluding output handling from
        measurements.  Output-decoding APIs then raise.
    """

    #: Words per net: always one.  The end-to-end benchmark records it
    #: in its plan, so it stays readable.
    tiles = 1

    #: Pattern-lane packing policy of ``"full"``-mode programs (see
    #: :meth:`_pattern_block`); a subclass may expose it as a knob.
    packed: "bool | str" = "auto"
    #: Whether :meth:`_vector_words` reduces every value to its bit 0
    #: (machine-ready: no masking to the word width is needed).  A
    #: subclass that takes whole input words (one lane per bit) clears
    #: it; its words then pass through unmasked and the machines mask.
    _words_masked = True

    def __init__(
        self,
        circuit: Circuit,
        program: Program,
        *,
        backend: str = "python",
        with_outputs: bool = True,
        checksum_mask: Optional[int] = None,
        probe_plan: Optional[ProbePlan] = None,
        packing_override: Optional[str] = None,
        **backend_kwargs,
    ) -> None:
        self.circuit = circuit
        self.program = program
        self.backend = backend
        self.with_outputs = with_outputs
        self.checksum_mask = (
            checksum_mask if checksum_mask is not None else program.word_mask
        )
        compiled = program if with_outputs else program.without_output()
        self._compiled_program = compiled
        self.machine: Machine = compile_program(
            compiled, backend, **backend_kwargs
        )
        #: Pattern-lane packing eligibility of the *compiled* program
        #: (``"full"``/``"settled"``/``"none"`` — see
        #: :mod:`repro.codegen.packing`).  Programs with shifts or
        #: negates (the §3 parallel technique's time-shift code) are
        #: ``"none"`` and always run scalar; the PC-set method is
        #: ``"settled"`` (its zero-element moves read previous-vector
        #: finals), so only settled-value observers may pack it.
        #: Probe-instrumented programs pass the *uninstrumented*
        #: program's mode via ``packing_override`` — the probe
        #: statements use popcounts and shifts that are lane-safe by
        #: construction but would classify the program ``"none"``.
        self.packing_mode = (
            packing_override if packing_override is not None
            else packing_mode(compiled)
        )
        self.probe_plan = probe_plan
        self._probe_runtime = (
            ProbeRuntime(probe_plan, program)
            if probe_plan is not None else None
        )
        self._inputs = circuit.inputs
        self._settled = False

    # ------------------------------------------------------------------
    # state seeding
    # ------------------------------------------------------------------
    def reset(
        self, vector: Mapping[str, int] | Sequence[int] | None = None
    ) -> None:
        """Seed the previous-vector steady state.

        Settles the circuit on ``vector`` (default: all zeros) with a
        zero-delay evaluation and loads the resulting values into the
        persistent variables, encoded however the technique requires.
        """
        if vector is None:
            vector = [0] * len(self._inputs)
        with telemetry.span("seed"):
            settled = steady_state(self.circuit, vector)
            state = self._encode_state(settled)
            if self.probe_plan is not None:
                if self._settled and self._probe_runtime is not None:
                    # Keep whatever the counters accumulated so far;
                    # the reload below would silently discard it.
                    self._probe_runtime.drain(self.machine)
                state = state + [0] * self.probe_plan.state_pad
            self.machine.load_state(state)
        self._settled = True

    def _encode_state(self, settled: Mapping[str, int]) -> list[int]:
        """Persistent-state words for a constant-history steady state."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _vector_words(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> list[int]:
        """One input word per primary input: the value's bit 0, or —
        where :attr:`_words_masked` is false — the caller's word."""
        if isinstance(vector, Mapping):
            missing = [n for n in self._inputs if n not in vector]
            if missing:
                raise SimulationError(f"vector missing inputs: {missing}")
            values = [vector[n] for n in self._inputs]
        else:
            values = list(vector)
            if len(values) != len(self._inputs):
                raise SimulationError(
                    f"vector has {len(values)} values, expected "
                    f"{len(self._inputs)}"
                )
        if self._words_masked:
            return [value & 1 for value in values]
        return values

    def _batch_words(
        self, vectors: Sequence[Mapping[str, int] | Sequence[int]]
    ) -> list[list[int]]:
        """:meth:`_vector_words` per vector; errors name the vector.

        Where the words pass through unmasked and unextended (no probe
        column), lists of the right length are already the machine's
        words and are used uncopied (nothing downstream mutates them).
        """
        convert = self._vector_words
        try:
            if self._words_masked or self._probe_runtime is not None:
                return list(map(convert, vectors))
            width = len(self._inputs)
            return [
                vector if type(vector) is list and len(vector) == width
                else convert(vector)
                for vector in vectors
            ]
        except SimulationError:
            for index, vector in enumerate(vectors):
                try:
                    self._vector_words(vector)
                except SimulationError as exc:
                    raise SimulationError(
                        f"batch vector {index}: {exc}"
                    ) from None
            raise

    def apply_vector(
        self, vector: Mapping[str, int] | Sequence[int]
    ) -> list[int]:
        """Simulate one vector; returns the raw emitted output words."""
        if not self._settled:
            raise SimulationError("call reset() before apply_vector()")
        out = self.machine.step(self._vector_words(vector))
        if self._probe_runtime is not None:
            self._probe_runtime.note_vectors(self.machine, 1)
        return out

    def apply_vectors(
        self, vectors: Sequence[Mapping[str, int] | Sequence[int]]
    ) -> list[list[int]]:
        """Simulate a batch; returns per-vector raw output words.

        Bit-identical to ``[self.apply_vector(v) for v in vectors]``.
        When the compiled program is ``"full"``-mode packable
        (shift-free *and* memoryless), a batch of plain 0/1 vectors is
        pattern-packed (see :meth:`_pattern_block`) — ``word_width``
        vectors per compiled pass — exact scalar words reconstructed on
        unpacking.  Shift programs (the §3 parallel technique) and
        ``"settled"`` programs (the PC-set method, whose
        intermediate-time values depend on cross-pass state) run the
        scalar ``run_block`` loop.  Probed batches run in chunks short
        enough that no compiled counter can wrap between drains.
        """
        if not self._settled:
            raise SimulationError("call reset() before apply_vectors()")
        words = self._batch_words(vectors)
        block = self._pattern_block(words)
        runtime = self._probe_runtime
        if block is not None and runtime is None:
            telemetry.counter("packing.packed_batches")
            return packed_apply(self.machine, block)
        telemetry.counter(
            "packing.packed_batches" if block is not None
            else f"packing.fallback.{self.packing_mode}"
        )
        masked = self._words_masked
        if runtime is None:
            return self.machine.step_many(words, masked=masked)
        out: list[list[int]] = []
        for start, length in runtime.chunk_vectors(len(words)):
            if block is not None:
                out.extend(packed_apply(
                    self.machine, block.part(start, length)
                ))
            else:
                out.extend(self.machine.step_many(
                    words[start:start + length], masked=masked
                ))
            runtime.note_vectors(self.machine, length)
        return out

    def _pattern_block(
        self, words: list[list[int]]
    ) -> Optional[PatternBlock]:
        """The batch as a pattern block, or ``None`` to run it scalar.

        Only ``"full"``-mode programs pack, under the ``packed``
        policy: ``"auto"`` packs whenever every value is 0/1, ``False``
        never packs, ``True`` raises :class:`SimulationError` for a
        batch (or a program) that cannot.  Multi-bit words — a
        subclass's packed-input mode — already occupy all lanes and go
        through the scalar path unchanged.
        """
        if self.packed is False or self.packing_mode != "full":
            if self.packed is True:
                raise SimulationError(
                    f"packed=True but program mode is "
                    f"{self.packing_mode!r}"
                )
            return None
        if not self._lanes_countable():
            return None
        block = PatternBlock.from_rows(words, self.program.word_width)
        if block is None and self.packed is True:
            raise SimulationError(
                "packed=True requires plain 0/1 vectors (one lane each)"
            )
        return block

    def _lanes_countable(self) -> bool:
        """Inputs to pack, and probes (if any) that count every lane.

        Only an occupancy input (the zero-delay ``__probe_en``) lets
        compiled counters see packed lanes; other probe plans count
        lane 0 alone and keep their batches scalar.
        """
        return bool(self._inputs) and (
            self.probe_plan is None or self.probe_plan.en_slot is not None
        )

    def prepare_batch(self, vectors: Sequence[Sequence[int]]):
        """Marshal a batch once, outside any timed region.

        On the C backend the batch becomes one contiguous native buffer
        driven by the generated ``run_block`` loop, so the timed region
        contains no interpreter work at all (the paper's timing loop
        was compiled too).  On the Python backend the vectors are
        pre-marshalled and the timed run is a single batched send into
        the generated coroutine's in-frame loop.  Probed batches are
        split into wrap-free parts (one part at any realistic word
        width; tiny widths get several).  Returns ``(machine, parts)``.
        """
        with telemetry.span("pack"):
            words = self._batch_words(vectors)
            size = max(1, len(words))
            if self._probe_runtime is not None:
                size = self._probe_runtime.chunk
            chunks = [
                words[i:i + size] for i in range(0, len(words), size)
            ]
            return (
                self.machine,
                [self._part(rows, len(rows)) for rows in chunks],
            )

    def prepare_packed(self, vectors: Sequence[Sequence[int]]):
        """Transpose + marshal a pattern batch outside the timed region.

        The timed run is then pure compiled passes —
        ``ceil(len(vectors) / word_width)`` of them.
        Raises :class:`SimulationError` when the program or the batch
        is not packable (the caller asked for the packed configuration
        explicitly).  Probed batches are split into wrap-free parts of
        whole lane groups; each part's occupancy plane covers exactly
        its own vectors.
        """
        words = self._batch_words(vectors)
        if self.packing_mode != "full" or not self._lanes_countable():
            raise SimulationError(
                f"program {self.program.name!r} is not pattern-packable "
                f"(mode {self.packing_mode!r})"
            )
        width = self.program.word_width
        block = pattern_block(words, width)
        size = max(1, block.count)
        if self._probe_runtime is not None:
            size = max(1, self._probe_runtime.chunk // width) * width
        blocks = [
            block.part(start, min(size, block.count - start))
            for start in range(0, block.count, size)
        ]
        return (
            self.machine,
            [self._part(part, part.count) for part in blocks],
        )

    def _part(self, rows, represented: int) -> tuple:
        """One pre-marshalled run: ``(payload, passes, vectors)``.

        ``rows`` is a list of pass rows or a
        :class:`~repro.codegen.packing.PatternBlock`; the C backend
        gets it as one native buffer.
        """
        if isinstance(self.machine, CMachine):
            return (self.machine.pack_block(rows), len(rows), represented)
        if not (self._words_masked or isinstance(rows, PatternBlock)):
            mask = self.program.word_mask
            rows = [[value & mask for value in row] for row in rows]
        return (rows, len(rows), represented)

    def run_prepared(self, prepared) -> None:
        """Run a batch from :meth:`prepare_batch`/:meth:`prepare_packed`.

        Outputs are discarded — this is the timing fast path; the
        throughput counters record scalar vectors simulated either way.
        """
        if not self._settled:
            raise SimulationError("call reset() before running")
        machine, parts = prepared
        runtime = self._probe_runtime
        if runtime is not None:
            # Start from zeroed counters so each pre-marshalled part
            # has the full wrap-free budget.
            runtime.drain(self.machine)
        for payload, passes, represented in parts:
            if isinstance(machine, CMachine):
                machine.run_packed(
                    payload, passes, vectors_represented=represented
                )
            elif isinstance(payload, PatternBlock):
                machine.run_packed_block(
                    payload, vectors_represented=represented
                )
            else:
                machine.run_block(payload, masked=True)
            if runtime is not None:
                runtime.note_vectors(self.machine, represented)

    def run_batch(self, vectors: Sequence[Sequence[int]]) -> None:
        """Simulate many vectors back to back (the timing fast path)."""
        self.run_prepared(self.prepare_batch(vectors))

    def run_batch_checksum(self, vectors: Sequence[Sequence[int]]) -> int:
        """Simulate many vectors and fold all emitted outputs.

        Requires ``with_outputs=True``.  Used to cross-check that two
        backends (or two techniques with identical output routines)
        compute the same results.
        """
        if not self.with_outputs:
            raise SimulationError(
                "simulator was built without outputs; cannot checksum"
            )
        checksum = 0
        mask = self.checksum_mask
        for out in self.apply_vectors(vectors):
            folded = 0
            for value in out:
                folded = ((folded << 7) | (folded >> 55)) & (2**62 - 1)
                folded ^= value & mask
            checksum ^= folded
        return checksum

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    @property
    def probe_runtime(self) -> Optional[ProbeRuntime]:
        return self._probe_runtime

    def activity_report(self):
        """Drain the compiled-in probe counters into an ActivityReport.

        Requires the simulator to have been built with ``probes=``.
        The report is cumulative since construction (or the last
        checkpoint restore) and bit-identical to the history-based
        :func:`repro.activity.collect_activity` over the same vectors.
        """
        if self._probe_runtime is None:
            raise SimulationError(
                "simulator was built without probes=; no activity "
                "counters to report"
            )
        self._probe_runtime.drain(self.machine)
        return self._probe_runtime.report()

    def capture_trace(
        self,
        vectors: Sequence[Mapping[str, int] | Sequence[int]],
        writer,
        nets: Optional[Sequence[str]] = None,
    ) -> None:
        """Stream selected nets' settling histories into a VCD writer.

        One vector at a time: each history is decoded and handed to
        ``writer.add_vector`` immediately, so the batch's histories
        are never materialized together.  ``nets`` defaults to the
        probe spec's ``trace_nets`` (every net when unset).
        """
        if nets is None:
            if (self.probe_plan is not None
                    and self.probe_plan.spec.trace_nets):
                nets = self.probe_plan.spec.trace_nets
            else:
                nets = list(self.circuit.nets)
        for vector in vectors:
            history = self.apply_vector_history(vector)
            writer.add_vector({n: history[n] for n in nets})

    # ------------------------------------------------------------------
    @property
    def counters(self):
        """Per-batch throughput counters of the machine."""
        return self.machine.counters

    def output_labels(self) -> list[tuple]:
        return self.machine.output_labels()

    def source(self) -> str:
        """The generated source the machine was compiled from."""
        return getattr(self.machine, "source", "")

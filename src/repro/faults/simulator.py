"""Parallel (lane-per-fault) stuck-at fault simulation.

Bit lane 0 of every word carries the fault-free machine; each further
lane carries one faulty machine.  The PC-set program makes this almost
free: its generated code is purely bit-wise (§3), so the only addition
is, after every write to a variable of a *faulted* net, one masking
statement

    N_t = (N_t & FMASK) | FVAL

where ``FMASK``/``FVAL`` are per-net extra input words pinning the
faulty lanes to their stuck values and leaving every other lane
untouched.  Faults are processed in batches of ``word_width - 1``; a
fault is *detected* by a vector when any monitored output's settled
value differs from lane 0's.

:func:`serial_fault_simulation` is the brute-force reference — one
full event-driven simulation per fault on an injected circuit — used
to validate the parallel engine and for small jobs.

Pattern-lane packed grading (PPSFP shape)
-----------------------------------------
The PC-set program is shift-free, so its lanes can carry *patterns*
instead of faults (see :mod:`repro.codegen.packing`).  Detection only
compares settled monitored values, and in an acyclic circuit an
input-driven net's settled value depends on the current inputs alone —
so packed passes need no vector-to-vector state threading and are
exactly equivalent to the scalar lane loop.  (Constant-cone nets are
the one exception: their settled values live in state variables, so
every scan reloads the replicated good steady state first — the packed
counterpart of the scalar mode's per-batch seeding.)  With
``patterns="packed"`` (the ``"auto"`` default picks it whenever the
program is shift-free) grading becomes:

1. *good-machine pre-pass*: the instrumented machine with no fault
   pinned runs all ``N`` vectors pattern-packed —
   ``ceil(N / W)`` compiled passes total;
2. *per-fault detection screen*: each fault is pinned in **every**
   lane (``FMASK = 0``, ``FVAL`` replicated) and pattern groups run
   packed in order; the first group whose outputs differ from the good
   words yields the detecting lane, i.e. the first detecting vector,
   and the remaining groups are skipped.

Cost drops from ``ceil(F / (W-1)) × N`` passes toward
``ceil(N / W)`` + one pass per easily-detected fault (bounded by
``F × ceil(N / W)`` when nothing is detectable) — the classic
parallel-pattern single-fault-propagation trade.  Fault batches are
retained purely to share the instrumented machine (they still bound
compilation with ``instrument="batch"``).  Programs with shifts could
never take this path; the constructor refuses ``patterns="packed"``
for them and ``"auto"`` falls back to the scalar lane loop.
"""

from __future__ import annotations

from array import array
from typing import Mapping, Optional, Sequence

from repro import telemetry
from repro.codegen.packing import PatternBlock, is_shift_free, pattern_block
from repro.codegen.probes import ProbeSpec
from repro.codegen.program import Assign, Bin, Emit, Input, Program, Var
from repro.codegen.runtime import compile_program
from repro.errors import SimulationError
from repro.eventsim.simulator import EventDrivenSimulator
from repro.eventsim.zerodelay import steady_state
from repro.faults.model import Fault, full_fault_list, inject_stuck_at
from repro.netlist.circuit import Circuit
from repro.pcset.codegen import generate_pcset_program

__all__ = [
    "FaultReport",
    "ParallelFaultSimulator",
    "serial_fault_simulation",
    "run_fault_simulation",
]


class FaultReport:
    """Outcome of a fault-simulation run.

    Attributes
    ----------
    detected:
        ``Fault -> index of the first detecting vector``.
    undetected:
        Faults no vector exposed.
    num_vectors:
        Vectors simulated.
    counters:
        The engine's :class:`~repro.codegen.runtime.BatchCounters`
        snapshot when the grading run attaches one (single-process
        :func:`run_fault_simulation`), else ``None``.
    """

    #: Throughput counters; attached by the grading entry points.
    counters = None
    #: Fault-free per-net switching activity
    #: (:class:`~repro.activity.ActivityReport`); attached by the
    #: grading entry points when ``probes=`` was requested.
    activity = None

    def __init__(
        self,
        detected: dict[Fault, int],
        undetected: list[Fault],
        num_vectors: int,
    ) -> None:
        self.detected = detected
        self.undetected = undetected
        self.num_vectors = num_vectors

    @property
    def num_faults(self) -> int:
        return len(self.detected) + len(self.undetected)

    @property
    def coverage(self) -> float:
        """Detected fraction (1.0 = full coverage)."""
        if self.num_faults == 0:
            return 1.0
        return len(self.detected) / self.num_faults

    def first_detection(self, fault: Fault) -> Optional[int]:
        return self.detected.get(fault)

    def __eq__(self, other: object) -> bool:
        """Bit-identical reports: same detected map (fault -> first
        detecting vector), same undetected faults *in the same order*,
        same vector count."""
        if not isinstance(other, FaultReport):
            return NotImplemented
        return (
            self.detected == other.detected
            and self.undetected == other.undetected
            and self.num_vectors == other.num_vectors
        )

    __hash__ = None  # reports are mutable aggregates, not keys

    def __repr__(self) -> str:
        return (
            f"FaultReport({len(self.detected)}/{self.num_faults} "
            f"detected, coverage {self.coverage:.1%}, "
            f"{self.num_vectors} vectors)"
        )


class ParallelFaultSimulator:
    """Lane-parallel stuck-at fault simulation over the PC-set program.

    ``instrument`` selects the injection strategy:

    - ``"all"`` (default): one program with mask/value inputs for
      *every* net, compiled once and reused for every fault batch —
      the right trade when many batches run (compilation is paid once,
      as the paper's methodology assumes);
    - ``"batch"``: a lean program instrumented only at the nets of the
      current batch, recompiled per batch — smaller and faster per
      step, worthwhile when the fault list is short.

    ``patterns`` selects what the bit lanes carry:

    - ``"scalar"``: lanes carry faults, vectors run one per pass — the
      original lane-per-fault loop;
    - ``"packed"``: lanes carry patterns (PPSFP shape, see the module
      docstring): a packed good pre-pass plus per-fault packed
      detection screens with the fault pinned in every lane.  Raises
      if the program is not shift-free;
    - ``"auto"`` (default): ``"packed"`` when eligible, else
      ``"scalar"``.  The two modes produce identical reports.
    """

    #: Words per net: always one.  The end-to-end benchmark records it
    #: in its plan, so it stays readable.
    tiles = 1

    #: Vectors per batched machine call.  Large enough to amortize the
    #: dispatch into the generated ``run_block`` loop, small enough that
    #: ``drop_detected`` still exits early on easy fault batches.
    CHUNK_VECTORS = 128

    def __init__(
        self,
        circuit: Circuit,
        *,
        word_width: int = 32,
        backend: str = "python",
        monitored: Optional[list[str]] = None,
        instrument: str = "all",
        patterns: str = "auto",
        probes=None,
    ) -> None:
        if instrument not in ("all", "batch"):
            raise SimulationError(
                f"instrument must be 'all' or 'batch': {instrument!r}"
            )
        if patterns not in ("auto", "packed", "scalar"):
            raise SimulationError(
                f"patterns must be 'auto', 'packed' or 'scalar': "
                f"{patterns!r}"
            )
        self.circuit = circuit
        self.word_width = word_width
        self.backend = backend
        self.instrument = instrument
        self.monitored = (
            list(monitored) if monitored is not None else circuit.outputs
        )
        if not self.monitored:
            raise SimulationError("no monitored outputs to detect with")
        # The uninstrumented program is generated once; instrumentation
        # splices in masking statements (statement objects are
        # immutable, so sharing them across programs is safe).
        self._base, self.variables = generate_pcset_program(
            circuit,
            word_width=word_width,
            monitored=self.monitored,
            emit_outputs=False,
        )
        self._owner_of = {
            identifier: net_name
            for net_name, _t, identifier in self.variables.ordered
        }
        self.lanes_per_batch = word_width - 1
        self._all_machine = None
        self._all_nets = sorted(circuit.nets)
        # The instrumentation only splices in &/| masking statements, so
        # pattern-packing eligibility is decided by the base program.
        self._pack_eligible = (
            is_shift_free(self._base) and bool(circuit.inputs)
        )
        if patterns == "packed" and not self._pack_eligible:
            raise SimulationError(
                "patterns='packed' requires a shift-free program with "
                "primary inputs"
            )
        self.patterns = patterns
        #: Good-machine switching probes (see :meth:`good_activity`).
        self.probes = ProbeSpec.coerce(probes)

    def warm_up(self) -> None:
        """Pre-build and compile the shared all-nets machine.

        A no-op with ``instrument="batch"`` (those machines are
        per-batch by design).
        """
        if self.instrument == "all":
            self._machine_for(self._all_nets)

    def batch_counters(self):
        """The shared machine's :class:`BatchCounters`.

        ``None`` until an ``instrument="all"`` machine exists (i.e.
        before any run, or always in ``"batch"`` mode).
        """
        machine = self._all_machine
        return None if machine is None else machine.counters

    def good_activity(
        self,
        vectors: Sequence[Sequence[int]],
        initial: Optional[Sequence[int]] = None,
    ):
        """Fault-free per-net switching activity over ``vectors``.

        Runs the *good* machine once with compiled-in toggle counters
        (a probed PC-set simulator seeded from the ``initial`` steady
        state) and returns its
        :class:`~repro.activity.ActivityReport`.  The counters are
        fault-independent, exactly like the packed good pre-pass.
        """
        if self.probes is None:
            raise SimulationError(
                "fault simulator was built without probes=; no "
                "good-machine activity to report"
            )
        if initial is None:
            initial = [0] * len(self.circuit.inputs)
        from repro.pcset.simulator import PCSetSimulator

        with telemetry.span("fault.activity"):
            sim = PCSetSimulator(
                self.circuit,
                word_width=self.word_width,
                backend=self.backend,
                probes=self.probes,
            )
            sim.reset(list(initial))
            sim.apply_vectors([list(vector) for vector in vectors])
            return sim.activity_report()

    def _machine_for(self, faulted_nets: list[str]):
        """(machine, net -> (mask_slot, value_slot)) for a batch."""
        if self.instrument == "batch":
            program = self._instrumented_program(faulted_nets)
            machine = compile_program(program, self.backend)
            nets = faulted_nets
        else:
            machine = self._all_machine
            if machine is None:
                program = self._instrumented_program(self._all_nets)
                machine = compile_program(program, self.backend)
                self._all_machine = machine
            nets = self._all_nets
        base_inputs = len(self._base.inputs)
        slots = {
            net_name: (base_inputs + k, base_inputs + len(nets) + k)
            for k, net_name in enumerate(nets)
        }
        return machine, nets, slots

    # ------------------------------------------------------------------
    def _instrumented_program(
        self, faulted_nets: list[str]
    ) -> Program:
        base = self._base
        program = Program(
            f"{base.name}_faulty",
            word_width=base.word_width,
            inputs=list(base.inputs)
            + [f"{n}__fm" for n in faulted_nets]
            + [f"{n}__fv" for n in faulted_nets],
            mask_assignments=False,
            output_mask=base.word_mask,
        )
        program.state_vars = base.state_vars
        program._state_set = base._state_set
        program.state_init = base.state_init
        program.temp_vars = base.temp_vars
        program._temp_set = base._temp_set

        slot_of_mask = {
            net_name: len(base.inputs) + k
            for k, net_name in enumerate(faulted_nets)
        }
        slot_of_value = {
            net_name: len(base.inputs) + len(faulted_nets) + k
            for k, net_name in enumerate(faulted_nets)
        }
        faulted = set(faulted_nets)

        touched: set[str] = set()

        def mask_stmt(dest: str, net_name: str) -> Assign:
            return Assign(
                dest,
                Bin(
                    "|",
                    Bin("&", Var(dest), Input(slot_of_mask[net_name])),
                    Input(slot_of_value[net_name]),
                ),
            )

        def splice(section: list) -> list:
            out = []
            for stmt in section:
                out.append(stmt)
                if isinstance(stmt, Assign):
                    net_name = self._owner_of.get(stmt.dest)
                    if net_name in faulted:
                        touched.add(net_name)
                        out.append(mask_stmt(stmt.dest, net_name))
            return out

        program.init = splice(base.init)
        program.body = splice(base.body)
        # Nets the program never assigns (constant signals) still need
        # their faulty lanes pinned: mask their variables once per
        # vector at the top of the init section.
        leading: list[Assign] = []
        for net_name, _time, identifier in self.variables.ordered:
            if net_name in faulted and net_name not in touched:
                leading.append(mask_stmt(identifier, net_name))
        if leading:
            program.init = leading + program.init
        program.output = [
            Emit(Var(self.variables.final_var(m)), (m,))
            for m in self.monitored
        ]
        program.validate()
        return program

    # ------------------------------------------------------------------
    def run(
        self,
        vectors: Sequence[Sequence[int]],
        faults: Optional[Sequence[Fault]] = None,
        *,
        initial: Optional[Sequence[int]] = None,
        drop_detected: bool = True,
    ) -> FaultReport:
        """Simulate ``vectors`` against ``faults`` (default: all).

        ``initial`` seeds the pre-existing steady state (default all
        zeros); it is not a detection opportunity.  With
        ``drop_detected`` a batch stops early once all its faults are
        detected.  (In packed-pattern mode detection compares only
        settled values, so ``initial`` cannot influence the report and
        each fault's scan always stops at its first detecting group —
        ``drop_detected`` has nothing further to drop.)
        """
        if faults is None:
            faults = full_fault_list(self.circuit)
        for fault in faults:
            if fault.net not in self.circuit.nets:
                raise SimulationError(f"no such net: {fault.net!r}")
        if initial is None:
            initial = [0] * len(self.circuit.inputs)
        settled = steady_state(self.circuit, initial)
        mask = (1 << self.word_width) - 1
        packed = self.patterns == "packed" or (
            self.patterns == "auto" and self._pack_eligible
        )
        if packed:
            block = PatternBlock.from_rows(vectors, self.word_width)
            if block is None:
                # Multi-bit words grade on their low bits, as in the
                # scalar lane loop.
                block = pattern_block(
                    [[v & 1 for v in vector] for vector in vectors],
                    self.word_width,
                )
            # Nets in a constant cone keep their settled value in a
            # *state* variable that passes read but (when unfaulted)
            # never recompute; a fault pinned on such a net would
            # poison it for every later fault.  Each scan therefore
            # reloads this replicated steady state, like the scalar
            # mode does per batch.  For input-driven nets the load is
            # scratch (overwritten every pass), so any settled state
            # gives the same — serial-identical — finals.
            # Marshalled once per run.
            state = array(block.typecode, [
                (-(settled[net_name] & 1)) & mask
                for net_name, _t, _i in self.variables.ordered
            ])
            # The good words are fault-independent (every mask input is
            # all-ones, so the splices are identities) — computed once
            # and shared by every batch whichever machine it compiles.
            goods: Optional[list[int]] = None

        detected: dict[Fault, int] = {}
        undetected: list[Fault] = []
        for start in range(0, len(faults), self.lanes_per_batch):
            batch = list(faults[start:start + self.lanes_per_batch])
            if packed:
                outcome, goods = self._run_batch_packed(
                    batch, block, mask, goods, state
                )
            else:
                with telemetry.span("fault.screen"):
                    outcome = self._run_batch(
                        batch, vectors, initial, settled, mask,
                        drop_detected,
                    )
            for fault, first in zip(batch, outcome):
                if first is None:
                    undetected.append(fault)
                else:
                    detected[fault] = first
        return FaultReport(detected, undetected, len(vectors))

    def _run_batch(
        self,
        batch: list[Fault],
        vectors: Sequence[Sequence[int]],
        initial: Sequence[int],
        settled: Mapping[str, int],
        mask: int,
        drop_detected: bool,
    ) -> list[Optional[int]]:
        faulted_nets = sorted({fault.net for fault in batch})
        machine, nets, _slots = self._machine_for(faulted_nets)

        # Lane assignment: lane 0 good, lane k+1 = batch[k].
        fault_mask = {n: mask for n in nets}
        fault_value = {n: 0 for n in nets}
        lane_of: list[int] = []
        for k, fault in enumerate(batch):
            lane = k + 1
            lane_of.append(lane)
            fault_mask[fault.net] &= ~(1 << lane) & mask
            if fault.value:
                fault_value[fault.net] |= 1 << lane

        extra = (
            [fault_mask[n] for n in nets]
            + [fault_value[n] for n in nets]
        )

        def vector_words(vector: Sequence[int]) -> list[int]:
            return [(-(v & 1)) & mask for v in vector] + extra

        # Seed: replicated good steady state, then one warm-up pass on
        # the initial vector lets every faulty lane settle to its own
        # steady state (one pass suffices: the program evaluates in
        # levelized order with the fault masks applied at each write).
        machine.load_state([
            (-(settled[net_name] & 1)) & mask
            for net_name, _t, _i in self.variables.ordered
        ])
        machine.step(vector_words(initial))

        # Vectors run through the machine in chunks: one batched
        # ``step_many`` call keeps the vector loop inside the generated
        # code, and the detection scan walks the collected outputs
        # afterwards.  Chunking (rather than one giant batch) preserves
        # the drop_detected early exit to within a chunk.
        first_detection: list[Optional[int]] = [None] * len(batch)
        remaining = len(batch)
        for start in range(0, len(vectors), self.CHUNK_VECTORS):
            chunk = vectors[start:start + self.CHUNK_VECTORS]
            outputs = machine.step_many(
                [vector_words(vector) for vector in chunk], masked=True
            )
            done = False
            for offset, out in enumerate(outputs):
                diff = 0
                for word in out:
                    good = -(word & 1)  # lane-0 value replicated
                    diff |= (word ^ good) & mask
                if not diff:
                    continue
                for k, lane in enumerate(lane_of):
                    if first_detection[k] is None and (diff >> lane) & 1:
                        first_detection[k] = start + offset
                        remaining -= 1
                if drop_detected and remaining == 0:
                    done = True
                    break
            if done:
                break
        return first_detection

    # ------------------------------------------------------------------
    # packed-pattern mode (PPSFP shape)
    # ------------------------------------------------------------------
    def _run_batch_packed(
        self,
        batch: list[Fault],
        block: PatternBlock,
        mask: int,
        goods: Optional[list[int]],
        state: array,
    ) -> tuple[list[Optional[int]], list[int]]:
        """First detections for a fault batch, patterns in the lanes.

        Input-driven finals depend on the current lane inputs alone
        (the circuit is acyclic and the fault is pinned at every
        write), so no warm-up pass is needed.  Constant-cone finals
        live in state variables instead; ``state`` (the replicated good
        steady state, as machine words) is reloaded before every scan
        so a fault pinned on a constant net cannot leak into the next
        fault's comparison.

        The pass buffer — pattern planes plus the fault mask/value
        slots, all-ones masks and zero values — is laid out once per
        batch; each screen patches only its own fault's two slots and
        restores them afterwards.  The scan walks passes in order, so
        the first detecting pass and within it the lowest detecting
        lane give the first detecting vector.
        """
        faulted_nets = sorted({fault.net for fault in batch})
        machine, nets, _slots = self._machine_for(faulted_nets)
        run = block.laid_out(extra=[mask] * len(nets) + [0] * len(nets))
        if goods is None:
            with telemetry.span("fault.good"):
                goods = self._good_packed(machine, run, state)
        passes = run.split()
        slot_of = {net: k for k, net in enumerate(nets)}
        n_out = machine.num_outputs
        width = self.word_width
        first_detection: list[Optional[int]] = []
        for fault in batch:
            with telemetry.span("fault.screen"):
                # Pin the fault in *every* lane: FMASK drops to zero
                # and FVAL replicates the stuck value across the word.
                mask_slot = slot_of[fault.net]
                value_slot = len(nets) + mask_slot
                run.set_extra(mask_slot, 0)
                run.set_extra(value_slot, mask if fault.value else 0)
                machine.load_state(state)
                first: Optional[int] = None
                for p, part in enumerate(passes):
                    out: list[int] = []
                    machine.run_packed_block(
                        part, out, vectors_represented=part.count
                    )
                    diff = 0
                    for o in range(n_out):
                        diff |= out[o] ^ goods[p * n_out + o]
                    lanes = min(width, block.count - p * width)
                    diff &= mask if lanes == width else (1 << lanes) - 1
                    if diff:
                        lowest = (diff & -diff).bit_length() - 1
                        first = p * width + lowest
                        break
                run.set_extra(mask_slot, mask)
                run.set_extra(value_slot, 0)
                first_detection.append(first)
        return first_detection, goods

    def _good_packed(
        self, machine, run: PatternBlock, state: array
    ) -> list[int]:
        """Good-machine pre-pass: output words in pass order.

        ``run`` carries all-ones masks and zero values, leaving every
        lane unfaulted, so these are the fault-free settled outputs of
        every pattern (``goods[p * n_out + o]``).
        """
        flat: list[int] = []
        if run.count:
            machine.load_state(state)
            machine.run_packed_block(
                run, flat, vectors_represented=run.count
            )
        return flat


def serial_fault_simulation(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    faults: Optional[Sequence[Fault]] = None,
    *,
    initial: Optional[Sequence[int]] = None,
) -> FaultReport:
    """Brute-force reference: one event-driven run per fault."""
    if faults is None:
        faults = full_fault_list(circuit)
    if initial is None:
        initial = [0] * len(circuit.inputs)

    good = EventDrivenSimulator(circuit)
    good.reset(initial)
    good_outputs: list[list[int]] = []
    for vector in vectors:
        good.apply_vector(vector)
        values = good.output_values()
        good_outputs.append([values[n] for n in circuit.outputs])

    detected: dict[Fault, int] = {}
    undetected: list[Fault] = []
    for fault in faults:
        faulty_circuit = inject_stuck_at(circuit, fault)
        sim = EventDrivenSimulator(faulty_circuit)
        sim.reset(initial)
        first: Optional[int] = None
        for index, vector in enumerate(vectors):
            sim.apply_vector(vector)
            values = sim.output_values()
            observed = [values[n] for n in faulty_circuit.outputs]
            if observed != good_outputs[index]:
                first = index
                break
        if first is None:
            undetected.append(fault)
        else:
            detected[fault] = first
    return FaultReport(detected, undetected, len(vectors))


def run_fault_simulation(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    faults: Optional[Sequence[Fault]] = None,
    *,
    word_width: int = 32,
    backend: str = "python",
    initial: Optional[Sequence[int]] = None,
    patterns: str = "auto",
    probes=None,
) -> FaultReport:
    """Convenience wrapper around :class:`ParallelFaultSimulator`.

    An explicitly empty fault list short-circuits to an empty report —
    no simulator is built and no program compiled.

    ``probes`` additionally grades *switching activity*: the fault-free
    machine runs once with compiled-in toggle counters and the report
    gains an ``activity`` attribute
    (:class:`~repro.activity.ActivityReport`).
    """
    if faults is not None:
        faults = list(faults)
        if not faults:
            return FaultReport({}, [], len(vectors))
    simulator = ParallelFaultSimulator(
        circuit, word_width=word_width, backend=backend, patterns=patterns,
        probes=probes,
    )
    report = simulator.run(vectors, faults, initial=initial)
    report.counters = simulator.batch_counters()
    if simulator.probes is not None:
        report.activity = simulator.good_activity(vectors, initial)
    return report

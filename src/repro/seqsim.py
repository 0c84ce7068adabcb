"""Compiled clocked simulation of synchronous sequential circuits.

Combines §1's flip-flop-breaking recipe with any compiled combinational
engine: the broken core is compiled once; each clock cycle feeds the
current flip-flop state and external inputs through it, captures the D
pins as the next state, and (optionally) keeps the full intra-cycle
unit-delay history so glitches *inside* a clock period are visible —
the thing a plain zero-delay clocked model cannot show.

Partial-progress contract
-------------------------
``apply_vectors`` advances ``state``/``cycle`` one cycle at a time.  If
a cycle raises (bad vector, backend failure), every *completed* cycle
stays committed: ``cycle`` counts the cycles that ran, ``state`` holds
the flip-flop values after the last completed cycle, and the failing
cycle has consumed nothing.  Callers that need all-or-nothing semantics
take a :meth:`snapshot` first and :meth:`restore` it on error.
"""

from __future__ import annotations

import time
from typing import Mapping, Optional, Sequence

from repro import telemetry
from repro.errors import SimulationError
from repro.netlist.sequential import SequentialCircuit

__all__ = ["CompiledSequentialSimulator"]


class CompiledSequentialSimulator:
    """Clocked simulation over a compiled combinational core.

    Parameters
    ----------
    sequential:
        The broken circuit (from ``parse_bench_sequential`` or
        ``break_at_flipflops``).
    engine:
        ``"lcc"`` — zero-delay compiled core (fastest; per-cycle settled
        values only), or ``"parallel"`` / ``"pcset"`` — unit-delay
        compiled cores that additionally expose the intra-cycle
        waveforms via :meth:`step` with ``record=True``.
    incremental:
        Evaluate the core through per-fanin-cone programs
        (:class:`repro.codegen.incremental.ConeSimulator`) instead of
        one monolithic program.  Slower steady-state (cone overlap is
        re-evaluated) but editing one gate recompiles only the affected
        cones — see ``cache_delta`` on the underlying simulator.
        Only the ``"lcc"`` engine supports it.
    """

    ENGINES = ("lcc", "parallel", "pcset")

    def __init__(
        self,
        sequential: SequentialCircuit,
        *,
        engine: str = "lcc",
        backend: str = "python",
        word_width: int = 32,
        incremental: bool = False,
    ) -> None:
        if engine not in self.ENGINES:
            raise SimulationError(f"unknown engine: {engine!r}")
        if incremental and engine != "lcc":
            raise SimulationError(
                "incremental recompilation requires the zero-delay "
                f"core (engine='lcc'), not {engine!r}"
            )
        self.sequential = sequential
        self.engine = engine
        self.backend = backend
        self.incremental = incremental
        core = sequential.core
        monitored = sorted(
            set(sequential.external_outputs)
            | set(sequential.flipflops.values())
        )
        if incremental:
            missing = [
                d for d in sequential.flipflops.values()
                if d not in core.nets or not core.nets[d].is_output
            ]
            if missing:
                raise SimulationError(
                    "incremental evaluation samples flip-flop D pins "
                    "as core outputs; not outputs: "
                    f"{sorted(missing)[:5]}"
                )
            from repro.codegen.incremental import ConeSimulator

            self._sim = ConeSimulator(
                core, backend=backend, word_width=word_width
            )
        elif engine == "lcc":
            from repro.lcc.zerodelay import LCCSimulator

            self._sim = LCCSimulator(
                core, backend=backend, word_width=word_width
            )
        elif engine == "parallel":
            from repro.parallel.simulator import ParallelSimulator

            self._sim = ParallelSimulator(
                core, optimization="pathtrace+trim",
                backend=backend, word_width=word_width,
                monitored=monitored,
            )
        else:
            from repro.pcset.simulator import PCSetSimulator

            self._sim = PCSetSimulator(
                core, backend=backend, word_width=word_width,
                monitored=monitored,
            )
        self._core_inputs = core.inputs
        self._external_input_set = frozenset(sequential.external_inputs)
        self.state = sequential.initial_state()
        self.cycle = 0
        self._unit_delay_ready = False
        #: Driver-loop totals (cycles as "vectors"), mirroring the
        #: machine-level :class:`BatchCounters` the combinational
        #: engines keep — the clocked loop is the unit of work here.
        from repro.codegen.runtime import BatchCounters

        self.counters = BatchCounters()
        self._fast = engine == "lcc" and not incremental
        if self._fast:
            # Positions of the nets the clocked loop actually samples
            # (external outputs + flip-flop D pins) inside the LCC
            # machine's state-dump order (= core.nets declaration
            # order), so the batched driver avoids decoding every net
            # of every cycle.
            index_of = {n: i for i, n in enumerate(core.nets)}
            self._output_slots = [
                (n, index_of[n]) for n in sequential.external_outputs
            ]
            self._ff_slots = [
                (q, index_of[d])
                for q, d in sequential.flipflops.items()
            ]

    # ------------------------------------------------------------------
    def reset(self, state: Optional[Mapping[str, int]] = None) -> None:
        """Set the flip-flop state (default all zeros).

        Unknown keys in ``state`` raise :class:`SimulationError` — a
        typo'd flip-flop name must not be silently dropped.
        """
        if state is None:
            self.state = self.sequential.initial_state()
        else:
            flipflops = self.sequential.flipflops
            missing = [q for q in flipflops if q not in state]
            if missing:
                raise SimulationError(
                    f"state missing flip-flops: {missing[:5]}"
                )
            unknown = sorted(q for q in state if q not in flipflops)
            if unknown:
                raise SimulationError(
                    f"state has unknown flip-flops: {unknown[:5]}"
                )
            self.state = {q: state[q] & 1 for q in flipflops}
        self.cycle = 0
        self._unit_delay_ready = False

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The machine state needed to resume bit-identically.

        For every engine that is the flip-flop state plus the cycle
        count: the combinational settle is a pure function of
        state + inputs, so no intra-cycle residue needs saving.
        """
        return {"state": dict(self.state), "cycle": self.cycle}

    def restore(self, snapshot: Mapping) -> None:
        """Resume from a :meth:`snapshot` (or checkpoint payload)."""
        self.reset(snapshot["state"])
        self.cycle = int(snapshot["cycle"])

    # ------------------------------------------------------------------
    def _core_vector(
        self, inputs: "Mapping[str, int] | Sequence[int]"
    ) -> list[int]:
        """Merge external inputs with the flip-flop state.

        Accepts a mapping over the external input names, or a plain
        sequence in ``sequential.external_inputs`` order (the tape
        layout).  Unknown mapping keys raise — in particular a Q-net
        key, which earlier versions silently overrode with the
        internal state.
        """
        external = self.sequential.external_inputs
        if not isinstance(inputs, Mapping):
            values = list(inputs)
            if len(values) != len(external):
                raise SimulationError(
                    f"input vector has {len(values)} values for "
                    f"{len(external)} external inputs"
                )
            merged = dict(zip(external, values))
        else:
            unknown = sorted(
                k for k in inputs if k not in self._external_input_set
            )
            if unknown:
                raise SimulationError(
                    f"unknown inputs: {unknown[:5]}"
                )
            missing = [n for n in external if n not in inputs]
            if missing:
                raise SimulationError(f"inputs missing: {missing[:5]}")
            merged = dict(inputs)
        merged.update(self.state)
        return [merged[n] & 1 for n in self._core_inputs]

    def step(
        self,
        inputs: "Mapping[str, int] | Sequence[int]",
        record: bool = False,
    ):
        """Advance one clock cycle.

        Returns ``outputs`` (external outputs sampled *before* the
        edge, i.e. the settled values of this cycle), or
        ``(outputs, history)`` with ``record`` on a unit-delay engine —
        ``history`` being the intra-cycle per-net change lists.
        """
        vector = self._core_vector(inputs)
        history = None
        if self.engine == "lcc":
            if record:
                raise SimulationError(
                    "intra-cycle recording needs a unit-delay engine "
                    "(parallel or pcset)"
                )
            if self.incremental:
                settled = self._sim.evaluate(vector)
            else:
                settled = self._sim.evaluate_all_nets(vector)
        else:
            if not self._unit_delay_ready:
                # Unit-delay cores start from the previous steady state;
                # the first cycle settles from the current state/input.
                self._sim.reset(vector)
                self._unit_delay_ready = True
            if record:
                history = self._sim.apply_vector_history(vector)
                settled = {
                    net_name: changes[-1][1]
                    for net_name, changes in history.items()
                }
            else:
                self._sim.apply_vector(vector)
                settled = self._sim.final_values()
        outputs = {
            n: settled[n] & 1 for n in self.sequential.external_outputs
        }
        self.state = {
            q: settled[d] & 1
            for q, d in self.sequential.flipflops.items()
        }
        self.cycle += 1
        if record:
            return outputs, history
        return outputs

    def apply_vectors(
        self,
        input_sequence: "Sequence[Mapping[str, int] | Sequence[int]]",
    ) -> list[dict[str, int]]:
        """Clock through a batch of input vectors; return per-cycle outputs.

        Cycle-identical to calling :meth:`step` per entry.  Clocked
        feedback (each cycle's flip-flop state depends on the previous
        cycle's settled values) keeps one machine call per cycle, but
        the zero-delay engine's batched path samples only the nets the
        loop needs — external outputs and flip-flop D pins — instead of
        decoding the full per-net state dictionary every cycle.

        The whole batch runs under a ``seq.run`` telemetry span;
        ``seq.cycles``/``seq.batches`` counters and this simulator's
        :class:`BatchCounters` record *completed* cycles even when a
        mid-batch cycle raises (see the module docstring for the
        partial-progress contract).  On the zero-delay fast path the
        machine-level batch counters are fed the same totals, so
        throughput reports see clocked work like any other batch.
        """
        started = self.cycle
        t0 = time.perf_counter()
        span = telemetry.span("seq.run", engine=self.engine)
        span.__enter__()
        try:
            if not self._fast:
                return [self.step(inputs) for inputs in input_sequence]
            machine = self._sim.machine
            step = machine.step
            dump = machine.dump_state
            results: list[dict[str, int]] = []
            for inputs in input_sequence:
                step(self._core_vector(inputs))
                state = dump()
                results.append(
                    {n: state[i] & 1 for n, i in self._output_slots}
                )
                self.state = {
                    q: state[i] & 1 for q, i in self._ff_slots
                }
                self.cycle += 1
            return results
        finally:
            elapsed = time.perf_counter() - t0
            completed = self.cycle - started
            self.counters.record(completed, elapsed)
            if self._fast:
                self._sim.machine.counters.record(completed, elapsed)
            if telemetry.enabled():
                telemetry.counter("seq.batches")
                telemetry.counter("seq.cycles", completed)
            span.__exit__(None, None, None)

    def run(
        self,
        input_sequence: "Sequence[Mapping[str, int] | Sequence[int]]",
    ) -> list[dict[str, int]]:
        """Clock through a sequence of input vectors; return outputs."""
        return self.apply_vectors(input_sequence)

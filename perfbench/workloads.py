"""The benchmark's workloads: setup, timed batch call, reference check.

Every workload drives the public API on a full-scale ISCAS85 analog at
``word_width=64`` with the plan knobs (tiles, partitions, workers,
probes) left at their API defaults.  A *batch* is one timed call into
the API; a *job* is the fixed number of batches whose run time,
added to the setup time, gives ``job_s``.

Checks run outside the timed region against the interpreted
simulators in :mod:`repro.eventsim` (or the serial fault reference), on
a seeded sample of each batch, and count mismatching or raising batches.
"""

from __future__ import annotations

import random
import time

from repro import (
    EventDrivenSimulator,
    ParallelFaultSimulator,
    build_simulator,
    full_fault_list,
    serial_fault_simulation,
)
from repro.codegen.runtime import program_cache
from repro.eventsim.zerodelay import ZeroDelaySimulator
from repro.harness.compare import value_at
from repro.netlist.iscas85 import ISCAS85_SPECS, make_circuit

WORD_WIDTH = 64


def full_scale_circuit(name: str):
    """The full-size analog of ``name``; anything smaller is refused."""
    circuit = make_circuit(name, scale_factor=1.0)
    spec = ISCAS85_SPECS[name]
    if (circuit.name != name or len(circuit.gates) != spec.gates
            or len(circuit.inputs) != spec.inputs):
        raise SystemExit(
            f"refusing to benchmark {circuit.name!r} "
            f"({len(circuit.gates)} gates): not the full-scale {name} "
            f"analog ({spec.gates} gates)"
        )
    return circuit


def random_rows(rng: random.Random, count: int, width: int) -> list:
    """``count`` seeded 0/1 vectors of ``width`` inputs each."""
    return [
        list(map(int, format(rng.getrandbits(width), f"0{width}b")))
        for _ in range(count)
    ]


class Workload:
    """Base class: one circuit, one technique, one batch shape."""

    name = ""
    circuit_name = ""
    batch_vectors = 0
    job_batches = 0
    #: Vectors (or faults) checked per batch.
    sample = 1
    #: Batches run back to back before their checks.  The reference
    #: check evicts the simulator's working set from the CPU caches, so
    #: short calls timed right after one measure the eviction; bursts
    #: keep at most ``BURST_VECTORS`` vectors of results alive.
    BURST_VECTORS = 4096

    @property
    def burst(self) -> int:
        return max(1, min(self.job_batches,
                          self.BURST_VECTORS // self.batch_vectors))

    def __init__(self, circuit) -> None:
        self.circuit = circuit
        self.ref_seconds = 0.0
        self.ref_vectors = 0

    def setup(self):
        raise NotImplementedError

    def start_job(self) -> None:
        """Reset per-job state (the fault list, for fault grading)."""

    def apply(self, sim, vectors):
        return sim.apply_vectors(vectors)

    def check(self, sim, vectors, result, picks) -> bool:
        raise NotImplementedError

    def picks(self, rng: random.Random, vectors) -> list[int]:
        """Seeded sample of the batch positions to check."""
        return sorted(rng.sample(range(len(vectors)), self.sample))

    def corrupt(self, result, picks) -> None:
        """Self-test only: damage one output word the check will read."""
        result[picks[0]][0] ^= (1 << WORD_WIDTH) - 1

    def machine(self, sim):
        return sim.machine

    def plan(self, sim) -> dict:
        """The resolved execution plan and program-cache state."""
        machine = self.machine(sim)
        return {
            "backend": sim.backend,
            "word_width": machine.program.word_width,
            "tiles": sim.tiles,
            "machine_tiles": machine.tiles,
            "opt_level": getattr(machine, "opt_level", None),
            "program_cache": program_cache().stats(),
        }

    def program_stats(self, sim) -> dict:
        machine = self.machine(sim)
        stats = machine.program.stats()
        return {
            "program.statements": stats.assignments + stats.emits,
            "program.state_words": len(machine.program.state_vars),
            "program.source_lines": stats.source_lines,
            "codegen.source_bytes": len(machine.source),
        }


class ZeroStream(Workload):
    """Packing, marshalling and unpacking dominate; cc does little."""

    name = "zero-stream"
    circuit_name = "c880"
    batch_vectors = 4096
    job_batches = 20
    sample = 8

    def __init__(self, circuit) -> None:
        super().__init__(circuit)
        self.reference = ZeroDelaySimulator(circuit)
        self.out_ids = self.reference.indexed.output_ids
        high = ((1 << WORD_WIDTH) - 1) ^ 1
        # A scalar pass feeds 0 in every high lane, so the raw word's
        # high bits are the all-zeros vector's outputs, replicated.
        zeros = self.reference.evaluate_into_state([0] * len(circuit.inputs))
        self.fill = [high if zeros[i] else 0 for i in self.out_ids]

    def setup(self):
        return build_simulator(
            self.circuit, "zero-lcc", backend="c", word_width=WORD_WIDTH
        )

    def check(self, sim, vectors, result, picks) -> bool:
        ok = True
        for index in picks:
            start = time.perf_counter()
            values = self.reference.evaluate_into_state(vectors[index])
            self.ref_seconds += time.perf_counter() - start
            self.ref_vectors += 1
            want = [values[i] | f for i, f in zip(self.out_ids, self.fill)]
            ok &= result[index] == want
        return ok

    def plan(self, sim) -> dict:
        return {
            **super().plan(sim),
            "packing_mode": sim.packing_mode,
            "packed": sim.packed,
        }


class UnitPy(Workload):
    """The parallel technique (Fig. 24 configuration) on the Python
    backend: the generated Python kernel dominates; no compiler runs."""

    name = "unit-py"
    circuit_name = "c880"
    batch_vectors = 1024
    job_batches = 20
    sample = 2

    def __init__(self, circuit) -> None:
        super().__init__(circuit)
        self.reference = EventDrivenSimulator(circuit)
        # The vector that precedes the current batch (reset() seeds
        # the all-zeros steady state).
        self.previous = [0] * len(circuit.inputs)

    def setup(self):
        sim = build_simulator(
            self.circuit, "parallel-best", backend="python",
            word_width=WORD_WIDTH,
        )
        sim.reset()
        return sim

    def check(self, sim, vectors, result, picks) -> bool:
        previous, self.previous = self.previous, vectors[-1]
        labels = sim.output_labels()
        width = sim.layout.word_width
        ok = True
        for index in picks:
            before = vectors[index - 1] if index else previous
            self.reference.reset(before)
            start = time.perf_counter()
            history = self.reference.apply_vector(vectors[index], record=True)
            self.ref_seconds += time.perf_counter() - start
            self.ref_vectors += 1
            if len(result[index]) != len(labels):
                return False
            fields: dict[str, list[int]] = {}
            for (net, _word), value in zip(labels, result[index]):
                fields.setdefault(net, []).append(value)
            if list(fields) != list(sim.monitored):
                return False
            for net, words in fields.items():
                spec = sim.layout.field(net)
                for moment in range(sim.depth + 1):
                    pos = spec.bitpos(moment)
                    if not 0 <= pos < len(words) * width:
                        continue
                    bit = (words[pos // width] >> (pos % width)) & 1
                    ok &= bit == value_at(history[net], moment)
        return ok

    def plan(self, sim) -> dict:
        return {**super().plan(sim), "packing_mode": sim.packing_mode}


class FaultGrade(Workload):
    """The PC-set family: thousands of short kernel calls per job."""

    name = "fault-grade"
    circuit_name = "c432"
    batch_vectors = 64
    job_batches = 64

    def __init__(self, circuit) -> None:
        super().__init__(circuit)
        self.faults = full_fault_list(circuit)
        self.remaining = list(self.faults)

    def setup(self):
        sim = ParallelFaultSimulator(
            self.circuit, word_width=WORD_WIDTH, backend="c"
        )
        sim.warm_up()
        return sim

    def start_job(self) -> None:
        self.remaining = list(self.faults)

    def apply(self, sim, vectors):
        # Grade the still-undetected faults; detected ones drop out.
        graded = self.remaining
        report = sim.run(vectors, graded)
        self.remaining = list(report.undetected)
        return graded, report

    def picks(self, rng, vectors) -> list[int]:
        return sorted(rng.sample(range(len(self.faults)), self.sample))

    def _sampled(self, graded, picks) -> list:
        return [graded[i % len(graded)] for i in picks] if graded else []

    def corrupt(self, result, picks) -> None:
        graded, report = result
        fault = self._sampled(graded, picks)[0]
        if fault in report.detected:
            del report.detected[fault]
            report.undetected.append(fault)
        else:
            report.undetected.remove(fault)
            report.detected[fault] = 0

    def check(self, sim, vectors, result, picks) -> bool:
        graded, report = result
        verdicts = [*report.detected, *report.undetected]
        if len(verdicts) != len(graded) or set(verdicts) != set(graded):
            return False
        ok = True
        for fault in self._sampled(graded, picks):
            start = time.perf_counter()
            serial = serial_fault_simulation(self.circuit, vectors, [fault])
            spent = time.perf_counter() - start
            # Serial grading of every graded fault, extrapolated from
            # the sampled one, as the interpreted baseline.
            self.ref_seconds += spent * len(graded)
            self.ref_vectors += len(vectors)
            ok &= report.detected.get(fault) == serial.detected.get(fault)
        return ok

    def machine(self, sim):
        # The shared all-nets machine has no public accessor.
        return sim._all_machine

    def plan(self, sim) -> dict:
        return {
            **super().plan(sim),
            "patterns": sim.patterns,
            "instrument": sim.instrument,
            "lanes_per_batch": sim.lanes_per_batch,
        }


WORKLOADS = {w.name: w for w in (ZeroStream, FaultGrade, UnitPy)}

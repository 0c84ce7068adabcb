"""Tests for the output routines of the compiled techniques.

The paper's output handling: the PC-set method's PRINT pseudo-gate
emits one vector per output PC element (§2); the parallel technique
prints a per-time trace with a sliding mask (§3).  Both are checked
against the event-driven reference here.
"""

import pytest

from repro.eventsim.simulator import EventDrivenSimulator
from repro.harness.compare import value_at
from repro.harness.vectors import vectors_for
from repro.netlist.random_circuits import random_dag_circuit
from repro.parallel.aligned_codegen import generate_aligned_program
from repro.parallel.codegen import generate_parallel_program
from repro.parallel.pathtrace import path_tracing_alignment
from repro.codegen.runtime import compile_program
from repro.eventsim.zerodelay import steady_state


class TestSlidingMaskTrace:
    @pytest.mark.parametrize("seed", range(4))
    def test_bits_mode_matches_event_driven(self, seed):
        circuit = random_dag_circuit(seed + 40, num_inputs=4,
                                     num_gates=15)
        program, layout = generate_parallel_program(
            circuit, word_width=32, output_mode="bits"
        )
        machine = compile_program(program, "python")
        # Seed state: steady on zeros.
        initial = [0] * len(circuit.inputs)
        settled = steady_state(circuit, initial)
        words = []
        for net_name in circuit.nets:
            fill = (-(settled[net_name] & 1)) & program.word_mask
            words.extend(
                [fill] * layout.field(net_name).num_words
            )
        machine.load_state(machine.gather_state(words))

        reference = EventDrivenSimulator(circuit)
        reference.reset(initial)
        for vector in vectors_for(circuit, 8, seed=seed):
            history = reference.apply_vector(vector, record=True)
            out = machine.step([v & 1 for v in vector])
            for (net_name, time), value in zip(
                machine.output_labels(), out
            ):
                assert value == value_at(history[net_name], time), (
                    net_name, time
                )


class TestAlignedBitsMode:
    def test_clamped_trace_consistent_at_or_after_alignment(self):
        circuit = random_dag_circuit(55, num_inputs=4, num_gates=15)
        alignment = path_tracing_alignment(circuit)
        program, layout = generate_aligned_program(
            circuit, alignment, word_width=32, output_mode="bits"
        )
        machine = compile_program(program, "python")
        initial = [0] * len(circuit.inputs)
        settled = steady_state(circuit, initial)
        words = []
        for net_name in circuit.nets:
            fill = (-(settled[net_name] & 1)) & program.word_mask
            words.extend([fill] * layout.field(net_name).num_words)
        machine.load_state(machine.gather_state(words))

        reference = EventDrivenSimulator(circuit)
        reference.reset(initial)
        for vector in vectors_for(circuit, 6, seed=3):
            history = reference.apply_vector(vector, record=True)
            out = machine.step([v & 1 for v in vector])
            for (net_name, time), value in zip(
                machine.output_labels(), out
            ):
                # Below a net's alignment the trace clamps to bit 0;
                # at or above it, values are exact.
                if time >= layout.field(net_name).alignment:
                    assert value == value_at(history[net_name], time), (
                        net_name, time
                    )

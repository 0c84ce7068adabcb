"""The observation switch of the compiled simulators.

A simulator's first machine keeps only the carried state words; the
scalar APIs that read other variables switch it, once, to a machine
compiled from ``Program.observable()`` (``CompiledSimulator.observe``).
These tests pin what that switch promises: every observation after it
equals that of a simulator that observed from its first vector,
batches prepared before it keep running, and a simulator that never
observes compiles one program only.
"""

import pytest

from repro.codegen.runtime import (
    clear_program_cache,
    have_c_compiler,
    program_cache,
)
from repro.harness.runner import build_simulator
from repro.harness.vectors import vectors_for
from repro.netlist.bench import parse_bench_sequential
from repro.netlist.random_circuits import pin_input, random_dag_circuit
from repro.seqsim import CompiledSequentialSimulator

BACKENDS = [
    "python",
    pytest.param("c", marks=pytest.mark.skipif(
        have_c_compiler() is None, reason="no C compiler available")),
]
TECHNIQUES = ["pcset", "parallel-best", "zero-lcc"]


def _circuits():
    plain = random_dag_circuit(7, num_inputs=5, num_gates=24)
    # A pinned input leaves a constant cone: read-only carried words.
    constant = pin_input(random_dag_circuit(11, num_inputs=5,
                                            num_gates=24), "I2", 1)
    return [plain, constant]


def _pair(circuit, technique, backend):
    """A hot simulator and one that observed from its first vector."""
    sims = []
    for observe_first in (False, True):
        sim = build_simulator(circuit, technique, backend=backend,
                              word_width=16)
        if observe_first:
            sim.observe()
        sim.reset([0] * len(circuit.inputs))
        sims.append(sim)
    return sims


def _observations(sim, technique, vector):
    """Everything the scalar observers report, for one more vector."""
    if technique == "zero-lcc":
        return {"nets": sim.evaluate_all_nets(vector)}
    finals = sim.final_values()
    return {
        "finals": finals,
        "history": sim.apply_vector_history(vector),
        "after": sim.final_values(),
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("batch", [1, 2, 7])
def test_switch_after_batches_matches_observing_from_start(
        technique, backend, batch):
    for circuit in _circuits():
        vectors = vectors_for(circuit, 3 * batch + 1, seed=batch)
        hot, observing = _pair(circuit, technique, backend)
        for start in range(0, 3 * batch, batch):
            chunk = vectors[start:start + batch]
            assert hot.apply_vectors(chunk) == \
                observing.apply_vectors(chunk)
        assert len(hot.machine.interface.state_names) < len(
            hot.program.state_vars)
        # The switch reproduces every state word, carried or not.
        assert hot.observe().dump_state() == \
            observing.machine.dump_state()
        assert _observations(hot, technique, vectors[-1]) == \
            _observations(observing, technique, vectors[-1])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("technique", ["pcset", "parallel-best"])
def test_switch_after_single_steps(technique, backend):
    """``apply_vector`` then an observer: the seeded and the replayed
    start both give the observing simulator's values."""
    circuit = _circuits()[1]
    vectors = vectors_for(circuit, 4, seed=3)
    for steps in (0, 1, 3):
        hot, observing = _pair(circuit, technique, backend)
        for vector in vectors[:steps]:
            hot.apply_vector(vector)
            observing.apply_vector(vector)
        assert hot.final_values() == observing.final_values()
        assert hot.machine.dump_state() == observing.machine.dump_state()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_prepared_batch_survives_the_switch(technique, backend):
    circuit = _circuits()[0]
    vectors = vectors_for(circuit, 9, seed=4)
    hot, observing = _pair(circuit, technique, backend)
    prepared = hot.prepare_batch(vectors)
    hot.observe()
    hot.run_prepared(prepared)
    observing.run_prepared(observing.prepare_batch(vectors))
    assert hot.machine.dump_state() == observing.machine.dump_state()
    assert hot.counters.vectors == observing.counters.vectors
    assert _observations(hot, technique, vectors[0]) == \
        _observations(observing, technique, vectors[0])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_never_observing_compiles_one_program(technique, backend):
    circuit = _circuits()[0]
    vectors = vectors_for(circuit, 12, seed=5)
    clear_program_cache()
    sim = build_simulator(circuit, technique, backend=backend,
                          word_width=16)
    sim.reset([0] * len(circuit.inputs))
    sim.apply_vectors(vectors)
    sim.apply_vector(vectors[0])
    sim.run_prepared(sim.prepare_batch(vectors))
    sim.run_batch_checksum(vectors)
    assert program_cache().misses == 1
    sim.observe()
    sim.observe()
    assert program_cache().misses == 2


COUNTER = """
INPUT(EN)
OUTPUT(B0)
OUTPUT(B2)
Q0 = DFF(D0)
Q1 = DFF(D1)
Q2 = DFF(D2)
D0 = XOR(Q0, EN)
T1 = AND(Q0, EN)
D1 = XOR(Q1, T1)
T2 = AND(Q1, T1)
D2 = XOR(Q2, T2)
B0 = BUF(Q0)
B2 = AND(Q2, Q1)
"""


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", ["lcc", "pcset", "parallel"])
def test_seqsim_core_switch(engine, backend):
    """The clocked loop observes its core every cycle; a core switched
    mid-run (here after hot batches) agrees with one that observed from
    the start, on outputs and on the flip-flop state."""
    inputs = [[1], [1], [0], [1], [1], [1], [0], [1], [1]]
    sims = []
    for observe_first in (False, True):
        seq = CompiledSequentialSimulator(
            parse_bench_sequential(COUNTER, "counter3"), engine=engine,
            backend=backend,
        )
        if observe_first:
            seq._sim.observe()
        sims.append(seq)
    hot, observing = sims
    # Run the hot core through its batch path before the clocked loop
    # needs it: the switch then has hot passes to reproduce.
    core_vectors = vectors_for(hot.sequential.core, 5, seed=6)
    for seq in sims:
        if engine != "lcc":
            seq._sim.reset(core_vectors[0])
        seq._sim.apply_vectors(core_vectors)
    assert hot.run(inputs) == observing.run(inputs)
    assert hot.state == observing.state
    if engine != "lcc":
        record = [hot.step([1], record=True),
                  observing.step([1], record=True)]
        assert record[0] == record[1]


@pytest.mark.parametrize("technique", ["parallel", "parallel-trim"])
def test_unaligned_parallel_layouts_keep_every_state_variable(technique):
    """These layouts compile with every state variable kept, so they
    observe without a second program."""
    circuit = _circuits()[0]
    clear_program_cache()
    sim = build_simulator(circuit, technique, word_width=16)
    assert sim.machine.num_state == len(sim.program.state_vars)
    sim.reset([0] * len(circuit.inputs))
    sim.apply_vectors(vectors_for(circuit, 4, seed=8))
    assert sim.observe() is sim.machine
    assert program_cache().misses == 1

"""Pattern-lane packing: transposition, eligibility, bit-identity.

The contract under test (see ``repro.codegen.packing``): a shift-free
program evaluates ``word_width`` transposed vectors in one compiled
pass, bit-identically to the scalar per-vector loop — across word
widths, backends, batch sizes that don't divide the width, and the
settled-observer boundary for stateful (PC-set) programs.  Shifted
programs must fall back with no behavior change.
"""

import random
from array import array

import pytest

from repro.codegen.packing import (
    PatternBlock,
    pack_patterns,
    packed_apply,
    packed_bits,
    packing_mode,
    tile_groups,
    unpack_patterns,
    validate_packed_words,
)
from repro.codegen.program import (
    Assign,
    Bin,
    Const,
    Emit,
    Input,
    Program,
    Var,
)
from repro.codegen.runtime import CMachine, compile_program, have_c_compiler
from repro.errors import BackendError, SimulationError
from repro.eventsim.zerodelay import ZeroDelaySimulator
from repro.faults.simulator import (
    ParallelFaultSimulator,
    run_fault_simulation,
)
from repro.harness.runner import run_technique, simulate_outputs
from repro.harness.vectors import vectors_for
from repro.lcc.zerodelay import LCCSimulator, generate_lcc_program
from repro.netlist.iscas85 import make_circuit
from repro.netlist.random_circuits import random_dag_circuit
from repro.parallel.simulator import ParallelSimulator
from repro.pcset.codegen import generate_pcset_program
from repro.pcset.simulator import PCSetSimulator
from repro.simbase import CompiledSimulator

BACKENDS = ("python",) + (("c",) if have_c_compiler() else ())
WIDTHS = (8, 16, 32, 64)


class TestTransposition:
    def test_round_trip(self):
        vectors = [[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1], [1, 0, 0]]
        groups, lane_counts = pack_patterns(vectors, 4)
        assert lane_counts == [4, 1]
        # bit j of word k = input k of vector j
        assert groups[0] == [0b0101, 0b0110, 0b1011]
        assert groups[1] == [1, 0, 0]
        flat = [word for group in groups for word in group]
        assert unpack_patterns(flat, 3, lane_counts) == vectors

    def test_empty_batch(self):
        assert pack_patterns([], 8) == ([], [])
        assert unpack_patterns([], 3, []) == []

    def test_partial_group_high_lanes_zero(self):
        groups, lane_counts = pack_patterns([[1, 1]], 32)
        assert lane_counts == [1]
        assert groups == [[1, 1]]

    def test_non_bit_value_rejected(self):
        with pytest.raises(SimulationError, match="not a single bit"):
            pack_patterns([[0, 2]], 8)

    def test_ragged_vectors_rejected(self):
        with pytest.raises(SimulationError, match="expected 2"):
            pack_patterns([[0, 1], [1]], 8)

    def test_validate_packed_words_overflow(self):
        validate_packed_words([255], 8)
        with pytest.raises(SimulationError, match="does not fit"):
            validate_packed_words([256], 8)
        with pytest.raises(SimulationError, match="does not fit"):
            validate_packed_words([-1], 8)


class TestPackingMode:
    def test_lcc_is_full(self, fig1_circuit):
        assert packing_mode(generate_lcc_program(fig1_circuit)) == "full"

    def test_pcset_is_settled(self, fig4_circuit):
        program, _variables = generate_pcset_program(fig4_circuit)
        assert packing_mode(program) == "settled"

    @pytest.mark.parametrize(
        "optimization", ["none", "trim", "pathtrace", "pathtrace+trim"]
    )
    def test_parallel_is_none(self, fig4_circuit, optimization):
        sim = ParallelSimulator(fig4_circuit, optimization=optimization)
        assert sim.packing_mode == "none"


class TestMachineEntry:
    """The run_packed_block entry on both backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_group_length_validated(self, fig1_circuit, backend):
        machine = compile_program(
            generate_lcc_program(fig1_circuit), backend
        )
        with pytest.raises(BackendError, match="expected 3"):
            machine.run_packed_block([[1, 1]])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_oversized_lane_word_rejected(self, fig1_circuit, backend):
        program = generate_lcc_program(fig1_circuit, word_width=8)
        machine = compile_program(program, backend)
        with pytest.raises(SimulationError, match="does not fit"):
            machine.run_packed_block([[256, 0, 0]])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counters_record_represented_vectors(
        self, fig1_circuit, backend
    ):
        program = generate_lcc_program(fig1_circuit, word_width=8)
        machine = compile_program(program, backend)
        machine.run_packed_block([[1, 2, 3]], vectors_represented=5)
        assert machine.counters.vectors == 5
        machine.run_packed_block([[1, 2, 3]])
        assert machine.counters.vectors == 5 + 8


class TestPackedEqualsScalar:
    """The tentpole bit-identity property."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_circuits(self, backend, width, seed):
        circuit = random_dag_circuit(
            num_inputs=6, num_gates=30, seed=seed
        )
        # Deliberately not a multiple of the width: the last group is
        # partial and its unused lanes must not leak into results.
        vectors = vectors_for(circuit, 2 * width + 5, seed=seed + 1)
        packed = LCCSimulator(
            circuit, backend=backend, word_width=width, packed=True
        )
        scalar = LCCSimulator(
            circuit, backend=backend, word_width=width, packed=False
        )
        assert packed.apply_vectors(vectors) == scalar.apply_vectors(vectors)
        assert packed.run_batch(vectors) == scalar.run_batch(vectors)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("width", (32, 64))
    def test_scaled_c880(self, backend, width):
        circuit = make_circuit("c880", scale_factor=0.25)
        vectors = vectors_for(circuit, 70, seed=7)
        packed = LCCSimulator(
            circuit, backend=backend, word_width=width, packed=True
        )
        scalar = LCCSimulator(
            circuit, backend=backend, word_width=width, packed=False
        )
        assert packed.apply_vectors(vectors) == scalar.apply_vectors(vectors)

    def test_packed_apply_matches_per_vector_step(self, fig1_circuit):
        machine = compile_program(
            generate_lcc_program(fig1_circuit, word_width=8), "python"
        )
        vectors = vectors_for(fig1_circuit, 13, seed=2)
        expected = [machine.step(list(v)) for v in vectors]
        assert packed_apply(machine, vectors) == expected

    def test_auto_mode_packs_and_matches(self, fig1_circuit):
        vectors = vectors_for(fig1_circuit, 50, seed=4)
        auto = LCCSimulator(fig1_circuit, word_width=16)  # packed="auto"
        scalar = LCCSimulator(fig1_circuit, word_width=16, packed=False)
        assert auto.apply_vectors(vectors) == scalar.apply_vectors(vectors)
        # 50 vectors, width 16 -> 4 groups + 1 fill group, not 50 steps.
        assert auto.machine.counters.batches < len(vectors)


class TestEligibilityBoundary:
    def test_multibit_words_fall_back_under_auto(self, fig1_circuit):
        sim = LCCSimulator(fig1_circuit, word_width=8)
        packed_input = [3, 3, 1]  # classic packed-input mode, not 0/1
        out = sim.apply_vectors([packed_input])
        assert out == [sim.machine.step(packed_input)]

    def test_multibit_words_rejected_under_packed_true(self, fig1_circuit):
        sim = LCCSimulator(fig1_circuit, word_width=8, packed=True)
        with pytest.raises(SimulationError, match="0/1"):
            sim.apply_vectors([[3, 3, 1]])

    def test_bad_packed_option_rejected(self, fig1_circuit):
        with pytest.raises(SimulationError, match="packed must be"):
            LCCSimulator(fig1_circuit, packed="yes")

    def test_evaluate_packed_overflow_rejected(self, fig1_circuit):
        sim = LCCSimulator(fig1_circuit, word_width=8)
        with pytest.raises(SimulationError, match="does not fit"):
            sim.evaluate_packed([256, 0, 0])

    def test_shift_program_falls_back_unchanged(self, fig11_circuit):
        # The parallel technique's program shifts across lanes; the
        # simbase auto-pack must leave it on the exact scalar path.
        vectors = vectors_for(fig11_circuit, 20, seed=6)
        outputs = simulate_outputs(fig11_circuit, "parallel", vectors)
        reference = simulate_outputs(
            fig11_circuit, "parallel", list(vectors)
        )
        assert outputs == reference
        run = run_technique(fig11_circuit, "parallel", vectors)
        run()  # still executes scalar run_block without error

    def test_settled_program_not_auto_packed(self, fig4_circuit):
        sim = PCSetSimulator(fig4_circuit)
        assert sim.packing_mode == "settled"
        sim.reset([0, 0, 0])
        vectors = vectors_for(fig4_circuit, 10, seed=8)
        expected = []
        ref = PCSetSimulator(fig4_circuit)
        ref.reset([0, 0, 0])
        for vector in vectors:
            expected.append(ref.apply_vector(list(vector)))
        assert sim.apply_vectors(vectors) == expected


class TestSimbaseFullMode:
    """A memoryless hand-built program auto-packs through simbase."""

    def _simulator(self, circuit, backend):
        class MemorylessSimulator(CompiledSimulator):
            def _encode_state(self, settled):
                # Scratch only: every variable is rewritten each pass.
                return [0] * len(self.program.state_vars)

        program = generate_lcc_program(circuit, word_width=16)
        return MemorylessSimulator(circuit, program, backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_apply_vectors_packs(self, fig1_circuit, backend):
        sim = self._simulator(fig1_circuit, backend)
        assert sim.packing_mode == "full"
        sim.reset()
        vectors = vectors_for(fig1_circuit, 37, seed=3)
        expected = [sim.machine.step(list(v)) for v in vectors]
        assert sim.apply_vectors(vectors) == expected
        assert sim.machine.counters.batches < 37 + len(expected)


class TestSettledOutputs:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_scalar_final_values(self, backend):
        circuit = random_dag_circuit(num_inputs=5, num_gates=25, seed=13)
        vectors = vectors_for(circuit, 41, seed=14)
        sim = PCSetSimulator(circuit, backend=backend, word_width=16)
        packed = sim.settled_outputs(vectors)
        ref = PCSetSimulator(circuit, backend=backend, word_width=16)
        ref.reset()
        expected = []
        for vector in vectors:
            ref.apply_vector(list(vector))
            expected.append(ref.final_values())
        assert packed == expected

    def test_requires_outputs(self, fig4_circuit):
        sim = PCSetSimulator(fig4_circuit, with_outputs=False)
        with pytest.raises(SimulationError, match="without outputs"):
            sim.settled_outputs([[0, 0, 0]])


class TestChecksumRegression:
    """Pin the derived fold width: 2 * word_width - 2.

    The constants below were computed once with the hardcoded 62-bit
    rotate this fold replaced; any change to the folding (width
    derivation, rotate amount, masking) shows up here, and the
    interpreted engine cross-check keeps the two engines compatible.
    """

    def test_fold_bits_derivation(self, fig1_circuit):
        assert LCCSimulator(fig1_circuit)._fold_bits == 62
        assert LCCSimulator(fig1_circuit, word_width=8)._fold_bits == 14
        assert LCCSimulator(fig1_circuit, word_width=64)._fold_bits == 126

    @pytest.mark.parametrize(
        "name,expected", [("c880", 0x11), ("c499", 0x82)]
    )
    def test_pinned_checksums(self, name, expected):
        circuit = make_circuit(name, scale_factor=0.25)
        vectors = vectors_for(circuit, 100, seed=9)
        packed = LCCSimulator(circuit, packed=True)
        scalar = LCCSimulator(circuit, packed=False)
        assert packed.run_batch(vectors) == expected
        assert scalar.run_batch(vectors) == expected
        assert ZeroDelaySimulator(circuit).run_batch(vectors) == expected
        # The checksum folds logical bit values, so it is word-width
        # independent for 0/1 batches.
        wide = LCCSimulator(circuit, word_width=64)
        assert wide.run_batch(vectors) == expected


class TestHarnessThreading:
    @pytest.mark.parametrize("packed", [True, False, "auto"])
    def test_zero_lcc_accepts_packed_option(self, fig1_circuit, packed):
        vectors = vectors_for(fig1_circuit, 24, seed=5)
        run = run_technique(
            fig1_circuit, "zero-lcc", vectors, packed=packed
        )
        run()

    def test_prepare_packed_counts_groups(self, fig1_circuit):
        sim = LCCSimulator(fig1_circuit, word_width=8, packed=True)
        vectors = vectors_for(fig1_circuit, 20, seed=1)
        prepared = sim.prepare_packed(vectors)
        sim.run_prepared(prepared)
        assert sim.machine.counters.vectors == 20
        assert sim.machine.counters.batches == 1


# ----------------------------------------------------------------------
# bit-plane pattern blocks
# ----------------------------------------------------------------------
def _batch_sizes(width):
    # Empty, single, one short of / exactly / one past a lane word,
    # and a count that is not a multiple of 8.
    return (0, 1, width - 1, width, width + 1, 2 * width + 3)


def _rows_of_kind(circuit, rows, kind):
    if kind == "list":
        return [list(row) for row in rows]
    if kind == "tuple":
        return [tuple(row) for row in rows]
    if kind == "bool":
        return [[bool(value) for value in row] for row in rows]
    return [dict(zip(circuit.inputs, row)) for row in rows]


class TestPatternBlockPath:
    """The block path emits the words per-vector ``machine.step`` does."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_block_machine_matches_step(self, backend, width):
        circuit = random_dag_circuit(
            num_inputs=7, num_gates=40, seed=width + 1
        )
        program = generate_lcc_program(circuit, word_width=width)
        machine = compile_program(program, backend)
        for size in _batch_sizes(width):
            rows = vectors_for(circuit, size, seed=size)
            expected = [machine.step(list(row)) for row in rows]
            assert packed_apply(machine, rows) == expected
            block = PatternBlock.from_rows(rows, width)
            assert packed_apply(machine, block) == expected
            assert packed_bits(machine, block) == [
                [word & 1 for word in words] for words in expected
            ]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("kind", ["list", "tuple", "bool", "mapping"])
    def test_row_kinds_through_facade(self, backend, width, kind):
        circuit = random_dag_circuit(num_inputs=6, num_gates=30, seed=5)
        sim = LCCSimulator(
            circuit, backend=backend, word_width=width, packed=True,
        )
        for size in _batch_sizes(width):
            rows = vectors_for(circuit, size, seed=size + 1)
            expected = [sim.machine.step(list(row)) for row in rows]
            got = sim.apply_vectors(_rows_of_kind(circuit, rows, kind))
            assert got == expected

    def test_planes_are_transposed_rows(self):
        rows = [[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1], [1, 0, 0]]
        block = PatternBlock.from_rows(rows, 8)
        # bit j of plane k = input k of vector j
        assert block.planes == [0b10101, 0b00110, 0b01011]
        assert (block.count, block.passes, len(block)) == (5, 1, 1)
        filled = block.laid_out(fill=True)
        assert (filled.passes, len(filled)) == (2, 2)
        # Pass p, slot s is word p*slots + s.
        assert filled.buffer.tolist() == [
            0b10101, 0b00110, 0b01011, 0, 0, 0,
        ]

    def test_extra_slots_patch_every_pass(self):
        rows = [[1]] * 20
        block = PatternBlock.from_rows(rows, 8).laid_out(extra=[7])
        assert len(block) == 3 and block.slots == 2
        parts = block.split()
        assert [part.count for part in parts] == [8, 8, 4]
        block.set_extra(0, 9)
        assert block.buffer.tolist() == [0xFF, 9, 0xFF, 9, 0x0F, 9]
        # Parts share the buffer: the patch shows through.
        assert [part.buffer.tolist() for part in parts] == [
            [0xFF, 9], [0xFF, 9], [0x0F, 9],
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_round_trip_against_group_lists(self, backend, width):
        # The list-of-groups adapters and the block agree word for
        # word, in and out, on random circuits.
        for seed in (1, 2, 3):
            circuit = random_dag_circuit(
                num_inputs=5 + seed, num_gates=25, seed=seed
            )
            machine = compile_program(
                generate_lcc_program(circuit, word_width=width), backend
            )
            rows = vectors_for(circuit, 3 * width + seed, seed=seed)
            groups, lane_counts = pack_patterns(rows, width)
            block = PatternBlock.from_rows(rows, width)
            assert [
                block.lane_words(k).tolist()
                for k in range(len(circuit.inputs))
            ] == [list(column) for column in zip(*groups)]
            assert unpack_patterns(
                [word for group in groups for word in group],
                len(circuit.inputs), lane_counts,
            ) == rows
            flat = []
            machine.run_packed_block(groups, flat)
            assert unpack_patterns(
                flat, machine.num_outputs, lane_counts
            ) == packed_bits(machine, block)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_block_must_fit_the_machine(self, fig1_circuit, backend):
        machine = compile_program(
            generate_lcc_program(fig1_circuit, word_width=8), backend,
        )
        block = PatternBlock.from_rows([[0, 1, 1]], 8)
        with pytest.raises(BackendError, match="does not fit"):
            machine.run_packed_block(block.laid_out(extra=[0]))
        with pytest.raises(BackendError, match="does not fit"):
            machine.run_packed_block(PatternBlock.from_rows([[0, 1, 1]], 16))
        out = []
        machine.run_packed_block(block, out)
        assert len(out) == machine.num_outputs

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_load_state_takes_machine_words(self, fig4_circuit, backend):
        program, _variables = generate_pcset_program(
            fig4_circuit, word_width=16
        )
        machine = compile_program(program, backend)
        values = [(7 * i + 3) & 0xFFFF for i in range(machine.num_state)]
        machine.load_state(array("H", values))
        assert machine.dump_state() == values

    @pytest.mark.skipif(not have_c_compiler(), reason="needs a C compiler")
    def test_c_apply_vectors_enters_run_packed_block(
        self, fig1_circuit, monkeypatch
    ):
        # inject_slowdown(backend="c", path="packed") wraps this entry:
        # the auto-packed batch path must go through it.
        calls = []
        original = CMachine.run_packed_block

        def counting(self, *args, **kwargs):
            calls.append(args[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CMachine, "run_packed_block", counting)
        sim = LCCSimulator(fig1_circuit, backend="c", word_width=8)
        sim.apply_vectors(vectors_for(fig1_circuit, 20, seed=1))
        assert len(calls) == 1 and isinstance(calls[0], PatternBlock)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_batches(self, fig1_circuit, backend):
        # An empty block has no planes; every packed entry takes it.
        sim = LCCSimulator(
            fig1_circuit, backend=backend, word_width=8, packed=True
        )
        sim.run_prepared(sim.prepare_packed([]))
        assert sim.apply_vectors([]) == []
        assert sim.run_batch([]) == 0
        report = ParallelFaultSimulator(
            fig1_circuit, backend=backend, word_width=8,
            patterns="packed",
        ).run([])
        assert not report.detected and report.num_vectors == 0


class TestPatternBlockErrors:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("word", [2, 3, 255, 256, -1])
    def test_multibit_words_fall_back_or_raise(
        self, fig1_circuit, backend, word
    ):
        auto = LCCSimulator(fig1_circuit, backend=backend, word_width=8)
        assert PatternBlock.from_rows([[word, 1, 0]], 8) is None
        out = auto.apply_vectors([[0, 1, 1], [word, 1, 0]])
        assert out == [
            auto.machine.step([0, 1, 1]),
            auto.machine.step([word, 1, 0]),
        ]
        strict = LCCSimulator(
            fig1_circuit, backend=backend, word_width=8, packed=True
        )
        with pytest.raises(SimulationError, match="0/1"):
            strict.apply_vectors([[0, 1, 1], [word, 1, 0]])

    def test_ragged_rows_name_the_vector(self, fig1_circuit):
        with pytest.raises(SimulationError, match="vector 2 has 2 values"):
            PatternBlock.from_rows([[0, 1, 1], [1, 1, 0], [1, 0]], 8)
        with pytest.raises(SimulationError, match="vector 1 has 1 values"):
            pack_patterns([[0, 1], [1]], 8)
        sim = LCCSimulator(fig1_circuit, word_width=8)
        with pytest.raises(SimulationError, match="batch vector 1:"):
            sim.apply_vectors([[0, 1, 1], [1, 0], [1, 1, 1]])

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("value", [1.0, "1", None])
    def test_non_integer_values_raise_simulation_error(
        self, fig1_circuit, backend, value
    ):
        with pytest.raises(SimulationError, match="input 1"):
            PatternBlock.from_rows([[0, 1, 1], [1, value, 0]], 8)
        sim = LCCSimulator(fig1_circuit, backend=backend, word_width=8)
        with pytest.raises(SimulationError, match="not an integer"):
            sim.apply_vectors([[0, 1, 1], [1, value, 0]])


# ----------------------------------------------------------------------
# LCCSimulator on the shared CompiledSimulator executor
# ----------------------------------------------------------------------
#: Every (packed, probes) point.
FACADE_POINTS = [
    (packed, probes)
    for packed in ("auto", False)
    for probes in (False, True)
]


class TestMergedFacade:
    """Every LCC batch surface agrees with the scalar ``step`` loop."""

    #: Past one wrap-free probe part at word_width=8 (255 vectors).
    VECTORS = 300

    @pytest.fixture(scope="class")
    def circuit(self):
        return random_dag_circuit(num_inputs=6, num_gates=30, seed=21)

    @staticmethod
    def _sim(circuit, backend, packed, probes, word_width=8):
        sim = LCCSimulator(
            circuit, backend=backend, word_width=word_width,
            packed=packed, probes=probes or None,
        )
        if probes:
            sim.probe_reset()
        return sim

    def test_is_a_compiled_simulator(self, circuit):
        sim = LCCSimulator(circuit)
        assert isinstance(sim, CompiledSimulator)
        # Memoryless: runs without reset().
        assert sim.apply_vector([0] * len(circuit.inputs))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("packed,probes", FACADE_POINTS)
    def test_batch_surfaces_match_step_loop(
        self, circuit, backend, packed, probes
    ):
        rows = vectors_for(circuit, self.VECTORS, seed=22)
        ref = compile_program(
            generate_lcc_program(circuit, word_width=8), backend
        )
        expected = [ref.step(list(row)) for row in rows]
        applied = self._sim(circuit, backend, packed, probes)
        assert applied.apply_vectors(rows) == expected

        prepared = self._sim(circuit, backend, packed, probes)
        prepare = (
            prepared.prepare_batch if packed is False
            else prepared.prepare_packed
        )
        prepared.run_prepared(prepare(rows))
        assert prepared.counters.vectors == len(rows)
        if probes:
            stepped = self._sim(circuit, backend, False, True)
            for row in rows:
                stepped.apply_vector(row)
            want = stepped.activity_report()
            for sim in (applied, prepared):
                report = sim.activity_report()
                assert report.vectors == len(rows)
                assert report.toggles == want.toggles
        elif packed is False:
            assert prepared.machine.dump_state() == ref.dump_state()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("packed,probes", FACADE_POINTS)
    def test_multibit_words_run_unmasked_scalar(
        self, circuit, backend, packed, probes
    ):
        rng = random.Random(23)
        rows = [
            [rng.randrange(256) for _ in circuit.inputs] for _ in range(20)
        ]
        sim = self._sim(circuit, backend, packed, probes)
        if probes:
            with pytest.raises(SimulationError, match="0/1"):
                sim.apply_vectors(rows)
            return
        expected = [sim.machine.step(row) for row in rows]
        assert expected != [
            sim.machine.step([value & 1 for value in row]) for row in rows
        ]
        assert sim.apply_vectors(rows) == expected
        # One scalar run_block batch.
        assert sim.machine.counters.batches == 1
        assert sim.counters.vectors == len(rows)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("packed,probes", FACADE_POINTS)
    def test_run_batch_checksum_matches_zero_delay(
        self, circuit, backend, packed, probes
    ):
        rows = vectors_for(circuit, 100, seed=24)
        sim = self._sim(
            circuit, backend, packed, probes, word_width=32
        )
        assert sim.run_batch(rows) == (
            ZeroDelaySimulator(circuit).run_batch(rows)
        )


# ----------------------------------------------------------------------
# one word per net
# ----------------------------------------------------------------------
def _program_with_state():
    """A tiny program exercising state, shifts, and sar."""
    p = Program("state_probe", word_width=8, inputs=["a", "b"])
    p.declare("s", 3)
    t = p.declare_temp("t")
    p.init.append(Assign(t, Bin("&", Input(0), Input(1))))
    p.body.append(Assign("s", Bin("^", Var("s"), Var(t))))
    p.body.append(Assign(t, Bin("sar", Var("s"), Const(2))))
    p.output.append(Emit(Bin("|", Var("s"), Bin("<<", Var(t), Const(1))),
                         ("o",)))
    p.validate()
    return p


class TestOneWordPerNet:
    def test_tile_groups_handles_one_bit_words(self):
        # The list-of-words view copes with degenerate 1-bit words
        # (one vector per lane) even though compiled programs only
        # exist at 8/16/32/64.
        assert tile_groups([[1], [0], [1]], 1, 2) == [[1, 0], [1, 0]]
        assert tile_groups([[1, 2], [3, 4]], 2, 1) == [[1, 2], [3, 4]]

    def test_validate_group_names_vector_span(self):
        m = compile_program(_program_with_state(), "python")
        with pytest.raises(SimulationError,
                           match=r"group 1 \(vectors 8\.\.15\)"):
            m.run_packed_block([[1, 2], [1, 1 << 20]])

    def test_numpy_is_an_unknown_backend(self):
        with pytest.raises(BackendError, match="unknown backend"):
            compile_program(_program_with_state(), "numpy")

    def test_every_machine_and_simulator_has_one_tile(self, fig1_circuit):
        # The end-to-end benchmark records these in its plan.
        sim = LCCSimulator(fig1_circuit)
        assert sim.tiles == 1 and sim.machine.tiles == 1
        assert ParallelFaultSimulator(fig1_circuit).tiles == 1

    @pytest.mark.parametrize("build", [
        lambda c: LCCSimulator(c, tiles=2),
        lambda c: PCSetSimulator(c, tiles=1),
        lambda c: ParallelSimulator(c, tiles="auto"),
        lambda c: ParallelFaultSimulator(c, tiles=2),
        lambda c: run_fault_simulation(c, [[0, 0, 0]], tiles=1),
        lambda c: compile_program(
            generate_lcc_program(c), "python", tiles=2
        ),
    ], ids=["lcc", "pcset", "parallel", "faults", "run_faults",
            "compile_program"])
    def test_tiles_keyword_is_gone(self, fig1_circuit, build):
        with pytest.raises(TypeError, match="tiles"):
            build(fig1_circuit)

"""Tests for the differential fuzzing subsystem.

The fuzzer is itself the test of record for the simulator, so these
tests hold it to both halves of its contract: a healthy tree must fuzz
clean, and an intentionally corrupted code emitter
(:func:`repro.fuzz.inject_emitter_bug`) must be caught, shrunk to a
few gates, persisted, and replayable.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.fuzz import (
    CHECKS,
    CONFIG_SCHEMA,
    MUTATIONS,
    SURFACES,
    FuzzConfig,
    coverage_configs,
    entry_from_failure,
    inject_emitter_bug,
    inject_slot_bug,
    load_corpus,
    load_entry,
    replay_entry,
    run_campaign,
    run_check,
    sample_configs,
    save_entry,
    shrink,
)
from repro.harness.vectors import vectors_for
from repro.netlist.generators import (
    equality_comparator,
    ripple_carry_adder,
)
from repro.netlist.random_circuits import random_dag_circuit


class TestFuzzConfig:
    def test_round_trip(self):
        config = FuzzConfig(check="batched", technique="parallel-trim",
                            backend="python", word_width=8,
                            batch_size=5)
        assert FuzzConfig.from_dict(config.as_dict()) == config

    def test_label_is_readable(self):
        config = FuzzConfig(check="faults", word_width=16, probes=True)
        label = config.label()
        assert "faults" in label and "w16" in label and "pr" in label

    def test_rejects_unknown_check(self):
        with pytest.raises(SimulationError):
            FuzzConfig(check="quantum")

    def test_rejects_packed_history_technique(self):
        with pytest.raises(SimulationError):
            FuzzConfig(check="packed", technique="parallel-best")

    def test_sampling_is_deterministic(self):
        a = sample_configs(random.Random(42), 20)
        b = sample_configs(random.Random(42), 20)
        assert a == b
        assert {c.check for c in a} <= set(CHECKS)

    def test_from_dict_upgrades_pre_schema_dicts(self):
        # The committed corpus entries carry no ``schema`` field and
        # the since-removed ``workers: 1`` axis; those load as schema
        # 1 through the upgrade shims, which drop the axis.
        old = {"check": "packed", "technique": "zero-lcc",
               "backend": "python", "word_width": 16,
               "batch_size": 0, "workers": 1}
        config = FuzzConfig.from_dict(old)
        assert "workers" not in config.as_dict()
        assert config.as_dict()["schema"] == CONFIG_SCHEMA
        assert FuzzConfig.from_dict(config.as_dict()) == config
        assert config == FuzzConfig.from_dict(dict(old, partitions=1))

    @pytest.mark.parametrize("removed,name", [
        ({"partitions": 3}, "partitions"),
        ({"workers": 2}, "workers"),
        ({"check": "partitioned", "partitions": 2}, "partitioned"),
    ])
    def test_from_dict_rejects_removed_axes(self, removed, name):
        # Schema 3 dropped the process-pool and partition-executor
        # axes; a config that needed either names an engine that no
        # longer exists and must not replay as something else.
        data = {"schema": 2, "check": "packed", "technique": "zero-lcc",
                "backend": "python", "word_width": 16,
                "batch_size": 0, "workers": 1, **removed}
        with pytest.raises(SimulationError, match=name):
            FuzzConfig.from_dict(data)

    @pytest.mark.parametrize("schema", [2, CONFIG_SCHEMA])
    def test_from_dict_rejects_removed_numpy_backend(self, schema):
        # The numpy backend was deleted; an entry naming it must fail
        # loudly instead of replaying on another backend.
        data = {"schema": schema, "check": "packed",
                "technique": "zero-lcc", "backend": "numpy",
                "word_width": 32, "batch_size": 0, "tiles": 2}
        with pytest.raises(SimulationError, match="'numpy' backend was "
                                                  "removed"):
            FuzzConfig.from_dict(data)

    def test_from_dict_drops_tiles_at_one(self):
        # Lane tiling was deleted: a dict carrying the axis at its only
        # remaining value loads as the config without it, and the
        # serialized shape never mentions it.
        config = FuzzConfig(check="packed", technique="zero-lcc",
                            word_width=8)
        assert "tiles" not in config.as_dict()
        assert FuzzConfig.from_dict(
            dict(config.as_dict(), tiles=1)
        ) == config

    @pytest.mark.parametrize("schema", [2, CONFIG_SCHEMA])
    def test_from_dict_rejects_removed_tiles_axis(self, schema):
        data = {"schema": schema, "check": "packed",
                "technique": "zero-lcc", "backend": "python",
                "word_width": 8, "batch_size": 0, "tiles": 4}
        with pytest.raises(SimulationError, match="removed 'tiles'"):
            FuzzConfig.from_dict(data)

    def test_from_dict_rejects_unknown_fields(self):
        # Silently ignoring unknown keys made corpus replay fragile: a
        # drifted entry would replay the wrong lattice point and pass.
        old = {"check": "packed", "technique": "zero-lcc",
               "backend": "python", "word_width": 16,
               "batch_size": 0, "workers": 1}
        with pytest.raises(SimulationError, match="unknown"):
            FuzzConfig.from_dict(dict(old, future_knob=7))

    def test_from_dict_rejects_newer_schema(self):
        data = FuzzConfig(check="history",
                          technique="parallel-best").as_dict()
        data["schema"] = CONFIG_SCHEMA + 1
        with pytest.raises(SimulationError, match="newer"):
            FuzzConfig.from_dict(data)
        data["schema"] = 0
        with pytest.raises(SimulationError, match="positive"):
            FuzzConfig.from_dict(data)

    def test_schema_field_does_not_change_entry_ids(self):
        # Committed corpus filenames are content hashes; the schema
        # marker is metadata and must stay out of the identity, and the
        # removed ``workers`` axis is hashed at its only value so the
        # committed names survive its removal.
        circuit = random_dag_circuit(5, num_inputs=2, num_gates=4)
        config = FuzzConfig(check="history", technique="parallel-best")
        entry = entry_from_failure(
            circuit, [[0, 1]], config, error="x"
        )
        assert "schema" in entry.as_dict()["config"]
        stripped = {k: v for k, v in config.as_dict().items()
                    if k != "schema"}
        stripped["workers"] = 1
        import hashlib
        import json as json_mod
        payload = json_mod.dumps(
            [entry.bench, ["01"], stripped], sort_keys=True
        )
        expected = hashlib.sha256(payload.encode()).hexdigest()[:16]
        assert entry.entry_id == expected

    def test_surfaces_projection(self):
        assert FuzzConfig(
            check="history", technique="parallel-best"
        ).surfaces() == {"scalar"}
        assert FuzzConfig(
            check="packed", technique="zero-lcc"
        ).surfaces() == {"packed"}
        assert FuzzConfig(
            check="batched", technique="parallel"
        ).surfaces() == {"batched"}
        assert FuzzConfig(
            check="sequential", technique="lcc"
        ).surfaces() == {"replay-restore"}
        assert FuzzConfig(
            check="history", technique="pcset", probes=True
        ).surfaces() == {"scalar", "probed"}

    def test_coverage_configs_span_every_surface(self):
        covered = set()
        for config in coverage_configs(("python",)):
            covered |= config.surfaces()
        assert covered == set(SURFACES)


class TestRunCheck:
    @pytest.fixture(scope="class")
    def triple(self):
        circuit = random_dag_circuit(11, num_inputs=4, num_gates=14)
        return circuit, vectors_for(circuit, 5, seed=3)

    @pytest.mark.parametrize("config", [
        FuzzConfig(check="history", technique="pcset"),
        FuzzConfig(check="history", technique="parallel-best",
                   word_width=8),
        FuzzConfig(check="batched", technique="parallel-cyclebreak",
                   batch_size=2),
        FuzzConfig(check="packed", technique="zero-lcc"),
        FuzzConfig(check="packed", technique="pcset", batch_size=3),
        FuzzConfig(check="faults", technique="parallel-best"),
    ], ids=lambda c: c.label())
    def test_healthy_tree_passes(self, triple, config):
        circuit, vectors = triple
        assert run_check(circuit, vectors, config) > 0

    def test_structured_circuit_passes(self):
        circuit = ripple_carry_adder(3)
        vectors = vectors_for(circuit, 4, seed=1)
        config = FuzzConfig(check="history", technique="parallel-best")
        assert run_check(circuit, vectors, config) == len(vectors)


class TestMutationIsCaught:
    """The acceptance gate: an injected emitter bug must be caught,
    shrunk to a handful of gates, and replay deterministically."""

    def test_unknown_mutation_rejected(self):
        with pytest.raises(SimulationError, match="unknown mutation"):
            with inject_emitter_bug("off-by-one"):
                pass

    @pytest.mark.parametrize("kind", sorted(MUTATIONS))
    def test_mutation_flips_a_direct_check(self, kind):
        # A parity tree of NOTs/XORs etc. won't cover every gate type,
        # so drive the exact corrupted gate type through run_check.
        from repro.netlist.builder import CircuitBuilder

        gate_type, _ = MUTATIONS[kind]
        b = CircuitBuilder("probe")
        a, c = b.inputs("A", "B")
        kind_name = gate_type.name.lower()
        method = {"not": "not_"}.get(kind_name, kind_name)
        if gate_type.min_inputs == 1:
            b.outputs(getattr(b, method)("Z", a))
        else:
            b.outputs(getattr(b, method)("Z", a, c))
        circuit = b.build()
        vectors = [[0, 0], [0, 1], [1, 0], [1, 1]]
        config = FuzzConfig(check="history", technique="parallel-best")
        assert run_check(circuit, vectors, config) == 4
        with inject_emitter_bug(kind):
            with pytest.raises(AssertionError):
                run_check(circuit, vectors, config)
        # Restored on exit: the same check passes again.
        assert run_check(circuit, vectors, config) == 4

    def test_campaign_catches_and_shrinks(self, tmp_path):
        corpus = tmp_path / "corpus"
        with inject_emitter_bug("nor-as-or"):
            result = run_campaign(
                seed=7, iterations=8, backends=("python",),
                include_faults=False, corpus_dir=str(corpus),
            )
        assert not result.ok
        assert result.failures
        for failure in result.failures:
            assert failure.num_gates <= 8
            assert failure.corpus_path is not None
        # Every reproducer replays: clean on healthy code, failing
        # again under the same injection.
        entries = load_corpus(corpus)
        assert len(entries) == len(result.failures)
        for _, entry in entries:
            assert replay_entry(entry) > 0
        with inject_emitter_bug("nor-as-or"):
            for _, entry in entries:
                with pytest.raises(AssertionError):
                    replay_entry(entry)

    def test_slot_order_bug_caught_directly(self):
        circuit = random_dag_circuit(11, num_inputs=4, num_gates=14)
        vectors = vectors_for(circuit, 20, seed=3)
        config = FuzzConfig(check="packed", technique="zero-lcc",
                            word_width=8)
        assert run_check(circuit, vectors, config) > 0
        with inject_slot_bug():
            with pytest.raises(AssertionError):
                run_check(circuit, vectors, config)
        assert run_check(circuit, vectors, config) > 0

    @pytest.mark.parametrize("inject,surface", [
        (inject_slot_bug, "packed"),
    ], ids=["slot-order"])
    def test_extended_campaign_catches_surface_bug(
        self, inject, surface
    ):
        # The coverage preamble draws every surface deterministically,
        # so one iteration suffices for the campaign to hit the bug.
        with inject():
            result = run_campaign(
                seed=5, iterations=1, backends=("python",),
                include_faults=False, shrink_attempts=60,
            )
        assert not result.ok
        assert any(
            surface in failure.config.surfaces()
            for failure in result.failures
        )

    def test_campaign_preamble_covers_every_surface(self):
        result = run_campaign(
            seed=3, iterations=1, backends=("python",),
        )
        assert set(result.surface_coverage) == set(SURFACES)
        assert all(
            count > 0 for count in result.surface_coverage.values()
        )
        assert result.ok

    def test_campaign_is_deterministic(self):
        kwargs = dict(seed=19, iterations=5, backends=("python",),
                      include_faults=False)
        a = run_campaign(**kwargs)
        b = run_campaign(**kwargs)
        assert (a.circuits, a.configs_checked, a.comparisons) == \
               (b.circuits, b.configs_checked, b.comparisons)
        assert a.ok and b.ok

    def test_shrink_reaches_minimal_comparator_core(self):
        # Shrinking a corrupted XNOR inside an equality comparator must
        # strip the circuit to (at most) a few gates around one XNOR.
        circuit = equality_comparator(4)
        vectors = vectors_for(circuit, 6, seed=2)
        config = FuzzConfig(check="history", technique="parallel-best")
        with inject_emitter_bug("xnor-as-xor"):
            with pytest.raises(AssertionError) as exc_info:
                run_check(circuit, vectors, config)
            reduced = shrink(circuit, vectors, config,
                             failure=exc_info.value)
        # Pinned inputs survive as CONST gates, so the floor is a few
        # constants plus the corrupted XNOR — well under the 8-gate
        # acceptance bar either way.
        assert reduced.circuit.num_gates <= 8
        assert len(reduced.circuit.inputs) == 1
        assert len(reduced.vectors) == 1
        assert reduced.num_steps > 0


class TestCorpus:
    def _entry(self):
        circuit = random_dag_circuit(5, num_inputs=3, num_gates=6)
        vectors = vectors_for(circuit, 2, seed=0)
        config = FuzzConfig(check="history", technique="pcset")
        return entry_from_failure(
            circuit, vectors, config, seed=5,
            error="Mismatch: synthetic", shrink_steps=["tape[:2]"],
        )

    def test_save_load_round_trip(self, tmp_path):
        entry = self._entry()
        path = save_entry(entry, tmp_path)
        assert path.name == f"{entry.entry_id}.json"
        loaded = load_entry(path)
        assert loaded.config == entry.config
        assert loaded.vectors == entry.vectors
        assert loaded.bench == entry.bench
        assert loaded.entry_id == entry.entry_id

    def test_entry_id_is_content_addressed(self, tmp_path):
        entry = self._entry()
        # Saving twice is idempotent: same content, same file.
        save_entry(entry, tmp_path)
        save_entry(entry, tmp_path)
        assert len(load_corpus(tmp_path)) == 1

    def test_future_version_rejected(self):
        data = self._entry().as_dict()
        data["version"] = 99
        from repro.fuzz.corpus import CorpusEntry
        with pytest.raises(SimulationError, match="version"):
            CorpusEntry.from_dict(data)

    def test_replay_runs_the_stored_triple(self):
        assert replay_entry(self._entry()) > 0

    def test_missing_corpus_dir_is_empty(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []


class TestFuzzCLI:
    def test_clean_run_exits_zero(self, capsys):
        from repro.cli import main

        status = main([
            "fuzz", "--seed", "3", "-n", "4",
            "--backends", "python", "--no-faults",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_injected_bug_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "corpus"
        status = main([
            "fuzz", "--seed", "3", "-n", "4",
            "--backends", "python", "--no-faults",
            "--inject-bug", "nor-as-or", "--corpus", str(corpus),
        ])
        assert status == 1
        out = capsys.readouterr().out
        assert "injected bug" in out
        assert list(corpus.glob("*.json"))


class TestSequentialAxis:
    """The clocked lattice axis: sequentialized circuits are checked
    against a reference step loop, across all three engines."""

    @pytest.fixture(scope="class")
    def seq_triple(self):
        from repro.netlist.random_circuits import sequentialize

        base = random_dag_circuit(21, num_inputs=5, num_gates=16)
        circuit = sequentialize(base, 2, seed=77)
        return circuit, vectors_for(circuit, 6, seed=5)

    def test_sequentialize_convention(self):
        from repro.netlist.random_circuits import (
            derive_flipflops,
            sequentialize,
        )

        base = random_dag_circuit(21, num_inputs=5, num_gates=16)
        circuit = sequentialize(base, 2, seed=77)
        ffs = derive_flipflops(circuit)
        assert len(ffs) == 2
        for q, d in ffs.items():
            assert q.startswith("FQ") and d == "FD" + q[len("FQ"):]
            assert q in circuit.inputs
            assert circuit.net(d).is_output
        # Deterministic for a seed, and a no-op when it can't apply.
        from repro.netlist.bench import write_bench

        again = sequentialize(base, 2, seed=77)
        assert write_bench(again) == write_bench(circuit)
        assert sequentialize(base, 0) is base

    def test_convention_survives_bench_round_trip(self, seq_triple):
        from repro.netlist.bench import parse_bench, write_bench
        from repro.netlist.random_circuits import derive_flipflops

        circuit, _ = seq_triple
        reparsed = parse_bench(write_bench(circuit), circuit.name)
        assert derive_flipflops(reparsed) == derive_flipflops(circuit)

    def test_config_validation(self):
        from repro.fuzz.lattice import SEQUENTIAL_ENGINES

        config = FuzzConfig(check="sequential", technique="pcset",
                            batch_size=3)
        assert "sequential" in config.label()
        assert FuzzConfig.from_dict(config.as_dict()) == config
        with pytest.raises(SimulationError):
            FuzzConfig(check="sequential", technique="parallel-best")
        assert set(SEQUENTIAL_ENGINES) == {"lcc", "parallel", "pcset"}

    def test_sampling_draws_sequential_points(self):
        configs = sample_configs(random.Random(5), 80)
        seq = [c for c in configs if c.check == "sequential"]
        assert seq
        assert {c.technique for c in seq} <= {"lcc", "parallel", "pcset"}

    @pytest.mark.parametrize("technique", ["lcc", "parallel", "pcset"])
    def test_healthy_sequential_passes(self, seq_triple, technique):
        circuit, vectors = seq_triple
        config = FuzzConfig(check="sequential", technique=technique)
        assert run_check(circuit, vectors, config) > 0

    def test_combinational_circuit_trivially_passes(self):
        # No FQ/FD pairs: the check degenerates to a clocked run with
        # zero flip-flops, which must still agree with the reference.
        circuit = ripple_carry_adder(2)
        vectors = vectors_for(circuit, 3, seed=2)
        config = FuzzConfig(check="sequential", technique="lcc")
        assert run_check(circuit, vectors, config) > 0

    def test_injected_bug_caught(self, seq_triple):
        circuit, vectors = seq_triple
        config = FuzzConfig(check="sequential", technique="lcc")
        with inject_emitter_bug("nand-as-and"):
            with pytest.raises(Exception):
                run_check(circuit, vectors, config)

    def test_corpus_round_trip_keeps_state(self, tmp_path, seq_triple):
        from repro.netlist.random_circuits import derive_flipflops

        circuit, vectors = seq_triple
        config = FuzzConfig(check="sequential", technique="parallel")
        entry = entry_from_failure(
            circuit, vectors, config, seed=9,
            error="Mismatch: synthetic", shrink_steps=[],
        )
        path = save_entry(entry, tmp_path)
        loaded = load_entry(path)
        assert loaded.config == config
        assert derive_flipflops(loaded.circuit()) == \
            derive_flipflops(circuit)

    def test_campaign_draws_sequential_circuits(self):
        from repro.netlist.random_circuits import derive_flipflops

        result = run_campaign(seed=1990, iterations=12,
                              backends=("python",),
                              include_faults=False)
        assert result.ok
        assert result.comparisons > 0

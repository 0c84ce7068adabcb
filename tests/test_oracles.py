"""Tests for the perf-regression oracles and corpus distillation.

The oracle contract has two halves, mirroring the fuzzer's: an
unmodified tree must never flag (floors are calibrated locally with a
generous margin), and a genuine ~2x slowdown must always flag within
one campaign run.  Both are tested with the synthetic
:func:`repro.fuzz.inject_slowdown` shim — a pure timing mutation with
no functional change, invisible to every differential check.
"""

import json
from pathlib import Path

import pytest

from repro.codegen.runtime import have_c_compiler
from repro.errors import SimulationError
from repro.fuzz import (
    FuzzConfig,
    PerfEnvelope,
    PerfPoint,
    calibrate_envelope,
    distill_corpus,
    entry_from_failure,
    inject_slowdown,
    load_bench,
    run_campaign,
    run_perf_phase,
    save_entry,
    validate_bench,
)
from repro.fuzz.oracles import (
    DEFAULT_MARGIN,
    PerfSample,
    committed_reference,
    default_points,
    measure_point,
)
from repro.harness.vectors import vectors_for
from repro.netlist.random_circuits import random_dag_circuit

REPO_ROOT = Path(__file__).resolve().parent.parent

PY_PACKED = PerfPoint(surface="packed", technique="zero-lcc",
                      backend="python", word_width=16)
C_PACKED = PerfPoint(surface="packed", technique="zero-lcc",
                     backend="c", word_width=32)


def fake_measure(point, *, vectors=1024, repeats=3):
    """Deterministic throughput model keyed on the point identity."""
    base = 1000.0 * (hash(point.key()) % 97 + 3)
    return PerfSample(
        vectors_per_s=base,
        compile_seconds=0.01,
        vectors=vectors,
        repeats=repeats,
    )


class TestBenchLoader:
    def test_loads_every_committed_snapshot(self):
        for name in ("packed", "telemetry", "replay", "probes"):
            payload = load_bench(name, REPO_ROOT)
            assert payload is not None, name
            assert isinstance(payload["metrics"], dict)

    def test_missing_snapshot_is_none(self, tmp_path):
        assert load_bench("packed", tmp_path) is None

    def test_unknown_name_rejected(self):
        with pytest.raises(SimulationError, match="unknown bench"):
            load_bench("warp-drive", REPO_ROOT)

    def test_validate_rejects_drift(self):
        good = {"figure": "packed_throughput", "backend": "c",
                "metrics": {}}
        assert validate_bench(dict(good), "packed") == good
        with pytest.raises(SimulationError, match="missing"):
            validate_bench({"figure": "packed_throughput"}, "packed")
        with pytest.raises(SimulationError, match="does not match"):
            validate_bench(dict(good, figure="replay"), "packed")
        with pytest.raises(SimulationError, match="metrics"):
            validate_bench(dict(good, metrics=[]), "packed")

    def test_malformed_json_raises(self, tmp_path):
        (tmp_path / "BENCH_packed.json").write_text("{nope")
        with pytest.raises(SimulationError, match="not valid JSON"):
            load_bench("packed", tmp_path)

    def test_committed_reference_has_per_backend_floors(self):
        reference = committed_reference(REPO_ROOT)
        assert "python" in reference
        assert all(v > 0 for v in reference.values())


class TestPerfPoint:
    def test_key_round_trip(self):
        for point in default_points(("python", "c")):
            assert PerfPoint.from_key(point.key()) == point

    def test_key_encodes_every_axis(self):
        point = PerfPoint(surface="packed", technique="zero-lcc",
                          backend="c", word_width=16)
        assert point.key() == "packed:zero-lcc:c:w16"
        probed = PerfPoint(surface="probed", technique="zero-lcc",
                           backend="python", word_width=8, probes=True)
        assert probed.key().endswith(":probes")
        assert PerfPoint.from_key(probed.key()) == probed

    def test_malformed_key_rejected(self):
        with pytest.raises(SimulationError, match="malformed"):
            PerfPoint.from_key("packed:zero-lcc")
        with pytest.raises(SimulationError, match="unknown perf"):
            PerfPoint.from_key("warp:zero-lcc:c:w32")

    def test_removed_tiles_axis_rejected(self):
        with pytest.raises(SimulationError, match="'tiled' perf surface"):
            PerfPoint.from_key("tiled:zero-lcc:c:w16")
        with pytest.raises(SimulationError, match="removed tiles"):
            PerfPoint.from_key("packed:zero-lcc:c:w16:k2")


class TestEnvelope:
    def test_calibration_is_deterministic(self):
        points = [PY_PACKED, C_PACKED]
        a = calibrate_envelope(points, measure=fake_measure,
                               vectors=64)
        b = calibrate_envelope(points, measure=fake_measure,
                               vectors=64)
        assert a.as_dict() == b.as_dict()
        assert set(a.floors) == {p.key() for p in points}
        for row in a.floors.values():
            assert row["floor_vectors_per_s"] == pytest.approx(
                DEFAULT_MARGIN * row["calibrated_vectors_per_s"]
            )

    def test_save_load_round_trip(self, tmp_path):
        envelope = calibrate_envelope([PY_PACKED],
                                      measure=fake_measure)
        path = tmp_path / "envelope.json"
        envelope.save(path)
        loaded = PerfEnvelope.load(path)
        assert loaded.as_dict() == envelope.as_dict()

    def test_newer_version_and_missing_keys_rejected(self):
        envelope = calibrate_envelope([PY_PACKED],
                                      measure=fake_measure)
        data = envelope.as_dict()
        with pytest.raises(SimulationError, match="newer"):
            PerfEnvelope.from_dict(dict(data, version=99))
        del data["floors"]
        with pytest.raises(SimulationError, match="floors"):
            PerfEnvelope.from_dict(data)

    def test_removed_numpy_point_rejected(self, tmp_path):
        envelope = calibrate_envelope([PY_PACKED],
                                      measure=fake_measure)
        data = envelope.as_dict()
        row = data["floors"][PY_PACKED.key()]
        data["floors"]["packed:zero-lcc:numpy:w32"] = dict(row)
        path = tmp_path / "envelope.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SimulationError, match="'numpy' backend was "
                                                  "removed"):
            PerfEnvelope.load(path)

    @pytest.mark.parametrize("key", [
        "tiled:zero-lcc:c:w16:k2", "packed:zero-lcc:c:w32:k4",
    ])
    def test_removed_tiled_floor_rejected(self, tmp_path, key):
        envelope = calibrate_envelope([PY_PACKED],
                                      measure=fake_measure)
        data = envelope.as_dict()
        data["floors"][key] = dict(data["floors"][PY_PACKED.key()])
        path = tmp_path / "envelope.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SimulationError, match="tile"):
            PerfEnvelope.load(path)

    def test_margin_bounds(self):
        with pytest.raises(SimulationError, match="margin"):
            calibrate_envelope([PY_PACKED], margin=1.5,
                               measure=fake_measure)


class TestPerfPhase:
    def test_clean_run_is_not_flagged(self):
        envelope = calibrate_envelope([PY_PACKED], vectors=256)
        report = run_perf_phase(envelope)
        assert report.flags == []
        assert report.ok
        assert set(report.samples) == {PY_PACKED.key()}

    def test_synthetic_slowdown_is_flagged(self, tmp_path):
        # Calibrate on the healthy tree, then regress it: a sleep shim
        # in the python packed machine wrapper.  No functional check
        # can see this; the oracle must.
        envelope = calibrate_envelope([PY_PACKED], vectors=256)
        with inject_slowdown(3.0, backend="python", path="packed"):
            report = run_perf_phase(
                envelope, artifacts_dir=tmp_path / "artifacts"
            )
        assert report.flags, "slowdown not flagged"
        assert not report.ok
        flag = report.flags[0]
        assert flag.kind == "throughput"
        assert flag.measured < flag.floor
        # The artifact replays: it names the exact point key.
        artifact = json.loads(Path(flag.artifact).read_text())
        assert artifact["replay"] == (
            f"repro-sim fuzz perf --point {flag.point}"
        )
        assert PerfPoint.from_key(artifact["point"]) == PY_PACKED
        # Restored: the same envelope passes again.
        assert run_perf_phase(envelope).flags == []

    def test_observe_only_reports_but_passes(self):
        envelope = calibrate_envelope([PY_PACKED], vectors=256)
        with inject_slowdown(3.0, backend="python", path="packed"):
            report = run_perf_phase(envelope, observe_only=True)
        assert report.flags
        assert report.ok

    @pytest.mark.skipif(not have_c_compiler(),
                        reason="needs a C compiler")
    def test_c_packed_2x_slowdown_flagged_in_one_campaign(
        self, tmp_path
    ):
        # The acceptance criterion verbatim: a ~2x slowdown in the C
        # packed path is flagged by the perf oracle within one
        # campaign run, against an envelope calibrated pre-regression.
        envelope_path = tmp_path / "envelope.json"
        calibrate_envelope([C_PACKED]).save(envelope_path)
        with inject_slowdown(2.0, backend="c", path="packed"):
            result = run_campaign(
                seed=11, iterations=1, backends=("python",),
                include_faults=False, perf="enforce",
                envelope_path=str(envelope_path),
                perf_artifacts=str(tmp_path / "artifacts"),
            )
        assert result.perf_flags, "2x C packed slowdown not flagged"
        assert not result.ok
        assert result.perf_flags[0].point == C_PACKED.key()
        # An unmodified tree passes the same envelope.
        clean = run_campaign(
            seed=11, iterations=1, backends=("python",),
            include_faults=False, perf="enforce",
            envelope_path=str(envelope_path),
        )
        assert clean.perf_flags == []
        assert clean.ok

    def test_real_measurement_runs_every_default_surface(self):
        # measure_point must drive every surface shape without error
        # (python backend keeps this cheap).
        for surface, technique in [
            ("scalar", "parallel-best"), ("packed", "zero-lcc"),
            ("probed", "zero-lcc"),
        ]:
            point = PerfPoint(
                surface=surface, technique=technique,
                backend="python", word_width=8,
                probes=surface == "probed",
            )
            sample = measure_point(point, vectors=64, repeats=1)
            assert sample.vectors_per_s > 0
            assert sample.compile_seconds >= 0


def _healthy_entry(num_gates, config, seed):
    circuit = random_dag_circuit(seed, num_inputs=3,
                                 num_gates=num_gates)
    vectors = vectors_for(circuit, 3, seed=seed)
    return entry_from_failure(circuit, vectors, config, error="test")


class TestDistill:
    SCALAR = FuzzConfig(check="history", technique="parallel-best")
    BATCHED = FuzzConfig(check="batched", technique="parallel",
                         batch_size=2)

    def test_subsumed_entry_dropped(self, tmp_path):
        small = _healthy_entry(4, self.SCALAR, seed=1)
        large = _healthy_entry(12, self.SCALAR, seed=2)
        save_entry(small, tmp_path)
        save_entry(large, tmp_path)
        result = distill_corpus(tmp_path)
        assert result.lossless
        assert len(result.kept) == 1
        assert result.kept[0][1].entry_id == small.entry_id
        assert result.dropped[0][1].entry_id == large.entry_id

    def test_sole_witness_never_dropped(self, tmp_path):
        # The large entry is the only witness for the batched lattice
        # point: no matter how big, it must survive.
        small = _healthy_entry(4, self.SCALAR, seed=1)
        large = _healthy_entry(12, self.BATCHED, seed=2)
        save_entry(small, tmp_path)
        save_entry(large, tmp_path)
        result = distill_corpus(tmp_path)
        assert result.lossless
        assert len(result.kept) == 2
        assert not result.dropped

    def test_dry_run_deletes_nothing(self, tmp_path):
        for seed in (1, 2):
            save_entry(_healthy_entry(4 + 8 * seed, self.SCALAR,
                                      seed=seed), tmp_path)
        before = sorted(tmp_path.glob("*.json"))
        result = distill_corpus(tmp_path)
        assert result.dropped
        assert sorted(tmp_path.glob("*.json")) == before

    def test_apply_deletes_subsumed_files(self, tmp_path):
        small = _healthy_entry(4, self.SCALAR, seed=1)
        large = _healthy_entry(12, self.SCALAR, seed=2)
        save_entry(small, tmp_path)
        large_path = save_entry(large, tmp_path)
        result = distill_corpus(tmp_path, apply=True)
        assert result.applied
        assert not large_path.exists()
        assert len(list(tmp_path.glob("*.json"))) == 1
        # Idempotent: a second pass keeps everything.
        again = distill_corpus(tmp_path, apply=True)
        assert not again.dropped

    def test_committed_corpus_distills_lossless(self):
        # The acceptance criterion: distilling the committed corpus
        # preserves every covered lattice point.  Dry run, no replay —
        # tests/test_fuzz_corpus.py already replays each entry.
        result = distill_corpus(REPO_ROOT / "fuzz-corpus",
                                check=False)
        assert result.lossless
        assert result.points_after == result.points_before
        assert result.kept

    def test_empty_corpus(self, tmp_path):
        result = distill_corpus(tmp_path / "nothing")
        assert result.lossless
        assert not result.kept and not result.dropped

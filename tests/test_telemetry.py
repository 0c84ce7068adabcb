"""Tests for the telemetry layer (repro.telemetry) and its plumbing.

Covers the contracts the instrumentation promises: span nesting and
self-time bookkeeping, the associative registry merge, the derived
snapshot sections, the allocation-free disabled path, and the CLI export surfaces (``--profile``,
``--metrics-out`` and the ``profile`` subcommand).
"""

import json
import re

import pytest

from repro import telemetry
from repro.cli import main
from repro.codegen.runtime import have_c_compiler
from repro.harness.vectors import vectors_for
from repro.netlist.generators import ripple_carry_adder
from repro.telemetry import MetricsRegistry

NEED_CC = pytest.mark.skipif(
    have_c_compiler() is None, reason="no C compiler available"
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Isolate every test from global telemetry state."""
    prior = telemetry.enabled()
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.enable() if prior else telemetry.disable()
    telemetry.reset()


class TestSpans:
    def test_nested_paths_aggregate(self):
        telemetry.enable()
        for _ in range(2):
            with telemetry.span("emit"):
                with telemetry.span("levelize"):
                    pass
        phases = telemetry.snapshot()["phases"]
        assert set(phases) == {"emit", "emit/levelize"}
        assert phases["emit"]["count"] == 2
        assert phases["emit/levelize"]["count"] == 2

    def test_self_time_excludes_children(self):
        telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        outer = telemetry.snapshot()["phases"]["outer"]
        inner = telemetry.snapshot()["phases"]["outer/inner"]
        assert outer["seconds"] >= inner["seconds"]
        assert outer["self_seconds"] == pytest.approx(
            outer["seconds"] - inner["seconds"]
        )
        # Leaf spans have no children: self == total.
        assert inner["self_seconds"] == inner["seconds"]

    def test_record_phase_joins_under_stack(self):
        telemetry.enable()
        with telemetry.span("fault.screen"):
            telemetry.record_phase("run", 0.25, count=3)
        phases = telemetry.snapshot()["phases"]
        run = phases["fault.screen/run"]
        assert run["count"] == 3
        assert run["seconds"] == pytest.approx(0.25)
        # The pre-measured time counts as the parent's child time.
        screen = phases["fault.screen"]
        assert screen["seconds"] - screen["self_seconds"] == pytest.approx(
            0.25
        )

    def test_record_phase_top_level(self):
        telemetry.enable()
        telemetry.record_phase("run", 1.5)
        assert telemetry.phase_totals() == {"run": pytest.approx(1.5)}

    def test_abandoned_inner_span_does_not_poison_the_stack(self):
        # A generator that enters a span and is never resumed leaves
        # the span's frame on the stack; the enclosing span's exit
        # must pop defensively back to itself, or every later phase
        # inherits a stale path prefix.
        telemetry.enable()

        def walker():
            with telemetry.span("inner"):
                yield "mid-body"

        with telemetry.span("outer"):
            gen = walker()
            next(gen)  # enter "inner", abandon it mid-body
        # The outer exit discarded the stale frame: later spans are
        # top-level again.
        with telemetry.span("later"):
            pass
        phases = telemetry.snapshot()["phases"]
        assert "later" in phases
        assert "outer" in phases
        assert not any("/later" in path for path in phases)
        from repro.telemetry import _STACK
        assert _STACK == []
        # Closing the generator afterwards fires inner's __exit__ with
        # self no longer on the stack; it must record quietly without
        # corrupting state.
        gen.close()
        phases = telemetry.snapshot()["phases"]
        assert phases["outer/inner"]["count"] == 1
        assert _STACK == []
        with telemetry.span("after"):
            pass
        assert "after" in telemetry.snapshot()["phases"]

    def test_disabled_span_is_shared_singleton(self):
        assert not telemetry.enabled()
        first = telemetry.span("emit", gates=10)
        second = telemetry.span("run")
        assert first is second  # one shared no-op object, no allocation
        with first as entered:
            assert entered is first
            entered.annotate(extra=1)
            entered.count("batches")
        assert telemetry.snapshot()["phases"] == {}
        assert telemetry.registry().counters == {}

    def test_disabled_recording_is_noop(self):
        telemetry.counter("run.batches")
        telemetry.gauge("depth", 9)
        telemetry.event("fuzz.failure")
        telemetry.record_phase("run", 1.0)
        snap = telemetry.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["phases"] == {}


class TestMetricsRegistry:
    def _sample(self, hits, depth):
        registry = MetricsRegistry()
        registry.inc("cache.hits", hits)
        registry.inc("run.batches")
        registry.set_gauge("depth", depth)
        return registry

    def test_merge_is_associative(self):
        parts = [self._sample(1, 5), self._sample(2, 9), self._sample(4, 7)]

        def fold(order):
            total = MetricsRegistry()
            for index in order:
                total.merge(parts[index])
            return total.as_dict()

        left = fold([0, 1, 2])
        right = fold([2, 1, 0])
        assert left == right
        assert left["counters"]["cache.hits"] == 7
        assert left["gauges"]["depth"] == 9  # gauges merge by max

    def test_dict_round_trip(self):
        registry = self._sample(3, 4)
        clone = MetricsRegistry.from_dict(registry.as_dict())
        assert clone.as_dict() == registry.as_dict()


class TestSnapshots:
    def test_derived_sections_always_present(self):
        snap = telemetry.snapshot()
        assert set(snap["packing"]) == {"packed_batches", "fallback"}
        assert set(snap["cache"]) == {"entries", "hits", "misses"}


    def test_write_metrics(self, tmp_path):
        telemetry.enable()
        telemetry.counter("run.batches")
        path = tmp_path / "metrics.json"
        telemetry.write_metrics(str(path))
        data = json.loads(path.read_text())
        assert data["counters"]["run.batches"] == 1
        assert "packing" in data and "activity" in data


def _coverage_of(out: str) -> float:
    match = re.search(r"\((\d+(?:\.\d+)?)% covered\)", out)
    assert match, out
    return float(match.group(1))


class TestCLI:
    def test_profile_flag_on_subcommand(self, capsys):
        assert main(["--scale", "0.2", "stats", "c432", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "telemetry profile: stats" in out
        assert "program cache:" in out
        assert "% covered" in out

    def test_metrics_out_flag(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main([
            "--scale", "0.2", "simulate", "c432", "-n", "16",
            "--metrics-out", str(path),
        ]) == 0
        assert f"wrote metrics to {path}" in capsys.readouterr().out
        data = json.loads(path.read_text())
        for section in ("cache", "packing", "activity", "counters",
                        "phases", "gauges"):
            assert section in data
        assert data["phases"], data  # the pipeline was instrumented

    def test_profile_subcommand_phase_names(self, capsys):
        assert main([
            "--scale", "0.25", "profile", "c432", "-n", "64",
        ]) == 0
        out = capsys.readouterr().out
        for phase in ("levelize", "pcset", "align", "emit", "cc",
                      "seed", "pack", "run"):
            assert phase in out, f"missing phase {phase!r} in:\n{out}"
        assert "program cache:" in out

    @NEED_CC
    def test_profile_coverage_within_ten_percent(self, capsys):
        """The headline acceptance run: phases cover >= 90% of wall."""
        assert main([
            "profile", "c432", "-b", "c", "-n", "256",
        ]) == 0
        out = capsys.readouterr().out
        assert _coverage_of(out) >= 90.0, out

    def test_profile_metrics_out(self, capsys, tmp_path):
        path = tmp_path / "profile.json"
        assert main([
            "--scale", "0.2", "profile", "c432", "-n", "32",
            "--metrics-out", str(path),
        ]) == 0
        data = json.loads(path.read_text())
        assert data["cache"]["misses"] >= 1  # fresh compile
        assert "emit" in data["phases"]
        assert data["counters"]["run.vectors"] >= 32


class TestActivityTelemetry:
    """The derived ``activity`` section fed by compiled-in probes."""

    def test_activity_section_always_present(self):
        section = telemetry.snapshot()["activity"]
        assert set(section) == {
            "vectors", "toggles", "functional", "glitches",
        }
        assert all(value == 0 for value in section.values())

    def test_probed_run_populates_section(self):
        from repro.pcset.simulator import PCSetSimulator

        telemetry.enable()
        circuit = ripple_carry_adder(3)
        vectors = vectors_for(circuit, 20, seed=5)
        sim = PCSetSimulator(circuit, word_width=16, probes=True)
        sim.reset([0] * len(circuit.inputs))
        sim.apply_vectors([list(v) for v in vectors])
        report = sim.activity_report()
        section = telemetry.snapshot()["activity"]
        assert section["vectors"] == report.vectors == len(vectors)
        assert section["toggles"] == report.total_toggles()
        assert section["functional"] == sum(report.functional.values())
        assert section["glitches"] == report.total_glitch_toggles()

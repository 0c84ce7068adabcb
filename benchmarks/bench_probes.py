"""Compiled-in probe overhead — proving the observability budget.

The probe-lowering pass (docs/algorithms.md §17) promises two things:
a simulator built *without* ``probes=`` pays nothing measurable for
the feature existing (budget: <= 2% on the batched C-backend
workload), and a fully instrumented simulator — every net counted —
stays within a fraction of the uninstrumented throughput (budget:
<= 25%), because the counting is popcounts over lane words inside the
generated program, not history decoding.  This benchmark measures
both against a **pre-probe baseline** — ``run_prepared`` monkeypatched
back to the bare dispatch it replaced — on the same batched workload
(``run_batch``: marshal + compiled passes, the `activity --probes`
CLI's path), interleaving the three modes round-robin and taking the
median of per-round paired ratios, exactly like the telemetry
benchmark.  It then asserts the headline identity: the instrumented
fast path's ``ActivityReport`` equals, bit for bit, the
history-based ``collect_activity`` scalar reference.

Output lands three ways, like the other figure benchmarks: table +
JSON under ``benchmarks/results/probes.{txt,json}`` and a repo-root
``BENCH_probes.json`` snapshot (asserted by ``make check``).
"""

from __future__ import annotations

import time

from _common import NUM_VECTORS, circuit, write_report, write_snapshot
from repro.activity import collect_activity
from repro.codegen.runtime import CMachine, have_c_compiler
from repro.errors import SimulationError
from repro.harness.tables import format_table
from repro.harness.timing import TimingResult
from repro.harness.vectors import vectors_for
from repro.pcset.simulator import PCSetSimulator
from repro.simbase import CompiledSimulator

CIRCUIT = "c880"
WORD_WIDTH = 64
REPEATS = 9
#: Enough vectors that the timed region is compiled passes + marshal,
#: not construction noise.
MIN_VECTORS = 2048
INNER_RUNS = 2
#: Vectors for the bit-identity assertion (scalar history decoding is
#: interpreter-speed, so this stays small; identity over any prefix
#: implies identity over the batch — the counters are pure sums).
IDENT_VECTORS = 192

BUDGET_OFF = 0.02
BUDGET_ON = 0.25

MODES = ("baseline", "off", "on")


def _plain_run_prepared(self, prepared) -> None:
    """The pre-probe ``run_prepared``: bare dispatch, no probe hooks."""
    if not self._settled:
        raise SimulationError("call reset() before running")
    machine, [(payload, passes, _vectors)], _seeds = prepared
    if isinstance(machine, CMachine):
        machine.run_packed(payload, passes)
        return
    machine.run_block(payload, masked=True)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _paired_overhead(mode: list[float], baseline: list[float]) -> float:
    """Median of same-round mode/baseline ratios, minus one."""
    return _median([m / b for m, b in zip(mode, baseline)]) - 1.0


def check_identity(target, backend: str) -> dict:
    """Instrumented fast path == history-based scalar reference."""
    vectors = vectors_for(target, IDENT_VECTORS, seed=46)
    zeros = [0] * len(target.inputs)
    fast = PCSetSimulator(
        target, backend=backend, word_width=WORD_WIDTH, probes=True
    )
    fast.reset(zeros)
    fast.apply_vectors([list(v) for v in vectors])
    report = fast.activity_report()
    reference = collect_activity(
        PCSetSimulator(target, backend=backend, word_width=WORD_WIDTH),
        vectors,
        initial=zeros,
    )
    assert report.vectors == reference.vectors
    assert report.toggles == reference.toggles, "toggle counts diverged"
    assert report.functional == reference.functional, (
        "functional counts diverged"
    )
    return {
        "vectors": report.vectors,
        "nets": len(report.toggles),
        "total_toggles": report.total_toggles(),
        "glitch_toggles": report.total_glitch_toggles(),
        "identical": True,
    }


def collect_metrics(num_vectors: int) -> dict:
    """Time the batched workload under all three modes."""
    num_vectors = max(num_vectors, MIN_VECTORS)
    target = circuit(CIRCUIT)
    backend = "c" if have_c_compiler() else "python"
    vectors = [
        list(v) for v in vectors_for(target, num_vectors, seed=45)
    ]
    zeros = [0] * len(target.inputs)

    plain = PCSetSimulator(
        target, backend=backend, word_width=WORD_WIDTH
    )
    probed = PCSetSimulator(
        target, backend=backend, word_width=WORD_WIDTH, probes=True
    )
    plain.reset(zeros)
    probed.reset(zeros)

    original = CompiledSimulator.run_prepared
    sims = {"baseline": plain, "off": plain, "on": probed}
    samples: dict[str, list[float]] = {mode: [] for mode in MODES}
    try:
        for round_index in range(REPEATS + 1):
            # Rotate who goes first so no mode systematically inherits
            # a warm (or preempted) slot within the round.
            shift = round_index % len(MODES)
            for mode in MODES[shift:] + MODES[:shift]:
                CompiledSimulator.run_prepared = (
                    _plain_run_prepared if mode == "baseline"
                    else original
                )
                sim = sims[mode]
                start = time.perf_counter()
                for _ in range(INNER_RUNS):
                    sim.run_batch(vectors)
                elapsed = time.perf_counter() - start
                if round_index:  # round 0 is warm-up
                    samples[mode].append(elapsed / INNER_RUNS)
    finally:
        CompiledSimulator.run_prepared = original

    # The instrumented run above really counted: drain and sanity-check
    # before the (separate, small) bit-identity pass.
    report = probed.activity_report()
    assert report.vectors >= num_vectors

    timings = {
        mode: TimingResult(f"probes-{mode}", samples[mode], num_vectors)
        for mode in MODES
    }
    return {
        "circuit": CIRCUIT,
        "backend": backend,
        "word_width": WORD_WIDTH,
        "num_vectors": num_vectors,
        "timings": timings,
        "overhead_off": _paired_overhead(
            samples["off"], samples["baseline"]
        ),
        "overhead_on": _paired_overhead(
            samples["on"], samples["baseline"]
        ),
        "budget_off": BUDGET_OFF,
        "budget_on": BUDGET_ON,
        "identity": check_identity(target, backend),
    }


def validate_payload(payload: dict) -> None:
    """Schema check for the emitted JSON (used by ``make check``)."""
    assert set(payload) == {"figure", "backend", "metrics"}, payload.keys()
    assert payload["figure"] == "probes"
    metrics = payload["metrics"]
    assert metrics["circuit"] == CIRCUIT
    assert metrics["backend"] in ("python", "c")
    assert isinstance(metrics["num_vectors"], int)
    for mode in MODES:
        entry = metrics["timings"][mode]
        assert set(entry) == {
            "label", "samples", "num_vectors", "mean", "best",
            "stddev", "per_vector", "vectors_per_second",
        }, entry.keys()
        assert len(entry["samples"]) == REPEATS
        assert entry["best"] > 0 and entry["stddev"] >= 0
    for key in ("overhead_off", "overhead_on"):
        assert isinstance(metrics[key], float)
    identity = metrics["identity"]
    assert identity["identical"] is True
    assert identity["vectors"] == IDENT_VECTORS
    assert identity["nets"] > 0


def _assert_budgets(metrics: dict) -> None:
    """The C-path budgets (python-backend ratios are not contractual)."""
    if metrics["backend"] != "c":
        return
    assert metrics["overhead_off"] <= BUDGET_OFF, (
        f"probes-off overhead {metrics['overhead_off']:.2%} exceeds "
        f"{BUDGET_OFF:.0%}"
    )
    assert metrics["overhead_on"] <= BUDGET_ON, (
        f"probes-on overhead {metrics['overhead_on']:.2%} exceeds "
        f"{BUDGET_ON:.0%}"
    )


def _emit(metrics: dict) -> dict:
    """Write table + results JSON + repo-root snapshot."""
    overheads = {
        "baseline": 0.0,
        "off": metrics["overhead_off"],
        "on": metrics["overhead_on"],
    }
    rows = [
        [
            mode,
            metrics["timings"][mode].best,
            metrics["timings"][mode].mean,
            metrics["timings"][mode].stddev,
            overheads[mode],
        ]
        for mode in MODES
    ]
    table = format_table(
        ["mode", "best s", "mean s", "stddev s", "overhead"],
        rows,
        title=(f"Probe overhead — {CIRCUIT}, "
               f"{metrics['num_vectors']} vectors batched, "
               f"backend={metrics['backend']}, w{WORD_WIDTH} "
               f"(budgets: off {BUDGET_OFF:.0%}, on {BUDGET_ON:.0%}; "
               f"fast/scalar identity over "
               f"{metrics['identity']['vectors']} vectors: "
               f"{metrics['identity']['identical']})"),
        float_format="{:.4f}",
    )
    write_report(
        "probes", table, backend=metrics["backend"], metrics=metrics,
    )
    payload = write_snapshot("probes")
    return payload


def test_probes_report():
    metrics = collect_metrics(NUM_VECTORS)
    payload = _emit(metrics)
    validate_payload(payload)
    _assert_budgets(metrics)


def main(num_vectors: int | None = None) -> None:
    metrics = collect_metrics(num_vectors or NUM_VECTORS)
    payload = _emit(metrics)
    validate_payload(payload)
    _assert_budgets(metrics)
    print("bench-probes: schema valid, budgets met, identity holds")


if __name__ == "__main__":
    main()

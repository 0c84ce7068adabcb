"""The seeded differential fuzzing campaign.

One iteration draws a random circuit (random DAG, layered DAG, or a
structured generator instance), a random vector tape, and a sampled
slice of the configuration lattice, and runs every sampled lattice
point through :func:`repro.fuzz.lattice.run_check`.  A failure is
shrunk (:mod:`repro.fuzz.shrink`) and persisted to the corpus
(:mod:`repro.fuzz.corpus`); the campaign then moves on — one corpus
entry per failing circuit, the rest of the budget keeps exploring.

Everything is deterministic for a given ``seed``: the circuit stream,
the tapes, and the lattice sample are all derived from one master RNG,
so a campaign is replayable by seed alone (the time budget only
decides how far along the stream the run gets).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro import telemetry
from repro.errors import SimulationError
from repro.fuzz.corpus import entry_from_failure, save_entry
from repro.fuzz.lattice import (
    FuzzConfig,
    coverage_configs,
    run_check,
    sample_configs,
)
from repro.fuzz.oracles import (
    PerfEnvelope,
    PerfReport,
    available_backends,
    calibrate_envelope,
    run_perf_phase,
)
from repro.fuzz.shrink import shrink
from repro.harness.vectors import vectors_for
from repro.netlist.circuit import Circuit
from repro.netlist.random_circuits import (
    layered_circuit,
    random_dag_circuit,
    sequentialize,
)

__all__ = [
    "CampaignFailure",
    "CampaignResult",
    "PERF_MODES",
    "run_campaign",
]

PERF_MODES = ("off", "observe", "enforce", "auto")


@dataclass
class CampaignFailure:
    """One caught disagreement, after shrinking."""

    config: FuzzConfig
    error: str
    circuit_name: str
    num_gates: int
    num_vectors: int
    shrink_steps: int
    corpus_path: Optional[str] = None


@dataclass
class CampaignResult:
    """What a campaign did: exploration counts and caught failures."""

    seed: int
    circuits: int = 0
    configs_checked: int = 0
    comparisons: int = 0
    shrink_steps: int = 0
    seconds: float = 0.0
    stopped_by: str = "iterations"
    failures: list[CampaignFailure] = field(default_factory=list)
    #: execution surface -> number of drawn configs touching it.
    surface_coverage: dict = field(default_factory=dict)
    #: the perf-oracle phase, when one ran (``perf != "off"``).
    perf: Optional[PerfReport] = None

    @property
    def perf_flags(self) -> list:
        return [] if self.perf is None else list(self.perf.flags)

    @property
    def ok(self) -> bool:
        if self.failures:
            return False
        return self.perf is None or self.perf.ok

    def note_config(self, config: FuzzConfig) -> None:
        for surface in config.surfaces():
            self.surface_coverage[surface] = (
                self.surface_coverage.get(surface, 0) + 1
            )


def _structured_circuit(rng: random.Random) -> Circuit:
    """A small instance of one of the structured generator families."""
    from repro.netlist import generators as g

    builders = [
        lambda: g.ripple_carry_adder(rng.randint(2, 4)),
        lambda: g.carry_lookahead_adder(rng.randint(2, 3)),
        lambda: g.array_multiplier(rng.randint(2, 3)),
        lambda: g.parity_tree(rng.randint(3, 9)),
        lambda: g.equality_comparator(rng.randint(2, 5)),
        lambda: g.mux_tree(rng.randint(2, 3)),
        lambda: g.decoder(rng.randint(2, 3)),
        lambda: g.majority_voter(rng.choice((3, 5))),
    ]
    return rng.choice(builders)()


def _draw_circuit(rng: random.Random, max_gates: int) -> Circuit:
    """One circuit from the three sources, seeded from the master RNG."""
    kind = rng.random()
    circuit_seed = rng.getrandbits(32)
    if kind < 0.5:
        circuit = random_dag_circuit(
            circuit_seed,
            num_inputs=rng.randint(2, 6),
            num_gates=rng.randint(4, max_gates),
            max_fan_in=rng.randint(2, 4),
            p_unary=rng.choice((0.1, 0.25, 0.4)),
        )
    elif kind < 0.8:
        depth = rng.randint(2, 6)
        circuit = layered_circuit(
            circuit_seed,
            num_inputs=rng.randint(3, 6),
            num_gates=rng.randint(depth, max_gates),
            depth=depth,
            p_unary=rng.choice((0.0, 0.15, 0.3)),
        )
    else:
        circuit = _structured_circuit(rng)
    # A third of the stream gets random flip-flop feedback closed over
    # it (the FQ/FD convention), so the clocked 'sequential' lattice
    # axis sees circuits with real state.  Every combinational check
    # still applies to a sequentialized circuit — the FQ pins are
    # ordinary primary inputs of the broken core.
    if rng.random() < 0.35:
        circuit = sequentialize(
            circuit,
            rng.randint(1, 3),
            seed=rng.getrandbits(32),
        )
    return circuit


def _resolve_perf_mode(perf: str) -> tuple[bool, bool]:
    """``perf`` mode -> (run a perf phase at all, observe-only).

    ``auto`` enforces floors only on machines where throughput
    measurement is trustworthy: not under CI (``CI=1``) and with at
    least 4 CPUs — a loaded single-core box measures its own
    contention, not the code.  Observe-only still measures and prints
    flags; it just never fails the campaign on them.
    """
    if perf not in PERF_MODES:
        raise SimulationError(
            f"unknown perf mode {perf!r}; choose from {PERF_MODES}"
        )
    if perf == "off":
        return False, True
    if perf == "auto":
        constrained = (
            os.environ.get("CI") == "1" or (os.cpu_count() or 1) < 4
        )
        return True, constrained
    return True, perf == "observe"


def _run_coverage_preamble(
    result: CampaignResult,
    rng: random.Random,
    backends: Sequence[str],
    *,
    seed: int,
    corpus_dir: Optional[str],
    max_vectors: int,
    shrink_attempts: int,
    check: Callable,
    progress: Optional[Callable[[str], None]],
) -> None:
    """Deterministically draw every execution surface once.

    Random lattice sampling can miss a surface inside a small budget;
    the preamble pins coverage by running :func:`coverage_configs`
    against one deterministic sequential circuit before the random
    stream starts.  Failures are shrunk and persisted exactly like
    random-stream failures.
    """
    core = random_dag_circuit(
        rng.getrandbits(32), num_inputs=4, num_gates=14
    )
    circuit = sequentialize(core, 2, seed=rng.getrandbits(32))
    result.circuits += 1
    telemetry.counter("fuzz.circuits")
    for config in coverage_configs(backends):
        vectors = vectors_for(
            circuit, max_vectors, seed=rng.getrandbits(32)
        )
        result.configs_checked += 1
        result.note_config(config)
        telemetry.counter("fuzz.configs")
        try:
            with telemetry.span("fuzz.check", config=config.label()):
                result.comparisons += check(circuit, vectors, config)
        except Exception as failure:
            _handle_failure(
                result, circuit, vectors, config, failure,
                seed=seed, corpus_dir=corpus_dir,
                shrink_attempts=shrink_attempts,
                check=check, progress=progress,
            )


def run_campaign(
    *,
    seed: int = 0,
    iterations: Optional[int] = None,
    budget_seconds: Optional[float] = None,
    corpus_dir: Optional[str] = None,
    backends: Optional[Sequence[str]] = None,
    configs_per_circuit: int = 4,
    max_gates: int = 24,
    max_vectors: int = 12,
    include_faults: bool = True,
    shrink_attempts: int = 2000,
    check: Callable = run_check,
    progress: Optional[Callable[[str], None]] = None,
    perf: str = "off",
    envelope_path: Optional[str] = None,
    perf_artifacts: Optional[str] = None,
) -> CampaignResult:
    """Run a seeded fuzz campaign over the configuration lattice.

    Stops at ``iterations`` circuits or after ``budget_seconds``,
    whichever comes first (default: 50 iterations when neither is
    given).  ``backends=None`` probes the machine and fuzzes every
    usable backend (C when a compiler is present).  ``check`` is the
    differential predicate — overridable for testing the campaign
    machinery itself.

    ``perf`` turns on the performance oracles (:mod:`~repro.fuzz.
    oracles`): ``observe`` measures and reports flags without failing
    the campaign, ``enforce`` fails it, ``auto`` picks by machine
    (observe under CI or <4 CPUs).  ``envelope_path`` persists the
    calibrated envelope between runs — an existing file is loaded
    instead of recalibrating, which is what lets a regression that
    predates the *current* process still flag (calibrate on healthy
    code, measure forever after).
    """
    if iterations is None and budget_seconds is None:
        iterations = 50
    if backends is None:
        backends = available_backends()
    perf_enabled, observe_only = _resolve_perf_mode(perf)
    envelope: Optional[PerfEnvelope] = None
    if perf_enabled:
        if envelope_path is not None and os.path.isfile(envelope_path):
            envelope = PerfEnvelope.load(envelope_path)
        else:
            with telemetry.span("fuzz.perf.calibrate"):
                envelope = calibrate_envelope(vectors=1024)
            if envelope_path is not None:
                envelope.save(envelope_path)
    rng = random.Random(seed)
    result = CampaignResult(seed=seed)
    start = time.monotonic()

    def out_of_budget() -> bool:
        if budget_seconds is not None and (
            time.monotonic() - start >= budget_seconds
        ):
            result.stopped_by = "budget"
            return True
        if iterations is not None and result.circuits >= iterations:
            result.stopped_by = "iterations"
            return True
        return False

    with telemetry.span("fuzz.campaign"):
        _run_coverage_preamble(
            result, rng, backends,
            seed=seed, corpus_dir=corpus_dir,
            max_vectors=max_vectors,
            shrink_attempts=shrink_attempts,
            check=check, progress=progress,
        )
        while not out_of_budget():
            with telemetry.span("fuzz.generate"):
                circuit = _draw_circuit(rng, max_gates)
                tape_seed = rng.getrandbits(32)
                vectors = vectors_for(
                    circuit, rng.randint(3, max_vectors), seed=tape_seed
                )
                configs = sample_configs(
                    rng, configs_per_circuit,
                    backends=backends, include_faults=include_faults,
                )
            result.circuits += 1
            telemetry.counter("fuzz.circuits")
            for config in configs:
                if budget_seconds is not None and (
                    time.monotonic() - start >= budget_seconds
                ):
                    break
                result.configs_checked += 1
                result.note_config(config)
                telemetry.counter("fuzz.configs")
                try:
                    with telemetry.span("fuzz.check",
                                        config=config.label()):
                        result.comparisons += check(
                            circuit, vectors, config
                        )
                except Exception as failure:
                    _handle_failure(
                        result, circuit, vectors, config, failure,
                        seed=seed, corpus_dir=corpus_dir,
                        shrink_attempts=shrink_attempts,
                        check=check, progress=progress,
                    )
                    # One corpus entry per circuit: the remaining
                    # configs would mostly re-find the same bug.
                    break
            if progress is not None and result.circuits % 25 == 0:
                progress(
                    f"{result.circuits} circuits, "
                    f"{result.configs_checked} configs, "
                    f"{result.comparisons} comparisons, "
                    f"{len(result.failures)} failures"
                )
        if perf_enabled and envelope is not None:
            # Perf runs after the functional sweep: the differential
            # checks warm every backend, so the oracle measurements
            # see steady-state code paths, not cold caches.
            with telemetry.span("fuzz.perf"):
                result.perf = run_perf_phase(
                    envelope,
                    observe_only=observe_only,
                    artifacts_dir=perf_artifacts,
                )
    result.seconds = time.monotonic() - start
    return result


def _handle_failure(
    result: CampaignResult,
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    config: FuzzConfig,
    failure: BaseException,
    *,
    seed: int,
    corpus_dir: Optional[str],
    shrink_attempts: int,
    check: Callable,
    progress: Optional[Callable[[str], None]],
) -> None:
    telemetry.counter("fuzz.failures")
    telemetry.event("fuzz.failure", config=config.label(),
                    circuit=circuit.name)
    reduced = shrink(
        circuit, vectors, config,
        failure=failure, max_attempts=shrink_attempts, check=check,
    )
    result.shrink_steps += reduced.num_steps
    error = f"{type(failure).__name__}: {failure}"
    entry = entry_from_failure(
        reduced.circuit, reduced.vectors, config,
        seed=seed, error=error, shrink_steps=reduced.steps,
    )
    corpus_path: Optional[str] = None
    if corpus_dir is not None:
        corpus_path = str(save_entry(entry, corpus_dir))
    result.failures.append(CampaignFailure(
        config=config,
        error=error,
        circuit_name=circuit.name,
        num_gates=reduced.circuit.num_gates,
        num_vectors=len(reduced.vectors),
        shrink_steps=reduced.num_steps,
        corpus_path=corpus_path,
    ))
    if progress is not None:
        where = f" -> {corpus_path}" if corpus_path else ""
        progress(
            f"FAIL [{config.label()}] {circuit.name}: shrunk to "
            f"{reduced.circuit.num_gates} gates / "
            f"{len(reduced.vectors)} vectors in "
            f"{reduced.num_steps} steps{where}"
        )

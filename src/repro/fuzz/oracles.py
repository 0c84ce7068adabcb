"""Performance-regression oracles: bench floors enforced by the fuzzer.

The repository carries committed ``BENCH_*.json`` snapshots proving the
paper's "fast" claim and a differential fuzzer proving the "exact"
claim; this module connects them.  A campaign run measures vectors/sec
(and compile seconds) for a small set of *perf points* — lattice
coordinates (surface × technique × backend × width × tiles × probes)
— against a machine-local *envelope* calibrated
at campaign start:

1. warm-up normalization: each point is timed best-of-N on this
   machine with the same prepared-runnable discipline as the
   benchmarks (compile and marshalling outside the timed region);
2. the floor for a point is ``margin × calibrated`` throughput, so an
   unmodified tree never flags while a ~2x regression always does;
3. the committed ``BENCH_packed.json`` reference throughputs are
   recorded alongside as a per-backend ``machine_scale`` — the ratio
   of this machine to the machine that produced the snapshot — which
   keeps the snapshots honest (a wildly off scale means the committed
   floors are stale) without letting another machine's absolute
   numbers cause flakes here.

A point that measures below its floor is re-measured with more
repeats before it is flagged (a single noisy sample on a loaded box
is not a regression); a surviving flag becomes a campaign failure
with a replayable artifact naming the exact ``repro-sim fuzz perf
--point`` command.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro import telemetry
from repro.errors import SimulationError
from repro.fuzz.lattice import check_backend

__all__ = [
    "BENCH_FIGURES",
    "ENVELOPE_VERSION",
    "DEFAULT_MARGIN",
    "MIN_COMPILE_CEILING",
    "load_bench",
    "validate_bench",
    "PerfPoint",
    "PerfSample",
    "PerfFlag",
    "PerfReport",
    "PerfEnvelope",
    "available_backends",
    "default_points",
    "calibration_circuit",
    "measure_point",
    "committed_reference",
    "calibrate_envelope",
    "run_perf_phase",
]

ENVELOPE_VERSION = 1

#: Floor = margin × locally calibrated best throughput.  0.6 leaves a
#: generous noise band on shared/1-CPU machines while a genuine 2x
#: slowdown (measured/calibrated = 0.5) always lands below it.
DEFAULT_MARGIN = 0.6

#: Compile-time ceilings never drop below this, so sub-millisecond
#: Python "compiles" cannot flag on scheduler jitter alone.
MIN_COMPILE_CEILING = 0.25

#: Short bench name -> the ``figure`` field its snapshot must carry.
BENCH_FIGURES = {
    "packed": "packed_throughput",
    "telemetry": "telemetry_overhead",
    "tiled": "tiled_throughput",
    "replay": "replay",
    "probes": "probes",
}


def _repo_root() -> Path:
    # src/repro/fuzz/oracles.py -> repository root.
    return Path(__file__).resolve().parents[3]


def validate_bench(payload: dict, name: str) -> dict:
    """Check one bench snapshot against the shared schema.

    Every ``BENCH_*.json`` (and every ``benchmarks/results/*.json``)
    is a ``{"figure", "backend", "metrics"}`` object whose ``figure``
    matches the registered name.  Returns the payload for chaining.
    """
    if name not in BENCH_FIGURES:
        raise SimulationError(
            f"unknown bench {name!r}; choose from "
            f"{sorted(BENCH_FIGURES)}"
        )
    if not isinstance(payload, dict):
        raise SimulationError(
            f"bench {name!r}: payload must be an object, got "
            f"{type(payload).__name__}"
        )
    missing = [
        key for key in ("figure", "backend", "metrics")
        if key not in payload
    ]
    if missing:
        raise SimulationError(
            f"bench {name!r}: missing required keys {missing}"
        )
    expected = BENCH_FIGURES[name]
    if payload["figure"] != expected:
        raise SimulationError(
            f"bench {name!r}: figure {payload['figure']!r} does not "
            f"match expected {expected!r}"
        )
    if not isinstance(payload["backend"], str):
        raise SimulationError(
            f"bench {name!r}: backend must be a string"
        )
    if not isinstance(payload["metrics"], dict):
        raise SimulationError(
            f"bench {name!r}: metrics must be an object"
        )
    return payload


def load_bench(
    name: str, root: Union[str, Path, None] = None
) -> Optional[dict]:
    """Load + validate ``BENCH_<name>.json`` from the repository root.

    Returns ``None`` when the snapshot file does not exist (a grown
    checkout may predate a bench); malformed content raises — a
    committed snapshot that no longer parses is drift, not absence.
    """
    if name not in BENCH_FIGURES:
        raise SimulationError(
            f"unknown bench {name!r}; choose from "
            f"{sorted(BENCH_FIGURES)}"
        )
    directory = Path(root) if root is not None else _repo_root()
    path = directory / f"BENCH_{name}.json"
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SimulationError(
            f"bench snapshot {path} is not valid JSON: {exc}"
        ) from exc
    return validate_bench(payload, name)


# ----------------------------------------------------------------------
# perf points
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PerfPoint:
    """One measured lattice coordinate.

    ``surface`` names the execution path being timed (and selects the
    driver shape in :func:`measure_point`); the remaining fields are
    the compile-time coordinates.  ``key()`` is the stable identity
    used in envelope files, artifacts and the ``fuzz perf --point``
    replay command.
    """

    surface: str
    technique: str
    backend: str
    word_width: int = 32
    tiles: int = 1
    probes: bool = False

    SURFACES = ("scalar", "packed", "tiled", "probed")

    def __post_init__(self) -> None:
        if self.surface not in self.SURFACES:
            raise SimulationError(
                f"unknown perf surface {self.surface!r}; choose from "
                f"{self.SURFACES}"
            )
        check_backend(self.backend)

    def key(self) -> str:
        parts = [
            self.surface, self.technique, self.backend,
            f"w{self.word_width}",
        ]
        if self.tiles > 1:
            parts.append(f"k{self.tiles}")
        if self.probes:
            parts.append("probes")
        return ":".join(parts)

    @classmethod
    def from_key(cls, key: str) -> "PerfPoint":
        parts = key.split(":")
        if len(parts) < 4 or not parts[3].startswith("w"):
            raise SimulationError(
                f"malformed perf point key {key!r} (want "
                f"surface:technique:backend:wN[:kK][:probes])"
            )
        surface, technique, backend = parts[0], parts[1], parts[2]
        try:
            word_width = int(parts[3][1:])
        except ValueError:
            raise SimulationError(
                f"malformed width in perf point key {key!r}"
            ) from None
        tiles, probes = 1, False
        for extra in parts[4:]:
            if extra.startswith("k"):
                tiles = int(extra[1:])
            elif extra == "probes":
                probes = True
            else:
                raise SimulationError(
                    f"malformed segment {extra!r} in perf point key "
                    f"{key!r}"
                )
        return cls(
            surface=surface, technique=technique, backend=backend,
            word_width=word_width, tiles=tiles, probes=probes,
        )


@dataclass(frozen=True)
class PerfSample:
    """One measurement: best-of-repeats throughput + one-time compile."""

    vectors_per_s: float
    compile_seconds: float
    vectors: int
    repeats: int


@dataclass(frozen=True)
class PerfFlag:
    """One surviving below-envelope measurement (a campaign failure)."""

    point: str
    kind: str  # "throughput" | "compile"
    measured: float
    floor: float
    artifact: str = ""

    @property
    def replay(self) -> str:
        return f"repro-sim fuzz perf --point {self.point}"

    def describe(self) -> str:
        if self.kind == "throughput":
            return (
                f"{self.point}: {self.measured:,.0f} vectors/s below "
                f"floor {self.floor:,.0f}"
            )
        return (
            f"{self.point}: compile {self.measured:.3f}s above "
            f"ceiling {self.floor:.3f}s"
        )


@dataclass
class PerfReport:
    """The perf phase of one campaign: every sample plus any flags."""

    samples: dict = field(default_factory=dict)  # key -> PerfSample
    flags: list = field(default_factory=list)    # list[PerfFlag]
    observe_only: bool = False

    @property
    def ok(self) -> bool:
        return self.observe_only or not self.flags


def available_backends() -> tuple:
    """Backends usable on this machine, production-preferred order."""
    from repro.codegen.runtime import have_c_compiler

    return ("c", "python") if have_c_compiler() else ("python",)


def default_points(
    backends: Optional[Sequence[str]] = None,
) -> list[PerfPoint]:
    """The standard envelope: headline paths on every usable backend.

    Packed throughput is the paper's headline number, so it is
    measured per backend; the scalar block path per backend guards the
    baseline; the tiled and probed paths are measured on
    the preferred backend only (they multiply compile time and their
    regressions are backend-independent layout/orchestration code).
    """
    if backends is None:
        backends = available_backends()
    if not backends:
        raise SimulationError("no backends available for perf points")
    preferred = backends[0]
    points = []
    for backend in backends:
        points.append(PerfPoint(
            surface="packed", technique="zero-lcc", backend=backend,
            word_width=32,
        ))
        points.append(PerfPoint(
            surface="scalar", technique="parallel-best",
            backend=backend, word_width=32,
        ))
    points.append(PerfPoint(
        surface="tiled", technique="zero-lcc", backend=preferred,
        word_width=16, tiles=2,
    ))
    points.append(PerfPoint(
        surface="probed", technique="zero-lcc", backend=preferred,
        word_width=16, probes=True,
    ))
    return points


_CALIBRATION_CIRCUITS: dict = {}


def calibration_circuit(num_inputs: int = 8, num_gates: int = 64):
    """The fixed random DAG every perf point is measured on (cached).

    One deterministic circuit for all points keeps the envelope
    file's floors comparable across calibrations; the size is chosen
    so a compiled pass does real work but a full calibration stays
    inside a CI-friendly budget.
    """
    key = (num_inputs, num_gates)
    if key not in _CALIBRATION_CIRCUITS:
        from repro.netlist.random_circuits import random_dag_circuit

        _CALIBRATION_CIRCUITS[key] = random_dag_circuit(
            1990, num_inputs=num_inputs, num_gates=num_gates
        )
    return _CALIBRATION_CIRCUITS[key]


def _runnable_options(point: PerfPoint) -> dict:
    options = {
        "backend": point.backend,
        "word_width": point.word_width,
    }
    if point.surface in ("packed", "tiled"):
        options["packed"] = True
        if point.tiles > 1:
            options["tiles"] = point.tiles
    elif point.surface == "probed":
        options["probes"] = True
    return options


def measure_point(
    point: PerfPoint,
    *,
    vectors: int = 1024,
    repeats: int = 3,
    circuit=None,
) -> PerfSample:
    """Time one perf point: compile once, run best-of-``repeats``.

    Mirrors the benchmark discipline exactly — construction, state
    seeding and marshalling happen inside ``compile_seconds`` (the
    paper's compile phase), then the prepared zero-argument runnable
    is invoked ``repeats`` times after one unmeasured warm-up pass and
    the best wall time wins (best-of-N is the standard antidote to
    scheduler noise on a shared machine).
    """
    from repro.harness.runner import run_technique
    from repro.harness.vectors import vectors_for

    if circuit is None:
        circuit = calibration_circuit()
    # Tiled passes need more than one group per pass to exist at all.
    needed = point.word_width * point.tiles
    count = max(vectors, 2 * needed)
    tape = vectors_for(circuit, count, seed=97)
    start = time.perf_counter()
    runnable = run_technique(
        circuit, point.technique, tape, **_runnable_options(point)
    )
    compile_seconds = time.perf_counter() - start
    runnable()  # warm-up: page in code, fill caches, JIT nothing
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        runnable()
        best = min(best, time.perf_counter() - t0)
    return PerfSample(
        vectors_per_s=count / best if best > 0 else float("inf"),
        compile_seconds=compile_seconds,
        vectors=count,
        repeats=repeats,
    )


# ----------------------------------------------------------------------
# the envelope
# ----------------------------------------------------------------------
def committed_reference(
    root: Union[str, Path, None] = None
) -> dict[str, float]:
    """Best committed packed throughput per backend, from BENCH_packed.

    The committed snapshot was produced on a different machine; its
    absolute numbers are only used to report ``machine_scale`` (local
    ÷ committed), never as floors themselves.
    """
    bench = load_bench("packed", root)
    if bench is None:
        return {}
    reference: dict[str, float] = {}
    for row in bench["metrics"].get("results", []):
        backend = row.get("backend")
        vps = row.get("packed_vectors_per_s")
        if isinstance(backend, str) and isinstance(vps, (int, float)):
            reference[backend] = max(reference.get(backend, 0.0), vps)
    return reference


@dataclass
class PerfEnvelope:
    """Machine-local floors for every calibrated perf point."""

    margin: float
    vectors: int
    floors: dict  # key -> {"floor_vectors_per_s", "calibrated_...", ...}
    machine_scale: dict = field(default_factory=dict)
    version: int = ENVELOPE_VERSION

    def points(self) -> list[PerfPoint]:
        return [PerfPoint.from_key(key) for key in self.floors]

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "margin": self.margin,
            "vectors": self.vectors,
            "machine_scale": dict(self.machine_scale),
            "floors": {key: dict(row) for key, row in self.floors.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PerfEnvelope":
        version = data.get("version", 0)
        if version > ENVELOPE_VERSION:
            raise SimulationError(
                f"perf envelope version {version} is newer than this "
                f"library understands ({ENVELOPE_VERSION})"
            )
        for key in ("margin", "vectors", "floors"):
            if key not in data:
                raise SimulationError(
                    f"perf envelope is missing required key {key!r}"
                )
        for key in data["floors"]:
            PerfPoint.from_key(key)  # raises on a removed backend
        return cls(
            margin=float(data["margin"]),
            vectors=int(data["vectors"]),
            floors={k: dict(v) for k, v in data["floors"].items()},
            machine_scale=dict(data.get("machine_scale", {})),
            version=version,
        )

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=2,
                                   sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PerfEnvelope":
        return cls.from_dict(json.loads(Path(path).read_text()))


def calibrate_envelope(
    points: Optional[Sequence[PerfPoint]] = None,
    *,
    margin: float = DEFAULT_MARGIN,
    vectors: int = 1024,
    repeats: int = 3,
    root: Union[str, Path, None] = None,
    measure: Optional[Callable[..., PerfSample]] = None,
) -> PerfEnvelope:
    """Measure every point on this machine and derive its floors.

    ``measure`` is injectable so tests can calibrate against a
    deterministic fake; the default is :func:`measure_point`.
    """
    if not 0.0 < margin < 1.0:
        raise SimulationError(
            f"margin must be in (0, 1), got {margin!r}"
        )
    if points is None:
        points = default_points()
    if measure is None:
        measure = measure_point
    floors: dict = {}
    local_packed: dict[str, float] = {}
    for point in points:
        sample = measure(point, vectors=vectors, repeats=repeats)
        compile_ceiling = max(
            sample.compile_seconds / margin, MIN_COMPILE_CEILING
        )
        floors[point.key()] = {
            "floor_vectors_per_s": margin * sample.vectors_per_s,
            "calibrated_vectors_per_s": sample.vectors_per_s,
            "compile_ceiling_seconds": compile_ceiling,
            "calibrated_compile_seconds": sample.compile_seconds,
        }
        if point.surface == "packed":
            local_packed[point.backend] = max(
                local_packed.get(point.backend, 0.0),
                sample.vectors_per_s,
            )
    reference = committed_reference(root)
    machine_scale = {
        backend: local_packed[backend] / reference[backend]
        for backend in local_packed
        if reference.get(backend)
    }
    return PerfEnvelope(
        margin=margin, vectors=vectors, floors=floors,
        machine_scale=machine_scale,
    )


def run_perf_phase(
    envelope: PerfEnvelope,
    *,
    observe_only: bool = False,
    artifacts_dir: Union[str, Path, None] = None,
    measure: Optional[Callable[..., PerfSample]] = None,
    escalate_repeats: int = 5,
) -> PerfReport:
    """Measure every envelope point and flag below-floor survivors.

    A first below-floor measurement is re-measured with
    ``escalate_repeats`` before it may flag — one noisy sample on a
    loaded machine is not a regression, but a real slowdown survives
    any number of repeats.  Each surviving flag is written as a
    replayable JSON artifact when ``artifacts_dir`` is given.
    """
    if measure is None:
        measure = measure_point
    report = PerfReport(observe_only=observe_only)
    for key, floor_row in envelope.floors.items():
        point = PerfPoint.from_key(key)
        sample = measure(point, vectors=envelope.vectors, repeats=3)
        telemetry.counter("fuzz.perf.points")
        failures = _floor_failures(sample, floor_row)
        if failures:
            # Escalate: the cheap measurement said "slow" — take the
            # best of more repeats before believing it.
            sample = measure(
                point, vectors=envelope.vectors,
                repeats=escalate_repeats,
            )
            telemetry.counter("fuzz.perf.escalations")
            failures = _floor_failures(sample, floor_row)
        report.samples[key] = sample
        for kind, measured, floor in failures:
            flag = PerfFlag(
                point=key, kind=kind, measured=measured, floor=floor,
            )
            if artifacts_dir is not None:
                flag = _write_artifact(
                    flag, sample, envelope, Path(artifacts_dir)
                )
            telemetry.counter("fuzz.perf.flags")
            report.flags.append(flag)
    return report


def _floor_failures(
    sample: PerfSample, floor_row: dict
) -> list[tuple[str, float, float]]:
    failures = []
    floor = floor_row["floor_vectors_per_s"]
    if sample.vectors_per_s < floor:
        failures.append(("throughput", sample.vectors_per_s, floor))
    ceiling = floor_row.get("compile_ceiling_seconds")
    if ceiling is not None and sample.compile_seconds > ceiling:
        failures.append(("compile", sample.compile_seconds, ceiling))
    return failures


def _write_artifact(
    flag: PerfFlag,
    sample: PerfSample,
    envelope: PerfEnvelope,
    directory: Path,
) -> PerfFlag:
    directory.mkdir(parents=True, exist_ok=True)
    safe = flag.point.replace(":", "_").replace("/", "_")
    path = directory / f"perf_{safe}_{flag.kind}.json"
    payload = {
        "point": flag.point,
        "kind": flag.kind,
        "measured": flag.measured,
        "floor": flag.floor,
        "margin": envelope.margin,
        "vectors": envelope.vectors,
        "sample": {
            "vectors_per_s": sample.vectors_per_s,
            "compile_seconds": sample.compile_seconds,
            "repeats": sample.repeats,
        },
        "machine_scale": dict(envelope.machine_scale),
        "replay": flag.replay,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return PerfFlag(
        point=flag.point, kind=flag.kind, measured=flag.measured,
        floor=flag.floor, artifact=str(path),
    )

"""Shared infrastructure for the figure benchmarks.

Environment knobs (all optional):

``REPRO_BENCH_SCALE``
    Scale factor for the synthetic ISCAS85 analogs used in *timing*
    benchmarks (default 0.25).  Depth — and therefore word counts — is
    always preserved; static tables (Figs. 20-22, code size) always use
    the full published sizes.
``REPRO_BENCH_VECTORS``
    Vectors per timed run (default 256; the paper used 5,000 on a 1989
    workstation).
``REPRO_BENCH_BACKEND``
    ``c`` (default when a C compiler is present) or ``python``.
``REPRO_BENCH_SUITE``
    Comma-separated circuit names (default: all ten).
``REPRO_BENCH_OUT``
    A directory that receives every results file and ``BENCH_*.json``
    snapshot instead of ``benchmarks/results/`` and the repo root
    (``make check`` points it at a temporary directory, so its
    reduced-scale runs validate without touching the tracked files).

Each figure benchmark writes its paper-shaped table to
``benchmarks/results/<figure>.txt`` and prints it, so EXPERIMENTS.md
can quote the numbers.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.codegen.runtime import have_c_compiler
from repro.fuzz.oracles import BENCH_FIGURES, validate_bench
from repro.fuzz.oracles import load_bench as _oracle_load_bench
from repro.netlist.iscas85 import ISCAS85_SPECS, make_circuit

REPO_ROOT = Path(__file__).resolve().parent.parent
_OUT = os.environ.get("REPRO_BENCH_OUT")
RESULTS_DIR = Path(_OUT) if _OUT else Path(__file__).parent / "results"
SNAPSHOT_DIR = Path(_OUT) if _OUT else REPO_ROOT

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))
NUM_VECTORS = int(os.environ.get("REPRO_BENCH_VECTORS", "256"))
BACKEND = os.environ.get(
    "REPRO_BENCH_BACKEND", "c" if have_c_compiler() else "python"
)

_default_suite = ",".join(ISCAS85_SPECS)
SUITE = [
    name.strip()
    for name in os.environ.get("REPRO_BENCH_SUITE", _default_suite).split(",")
    if name.strip()
]

_circuit_cache: dict[tuple[str, float], object] = {}


def jsonable(value):
    """Recursively convert metrics values for JSON serialization.

    Anything carrying an ``as_dict`` method — notably
    :class:`repro.harness.timing.TimingResult` — serializes through it,
    so benchmarks can put timing objects straight into their metrics.
    """
    if hasattr(value, "as_dict"):
        return jsonable(value.as_dict())
    if isinstance(value, dict):
        return {key: jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    return value


def circuit(name: str, scale: float = SCALE):
    """Cached ISCAS85-analog circuit at the requested scale."""
    key = (name, scale)
    if key not in _circuit_cache:
        _circuit_cache[key] = make_circuit(name, scale_factor=scale)
    return _circuit_cache[key]


def full_circuit(name: str):
    """The full-size analog (used by all static tables)."""
    return circuit(name, 1.0)


def write_report(
    figure: str,
    text: str,
    *,
    backend: str | None = None,
    metrics: dict | None = None,
) -> None:
    """Persist a figure's table under ``RESULTS_DIR`` and print it.

    Alongside the human-readable ``<figure>.txt``, a machine-readable
    ``<figure>.json`` is always written with the shape
    ``{"figure": ..., "backend": ..., "metrics": {...}}`` so downstream
    tooling never has to scrape the tables.  ``backend`` defaults to
    the suite-wide ``BACKEND``; pass ``metrics`` to record the numbers
    the table was built from.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{figure}.txt"
    path.write_text(text + "\n")
    json_path = RESULTS_DIR / f"{figure}.json"
    json_path.write_text(json.dumps({
        "figure": figure,
        "backend": backend if backend is not None else BACKEND,
        "metrics": jsonable(metrics) if metrics is not None else {},
    }, indent=2, sort_keys=True) + "\n")
    print(f"\n{text}\n[written to {path} and {json_path}]")


def load_bench(name: str) -> dict | None:
    """Load + schema-validate a committed ``BENCH_<name>.json``.

    The single loader every bench and the perf-oracle layer share
    (:mod:`repro.fuzz.oracles`) — ``None`` when the snapshot does not
    exist yet, :class:`~repro.errors.SimulationError` on drift.
    """
    return _oracle_load_bench(name, root=REPO_ROOT)


def write_snapshot(name: str) -> dict:
    """Round-trip ``<figure>.json`` into ``BENCH_<name>.json``.

    Reads back the results JSON :func:`write_report` just produced,
    validates it against the shared bench schema, and only then copies
    it to the repo-root snapshot — so a bench whose payload drifts
    from the schema fails at emit time, not when the oracle layer
    later tries to read the committed floor.
    """
    figure = BENCH_FIGURES[name]
    payload = json.loads((RESULTS_DIR / f"{figure}.json").read_text())
    validate_bench(payload, name)
    path = SNAPSHOT_DIR / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"[snapshot written to {path}]")
    return payload

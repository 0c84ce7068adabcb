"""Pipeline telemetry: phase spans, metrics, snapshot export.

The paper's whole argument is quantitative — compile time vs. run time
across techniques — so the library instruments itself end to end:

- **Phase spans** (:func:`span`, :func:`record_phase`) are nested
  ``perf_counter`` timings around the pipeline stages: compile-side
  ``levelize`` / ``pcset`` / ``align`` / ``emit`` / ``cc`` and
  execution-side ``seed`` / ``pack`` / ``run`` / fault screens.  Spans
  aggregate by *path* (``"emit/levelize"`` is levelization performed
  inside program generation), keeping one running
  ``(count, total, self)`` triple per path rather than a trace — the
  cost of an enabled span is two clock reads and a few dict operations
  per entry, and a *disabled* span is a single flag check returning a
  shared no-op singleton (the zero-allocation path).
- A **MetricsRegistry** of namespaced counters and gauges unifies the
  scattered ad-hoc counters: batched-execution totals
  (``run.batches``/``run.vectors``), program-cache hits/misses,
  pattern-packing eligibility and fallback reasons
  (``packing.fallback.settled``/``.none``), and discrete events
  (``events.<name>``).  Counter merge is associative and commutative
  (sum); gauge merge takes the maximum.
- **Export**: :func:`format_profile` renders the per-phase table the
  CLI's ``--profile`` flag and ``profile`` subcommand print;
  :func:`snapshot` serializes the whole state to a JSON-able dict and
  backs ``--metrics-out``.

Everything is off by default (set ``REPRO_TELEMETRY=1`` or call
:func:`enable`), and log output goes to the stdlib ``repro.telemetry``
logger, which carries a ``NullHandler`` — attach your own handler to
see span/event records (structured fields ride in ``extra`` under
``repro_``-prefixed keys).

The module is intentionally not thread-safe: every execution path of
this library is single-threaded, and each process owns its private
telemetry state.
"""

from __future__ import annotations

import json
import logging
import os
import time
from contextlib import contextmanager
from typing import Mapping, Optional

__all__ = [
    "MetricsRegistry",
    "Span",
    "enabled",
    "enable",
    "disable",
    "reset",
    "scope",
    "span",
    "record_phase",
    "counter",
    "gauge",
    "event",
    "registry",
    "phase_rows",
    "phase_totals",
    "format_profile",
    "snapshot",
    "write_metrics",
]

logger = logging.getLogger("repro.telemetry")
logger.addHandler(logging.NullHandler())


class MetricsRegistry:
    """Namespaced counters and gauges with an associative merge.

    Counters accumulate by summation; gauges record a level and merge
    by maximum — both operations are associative and commutative, so
    merging per-process registries is order-independent.
    """

    __slots__ = ("counters", "gauges")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}

    def inc(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def merge(self, other: "MetricsRegistry | Mapping") -> None:
        """Fold another registry (or its ``as_dict``) into this one."""
        if isinstance(other, MetricsRegistry):
            counters, gauges = other.counters, other.gauges
        else:
            counters = other.get("counters", {})
            gauges = other.get("gauges", {})
        for name, value in counters.items():
            self.inc(name, value)
        for name, value in gauges.items():
            prior = self.gauges.get(name)
            self.gauges[name] = value if prior is None else max(prior, value)

    def as_dict(self) -> dict:
        return {"counters": dict(self.counters), "gauges": dict(self.gauges)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsRegistry":
        registry = cls()
        registry.merge(data)
        return registry

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self.counters)} counters, "
            f"{len(self.gauges)} gauges)"
        )


class _NullSpan:
    """The shared no-op span handed out while telemetry is disabled.

    A single module-level instance serves every disabled ``span()``
    call — entering, exiting, and annotating it allocate nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        pass

    def count(self, name: str, amount: float = 1) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Span:
    """One live phase timing; use via ``with telemetry.span(name):``.

    On exit the duration is aggregated under the span's *path* — the
    ``/``-joined names of the enclosing spans — and the parent's child
    time grows by it, so every phase's *self* time (total minus
    children) falls out of the bookkeeping for free.
    """

    __slots__ = ("name", "path", "attrs", "child_seconds", "_start")

    def __init__(self, name: str, attrs: Optional[dict] = None) -> None:
        self.name = name
        self.path = name
        self.attrs = attrs or {}
        self.child_seconds = 0.0
        self._start = 0.0

    def annotate(self, **attrs) -> None:
        """Attach attributes, logged with the span's completion record."""
        self.attrs.update(attrs)

    def count(self, name: str, amount: float = 1) -> None:
        """Increment a counter namespaced under this span's name."""
        counter(f"{self.name}.{name}", amount)

    def __enter__(self) -> "Span":
        stack = _STACK
        if stack:
            self.path = f"{stack[-1].path}/{self.name}"
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        seconds = time.perf_counter() - self._start
        stack = _STACK
        # Pop defensively back to *this* span: an inner span abandoned
        # mid-body (e.g. held by a generator that is never resumed)
        # would otherwise stay on the stack forever, mis-attributing
        # every later phase's path and child time.  Stale frames above
        # ``self`` are discarded; only when ``self`` was actually on
        # the stack does the (new) parent get credited.
        if any(frame is self for frame in stack):
            while stack:
                if stack.pop() is self:
                    break
            if stack:
                stack[-1].child_seconds += seconds
        entry = _PHASES.get(self.path)
        if entry is None:
            entry = _PHASES[self.path] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += seconds
        entry[2] += seconds - self.child_seconds
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "phase %s: %.6fs", self.path, seconds,
                extra={
                    "repro_phase": self.path,
                    "repro_seconds": seconds,
                    "repro_attrs": dict(self.attrs),
                },
            )
        return False


# ----------------------------------------------------------------------
# module state
# ----------------------------------------------------------------------
_ENABLED = os.environ.get("REPRO_TELEMETRY", "").strip().lower() not in (
    "", "0", "off", "false", "no",
)
_REGISTRY = MetricsRegistry()
#: path -> [count, total_seconds, self_seconds]
_PHASES: dict[str, list] = {}
_STACK: list[Span] = []


def enabled() -> bool:
    """Is instrumentation collecting right now?"""
    return _ENABLED


def enable(*, reset_state: bool = False) -> None:
    """Turn instrumentation on (optionally from a clean slate)."""
    global _ENABLED
    if reset_state:
        reset()
    _ENABLED = True


def disable() -> None:
    """Stop collecting (already-recorded state is kept)."""
    global _ENABLED
    _ENABLED = False


def reset() -> None:
    """Drop every recorded phase, counter and gauge."""
    _REGISTRY.reset()
    _PHASES.clear()
    del _STACK[:]


@contextmanager
def scope(flag: bool = True):
    """Temporarily enable (or disable) telemetry — tests and the CLI."""
    global _ENABLED
    prior = _ENABLED
    _ENABLED = flag
    try:
        yield
    finally:
        _ENABLED = prior


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _REGISTRY


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
def span(name: str, **attrs):
    """A phase timing context; the shared no-op when disabled."""
    if not _ENABLED:
        return _NULL_SPAN
    return Span(name, attrs or None)


def record_phase(name: str, seconds: float, count: int = 1) -> None:
    """Fold an already-measured duration into the phase table.

    The batch runtimes measure their own wall time for the throughput
    counters; this entry point reuses that measurement instead of
    paying two more clock reads for a wrapping span.
    """
    if not _ENABLED:
        return
    path = f"{_STACK[-1].path}/{name}" if _STACK else name
    if _STACK:
        _STACK[-1].child_seconds += seconds
    entry = _PHASES.get(path)
    if entry is None:
        entry = _PHASES[path] = [0, 0.0, 0.0]
    entry[0] += count
    entry[1] += seconds
    entry[2] += seconds


def counter(name: str, amount: float = 1) -> None:
    """Increment a registry counter (no-op while disabled)."""
    if not _ENABLED:
        return
    _REGISTRY.inc(name, amount)


def gauge(name: str, value: float) -> None:
    """Record a registry gauge level (no-op while disabled)."""
    if not _ENABLED:
        return
    _REGISTRY.set_gauge(name, value)


def event(name: str, **fields) -> None:
    """Record a discrete occurrence: ``events.<name>`` counter + log.

    This is how silent decisions (such as a packed->scalar fallback)
    become visible; ``fields`` ride in the log record's ``extra``.
    """
    if not _ENABLED:
        return
    _REGISTRY.inc(f"events.{name}")
    logger.info(
        "event %s %s", name, fields,
        extra={"repro_event": name, "repro_fields": fields},
    )


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
def _derived_sections(counters: Mapping, cache: Mapping) -> dict:
    """The convenience sections recomputed from raw counters."""
    return {
        "cache": dict(cache),
        "packing": {
            "packed_batches": counters.get("packing.packed_batches", 0),
            "fallback": {
                "settled": counters.get("packing.fallback.settled", 0),
                "none": counters.get("packing.fallback.none", 0),
            },
        },
        "seq": {
            # Clocked (sequential) execution — see repro.seqsim and
            # repro.replay: cycles/batches from apply_vectors,
            # checkpoint/restore traffic from the replay harness.
            "cycles": counters.get("seq.cycles", 0),
            "batches": counters.get("seq.batches", 0),
            "checkpoints": counters.get("seq.checkpoints", 0),
            "restores": counters.get("seq.restores", 0),
        },
        "activity": {
            # Compiled-in probe counters — see repro.codegen.probes.
            # All four are summed counters.
            "vectors": counters.get("activity.vectors", 0),
            "toggles": counters.get("activity.toggles", 0),
            "functional": counters.get("activity.functional", 0),
            "glitches": counters.get("activity.glitches", 0),
        },
        "fuzz": {
            # The fuzz campaign and its oracles — see repro.fuzz.
            "circuits": counters.get("fuzz.circuits", 0),
            "configs": counters.get("fuzz.configs", 0),
            "failures": counters.get("fuzz.failures", 0),
            "perf": {
                "points": counters.get("fuzz.perf.points", 0),
                "escalations": counters.get(
                    "fuzz.perf.escalations", 0
                ),
                "flags": counters.get("fuzz.perf.flags", 0),
            },
            "distill": {
                "kept": counters.get("fuzz.distill.kept", 0),
                "dropped": counters.get("fuzz.distill.dropped", 0),
            },
        },
    }


def snapshot() -> dict:
    """The whole telemetry state as one JSON-able dict.

    Program-cache hits/misses are read live from the process-wide
    :class:`~repro.codegen.runtime.ProgramCache`.
    """
    from repro.codegen.runtime import program_cache  # lazy: avoid cycle

    counters = dict(_REGISTRY.counters)
    snap = {
        "enabled": _ENABLED,
        "counters": counters,
        "gauges": dict(_REGISTRY.gauges),
        "phases": {
            path: {
                "count": entry[0],
                "seconds": entry[1],
                "self_seconds": entry[2],
            }
            for path, entry in _PHASES.items()
        },
    }
    snap.update(_derived_sections(counters, program_cache().stats()))
    return snap


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def phase_rows() -> list[tuple[str, int, int, float, float]]:
    """Sorted ``(path, depth, count, seconds, self_seconds)`` rows.

    Hierarchical order: every span's children directly follow it.
    """
    rows = []
    for path in sorted(_PHASES, key=lambda p: p.split("/")):
        entry = _PHASES[path]
        rows.append(
            (path, path.count("/"), entry[0], entry[1], entry[2])
        )
    return rows


def phase_totals() -> dict[str, float]:
    """Total seconds per *top-level* phase (nested time included)."""
    return {
        path: entry[1]
        for path, entry in _PHASES.items()
        if "/" not in path
    }


def format_profile(wall: Optional[float] = None, title: str = "") -> str:
    """The human per-phase table behind ``--profile``.

    ``wall`` is the caller's outer wall-clock time; when given, each
    top-level phase gets a percentage column and the footer states the
    phase coverage (top-level phase total over wall).
    """
    rows = phase_rows()
    lines = []
    if title:
        lines.append(title)
    header = f"{'phase':<28} {'count':>7} {'total s':>10} {'self s':>10}"
    if wall:
        header += f" {'% wall':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for path, depth, count, seconds, self_seconds in rows:
        name = "  " * depth + path.rsplit("/", 1)[-1]
        line = (
            f"{name:<28} {count:>7} {seconds:>10.4f} {self_seconds:>10.4f}"
        )
        if wall:
            share = 100.0 * seconds / wall if depth == 0 else 0.0
            line += f" {share:>6.1f}%" if depth == 0 else f" {'':>7}"
        lines.append(line)
    total = sum(phase_totals().values())
    footer = f"{'phases total':<28} {'':>7} {total:>10.4f}"
    lines.append("-" * len(header))
    lines.append(footer)
    if wall:
        coverage = 100.0 * total / wall if wall else 0.0
        lines.append(
            f"{'outer wall':<28} {'':>7} {wall:>10.4f} "
            f"{'':>10} ({coverage:.1f}% covered)"
        )
    return "\n".join(lines)


def write_metrics(path: str) -> None:
    """Dump :func:`snapshot` as indented JSON to ``path``."""
    with open(path, "w") as stream:
        json.dump(snapshot(), stream, indent=2, sort_keys=True)
        stream.write("\n")

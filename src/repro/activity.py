"""Switching-activity analysis over unit-delay histories.

The classic downstream consumer of unit-delay simulation: dynamic power
estimation needs *toggle counts* — how often each net actually switches,
glitches included — which zero-delay simulation systematically
underestimates (it sees at most one transition per net per vector).
This module accumulates per-net activity over a vector batch from any
of this library's simulators and reports the totals, the glitch excess
over the zero-delay lower bound, and weighted activity sums.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.errors import SimulationError

__all__ = ["ActivityReport", "ActivityCollector", "collect_activity"]

History = Mapping[str, Sequence[tuple[int, int]]]


class ActivityReport:
    """Per-net switching totals over a vector batch.

    Attributes
    ----------
    toggles:
        net -> total transitions observed (excluding the time-0 value).
    functional:
        net -> transitions a zero-delay view would count (at most one
        per vector: initial value != final value).
    vectors:
        Number of vectors accumulated.
    """

    def __init__(
        self,
        toggles: dict[str, int],
        functional: dict[str, int],
        vectors: int,
    ) -> None:
        self.toggles = toggles
        self.functional = functional
        self.vectors = vectors

    def glitch_toggles(self, net_name: str) -> int:
        """Transitions beyond the zero-delay lower bound (hazard cost)."""
        return self.toggles[net_name] - self.functional[net_name]

    def total_toggles(self) -> int:
        return sum(self.toggles.values())

    def total_glitch_toggles(self) -> int:
        return sum(
            self.glitch_toggles(net_name) for net_name in self.toggles
        )

    def activity_factor(self, net_name: str) -> float:
        """Average transitions per vector for a net."""
        if self.vectors == 0:
            return 0.0
        return self.toggles[net_name] / self.vectors

    def weighted_activity(
        self, weights: Optional[Mapping[str, float]] = None
    ) -> float:
        """Sum of toggles x weight (e.g. per-net capacitance).

        With no weights this is simply the total toggle count — the
        unit-capacitance dynamic-power proxy.
        """
        if weights is None:
            return float(self.total_toggles())
        return sum(
            count * weights.get(net_name, 1.0)
            for net_name, count in self.toggles.items()
        )

    def hottest(self, count: int = 10) -> list[tuple[str, int]]:
        """The ``count`` most active nets, descending."""
        ranked = sorted(
            self.toggles.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:count]

    def __repr__(self) -> str:
        return (
            f"ActivityReport({self.vectors} vectors, "
            f"{self.total_toggles()} toggles, "
            f"{self.total_glitch_toggles()} from glitches)"
        )


class ActivityCollector:
    """Accumulate activity from per-vector histories."""

    def __init__(self) -> None:
        self._toggles: dict[str, int] = {}
        self._functional: dict[str, int] = {}
        self._vectors = 0

    def add_vector(self, history: History) -> None:
        """Fold in one vector's change history."""
        for net_name, changes in history.items():
            transitions = len(changes) - 1
            start = changes[0][1]
            final = changes[-1][1]
            self._toggles[net_name] = (
                self._toggles.get(net_name, 0) + transitions
            )
            self._functional[net_name] = (
                self._functional.get(net_name, 0)
                + (1 if start != final else 0)
            )
        self._vectors += 1

    def report(self) -> ActivityReport:
        if self._vectors == 0:
            raise SimulationError("no vectors accumulated")
        return ActivityReport(
            dict(self._toggles), dict(self._functional), self._vectors
        )


def collect_activity(
    simulator,
    vectors: Sequence[Sequence[int]],
    *,
    initial: Optional[Sequence[int]] = None,
) -> ActivityReport:
    """Run ``vectors`` through a simulator and report activity.

    ``simulator`` is any object with ``reset`` and either
    ``apply_vector_history`` (the compiled simulators) or
    ``apply_vector(..., record=True)`` (the interpreted ones).
    Engines that keep no per-vector settling histories — the
    zero-delay LCC paths — are rejected with a clear error; they
    count activity with compiled-in probes (``probes=`` at
    construction, then ``activity_report()``) instead.
    """
    from repro.simbase import CompiledSimulator

    engine = type(simulator).__name__
    if hasattr(simulator, "apply_vector_history"):
        step = simulator.apply_vector_history
    elif (hasattr(simulator, "apply_vector")
            and not isinstance(simulator, CompiledSimulator)):
        def step(vector):
            return simulator.apply_vector(vector, record=True)
    else:
        raise SimulationError(
            f"{engine} records no per-vector settling histories, so "
            "collect_activity cannot run on it; build the simulator "
            "with probes= and read activity_report() instead"
        )
    collector = ActivityCollector()
    simulator.reset(initial)
    for vector in vectors:
        try:
            history = step(vector)
        except TypeError as exc:
            raise SimulationError(
                f"{engine} cannot record per-vector histories "
                f"({exc}); use a history-capable engine, or "
                "compiled-in probes (probes=) with activity_report()"
            ) from exc
        if not history:
            raise SimulationError(
                f"{engine} returned an empty per-net history; "
                "collect_activity needs the settling history of "
                "every net"
            )
        collector.add_vector(history)
    return collector.report()

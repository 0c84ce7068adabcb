"""Probe lowering: compiled-in toggle counters on the fast paths.

Observability pass over the shared program IR.  Given a generated
simulation program and a :class:`ProbeSpec`, the ``instrument_*``
functions append *probe statements* to the program body: per-net
toggle counters accumulated with ``popcount`` over whole lane words,
so counting costs one or two extra instructions per net per pass on
every backend (Python and C) instead of a host-side decode of the
full history.

Per technique:

LCC (zero-delay)
    One extra pseudo-input ``__probe_en`` carries the lane-occupancy
    mask: bit ``j`` set iff lane ``j`` of the pass holds a real
    vector.  The scalar path passes 1 (lane 0 only); the pattern-lane
    packed path gets the mask *for free* — appending 1 to every
    scalar vector makes it one all-ones bit plane of the
    :class:`~repro.codegen.packing.PatternBlock`, which lays out into
    exactly the occupancy word, with partial last groups and the
    ``packed_apply`` fill pass landing on 0.  Per net with value word
    ``x`` and persistent previous-value bit ``pv``::

        d   = (x ^ ((x << 1) | pv)) & en      # lane j vs lane j-1
        cnt = cnt + popcount(d)
        pv  = (pv & ~sel) | popcount(x & top) # last occupied lane

    where ``sel = -(en & 1)`` (all-ones iff the pass is non-empty;
    occupancy is contiguous from lane 0) and ``top = en & ~(en >> 1)``
    isolates the highest occupied lane.  Consecutive lanes are
    consecutive vectors, so the in-word shift chains the vector
    sequence and ``pv`` carries it across passes.  Zero-delay sees at
    most one transition per net per vector, so functional toggles
    equal total toggles and no second counter is generated.

Parallel technique (§3, optimizations ``none``/``trim``)
    A net's bit-field already *is* its settling history — bit ``i``
    holds the value at time ``i``, bit 0 the previous vector's final
    value — so toggles are adjacent-bit differences::

        cnt  = cnt + popcount((w ^ (w >> 1)) & (mask >> 1)) + ...
             (+ one boundary bit per adjacent word pair)
        fcnt = fcnt + ((w0 ^ (top >> (W-1))) & 1)

    Trimmed GAP/LOW_FINAL words replicate the true constant value
    (that is what makes trimming exact), so the same formula holds.
    Primary-input fields are fully replicated and contribute 0 —
    matching the history-based reference, which sees a single-sample
    history for inputs.

PC-set method (§2)
    The per-net PC-set variables hold the settling samples; counters
    sum ``(s_i ^ s_(i+1)) & 1`` over the sample chain (start value
    first: the time-0 variable when the PC-set contains 0, otherwise
    the final-time variable captured into a temp at the top of the
    pass, before the body reassigns it).  The ``& 1`` restricts
    counting to lane 0 — PC-set probes are scalar-path only.

Counters are persistent state variables *appended after* the
technique's own state, so a steady-state encoding extends with zero
padding, and they accumulate modulo ``2**word_width`` identically on
every backend (Python masks at ``dump_state``; C wraps).
:class:`ProbeRuntime` drains them into unbounded Python accumulators
often enough that no counter can wrap between drains.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, Optional, Sequence

from repro import telemetry
from repro.codegen.program import (
    Assign,
    Bin,
    Comment,
    Const,
    Expr,
    Input,
    Program,
    Un,
    Var,
)
from repro.errors import SimulationError

__all__ = [
    "ProbeSpec",
    "ProbePlan",
    "ProbeRuntime",
    "instrument_lcc_program",
    "instrument_parallel_program",
    "instrument_pcset_program",
]


class ProbeSpec:
    """What to observe: toggle-counted nets and trace-captured nets.

    Parameters
    ----------
    nets:
        Net names to count toggles on; ``None`` means every net.
    trace_nets:
        Nets whose settling histories should be streamed to a
        waveform writer (bounded capture: decoded per vector, never
        materialized as a full batch history).
    """

    def __init__(
        self,
        nets: Optional[Iterable[str]] = None,
        *,
        trace_nets: Iterable[str] = (),
    ) -> None:
        self.nets = None if nets is None else tuple(dict.fromkeys(nets))
        self.trace_nets = tuple(dict.fromkeys(trace_nets))

    @classmethod
    def coerce(cls, probes) -> Optional["ProbeSpec"]:
        """Normalize a facade's ``probes=`` argument.

        ``None``/``False`` -> no probes; ``True`` -> all nets; an
        iterable of names -> those nets; a spec passes through.
        """
        if probes is None or probes is False:
            return None
        if probes is True:
            return cls()
        if isinstance(probes, cls):
            return probes
        if isinstance(probes, str):
            return cls([probes])
        return cls(probes)

    def resolve(self, circuit) -> tuple[str, ...]:
        """Counted nets in circuit order (deterministic across runs)."""
        if self.nets is None:
            return tuple(circuit.nets)
        known = set(circuit.nets)
        missing = [n for n in self.nets if n not in known]
        if missing:
            raise SimulationError(f"probe nets not in circuit: {missing}")
        chosen = set(self.nets)
        return tuple(n for n in circuit.nets if n in chosen)

    def as_dict(self) -> dict:
        """Corpus-stable dict form (sorted, JSON-ready)."""
        return {
            "nets": "all" if self.nets is None else sorted(self.nets),
            "trace_nets": sorted(self.trace_nets),
        }

    def fingerprint(self) -> str:
        text = repr(sorted(self.as_dict().items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def __repr__(self) -> str:
        nets = "all" if self.nets is None else list(self.nets)
        return f"ProbeSpec(nets={nets}, trace_nets={list(self.trace_nets)})"


class ProbePlan:
    """The lowered form of a :class:`ProbeSpec` for one program.

    Attributes
    ----------
    technique:
        ``"lcc"``, ``"parallel"`` or ``"pcset"``.
    nets:
        Counted nets, in declaration order.
    toggle_slots / functional_slots:
        net -> state-word index of its counter.  ``functional_slots``
        is ``None`` for zero-delay programs, where functional toggles
        equal total toggles by construction.
    state_pad:
        Probe state words appended after the technique's own state
        (a steady-state encoding extends with this many zeros).
    max_increment:
        Upper bound on any single counter's growth per *vector* —
        drives the drain cadence that prevents counter wrap.
    en_slot:
        Vector slot of the LCC occupancy input (``None`` elsewhere).
    """

    __slots__ = ("technique", "spec", "nets", "toggle_slots",
                 "functional_slots", "state_pad", "max_increment",
                 "en_slot", "probe_key")

    def __init__(
        self,
        technique: str,
        spec: ProbeSpec,
        nets: tuple[str, ...],
        toggle_slots: dict[str, int],
        functional_slots: Optional[dict[str, int]],
        state_pad: int,
        max_increment: int,
        en_slot: Optional[int] = None,
    ) -> None:
        self.technique = technique
        self.spec = spec
        self.nets = nets
        self.toggle_slots = toggle_slots
        self.functional_slots = functional_slots
        self.state_pad = state_pad
        self.max_increment = max(1, max_increment)
        self.en_slot = en_slot
        self.probe_key = f"{technique}-{spec.fingerprint()}"

    def __repr__(self) -> str:
        return (
            f"ProbePlan({self.technique}, {len(self.nets)} nets, "
            f"pad={self.state_pad})"
        )


class ProbeRuntime:
    """Accumulates drained counter values across batches.

    The compiled counters wrap at ``2**word_width``; this object
    drains them into unbounded Python integers.  Facades call
    :meth:`chunk_vectors` to split batches so no counter can wrap
    between drains, :meth:`note_vectors` after each run, and
    :meth:`drain` before reading machine state that the counters ride
    in (checkpoints, lane handoffs) or building a report.
    """

    def __init__(self, plan: ProbePlan, program: Program) -> None:
        self.plan = plan
        self.word_mask = program.word_mask
        self.toggles: dict[str, int] = {net: 0 for net in plan.nets}
        self.functional: Optional[dict[str, int]] = (
            None if plan.functional_slots is None
            else {net: 0 for net in plan.nets}
        )
        self.vectors = 0
        #: Vectors a counter can absorb before it might wrap.
        self.chunk = max(1, self.word_mask // plan.max_increment)
        self._since_drain = 0
        self._vectors_reported = 0

    def chunk_vectors(self, total: int) -> list[tuple[int, int]]:
        """``(start, length)`` slices that keep counters wrap-free."""
        budget = self.chunk - min(self._since_drain, self.chunk - 1)
        bounds: list[tuple[int, int]] = []
        start = 0
        while start < total:
            length = min(budget, total - start)
            bounds.append((start, length))
            start += length
            budget = self.chunk
        return bounds or [(0, 0)]

    def note_vectors(self, machine, count: int) -> None:
        self.vectors += count
        self._since_drain += count
        if self._since_drain >= self.chunk:
            self.drain(machine)

    def drain(self, machine) -> None:
        """Move counter values out of machine state, zeroing the slots."""
        self._since_drain = 0
        state = machine.dump_state()
        dirty = False
        plan = self.plan
        emit = telemetry.enabled()
        toggle_delta = 0
        functional_delta = 0
        for net, slot in plan.toggle_slots.items():
            value = state[slot]
            if value:
                self.toggles[net] += value
                state[slot] = 0
                dirty = True
                toggle_delta += value
                if emit:
                    telemetry.counter(f"activity.net.{net}.toggles", value)
        if plan.functional_slots is not None:
            assert self.functional is not None
            for net, slot in plan.functional_slots.items():
                value = state[slot]
                if value:
                    self.functional[net] += value
                    state[slot] = 0
                    dirty = True
                    functional_delta += value
        else:
            # Zero-delay: functional toggles are total toggles.
            functional_delta = toggle_delta
        if dirty:
            machine.load_state(state)
        if emit:
            vectors_delta = self.vectors - self._vectors_reported
            self._vectors_reported = self.vectors
            if vectors_delta:
                telemetry.counter("activity.vectors", vectors_delta)
            if toggle_delta:
                telemetry.counter("activity.toggles", toggle_delta)
            if functional_delta:
                telemetry.counter("activity.functional", functional_delta)
            glitches = toggle_delta - functional_delta
            if glitches:
                telemetry.counter("activity.glitches", glitches)

    def discard(self, machine) -> None:
        """Zero compiled counters *and* accumulators (baseline seed).

        Used after an uncounted seeding step: whatever the counters
        absorbed is thrown away rather than accumulated, and nothing
        reaches the telemetry counters.
        """
        state = machine.dump_state()
        slots = list(self.plan.toggle_slots.values())
        if self.plan.functional_slots is not None:
            slots.extend(self.plan.functional_slots.values())
        dirty = False
        for slot in slots:
            if state[slot]:
                state[slot] = 0
                dirty = True
        if dirty:
            machine.load_state(state)
        for net in self.toggles:
            self.toggles[net] = 0
        if self.functional is not None:
            for net in self.functional:
                self.functional[net] = 0
        self.vectors = 0
        self._since_drain = 0
        self._vectors_reported = 0

    def snapshot(self) -> dict:
        """Checkpointable accumulator state (drain first)."""
        return {
            "toggles": dict(self.toggles),
            "functional": (
                None if self.functional is None else dict(self.functional)
            ),
            "vectors": self.vectors,
        }

    def restore(self, saved: Mapping) -> None:
        self.toggles.update(saved["toggles"])
        functional = saved.get("functional")
        if functional is not None and self.functional is not None:
            self.functional.update(functional)
        self.vectors = saved["vectors"]
        # Restored totals were counted by the run that checkpointed
        # them; only new work should reach the telemetry counters.
        self._vectors_reported = self.vectors

    def report(self):
        """Build an :class:`~repro.activity.ActivityReport` (drained)."""
        from repro.activity import ActivityReport

        toggles = dict(self.toggles)
        functional = (
            dict(toggles) if self.functional is None
            else dict(self.functional)
        )
        return ActivityReport(toggles, functional, self.vectors)


def _bit(expr: Expr) -> Expr:
    return Bin("&", expr, Const(1))


def _sum_into(counter: str, terms: Sequence[Expr]) -> Assign:
    expr: Expr = Var(counter)
    for term in terms:
        expr = Bin("+", expr, term)
    return Assign(counter, expr)


# ----------------------------------------------------------------------
# LCC (zero-delay) lowering
# ----------------------------------------------------------------------
def instrument_lcc_program(
    program: Program,
    circuit,
    spec: ProbeSpec,
) -> ProbePlan:
    """Append lane-word toggle counting to a zero-delay LCC program.

    Mutates ``program`` in place (declares the ``__probe_en`` input,
    the per-net ``pv``/``cnt`` state and the probe statements) and
    must run *before* the program is compiled.  The caller records
    the uninstrumented program's packing mode first — the probe
    statements use shifts and popcounts, which are lane-safe here by
    construction but would classify the program ``"none"``.
    """
    nets = spec.resolve(circuit)
    # State order is one variable per net in circuit order (that is
    # what LCCSimulator.evaluate_all_nets already relies on).
    net_vars = dict(zip(circuit.nets, program.state_vars))
    en_slot = len(program.inputs)
    program.inputs.append("__probe_en")
    en: Expr = Input(en_slot)
    sel = program.declare_temp("__pr_sel")
    top = program.declare_temp("__pr_top")
    diff = program.declare_temp("__pr_d")
    body = program.body
    body.append(Comment("probe pass: lane-occupancy masks"))
    body.append(Assign(sel, Un("-", _bit(en))))
    body.append(Assign(top, Bin("&", en, Un("~", Bin(">>", en, Const(1))))))
    toggle_slots: dict[str, int] = {}
    for net in nets:
        base = net_vars[net]
        pv = program.declare(f"__pr_pv_{base}")
        cnt = program.declare(f"__pr_cnt_{base}")
        toggle_slots[net] = len(program.state_vars) - 1
        x = Var(base)
        # Lane j toggles iff it differs from lane j-1 (lane 0: from pv).
        body.append(Assign(diff, Bin(
            "&",
            Bin("^", x, Bin("|", Bin("<<", x, Const(1)), Var(pv))),
            en,
        )))
        body.append(_sum_into(cnt, [Un("popcount", Var(diff))]))
        body.append(Assign(pv, Bin(
            "|",
            Bin("&", Var(pv), Un("~", Var(sel))),
            Un("popcount", Bin("&", x, Var(top))),
        )))
    program.validate()
    plan = ProbePlan(
        "lcc", spec, tuple(nets), toggle_slots, None,
        state_pad=2 * len(nets),
        # Scalar passes count one lane, packed passes up to word_width
        # lanes — but never more than one toggle per net per *vector*.
        max_increment=1,
        en_slot=en_slot,
    )
    program.probe_key = plan.probe_key
    return plan


# ----------------------------------------------------------------------
# parallel-technique lowering
# ----------------------------------------------------------------------
def instrument_parallel_program(
    program: Program, layout, circuit, spec: ProbeSpec
) -> ProbePlan:
    """Append bit-field toggle counting to a §3 parallel program.

    Supports the time-aligned layouts (optimizations ``none`` and
    ``trim``): bit ``i`` of a field holds the net's value at time
    ``i``, bit 0 the previous final value, so adjacent-bit popcounts
    count exactly the transitions the history decode would report.
    """
    if not layout.uniform:
        raise SimulationError(
            "probes require the time-aligned field layout "
            "(optimization 'none' or 'trim')"
        )
    nets = spec.resolve(circuit)
    w = layout.word_width
    half_mask = program.word_mask >> 1
    body = program.body
    body.append(Comment("probe pass: bit-field toggle counters"))
    toggle_slots: dict[str, int] = {}
    functional_slots: dict[str, int] = {}
    max_bits = 1
    for net in nets:
        field = layout.field(net)
        words = field.words
        cnt = program.declare(f"__pr_cnt_{words[0]}")
        toggle_slots[net] = len(program.state_vars) - 1
        fcnt = program.declare(f"__pr_fn_{words[0]}")
        functional_slots[net] = len(program.state_vars) - 1
        terms: list[Expr] = []
        for word in words:
            # In-word adjacent transitions (top bit pairs with the
            # next word's bit 0, handled below).
            terms.append(Un("popcount", Bin(
                "&",
                Bin("^", Var(word), Bin(">>", Var(word), Const(1))),
                Const(half_mask),
            )))
        for j in range(1, field.num_words):
            terms.append(_bit(Bin(
                "^",
                Bin(">>", Var(words[j - 1]), Const(w - 1)),
                Var(words[j]),
            )))
        body.append(_sum_into(cnt, terms))
        # Functional: previous final (bit 0) vs new final (top bit).
        body.append(_sum_into(fcnt, [_bit(Bin(
            "^",
            Var(words[0]),
            Bin(">>", Var(field.top), Const(w - 1)),
        ))]))
        max_bits = max(max_bits, field.num_words * w)
    program.validate()
    plan = ProbePlan(
        "parallel", spec, nets, toggle_slots, functional_slots,
        state_pad=2 * len(nets),
        max_increment=max_bits,
    )
    program.probe_key = plan.probe_key
    return plan


# ----------------------------------------------------------------------
# PC-set method lowering
# ----------------------------------------------------------------------
def instrument_pcset_program(
    program: Program, variables, spec: ProbeSpec
) -> ProbePlan:
    """Append sample-chain toggle counting to a PC-set program.

    Every counting expression is masked to bit 0, so the counters
    observe lane 0 only — the facade keeps PC-set probes on the
    scalar path (packed lanes carry unrelated vector streams).
    """
    pc = variables.pc_sets
    circuit = pc.circuit
    nets = spec.resolve(circuit)
    body = program.body
    body.append(Comment("probe pass: PC-set sample-chain counters"))
    toggle_slots: dict[str, int] = {}
    functional_slots: dict[str, int] = {}
    prelude: list = []
    max_samples = 2
    for index, net in enumerate(nets):
        raw = pc.raw_net_pc_sets[net]
        full = pc.net_pc_set(net)
        if full[0] == 0:
            # The time-0 variable holds the start value after init
            # (zero-element move or primary-input read) and the body
            # never reassigns it.
            start: Expr = Var(variables.var(net, 0))
        else:
            # No time-0 variable: capture the previous final value
            # before the body overwrites the final-time variable.
            pf = program.declare_temp(f"__pr_pf{index}")
            prelude.append(
                Assign(pf, Var(variables.var(net, raw[-1])))
            )
            start = Var(pf)
        samples: list[Expr] = [start]
        samples.extend(
            Var(variables.var(net, time)) for time in raw if time > 0
        )
        cnt = program.declare(f"__pr_cnt{index}")
        toggle_slots[net] = len(program.state_vars) - 1
        fcnt = program.declare(f"__pr_fn{index}")
        functional_slots[net] = len(program.state_vars) - 1
        terms = [
            _bit(Bin("^", samples[i], samples[i + 1]))
            for i in range(len(samples) - 1)
        ]
        if terms:
            body.append(_sum_into(cnt, terms))
            body.append(_sum_into(fcnt, [
                _bit(Bin("^", samples[0], samples[-1]))
            ]))
        max_samples = max(max_samples, len(samples))
    # Final-value captures run before everything else in the pass.
    program.init[:0] = prelude
    program.validate()
    plan = ProbePlan(
        "pcset", spec, nets, toggle_slots, functional_slots,
        state_pad=2 * len(nets),
        max_increment=max_samples - 1,
    )
    program.probe_key = plan.probe_key
    return plan

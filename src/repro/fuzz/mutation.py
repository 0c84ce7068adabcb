"""Intentional emitter bugs, for validating the fuzzer itself.

A differential fuzzer that has never caught anything is untested code.
:func:`inject_emitter_bug` patches a classic class of code-generator
bug into every compiled technique at once — the event-driven reference
evaluates gates through :mod:`repro.logic` and is unaffected, so the
campaign must catch the disagreement and the shrinker must reduce it
to a gate-count-minimal reproducer.  Used by ``tests/test_fuzz.py``,
by ``repro-sim fuzz --inject-bug`` (the mutation runs documented in
EXPERIMENTS.md), and by nothing else: never enable this outside a
self-test.

The patch is applied to each module that imported
:func:`~repro.codegen.gates.gate_expression` by name.  Mutated
programs have different generated source, hence different cache
fingerprints — the process-wide program cache cannot leak buggy
machines into healthy runs or vice versa.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.codegen.gates import gate_expression as _real_gate_expression
from repro.codegen.program import Expr, Un
from repro.errors import SimulationError
from repro.logic import GateType

__all__ = [
    "MUTATIONS",
    "inject_emitter_bug",
    "inject_tile_bug",
    "inject_slowdown",
]

#: Mutation name -> (gate type whose emission is corrupted, description).
MUTATIONS = {
    "nor-as-or": (GateType.NOR, "NOR emits OR (dropped invert)"),
    "xnor-as-xor": (GateType.XNOR, "XNOR emits XOR (dropped invert)"),
    "nand-as-and": (GateType.NAND, "NAND emits AND (dropped invert)"),
    "not-as-buf": (GateType.NOT, "NOT emits BUF (dropped invert)"),
}

#: Every module that binds ``gate_expression`` at import time.
_PATCH_SITES = (
    "repro.codegen.gates",
    "repro.parallel.codegen",
    "repro.parallel.aligned_codegen",
    "repro.pcset.codegen",
    "repro.lcc.zerodelay",
)


def _buggy(kind: str):
    target, _description = MUTATIONS[kind]

    def gate_expression(gate_type: GateType, operands: list) -> Expr:
        expr = _real_gate_expression(gate_type, operands)
        if gate_type is target and isinstance(expr, Un):
            # Drop the inverting wrapper: the classic missing-~ bug.
            return expr.a
        return expr

    return gate_expression


@contextmanager
def inject_tile_bug():
    """Context manager: corrupt the K-tile slot-major input layout.

    A machine compiled with ``tiles=K`` consumes pass rows with input
    slot ``s`` tile ``t`` at index ``s*K + t``; the injected bug
    interleaves them group-major (``t*slots + s``) instead — the
    classic tile-boundary transposition.  The patched site is
    :func:`repro.codegen.packing._place_slot`, which every packed
    layout goes through (pattern blocks, their constant fault slots,
    ``tile_groups``).  Any tiled pass over a circuit with more than one
    input computes with the wrong words, so the campaign's tiled
    packed checks must disagree with the untiled reference.  Self-test
    only.
    """
    from repro.codegen import packing

    def buggy_place_slot(buffer, slot, words, slots, tiles):
        stride = slots * tiles
        for t in range(tiles):
            buffer[t * slots + slot::stride] = words[t::tiles]

    original = packing._place_slot
    packing._place_slot = buggy_place_slot
    try:
        yield "pattern layout emits group-major rows (transposed layout)"
    finally:
        packing._place_slot = original


#: ``inject_slowdown`` patch points: (backend, path) -> machine methods.
#: The C packed fast path has two entries — ``run_packed`` (marshalled
#: buffers, the prepared-program timing path) and ``run_packed_block``
#: (group rows) — so both are wrapped together.
_SLOWDOWN_SITES = {
    ("c", "packed"): (
        ("CMachine", "run_packed"),
        ("CMachine", "run_packed_block"),
    ),
    ("c", "block"): (("CMachine", "run_block"),),
    ("python", "packed"): (("PythonMachine", "run_packed_block"),),
    ("python", "block"): (("PythonMachine", "run_block"),),
}


@contextmanager
def inject_slowdown(factor: float = 2.0, *, backend: str = "c",
                    path: str = "packed"):
    """Context manager: slow one machine entry point by ``factor``.

    Wraps the chosen backend's batch entry so every call sleeps for
    ``(factor - 1)`` times its own elapsed time — a clean synthetic
    throughput regression with no functional change, used to prove the
    perf oracle flags what the differential checks cannot see.
    Self-test only.
    """
    import time as _time

    from repro.codegen import runtime

    if factor < 1.0:
        raise SimulationError(
            f"slowdown factor must be >= 1.0: {factor}"
        )
    try:
        sites = _SLOWDOWN_SITES[(backend, path)]
    except KeyError:
        raise SimulationError(
            f"unknown slowdown site {(backend, path)!r}; choose from "
            f"{sorted(_SLOWDOWN_SITES)}"
        ) from None

    def _slow(original):
        def slowed(self, *args, **kwargs):
            start = _time.perf_counter()
            result = original(self, *args, **kwargs)
            _time.sleep((_time.perf_counter() - start) * (factor - 1.0))
            return result
        return slowed

    saved = []
    for cls_name, method in sites:
        cls = getattr(runtime, cls_name)
        original = getattr(cls, method)
        saved.append((cls, method, original))
        setattr(cls, method, _slow(original))
    try:
        yield f"{backend} {path} path slowed {factor:g}x"
    finally:
        for cls, method, original in saved:
            setattr(cls, method, original)


@contextmanager
def inject_emitter_bug(kind: str = "nor-as-or"):
    """Context manager: corrupt one gate type's emitted expression.

    All compiled techniques (PC-set, parallel variants, LCC) pick up
    the corrupted emission; the interpreted simulators do not.  The
    original emitter is restored on exit, even on error.
    """
    if kind not in MUTATIONS:
        raise SimulationError(
            f"unknown mutation {kind!r}; choose from "
            f"{sorted(MUTATIONS)}"
        )
    import importlib

    buggy = _buggy(kind)
    modules = [importlib.import_module(name) for name in _PATCH_SITES]
    saved = [module.gate_expression for module in modules]
    for module in modules:
        module.gate_expression = buggy
    try:
        yield MUTATIONS[kind][1]
    finally:
        for module, original in zip(modules, saved):
            module.gate_expression = original

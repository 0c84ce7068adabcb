"""Span tracing of the repro pipeline, applied from outside ``src/``.

:class:`Tracer` wraps the public entry point of every pipeline layer
(facades, program generators, emitters, the C compiler call, machine
loading and execution, pattern packing, fault grading) for the life of
a ``with`` block, in the manner of :mod:`repro.fuzz.mutation`: each
function is replaced at every module that bound it by name, each method
on its defining class, and everything is restored on exit.

A layer's *self time* is the summed duration of its spans minus the
part covered by their child spans, so the self times of all layers add
up to the time spent inside the traced roots.  Counts (compiler calls,
lanes offered, fault screens) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: (layer, module, class or None, attribute).  Layers are named after
#: the repro modules they live in.
TARGETS = (
    ("facade", "repro.lcc.zerodelay", "LCCSimulator", "__init__"),
    ("facade", "repro.lcc.zerodelay", "LCCSimulator", "apply_vectors"),
    ("facade", "repro.parallel.simulator", "ParallelSimulator", "__init__"),
    ("facade", "repro.simbase", "CompiledSimulator", "apply_vectors"),
    ("facade.seed", "repro.simbase", "CompiledSimulator", "reset"),
    ("faults", "repro.faults.simulator", "ParallelFaultSimulator",
     "__init__"),
    ("faults", "repro.faults.simulator", "ParallelFaultSimulator",
     "warm_up"),
    ("faults", "repro.faults.simulator", "ParallelFaultSimulator", "run"),
    ("generate", "repro.lcc.zerodelay", None, "generate_lcc_program"),
    ("generate", "repro.pcset.codegen", None, "generate_pcset_program"),
    ("generate", "repro.parallel.pathtrace", None,
     "path_tracing_alignment"),
    ("generate", "repro.parallel.aligned_codegen", None,
     "generate_aligned_program"),
    # Fault instrumentation splices mask statements into the PC-set
    # program: program generation, even though the method is private.
    ("generate", "repro.faults.simulator", "ParallelFaultSimulator",
     "_instrumented_program"),
    ("codegen", "repro.codegen.program", "Program", "c_source"),
    ("codegen", "repro.codegen.program", "Program", "python_source"),
    # The one call that runs the C compiler.
    ("runtime.cc", "repro.codegen.runtime", "CMachine", "_compile"),
    ("runtime.load", "repro.codegen.runtime", "CMachine", "__init__"),
    ("runtime.load", "repro.codegen.runtime", "PythonMachine", "__init__"),
    ("runtime.exec", "repro.codegen.runtime", "Machine", "step_many"),
    ("runtime.exec", "repro.codegen.runtime", "CMachine", "run_block"),
    ("runtime.exec", "repro.codegen.runtime", "CMachine",
     "run_packed_block"),
    ("runtime.exec", "repro.codegen.runtime", "CMachine", "run_packed"),
    ("runtime.exec", "repro.codegen.runtime", "CMachine", "pack_block"),
    ("runtime.exec", "repro.codegen.runtime", "CMachine", "step"),
    ("runtime.exec", "repro.codegen.runtime", "CMachine", "load_state"),
    ("runtime.exec", "repro.codegen.runtime", "CMachine", "dump_state"),
    ("runtime.exec", "repro.codegen.runtime", "PythonMachine", "run_block"),
    ("runtime.exec", "repro.codegen.runtime", "PythonMachine",
     "run_packed_block"),
    ("runtime.exec", "repro.codegen.runtime", "PythonMachine", "step"),
    ("runtime.exec", "repro.codegen.runtime", "PythonMachine",
     "load_state"),
    ("runtime.exec", "repro.codegen.runtime", "PythonMachine",
     "dump_state"),
    ("packing.pack", "repro.codegen.packing", None, "pack_patterns"),
    ("packing.pack", "repro.codegen.packing", None, "tile_groups"),
    ("packing.unpack", "repro.codegen.packing", None, "unpack_patterns"),
    # For one tile, packed_apply reconstructs the scalar words inline,
    # so its self time is unpacking.
    ("packing.unpack", "repro.codegen.packing", None, "packed_apply"),
)


class Tracer:
    """Collects spans and boundary counts while ``recording`` is true.

    Spans are aggregated as they close: per layer the self time, per
    span name the call count and inclusive seconds.
    """

    def __init__(self) -> None:
        self.recording = False
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.totals: dict[str, float] = defaultdict(float)
        self.machines: list = []
        #: Open spans: [layer, name, start, seconds covered by children].
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    @contextmanager
    def root(self, name: str):
        """A benchmark-owned root span (layer ``bench``)."""
        span = self._open("bench", name)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, layer: str, name: str) -> list:
        span = [layer, name, time.perf_counter(), 0.0]
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        duration = time.perf_counter() - span[2]
        self._stack.pop()
        self.self_time[span[0]] += duration - span[3]
        if self._stack:
            self._stack[-1][3] += duration
        self.counts[f"calls.{span[1]}"] += 1
        self.totals[span[1]] += duration

    # ------------------------------------------------------------------
    def _wrap(self, original, layer: str, name: str, hook=None):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            span = tracer._open(layer, name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _hooks(self) -> dict:
        counts = self.counts

        def machine_built(args, _kwargs, _result):
            self.machines.append(args[0])

        def packed_run(args, kwargs, _result):
            machine, groups = args[0], args[1]
            lanes = machine.program.word_width * machine.tiles
            represented = kwargs.get("vectors_represented")
            counts["lanes_offered"] += len(groups) * lanes
            counts["lanes_used"] += (
                len(groups) * lanes if represented is None else represented
            )

        def graded(args, kwargs, report):
            faults = args[2] if len(args) > 2 else kwargs.get("faults")
            counts["fault_screens"] += len(faults)
            counts["faults_detected"] += len(report.detected)

        return {
            ("CMachine", "__init__"): machine_built,
            ("PythonMachine", "__init__"): machine_built,
            ("CMachine", "run_packed_block"): packed_run,
            ("PythonMachine", "run_packed_block"): packed_run,
            ("ParallelFaultSimulator", "run"): graded,
        }

    def __enter__(self) -> "Tracer":
        import repro  # noqa: F401  (binds most import sites)

        hooks = self._hooks()
        for layer, module_name, class_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            hook = hooks.get((class_name, attr))
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                label = f"{class_name}.{attr}"
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer, label, hook))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, layer, attr, hook)
            for site in list(sys.modules.values()):
                if (getattr(site, "__name__", "").startswith("repro")
                        and getattr(site, attr, None) is original):
                    self._saved.append((site, attr, original))
                    setattr(site, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------------
    def kernel_counters(self) -> tuple[float, int, int]:
        """(seconds, calls, vectors) summed over every machine built."""
        seconds = sum(m.counters.seconds for m in self.machines)
        calls = sum(m.counters.batches for m in self.machines)
        vectors = sum(m.counters.vectors for m in self.machines)
        return seconds, calls, vectors


"""One cold benchmark process: set up a workload and stream it.

Run by ``run.py`` in a fresh interpreter whose ``TMPDIR`` and
``XDG_CACHE_HOME`` point at an empty directory, so every setup is a
cold compile.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from contextlib import nullcontext

from repro.analysis import levelize
from repro.codegen.runtime import program_cache

from tracing import Tracer
from workloads import WORKLOADS, full_scale_circuit, random_rows


def _compiler_usage() -> dict:
    """CPU seconds and peak RSS of this process's children.

    The only child processes a workload starts are C compiler runs.
    """
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "runtime.cc_cpu_s": usage.ru_utime + usage.ru_stime,
        "runtime.cc_peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def stream(workload, sim, args, tracer) -> dict:
    """Run whole jobs of timed batches, checking each batch.

    A job runs in bursts of ``workload.burst`` batches: their stimulus
    is generated first, the API calls are timed back to back, and the
    results are checked after the burst, in order.
    """
    stream_id = f"{workload.name}:{args.seed}:{args.part}"
    stimulus = random.Random(f"{stream_id}:stimulus")
    sampler = random.Random(f"{stream_id}:check")
    width = len(workload.circuit.inputs)
    #: Per job, the time of each batch that returned.
    jobs: list[list[float]] = []
    attempted = failed = vectors_done = 0
    errors: list[str] = []
    corrupted = not args.corrupt

    def stop() -> bool:
        return bool(args.max_batches) and attempted >= args.max_batches

    started = time.perf_counter()
    while True:
        workload.start_job()
        times: list[float] = []
        for first in range(0, workload.job_batches, workload.burst):
            size = min(workload.burst, workload.job_batches - first)
            if args.max_batches:
                size = min(size, args.max_batches - attempted)
            burst = [
                random_rows(stimulus, workload.batch_vectors, width)
                for _ in range(size)
            ]
            done = []
            for vectors in burst:
                attempted += 1
                try:
                    with tracer.root("batch") if tracer else nullcontext():
                        start = time.perf_counter()
                        result = workload.apply(sim, vectors)
                        elapsed = time.perf_counter() - start
                except Exception:
                    failed += 1
                    errors.append(traceback.format_exc(limit=3))
                    continue
                times.append(elapsed)
                vectors_done += len(vectors)
                done.append((vectors, result))
            if tracer:
                tracer.recording = False
            for vectors, result in done:
                picks = workload.picks(sampler, vectors)
                if not corrupted:
                    workload.corrupt(result, picks)
                    corrupted = True
                try:
                    ok = workload.check(sim, vectors, result, picks)
                except Exception:
                    ok = False
                    errors.append(traceback.format_exc(limit=3))
                failed += not ok
            if tracer:
                tracer.recording = True
            if stop():
                break
        jobs.append(times)
        if stop():
            break
        if (time.perf_counter() - started >= args.seconds
                and attempted >= args.min_batches):
            break
    return {
        "jobs": jobs,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:3],
        "vectors": vectors_done,
        "ref_seconds": workload.ref_seconds,
        "ref_vectors": workload.ref_vectors,
    }


def layer_metrics(tracer: Tracer, record: dict) -> dict:
    """Per-layer figures of one traced setup + one job."""
    self_time = tracer.self_time
    counts = tracer.counts
    kernel_s, kernel_calls, kernel_vectors = tracer.kernel_counters()
    job_s = record["setup_s"] + sum(map(sum, record["jobs"]))
    program_layers = sum(
        seconds for layer, seconds in self_time.items() if layer != "bench"
    )
    screens = int(counts["fault_screens"])
    offered = counts["lanes_offered"]
    return {
        "job_s": job_s,
        "trace.coverage": program_layers / job_s,
        "generate.self_s": self_time["generate"],
        "codegen.emit_s": self_time["codegen"],
        "runtime.cc_s": self_time["runtime.cc"],
        "runtime.cc_calls": int(counts["calls.CMachine._compile"]),
        "runtime.load_s": self_time["runtime.load"],
        "runtime.kernel_s": kernel_s,
        "runtime.kernel_calls": kernel_calls,
        "runtime.kernel_vps": (
            kernel_vectors / kernel_s if kernel_s else 0.0
        ),
        "runtime.marshal_s": self_time["runtime.exec"] - kernel_s,
        "packing.pack_s": self_time["packing.pack"],
        "packing.unpack_s": self_time["packing.unpack"],
        "packing.lane_fill": (
            counts["lanes_used"] / offered if offered else 0.0
        ),
        "facade.self_s": self_time["facade"],
        "facade.seed_s": self_time["facade.seed"],
        "faults.screens": screens,
        "faults.detected": int(counts["faults_detected"]),
        "faults.self_s": self_time["faults"],
        "faults.kernel_calls_per_fault": (
            kernel_calls / screens if screens else 0.0
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-batches", type=int, default=0)
    parser.add_argument("--max-batches", type=int, default=0)
    parser.add_argument("--part", type=int, default=0,
                        help="which stream of the seed to run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: damage one checked output")
    args = parser.parse_args()

    cls = WORKLOADS[args.workload]
    start = time.perf_counter()
    circuit = full_scale_circuit(cls.circuit_name)
    build_s = time.perf_counter() - start
    workload = cls(circuit)
    tracer = Tracer() if args.trace else None
    with tracer if tracer else nullcontext():
        if tracer:
            tracer.recording = True
        with tracer.root("setup") if tracer else nullcontext():
            start = time.perf_counter()
            sim = workload.setup()
            setup_s = time.perf_counter() - start
        cache = program_cache().stats()
        if cache["hits"] or not cache["misses"]:
            raise SystemExit(f"setup was not a cold compile: {cache}")
        record = {
            "setup_s": setup_s,
            "plan": workload.plan(sim),
            "circuit": {
                "name": circuit.name,
                "gates": len(circuit.gates),
                "inputs": len(circuit.inputs),
                "outputs": len(circuit.outputs),
                "depth": levelize(circuit).depth,
                "scale": 1.0,
                "netlist.build_s": build_s,
            },
        }
        record.update(stream(workload, sim, args, tracer))
        record["plan_after_run"] = workload.plan(sim)
        record["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        if tracer:
            tracer.recording = False
            record["layers"] = {
                **layer_metrics(tracer, record),
                **workload.program_stats(sim),
                **_compiler_usage(),
                "runtime.cache_hits": cache["hits"],
                "runtime.cache_misses": cache["misses"],
                "span_seconds": dict(tracer.totals),
            }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

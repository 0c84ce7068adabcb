"""Command-line interface: ``repro-sim`` / ``python -m repro``.

Subcommands::

    repro-sim stats   <circuit>            static report (Figs. 20-22 data)
    repro-sim compile <circuit> [...]      print generated code
    repro-sim simulate <circuit> [...]     run random vectors, print outputs
    repro-sim bench   <circuit> [...]      quick technique comparison
    repro-sim profile <circuit> [...]      per-phase pipeline timing
    repro-sim fuzz    [...]                differential fuzzing campaign
    repro-sim tape    <circuit> [...]      write a clocked stimulus tape
    repro-sim replay  <circuit> [...]      stream a tape through the
                                           clocked simulator, with
                                           checkpoint/restore

``<circuit>`` is either a path to an ISCAS85 ``.bench`` file or the
name of a built-in synthetic benchmark (c432..c7552, or generator
specs like ``rca16``, ``mul8``, ``parity32``).  The clocked
subcommands additionally accept ``.bench`` files with DFF lines and
sequential generator specs (``counter16``, ``lfsr32``, ``shiftreg8``);
a combinational spec is replayed as a zero-flip-flop clocked circuit.

Every subcommand also accepts ``--profile`` (print the per-phase
telemetry table after the normal output) and ``--metrics-out FILE``
(dump the full telemetry snapshot as JSON); ``profile`` is the
dedicated breakdown of one compile+run pipeline.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional

from repro import telemetry
from repro.analysis.stats import circuit_report
from repro.harness.runner import TECHNIQUES, build_simulator, run_technique
from repro.harness.tables import format_table
from repro.harness.timing import time_run
from repro.harness.vectors import vectors_for
from repro.netlist.bench import parse_bench_file
from repro.netlist.circuit import Circuit
from repro.netlist.iscas85 import ISCAS85_SPECS, make_circuit

__all__ = ["main", "resolve_circuit"]


def resolve_circuit(spec: str, scale: float = 1.0) -> Circuit:
    """Interpret a circuit spec: file path, ISCAS85 name, or generator."""
    path = Path(spec)
    if path.suffix == ".bench" or path.exists():
        return parse_bench_file(path)
    if spec in ISCAS85_SPECS:
        return make_circuit(spec, scale_factor=scale)
    for prefix, builder in _GENERATORS.items():
        if spec.startswith(prefix) and spec[len(prefix):].isdigit():
            return builder(int(spec[len(prefix):]))
    raise SystemExit(
        f"unknown circuit {spec!r}: not a .bench file, ISCAS85 name "
        f"({', '.join(ISCAS85_SPECS)}), or generator spec "
        f"({', '.join(_GENERATORS)}<n>)"
    )


def _generators():
    from repro.netlist import generators as g

    return {
        "rca": g.ripple_carry_adder,
        "cla": g.carry_lookahead_adder,
        "mul": g.array_multiplier,
        "parity": g.parity_tree,
        "eq": g.equality_comparator,
        "mux": g.mux_tree,
        "dec": g.decoder,
    }


_GENERATORS = _generators()


def _seq_generators():
    from repro.netlist import seqgen

    return {
        "counter": seqgen.binary_counter,
        "lfsr": seqgen.lfsr,
        "shiftreg": seqgen.shift_register,
    }


_SEQ_GENERATORS = _seq_generators()


def resolve_sequential(spec: str, scale: float = 1.0):
    """Interpret a clocked-circuit spec.

    ``.bench`` files go through ``parse_bench_sequential`` (DFF lines
    become flip-flops); sequential generator specs (``counter16``,
    ``lfsr32``, ``shiftreg8``) build synthetic clocked circuits; any
    other spec resolves combinationally and is wrapped as a
    zero-flip-flop clocked circuit.
    """
    from repro.netlist.bench import parse_bench_sequential
    from repro.netlist.sequential import break_at_flipflops

    path = Path(spec)
    if path.suffix == ".bench" or path.exists():
        return parse_bench_sequential(path.read_text(), name=path.stem)
    for prefix, builder in _SEQ_GENERATORS.items():
        if spec.startswith(prefix) and spec[len(prefix):].isdigit():
            return builder(int(spec[len(prefix):]))
    return break_at_flipflops(resolve_circuit(spec, scale), {})


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.codegen.runtime import have_c_compiler, program_cache

    circuit = resolve_circuit(args.circuit, args.scale)
    report = circuit_report(circuit, include_alignments=not args.fast)
    cache = program_cache().stats()
    report = dict(report)
    report["program cache"] = (
        f"{cache['entries']} entries, {cache['hits']} hits, "
        f"{cache['misses']} misses"
    )
    compiler = have_c_compiler()
    report["c compiler"] = compiler if compiler else "none (python backend only)"
    if args.cones:
        report.update(_cone_report(circuit, args.backend))
    width = max(len(k) for k in report)
    for key, value in report.items():
        print(f"{key.ljust(width)}  {value}")
    return 0


def _cone_report(circuit: Circuit, backend: str) -> dict:
    """Incremental-recompilation stats: cold build vs. warm single-edit.

    Builds the per-cone simulator twice — once from the current cache
    state, once after a synthetic single-gate edit (the first gate's
    type flipped) — and reports the program-cache traffic of each, so
    the hit rate for untouched cones is visible from the CLI.
    """
    from repro.codegen.incremental import ConeSimulator
    from repro.netlist.circuit import GateType
    from repro.netlist.random_circuits import replace_gate

    cold = ConeSimulator(circuit, backend=backend)
    report = {
        "fanin cones": (
            f"{cold.num_cones} "
            f"({len(set(cold.cone_keys.values()))} unique)"
        ),
        "cone cache (cold)": (
            f"+{cold.cache_delta['hits']} hits, "
            f"+{cold.cache_delta['misses']} misses"
        ),
    }
    flips = {
        GateType.AND: GateType.NAND, GateType.NAND: GateType.AND,
        GateType.OR: GateType.NOR, GateType.NOR: GateType.OR,
        GateType.XOR: GateType.XNOR, GateType.XNOR: GateType.XOR,
        GateType.NOT: GateType.BUF, GateType.BUF: GateType.NOT,
    }
    # Edit the flippable gate that sits in the fewest cones — the
    # best case for reuse, which is what the report is sizing.
    membership: dict[str, int] = {}
    for cone in cold.cones.values():
        for cone_gate in cone.gates:
            membership[cone_gate.name] = (
                membership.get(cone_gate.name, 0) + 1
            )
    candidates = [
        g for g in circuit.gates.values() if g.gate_type in flips
    ]
    if not candidates:
        return report
    gate = min(
        candidates,
        key=lambda g: membership.get(g.name, 0),
    )
    new_type = flips[gate.gate_type]
    edited = replace_gate(circuit, gate.name, new_type,
                          list(gate.inputs))
    warm = ConeSimulator(edited, backend=backend)
    delta = warm.cache_delta
    total = max(1, delta["hits"] + delta["misses"])
    report["cone cache (warm edit)"] = (
        f"+{delta['hits']} hits, +{delta['misses']} misses "
        f"({delta['hits'] / total:.0%} reuse after editing "
        f"{gate.name!r})"
    )
    return report


def _cmd_compile(args: argparse.Namespace) -> int:
    circuit = resolve_circuit(args.circuit, args.scale)
    sim = build_simulator(
        circuit,
        args.technique,
        word_width=args.word_width,
        backend="python",
    )
    if args.language == "c":
        source = sim.program.c_source()
    else:
        source = sim.program.python_source()
    if args.output:
        Path(args.output).write_text(source)
        stats = sim.program.stats()
        print(f"wrote {args.output}: {stats}")
    else:
        print(source)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    circuit = resolve_circuit(args.circuit, args.scale)
    vectors = vectors_for(circuit, args.vectors, args.seed)
    sim = build_simulator(
        circuit,
        args.technique,
        word_width=args.word_width,
        backend=args.backend,
    )
    zeros = [0] * len(circuit.inputs)
    if args.technique in ("interp2", "interp3"):
        sim.reset(zeros)
        for vector in vectors:
            sim.apply_vector(vector)
            print(" ".join(
                f"{k}={v}" for k, v in sim.output_values().items()
            ))
        return 0
    if args.technique in ("zero-interp", "zero-lcc"):
        for vector in vectors:
            out = sim.evaluate(vector)
            print(" ".join(f"{k}={v}" for k, v in out.items()))
        return 0
    sim.reset(zeros)
    for vector in vectors:
        sim.apply_vector(vector)
        print(" ".join(
            f"{k}={v}" for k, v in sim.final_values().items()
        ))
    return 0


#: Techniques whose generated programs accept compiled-in probes.
_PROBE_TECHNIQUES = ("pcset", "parallel", "parallel-trim", "zero-lcc")


def _cmd_activity(args: argparse.Namespace) -> int:
    from repro.activity import collect_activity

    circuit = resolve_circuit(args.circuit, args.scale)
    vectors = vectors_for(circuit, args.vectors, args.seed)
    zeros = [0] * len(circuit.inputs)
    if args.probes:
        if args.technique not in _PROBE_TECHNIQUES:
            raise SystemExit(
                "--probes compiles counters into the generated "
                "program and needs a probe-capable technique "
                f"({', '.join(_PROBE_TECHNIQUES)}), "
                f"not {args.technique!r}"
            )
        sim = build_simulator(
            circuit, args.technique,
            word_width=args.word_width, backend=args.backend,
            probes=True,
        )
        if args.technique == "zero-lcc":
            sim.probe_reset(zeros)
        else:
            sim.reset(zeros)
        sim.apply_vectors(vectors)
        report = sim.activity_report()
    else:
        if args.technique == "zero-lcc":
            raise SystemExit(
                "zero-lcc records no settling histories; use --probes "
                "for its compiled-in counters"
            )
        if args.technique.startswith("interp"):
            sim = build_simulator(circuit, args.technique)
        else:
            sim = build_simulator(
                circuit, args.technique,
                word_width=args.word_width, backend=args.backend,
            )
        report = collect_activity(sim, vectors, initial=zeros)
    rows = [
        [net_name, count, report.functional[net_name],
         report.glitch_toggles(net_name),
         report.activity_factor(net_name)]
        for net_name, count in report.hottest(args.top)
    ]
    print(format_table(
        ["net", "toggles", "functional", "glitch", "per vector"],
        rows,
        title=(f"{circuit.name}: switching activity over "
               f"{report.vectors} vectors "
               f"(total {report.total_toggles()}, "
               f"{report.total_glitch_toggles()} from glitches"
               + (", compiled-in probes" if args.probes else "")
               + ")"),
    ))
    return 0


def _cmd_vcd(args: argparse.Namespace) -> int:
    from repro.analysis.levelize import levelize
    from repro.waveform import VCDWriter

    circuit = resolve_circuit(args.circuit, args.scale)
    vectors = vectors_for(circuit, args.vectors, args.seed)
    sim = build_simulator(
        circuit, args.technique,
        word_width=args.word_width, backend=args.backend,
    )
    sim.reset([0] * len(circuit.inputs))
    nets = None if args.all_nets else circuit.inputs + circuit.outputs
    writer = VCDWriter(levelize(circuit).depth, nets)
    for vector in vectors:
        writer.add_vector(sim.apply_vector_history(vector))
    with open(args.output, "w") as stream:
        writer.write(stream)
    print(f"wrote {writer.num_vectors} vectors to {args.output}")
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    from repro.verify import check_equivalence

    golden = resolve_circuit(args.golden, args.scale)
    candidate = resolve_circuit(args.candidate, args.scale)
    result = check_equivalence(
        golden, candidate,
        max_exhaustive_inputs=args.max_exhaustive,
        random_vectors=args.vectors,
        seed=args.seed,
        backend=args.backend,
    )
    print(repr(result))
    return 0 if result.equivalent else 1


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.harness.runner import grade_faults

    circuit = resolve_circuit(args.circuit, args.scale)
    vectors = vectors_for(circuit, args.vectors, args.seed)
    report = grade_faults(
        circuit, vectors,
        word_width=args.word_width, backend=args.backend,
    )
    print(f"{circuit.name}: {report.num_faults} stuck-at faults, "
          f"{len(report.detected)} detected by {args.vectors} random "
          f"vectors (coverage {report.coverage:.1%})")
    counters = getattr(report, "counters", None)
    if counters is not None and counters.seconds > 0:
        print(f"throughput: {counters.vectors} machine vectors in "
              f"{counters.batches} batches, "
              f"{counters.vectors / counters.seconds:,.0f} vectors/s")
    if report.undetected and args.show_undetected:
        shown = ", ".join(str(f) for f in report.undetected[:20])
        more = ("..." if len(report.undetected) > 20 else "")
        print(f"undetected: {shown}{more}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    circuit = resolve_circuit(args.circuit, args.scale)
    vectors = vectors_for(circuit, args.vectors, args.seed)
    rows = []
    baseline: Optional[float] = None
    for technique in args.techniques:
        run = run_technique(
            circuit, technique, vectors,
            backend=args.backend, word_width=args.word_width,
        )
        result = time_run(
            run, label=technique, num_vectors=len(vectors),
            repeat=args.repeat,
        )
        if baseline is None:
            baseline = result.mean
        rows.append([
            technique,
            result.mean,
            result.best,
            baseline / result.mean if result.mean else float("inf"),
        ])
    print(format_table(
        ["technique", "mean s", "best s", "speedup vs first"],
        rows,
        title=(f"{circuit.name}: {len(vectors)} vectors, "
               f"backend={args.backend}"),
    ))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.codegen.runtime import program_cache
    from repro.harness.runner import run_technique

    circuit = resolve_circuit(args.circuit, args.scale)
    vectors = vectors_for(circuit, args.vectors, args.seed)
    telemetry.enable(reset_state=True)
    # The outer wall wraps exactly the instrumented pipeline — program
    # generation, alignment, backend compile, state seeding, batch
    # marshalling, and the compiled run — so the phase table's coverage
    # footer is meaningful (circuit parsing and vector generation stay
    # outside both).
    start = time.perf_counter()
    run = run_technique(
        circuit, args.technique, vectors,
        backend=args.backend, word_width=args.word_width,
    )
    run()
    wall = time.perf_counter() - start
    print(telemetry.format_profile(
        wall,
        title=(f"{circuit.name}: {args.technique}, "
               f"{len(vectors)} vectors, backend={args.backend}"),
    ))
    cache = program_cache().stats()
    print(f"program cache: {cache['entries']} entries, "
          f"{cache['hits']} hits, {cache['misses']} misses")
    return 0


def _fuzz_injection(name: str):
    """Resolve an ``--inject-bug`` value to its context manager."""
    from repro.fuzz import (
        MUTATIONS,
        inject_emitter_bug,
        inject_slot_bug,
    )

    if name in MUTATIONS:
        return inject_emitter_bug(name)
    if name == "slot-order":
        return inject_slot_bug()
    choices = sorted(MUTATIONS) + ["slot-order"]
    raise SystemExit(
        f"unknown --inject-bug {name!r}; choose from {choices}"
    )


def _cmd_fuzz_campaign(args: argparse.Namespace) -> int:
    from repro.fuzz import SURFACES, run_campaign

    kwargs = dict(
        seed=args.seed,
        iterations=args.iterations,
        budget_seconds=args.budget_seconds,
        corpus_dir=args.corpus,
        backends=args.backends.split(",") if args.backends else None,
        configs_per_circuit=args.configs_per_circuit,
        max_gates=args.max_gates,
        include_faults=not args.no_faults,
        progress=print,
        perf=args.perf,
        envelope_path=args.envelope,
        perf_artifacts=args.perf_artifacts,
    )
    if args.inject_bug:
        with _fuzz_injection(args.inject_bug) as description:
            print(f"injected bug: {description}")
            result = run_campaign(**kwargs)
    else:
        result = run_campaign(**kwargs)
    print(
        f"seed {result.seed}: {result.circuits} circuits, "
        f"{result.configs_checked} configs, "
        f"{result.comparisons} comparisons, "
        f"{len(result.failures)} failures in {result.seconds:.1f}s "
        f"(stopped by {result.stopped_by})"
    )
    covered = result.surface_coverage
    print("lattice coverage: " + " ".join(
        f"{surface}={covered.get(surface, 0)}"
        for surface in SURFACES
    ))
    missing = [s for s in SURFACES if not covered.get(s)]
    if missing:
        print(f"WARNING: surfaces never drawn: {', '.join(missing)}")
    if result.failures:
        print(f"shrinking took {result.shrink_steps} accepted steps")
        for failure in result.failures:
            where = (f" -> {failure.corpus_path}"
                     if failure.corpus_path else "")
            print(f"  [{failure.config.label()}] {failure.error}"
                  f" ({failure.num_gates} gates, "
                  f"{failure.num_vectors} vectors){where}")
    flags = result.perf_flags
    if result.perf is not None:
        mode = "observe" if result.perf.observe_only else "enforce"
        print(f"perf oracle ({mode}): "
              f"{len(result.perf.samples)} points measured, "
              f"{len(flags)} flagged")
        for flag in flags:
            where = f" -> {flag.artifact}" if flag.artifact else ""
            print(f"  PERF {flag.describe()}{where}")
            print(f"       replay: {flag.replay}")
    passed = result.configs_checked - len(result.failures)
    print(f"campaign summary: {passed} pass, {len(flags)} flagged, "
          f"{len(result.failures)} failed")
    return 0 if result.ok else 1


def _cmd_fuzz_distill(args: argparse.Namespace) -> int:
    from repro.fuzz import distill_corpus

    result = distill_corpus(
        args.corpus, apply=args.apply, check=not args.no_check
    )
    print(result.summary())
    for path, entry in result.kept:
        print(f"  keep {path.name}  {entry.config.lattice_key()}")
    for path, entry in result.dropped:
        verb = "dropped" if result.applied else "would drop"
        print(f"  {verb} {path.name}  {entry.config.lattice_key()}")
    return 0 if result.lossless else 1


def _cmd_fuzz_perf(args: argparse.Namespace) -> int:
    import os

    from repro.fuzz import (
        PerfEnvelope,
        PerfPoint,
        calibrate_envelope,
        run_perf_phase,
    )

    points = (
        [PerfPoint.from_key(key) for key in args.point]
        if args.point else None
    )
    if (args.envelope and os.path.isfile(args.envelope)
            and not args.recalibrate):
        envelope = PerfEnvelope.load(args.envelope)
        if points is not None:
            wanted = {p.key() for p in points}
            envelope.floors = {
                key: row for key, row in envelope.floors.items()
                if key in wanted
            }
            absent = wanted - set(envelope.floors)
            for key in sorted(absent):
                print(f"point {key} not in envelope; calibrating")
            if absent:
                fresh = calibrate_envelope(
                    [PerfPoint.from_key(k) for k in sorted(absent)],
                    margin=envelope.margin, vectors=envelope.vectors,
                )
                envelope.floors.update(fresh.floors)
    else:
        envelope = calibrate_envelope(
            points, margin=args.margin, vectors=args.vectors
        )
        if args.envelope:
            envelope.save(args.envelope)
            print(f"calibrated envelope -> {args.envelope}")
    report = run_perf_phase(
        envelope,
        observe_only=args.observe,
        artifacts_dir=args.artifacts,
    )
    for key, sample in sorted(report.samples.items()):
        floor = envelope.floors[key]["floor_vectors_per_s"]
        print(f"  {key}: {sample.vectors_per_s:,.0f} vectors/s "
              f"(floor {floor:,.0f}), "
              f"compile {sample.compile_seconds:.3f}s")
    for flag in report.flags:
        print(f"  PERF {flag.describe()}")
    print(f"perf: {len(report.samples)} points, "
          f"{len(report.flags)} flagged"
          f"{' (observe-only)' if report.observe_only else ''}")
    return 0 if report.ok else 1


def _cmd_tape(args: argparse.Namespace) -> int:
    from repro.replay import random_tape

    seq = resolve_sequential(args.circuit, args.scale)
    tape = random_tape(
        args.output, seq.external_inputs, args.cycles, seed=args.seed
    )
    print(f"wrote {tape.cycles} cycles x {len(tape.inputs)} inputs "
          f"({', '.join(tape.inputs[:6])}"
          f"{', ...' if len(tape.inputs) > 6 else ''}) "
          f"to {args.output}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.codegen.runtime import program_cache
    from repro.replay import Tape, replay_tape
    from repro.seqsim import CompiledSequentialSimulator

    seq = resolve_sequential(args.circuit, args.scale)
    tape = Tape(args.tape)
    cache = program_cache()
    before = cache.stats()
    sim = CompiledSequentialSimulator(
        seq,
        engine=args.engine,
        backend=args.backend,
        word_width=args.word_width,
        incremental=args.incremental,
    )
    after = cache.stats()
    result = replay_tape(
        sim, tape,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        resume_from=args.resume_from,
        chunk_cycles=args.chunk,
        outputs_path=args.outputs,
        vcd_path=args.vcd,
        vcd_nets=(
            args.probe_nets.split(",") if args.probe_nets else None
        ),
        limit=args.limit,
    )
    where = (f"cycles {result.cycle - result.cycles}..{result.cycle}"
             if result.resumed_from is not None
             else f"{result.cycles} cycles")
    print(f"{seq.core.name}: replayed {where} of {tape.cycles} "
          f"({seq.num_flipflops} FFs, engine={args.engine}, "
          f"backend={args.backend})")
    print(f"throughput: {result.cycles_per_second:,.0f} cycles/s "
          f"({result.seconds:.3f}s)")
    print(f"checksum: {result.checksum:#018x}")
    print(f"program cache: +{after['hits'] - before['hits']} hits, "
          f"+{after['misses'] - before['misses']} misses"
          + (f" ({sim._sim.num_cones} cones)" if args.incremental
             else ""))
    if result.checkpoints:
        print(f"checkpoints: {len(result.checkpoints)} written to "
              f"{args.checkpoint_dir}")
    if result.outputs_path:
        print(f"outputs: {result.outputs_path}")
    if result.vcd_path:
        print(f"waveform: {result.vcd_path}")
    if args.coverage:
        hottest = sorted(
            result.toggles.items(), key=lambda kv: -kv[1]
        )[:args.coverage]
        print("toggles: " + ", ".join(
            f"{name}={count}" for name, count in hottest
        ))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Unit-delay compiled simulation (Maurer, DAC 1990)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="scale factor for synthetic ISCAS85 analogs (default 1.0)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_telemetry_args(p: argparse.ArgumentParser) -> None:
        # Options must live on each subparser: argparse stops matching
        # top-level options once the subcommand name is consumed.
        p.add_argument(
            "--profile", action="store_true",
            help="print the per-phase telemetry table after the "
                 "command's normal output",
        )
        p.add_argument(
            "--metrics-out", default=None, metavar="FILE",
            help="write the full telemetry snapshot (phases, counters, "
                 "cache/packing/activity sections) as JSON",
        )

    p_stats = sub.add_parser("stats", help="static circuit report")
    p_stats.add_argument("circuit")
    p_stats.add_argument(
        "--fast", action="store_true",
        help="skip the alignment analyses (large circuits)",
    )
    p_stats.add_argument(
        "--cones", action="store_true",
        help="report per-fanin-cone incremental recompilation stats: "
             "cold-build cache traffic, then the hit/miss delta of "
             "rebuilding after a synthetic single-gate edit",
    )
    p_stats.add_argument("-b", "--backend", default="python",
                         choices=["python", "c"])
    _add_telemetry_args(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_compile = sub.add_parser("compile", help="print generated code")
    p_compile.add_argument("circuit")
    p_compile.add_argument(
        "-t", "--technique", default="parallel",
        choices=[t for t in TECHNIQUES if t not in
                 ("interp2", "interp3", "zero-interp")],
    )
    p_compile.add_argument("-l", "--language", default="c",
                           choices=["c", "python"])
    p_compile.add_argument("-w", "--word-width", type=int, default=32,
                           choices=[8, 16, 32, 64])
    p_compile.add_argument("-o", "--output", default=None)
    _add_telemetry_args(p_compile)
    p_compile.set_defaults(func=_cmd_compile)

    p_sim = sub.add_parser("simulate", help="simulate random vectors")
    p_sim.add_argument("circuit")
    p_sim.add_argument("-t", "--technique", default="parallel",
                       choices=[t for t in TECHNIQUES
                                if t != "pcset-mv"])
    p_sim.add_argument("-n", "--vectors", type=int, default=10)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("-b", "--backend", default="python",
                       choices=["python", "c"])
    p_sim.add_argument("-w", "--word-width", type=int, default=32,
                       choices=[8, 16, 32, 64])
    _add_telemetry_args(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    history_techniques = [
        t for t in TECHNIQUES
        if t.startswith("parallel") or t == "pcset"
    ]
    p_act = sub.add_parser(
        "activity", help="switching-activity (toggle) report"
    )
    p_act.add_argument("circuit")
    p_act.add_argument("-t", "--technique", default="parallel-best",
                       choices=history_techniques + ["interp2",
                                                     "interp3",
                                                     "zero-lcc"])
    p_act.add_argument(
        "--probes", action="store_true",
        help="count toggles with probe counters compiled into the "
             "generated program (fast batched path; bit-identical to "
             "the history-based default) — techniques: "
             + ", ".join(_PROBE_TECHNIQUES),
    )
    p_act.add_argument("-n", "--vectors", type=int, default=100)
    p_act.add_argument("--seed", type=int, default=0)
    p_act.add_argument("--top", type=int, default=15,
                       help="show the N most active nets")
    p_act.add_argument("-b", "--backend", default="python",
                       choices=["python", "c"])
    p_act.add_argument("-w", "--word-width", type=int, default=32,
                       choices=[8, 16, 32, 64])
    _add_telemetry_args(p_act)
    p_act.set_defaults(func=_cmd_activity)

    p_vcd = sub.add_parser("vcd", help="dump unit-delay waveforms")
    p_vcd.add_argument("circuit")
    p_vcd.add_argument("-o", "--output", default="trace.vcd")
    p_vcd.add_argument("-t", "--technique", default="parallel-best",
                       choices=history_techniques)
    p_vcd.add_argument("-n", "--vectors", type=int, default=20)
    p_vcd.add_argument("--seed", type=int, default=0)
    p_vcd.add_argument("--all-nets", action="store_true",
                       help="include internal nets, not just I/O")
    p_vcd.add_argument("-b", "--backend", default="python",
                       choices=["python", "c"])
    p_vcd.add_argument("-w", "--word-width", type=int, default=32,
                       choices=[8, 16, 32, 64])
    _add_telemetry_args(p_vcd)
    p_vcd.set_defaults(func=_cmd_vcd)

    p_equiv = sub.add_parser(
        "equiv", help="check two circuits for functional equivalence"
    )
    p_equiv.add_argument("golden")
    p_equiv.add_argument("candidate")
    p_equiv.add_argument("--max-exhaustive", type=int, default=20,
                         help="input count up to which the check is "
                              "exhaustive")
    p_equiv.add_argument("-n", "--vectors", type=int, default=2048,
                         help="random vectors in sampled mode")
    p_equiv.add_argument("--seed", type=int, default=0)
    p_equiv.add_argument("-b", "--backend", default="python",
                         choices=["python", "c"])
    _add_telemetry_args(p_equiv)
    p_equiv.set_defaults(func=_cmd_equiv)

    p_faults = sub.add_parser(
        "faults", help="stuck-at fault coverage of random vectors"
    )
    p_faults.add_argument("circuit")
    p_faults.add_argument("-n", "--vectors", type=int, default=100)
    p_faults.add_argument("--seed", type=int, default=0)
    p_faults.add_argument("--show-undetected", action="store_true")
    p_faults.add_argument("-b", "--backend", default="python",
                          choices=["python", "c"])
    p_faults.add_argument("-w", "--word-width", type=int, default=32,
                          choices=[8, 16, 32, 64])
    _add_telemetry_args(p_faults)
    p_faults.set_defaults(func=_cmd_faults)

    p_bench = sub.add_parser("bench", help="quick technique comparison")
    p_bench.add_argument("circuit")
    p_bench.add_argument(
        "-t", "--techniques", nargs="+",
        default=["interp2", "pcset", "parallel", "parallel-best"],
        choices=list(TECHNIQUES),
    )
    p_bench.add_argument("-n", "--vectors", type=int, default=100)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--repeat", type=int, default=3)
    p_bench.add_argument("-b", "--backend", default="python",
                         choices=["python", "c"])
    p_bench.add_argument("-w", "--word-width", type=int, default=32,
                         choices=[8, 16, 32, 64])
    _add_telemetry_args(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_prof = sub.add_parser(
        "profile",
        help="per-phase timing of one compile+run pipeline",
    )
    p_prof.add_argument("circuit")
    p_prof.add_argument("-t", "--technique", default="parallel-best",
                        choices=[t for t in TECHNIQUES
                                 if t not in ("interp2", "interp3",
                                              "zero-interp")])
    p_prof.add_argument("-n", "--vectors", type=int, default=256)
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("-b", "--backend", default="python",
                        choices=["python", "c"])
    p_prof.add_argument("-w", "--word-width", type=int, default=32,
                        choices=[8, 16, 32, 64])
    p_prof.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the full telemetry snapshot as JSON",
    )
    p_prof.set_defaults(func=_cmd_profile)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the compiled techniques against "
             "the event-driven reference, with performance oracles",
    )
    fuzz_sub = p_fuzz.add_subparsers(dest="fuzz_command",
                                     required=True)

    p_fc = fuzz_sub.add_parser(
        "campaign",
        help="run a seeded differential campaign over the "
             "configuration lattice (the bare 'fuzz' default)",
    )
    p_fc.add_argument("--seed", type=int, default=0)
    p_fc.add_argument(
        "-n", "--iterations", type=int, default=None,
        help="circuits to fuzz (default 50 when no time budget)",
    )
    p_fc.add_argument(
        "--budget-seconds", type=float, default=None,
        help="stop after this much wall time",
    )
    p_fc.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="save shrunk reproducers to this corpus directory",
    )
    p_fc.add_argument(
        "--backends", default=None,
        help="comma-separated backends (default: every usable one — "
             "python, plus c with a compiler)",
    )
    p_fc.add_argument(
        "--configs-per-circuit", type=int, default=4,
        help="lattice points sampled per circuit (default 4)",
    )
    p_fc.add_argument(
        "--max-gates", type=int, default=24,
        help="largest random circuit drawn (default 24 gates)",
    )
    p_fc.add_argument(
        "--no-faults", action="store_true",
        help="skip the fault-report identity checks",
    )
    p_fc.add_argument(
        "--inject-bug", default=None, metavar="MUTATION",
        help="self-test: inject a known bug (nor-as-or, xnor-as-xor, "
             "nand-as-and, not-as-buf, slot-order) and verify the "
             "campaign catches it",
    )
    p_fc.add_argument(
        "--perf", default="off",
        choices=["off", "observe", "enforce", "auto"],
        help="performance oracles: observe measures and reports, "
             "enforce fails the campaign on below-envelope points, "
             "auto enforces except under CI=1 or <4 CPUs "
             "(default off)",
    )
    p_fc.add_argument(
        "--envelope", default=None, metavar="FILE",
        help="persist/load the calibrated perf envelope (an existing "
             "file is loaded instead of recalibrating)",
    )
    p_fc.add_argument(
        "--perf-artifacts", default=None, metavar="DIR",
        help="write replayable JSON artifacts for perf flags here",
    )
    _add_telemetry_args(p_fc)
    p_fc.set_defaults(func=_cmd_fuzz_campaign)

    p_fd = fuzz_sub.add_parser(
        "distill",
        help="greedily minimize the corpus preserving lattice "
             "coverage (dry run unless --apply)",
    )
    p_fd.add_argument(
        "--corpus", default="fuzz-corpus", metavar="DIR",
        help="corpus directory to distill (default fuzz-corpus)",
    )
    p_fd.add_argument(
        "--apply", action="store_true",
        help="delete the subsumed entries (default: dry run)",
    )
    p_fd.add_argument(
        "--no-check", action="store_true",
        help="skip replaying kept entries against current code",
    )
    _add_telemetry_args(p_fd)
    p_fd.set_defaults(func=_cmd_fuzz_distill)

    p_fp = fuzz_sub.add_parser(
        "perf",
        help="measure perf points against the calibrated envelope "
             "(the replay command named in perf artifacts)",
    )
    p_fp.add_argument(
        "--point", action="append", default=None, metavar="KEY",
        help="measure only this point (repeatable; e.g. "
             "packed:zero-lcc:c:w32)",
    )
    p_fp.add_argument(
        "--envelope", default=None, metavar="FILE",
        help="load floors from this envelope file (calibrate and "
             "save when absent)",
    )
    p_fp.add_argument(
        "--recalibrate", action="store_true",
        help="ignore an existing envelope file and recalibrate",
    )
    p_fp.add_argument(
        "--margin", type=float, default=0.6,
        help="floor = margin x calibrated throughput (default 0.6)",
    )
    p_fp.add_argument(
        "--vectors", type=int, default=1024,
        help="vectors per measurement (default 1024)",
    )
    p_fp.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="write replayable JSON artifacts for flags here",
    )
    p_fp.add_argument(
        "--observe", action="store_true",
        help="report flags without a failing exit status",
    )
    _add_telemetry_args(p_fp)
    p_fp.set_defaults(func=_cmd_fuzz_perf)

    p_tape = sub.add_parser(
        "tape", help="write a seeded random clocked stimulus tape"
    )
    p_tape.add_argument("circuit")
    p_tape.add_argument("-n", "--cycles", type=int, default=1000)
    p_tape.add_argument("--seed", type=int, default=0)
    p_tape.add_argument("-o", "--output", required=True, metavar="FILE")
    _add_telemetry_args(p_tape)
    p_tape.set_defaults(func=_cmd_tape)

    p_replay = sub.add_parser(
        "replay",
        help="stream a stimulus tape through the clocked simulator, "
             "with mid-stream checkpoint/restore",
    )
    p_replay.add_argument("circuit")
    p_replay.add_argument("--tape", required=True, metavar="FILE",
                          help="stimulus tape (see 'repro-sim tape')")
    p_replay.add_argument("-e", "--engine", default="lcc",
                          choices=["lcc", "parallel", "pcset"])
    p_replay.add_argument("-b", "--backend", default="python",
                          choices=["python", "c"])
    p_replay.add_argument("-w", "--word-width", type=int, default=32,
                          choices=[8, 16, 32, 64])
    p_replay.add_argument(
        "--incremental", action="store_true",
        help="evaluate the core through per-fanin-cone programs "
             "(content-keyed cache: a single-gate edit recompiles "
             "only the affected cones)",
    )
    p_replay.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="write a checkpoint after every N-th cycle",
    )
    p_replay.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="directory for checkpoint files "
             "(required with --checkpoint-every)",
    )
    p_replay.add_argument(
        "--resume-from", default=None, metavar="FILE",
        help="resume bit-identically from a checkpoint file",
    )
    p_replay.add_argument(
        "--outputs", default=None, metavar="FILE",
        help="stream per-cycle external outputs here (tape format; "
             "two replays compare with a byte compare)",
    )
    p_replay.add_argument(
        "--vcd", default=None, metavar="FILE",
        help="stream a per-cycle waveform of the external outputs "
             "here (incremental VCD; checkpoints carry the writer "
             "state, so a resumed run appends byte-identically)",
    )
    p_replay.add_argument(
        "--probe-nets", default=None, metavar="NETS",
        help="comma-separated external outputs to restrict the --vcd "
             "trace to (default: all external outputs)",
    )
    p_replay.add_argument(
        "--chunk", type=int, default=4096, metavar="N",
        help="cycles per apply_vectors call — the memory bound "
             "(default 4096)",
    )
    p_replay.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="replay at most N cycles (default: to end of tape)",
    )
    p_replay.add_argument(
        "--coverage", type=int, default=0, metavar="N",
        help="print the N most-toggling outputs",
    )
    _add_telemetry_args(p_replay)
    p_replay.set_defaults(func=_cmd_replay)

    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # Back-compat: ``repro-sim fuzz --seed ...`` predates the verb
    # split (campaign/distill/perf); a bare ``fuzz`` means campaign.
    for index, token in enumerate(argv):
        if token in sub.choices:
            if token == "fuzz":
                following = (
                    argv[index + 1] if index + 1 < len(argv) else None
                )
                if following not in fuzz_sub.choices and (
                    following not in ("-h", "--help")
                ):
                    argv.insert(index + 1, "campaign")
            break
    args = parser.parse_args(argv)
    profile = getattr(args, "profile", False)
    metrics_out = getattr(args, "metrics_out", None)
    if profile or metrics_out:
        telemetry.enable(reset_state=True)
    start = time.perf_counter()
    status = args.func(args)
    wall = time.perf_counter() - start
    if profile:
        print()
        print(telemetry.format_profile(
            wall, title=f"telemetry profile: {args.command}"
        ))
        snap = telemetry.snapshot()
        cache = snap["cache"]
        print(f"program cache: {cache['entries']} entries, "
              f"{cache['hits']} hits, {cache['misses']} misses")
    if metrics_out:
        telemetry.write_metrics(metrics_out)
        print(f"wrote metrics to {metrics_out}")
    return status


if __name__ == "__main__":
    sys.exit(main())

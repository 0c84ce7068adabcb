"""Differential fuzzing: campaign, oracles, shrinker, failure corpus.

The execution paths of this library (event-driven reference, PC-set,
parallel variants, zero-delay LCC; Python and C backends;
scalar / batched / packed / sequential-replay / probed
execution) must agree bit for bit — and stay fast.  This
package keeps them honest at scale: :func:`run_campaign` explores
random circuits against a sampled slice of the configuration lattice
(with a deterministic coverage preamble so every surface is drawn
even in small budgets), :mod:`~repro.fuzz.oracles` measures
throughput against a machine-calibrated envelope so perf regressions
are campaign failures too, :func:`shrink` reduces every disagreement
to a minimal reproducer, :func:`distill_corpus` keeps the corpus
minimal as surfaces accrete, and the corpus turns past failures into
permanent regression tests (see ``tests/test_fuzz_corpus.py`` and the
``repro-sim fuzz`` subcommand family).
"""

from repro.fuzz.campaign import (
    PERF_MODES,
    CampaignFailure,
    CampaignResult,
    run_campaign,
)
from repro.fuzz.corpus import (
    CorpusEntry,
    entry_from_failure,
    load_corpus,
    load_entry,
    replay_entry,
    save_entry,
)
from repro.fuzz.distill import DistillResult, distill_corpus
from repro.fuzz.lattice import (
    BACKENDS,
    CHECKS,
    CONFIG_SCHEMA,
    SURFACES,
    FuzzConfig,
    coverage_configs,
    run_check,
    sample_configs,
)
from repro.fuzz.mutation import (
    MUTATIONS,
    inject_emitter_bug,
    inject_slowdown,
    inject_slot_bug,
)
from repro.fuzz.oracles import (
    PerfEnvelope,
    PerfFlag,
    PerfPoint,
    PerfReport,
    PerfSample,
    available_backends,
    calibrate_envelope,
    default_points,
    load_bench,
    measure_point,
    run_perf_phase,
    validate_bench,
)
from repro.fuzz.shrink import ShrinkResult, shrink

__all__ = [
    "BACKENDS",
    "CHECKS",
    "CONFIG_SCHEMA",
    "MUTATIONS",
    "PERF_MODES",
    "SURFACES",
    "CampaignFailure",
    "CampaignResult",
    "CorpusEntry",
    "DistillResult",
    "FuzzConfig",
    "PerfEnvelope",
    "PerfFlag",
    "PerfPoint",
    "PerfReport",
    "PerfSample",
    "ShrinkResult",
    "available_backends",
    "calibrate_envelope",
    "coverage_configs",
    "default_points",
    "distill_corpus",
    "entry_from_failure",
    "inject_emitter_bug",
    "inject_slowdown",
    "inject_slot_bug",
    "load_bench",
    "load_corpus",
    "load_entry",
    "measure_point",
    "replay_entry",
    "run_campaign",
    "run_check",
    "sample_configs",
    "save_entry",
    "shrink",
    "validate_bench",
]

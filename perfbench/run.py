"""End-to-end pipeline benchmark of the repro simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zero-stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload
    python3 perfbench/run.py --self-test             # the checks catch damage

Each workload runs in fresh interpreters (``child.py``), each with
``TMPDIR`` and ``XDG_CACHE_HOME`` pointed at an empty directory, so
every setup is a cold compile.  ``--trace 0`` measures the end-to-end
metrics: ``SETUPS`` children each set up cold (the median is
``setup_s``) and stream whole jobs, together at least ``--seconds``
and ``MIN_BATCHES`` batches.  ``--trace 1`` runs one untraced and one
traced setup + job and reports per-layer figures, the tracing overhead
and the break-even vector count against the interpreted reference.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give
every metric by name and unit, the plan and the provenance record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

#: Cold-setup children per untraced run; ``setup_s`` is their median.
#: The shorter the setup, the noisier one sample of it, and the more
#: samples fit the run budget of the whole benchmark.
SETUPS = {"zero-stream": 5, "fault-grade": 3, "unit-py": 9}
#: Batches per untraced run, so that ten samples lie beyond p90.
MIN_BATCHES = 100
#: Every run must end within 180 s; children share this budget.
RUN_BUDGET_S = 170.0

#: Metric names and units, and the workload list, as BENCHMARK.json
#: declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, deadline: float,
              *extra: str) -> dict:
    """One fresh interpreter with its own empty TMPDIR/XDG_CACHE_HOME."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"{workload}: run exceeded {RUN_BUDGET_S:g}s")
    WORK.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        TMPDIR=scratch,
        XDG_CACHE_HOME=os.path.join(scratch, "cache"),
        PYTHONHASHSEED="0",
    )
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}: run exceeded {RUN_BUDGET_S:g}s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: child failed\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Cold setups in fresh children, each streaming a share of batches.

    Spreading the stream over every child samples host speed across the
    whole run rather than one stretch of it.
    """
    deadline = time.monotonic() + RUN_BUDGET_S
    children = SETUPS[workload]
    share = -(-MIN_BATCHES // children)
    runs = [
        run_child(workload, seed, deadline, "--part", str(part),
                  "--seconds", str(seconds / children),
                  "--min-batches", str(share))
        for part in range(children)
    ]
    setups = [r["setup_s"] for r in runs]
    jobs = [job for r in runs for job in r["jobs"] if job]
    setup_s = statistics.median(setups)
    # Host speed shifts by up to ~40% for seconds at a time (other
    # tenants' load), so a percentile pooled over the run jumps to
    # whichever speed held the run around it.  One job runs at about
    # one speed: averaging the jobs' figures weighs each speed by the
    # share of the run it held.
    metrics = {
        "setup_s": setup_s,
        "job_s": setup_s + statistics.fmean(map(sum, jobs)),
        "vectors_per_s": (sum(r["vectors"] for r in runs)
                          / sum(map(sum, jobs))),
        "batch_ms_p50": 1e3 * statistics.fmean(map(statistics.median, jobs)),
        "batch_ms_p90": 1e3 * statistics.fmean(
            percentile(job, 0.9) for job in jobs
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    record = {
        **runs[-1],
        "plan": runs[0]["plan"],
        "setup_samples": setups,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "errors": [e for r in runs for e in r["errors"]],
    }
    return metrics, record


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_BUDGET_S
    plain = run_child(workload, seed, deadline)
    record = run_child(workload, seed, deadline, "--trace")
    record["attempted"] += plain["attempted"]
    record["failed"] += plain["failed"]
    record["errors"] += plain["errors"]
    layers = dict(record["layers"])
    plain_run_s = sum(map(sum, plain["jobs"]))
    plain_job_s = plain["setup_s"] + plain_run_s
    vps = plain["vectors"] / plain_run_s
    ref_vps = plain["ref_vectors"] / plain["ref_seconds"]
    gap = 1.0 / ref_vps - 1.0 / vps
    circuit = record["circuit"]
    layers.update({
        "netlist.build_s": circuit["netlist.build_s"],
        "netlist.gates": circuit["gates"],
        "netlist.depth": circuit["depth"],
        "job.vectors_per_s": vps,
        "eventsim.ref_vps": ref_vps,
        # Negative: the compiled run never catches up with the
        # interpreted reference.
        "breakeven_vectors": plain["setup_s"] / gap if gap > 0 else -1.0,
        "trace.overhead": layers["job_s"] / plain_job_s - 1.0,
        "error_rate": record["failed"] / record["attempted"],
    })
    return {name: layers[name] for name in LAYER_UNITS}, record


def provenance() -> dict:
    def first_line(cmd: list[str]) -> str:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        lines = proc.stdout.strip().splitlines()
        return lines[0] if proc.returncode == 0 and lines else "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = os.environ.get("CC") or shutil.which("cc") or "cc"
    # The benchmark may run from an exported tree with no git history;
    # the source hash identifies the code either way.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_revision": (
            first_line(["git", "rev-parse", "HEAD"])
            if (ROOT / ".git").exists() else "unknown"
        ),
        "src_sha256": digest.hexdigest(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cc": first_line([compiler, "--version"]),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            origin: dict):
    if trace:
        metrics, record = traced(workload, seed)
        units = LAYER_UNITS
    else:
        metrics, record = end_to_end(workload, seed, seconds)
        units = E2E_UNITS
    attempted, failed = record["attempted"], record["failed"]
    print("record: " + json.dumps({
        "workload": workload, "seed": seed, "trace": trace,
        "provenance": origin,
        "circuit": record["circuit"],
        "plan": record["plan"],
        "plan_after_run": record["plan_after_run"],
        "setup_samples": record.get("setup_samples"),
        "attempted": attempted, "failed": failed,
        "errors": record["errors"],
        "span_seconds": record.get("layers", {}).get("span_seconds"),
        "metrics": metrics,
    }))
    print(f"== {workload}: {failed} of {attempted} checked batches failed")
    for name, value in metrics.items():
        print(f"   {name:32s} {value:14.6g} {units[name]}")
    return metrics, units, attempted, failed


def self_test() -> int:
    """The checks must flag one corrupted output word or fault verdict."""
    ok = True
    for workload in ("zero-stream", "unit-py", "fault-grade"):
        for corrupt in (False, True):
            extra = ["--max-batches", "2"] + (["--corrupt"] if corrupt else [])
            deadline = time.monotonic() + RUN_BUDGET_S
            record = run_child(workload, 1, deadline, *extra)
            rate = record["failed"] / record["attempted"]
            passed = rate > 0 if corrupt else rate == 0
            ok &= passed
            print(f"{workload:12s} corrupt={corrupt!s:5s} "
                  f"error_rate={rate:.3f} {'ok' if passed else 'FAILED'}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        origin = provenance()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        attempted = failed = 0
        for name in names:
            metrics, units, tried, bad = measure(
                name, args.seed, args.seconds, bool(args.trace), origin
            )
            attempted += tried
            failed += bad
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, value in metrics.items():
                results[prefix + metric] = {"value": value,
                                            "unit": units[metric]}
    except ChildFailed as error:
        print(error, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

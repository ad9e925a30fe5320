"""Benchmark of ``holofubini verify`` on one workload, end to end or by layer.

    python3 bench/run.py --workload battery-d2 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures set-up as the median of several fresh interpreters,
runs one warm-up pass that also counts family values, then as many timed
passes as fit in ``--seconds`` (at least one), and prints the end-to-end
metrics.
``--trace 1`` runs a warm-up pass, then untraced and traced passes in turn
while they fit in ``--seconds`` (at least one of each), and prints the per-layer metrics with the tracing overhead.  Every pass's
reports are checked (see ``harness.Runner.check``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (verify calls made), ``failed`` (calls that raised
or exited with a code other than 0 or 1) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: name -> (unit, better, bound): the bound is the share of the parent's median
#: by which a change may worsen the metric
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "verify_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "family_values": ("count", "lower", 0.01),
    "checks_passed_share": ("ratio", "higher", 0.001),
}
#: fresh interpreters started to measure set-up
SETUP_STARTS = 11
#: BLAS/OpenMP pool size: one caller, and a second thread bought no wall time
#: on these workloads while doubling the CPU time spent
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads(cap: int) -> dict[str, int]:
    """Cap every BLAS/OpenMP pool; must run before numpy is imported."""
    caps = {}
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, cap))
        except ValueError:
            current = cap
        caps[var] = min(max(current, 1), cap)
        os.environ[var] = str(caps[var])
    return caps


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def untraced_run(runner, seconds: float, env: dict) -> tuple[dict, list, list]:
    from harness import setup_seconds
    from tracer import Tracer

    setups = [setup_seconds(runner.workload, runner.scratch, env) for _ in range(SETUP_STARTS)]
    with Tracer(families_only=True) as counter:
        warm = runner.run_pass(counter)
    verdicts = [runner.check(warm)]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1].wall_s <= seconds:
        passes.append(runner.run_pass())
        verdicts.append(runner.check(passes[-1]))
    samples = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} interpreter starts"),
        "verify_s": (statistics.median(p.wall_s for p in passes),
                     f"median of {len(passes)} passes after 1 warm-up"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "ru_maxrss of this process"),
        "family_values": (counter.family_values, "counted on the warm-up pass"),
        "checks_passed_share": (verdicts[0].passed / verdicts[0].records,
                                f"{verdicts[0].records} records per pass"),
    }
    metrics = {name: (value, END_TO_END[name][0], note) for name, (value, note) in samples.items()}
    return metrics, verdicts, [warm, *passes]


def traced_run(runner, seconds: float) -> tuple[dict, list, list]:
    from tracer import LAYER_METRICS, RepeatCounter, Tracer

    warm = runner.run_pass()
    verdicts = [runner.check(warm)]
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start + plain[-1].wall_s + traced[-1].wall_s
                         <= seconds):
        plain.append(runner.run_pass())
        verdicts.append(runner.check(plain[-1]))
        with Tracer(repeats=RepeatCounter()) as tracer:
            traced.append(runner.run_pass(tracer))
        verdicts.append(runner.check(traced[-1]))
        layers.append(tracer.layer_metrics())
    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    values["checks_failed_share"] = 1.0 - verdicts[0].passed / verdicts[0].records
    values["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                  - statistics.median(p.wall_s for p in plain))
    note = f"median of {len(traced)} traced passes"
    metrics = {}
    for metric in LAYER_METRICS:
        moves = ", ".join(f"{m}@{w}" for m, w in metric.moves) or "-"
        metrics[metric.name] = (values[metric.name], metric.unit, f"{note}; moves {moves}")
    return metrics, verdicts, [warm, *plain, *traced]


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    threads = cap_threads(min(THREADS, nproc))
    if not (SRC / "holofubini" / "__init__.py").is_file():
        print(f"error: no holofubini package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

    import numpy

    from harness import Runner
    from workloads import WORKLOADS, memory_refusals

    workload = WORKLOADS[args.workload]
    refused = memory_refusals(workload.configs)
    if refused:
        print("error: over the memory budget: " + "; ".join(refused), file=sys.stderr)
        return 2
    print("env " + json.dumps({
        "python": platform.python_version(), "numpy": numpy.__version__, "nproc": nproc,
        "threads": threads, "seed": args.seed, "commit": git_commit(),
        "workload": workload.name, "configs": [c.describe() for c in workload.configs],
    }))
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as scratch:
        runner = Runner(workload, args.seed, Path(scratch))
        if args.trace:
            metrics, verdicts, passes = traced_run(runner, args.seconds)
        else:
            metrics, verdicts, passes = untraced_run(runner, args.seconds, env)

    problems = [p for v in verdicts for p in v.problems]
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit:<6} {note}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(p.codes) for p in passes),
        "failed": sum(v.failed_calls for v in verdicts),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

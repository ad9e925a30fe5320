"""Self-test of the benchmark's tracer and of BENCHMARK.json.

    python3 bench/selftest.py

It exits 1 with the failed assertions listed unless
1. on every workload, traced reports are byte-identical to untraced ones;
2. every per-layer count is nonzero on each workload it is said to move;
3. geometric d = 2 on uniform-16 at n = 64 evaluates 12.45M +- 0.01M family
   values, and the tracer's repeat share equals a per-value reference count
   and is 0.984 +- 0.005;
4. BENCHMARK.json lists exactly the workloads of ``workloads.py``, the
   end-to-end metrics of ``run.py`` and the per-layer metrics of ``tracer.py``.
It takes about a minute on two cores.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import END_TO_END, ROOT, SRC, THREADS, cap_threads

#: 200,256 distinct (z, t) inputs among 12,454,032 values at the seed commit
REPEAT_SHARE = 0.984


def check_workload(workload, scratch: Path) -> list[str]:
    from harness import Runner
    from tracer import LAYER_METRICS, RUN_LEVEL, RepeatCounter, Tracer

    runner = Runner(workload, 0, scratch)
    verdicts = [runner.check(runner.run_pass())]
    with Tracer(repeats=RepeatCounter()) as tracer:
        verdicts.append(runner.check(runner.run_pass(tracer)))
    errors = [f"{workload.name}: {p}" for v in verdicts for p in v.problems]
    layer = tracer.layer_metrics()
    for metric in LAYER_METRICS:
        homes = {w for _, w in metric.moves}
        if workload.name in homes and metric.name not in RUN_LEVEL and not layer[metric.name] > 0:
            errors.append(f"{workload.name}: {metric.name} is {layer[metric.name]}")
    return errors


def check_geometric_count(scratch: Path) -> list[str]:
    import numpy as np

    from harness import Runner
    from tracer import RepeatCounter, Tracer, _hash_rows
    from workloads import Config, Workload

    class ExactRepeats(RepeatCounter):
        """Reference count: one hash of the (z row, t) bytes of every value."""

        def __init__(self):
            super().__init__()
            self.hashes = []

        def add(self, z, t, out_shape):
            z = np.asarray(z, dtype=complex)
            zb = np.broadcast_to(z, tuple(out_shape) + z.shape[-1:]).reshape(-1, z.shape[-1])
            tb = np.broadcast_to(np.asarray(t, dtype=complex), out_shape).reshape(-1, 1)
            self.hashes.append(_hash_rows(np.concatenate([zb, tb], axis=1)))
            self.total += zb.shape[0]

        def share(self):
            return 1.0 - np.unique(np.concatenate(self.hashes)).size / self.total

    workload = Workload("geometric-d2", "", (Config("geometric-d2", "uniform-16", 64),))
    runner = Runner(workload, 0, scratch)
    shares = []
    for counter in (RepeatCounter(), ExactRepeats()):
        with Tracer(repeats=counter) as tracer:
            runner.run_pass(tracer)
        shares.append(counter.share())
    values = tracer.family_values
    print(f"geometric d=2 uniform-16 n=64: {values} family values, repeat share "
          f"{shares[0]:.4f} (per-value reference {shares[1]:.4f})")
    errors = []
    if abs(values - 12.45e6) > 0.01e6:
        errors.append(f"geometric d=2 evaluates {values} family values, expected 12.45M")
    if shares[0] != shares[1]:
        errors.append(f"grouped repeat share {shares[0]} differs from the per-value {shares[1]}")
    if abs(shares[0] - REPEAT_SHARE) > 0.005:
        errors.append(f"geometric d=2 repeat share is {shares[0]:.4f}, expected {REPEAT_SHARE}")
    return errors


def check_spec() -> list[str]:
    from tracer import LAYER_METRICS
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in LAYER_METRICS],
    }
    return [f"BENCHMARK.json {key} differs from the benchmark's tables"
            for key, value in expected.items() if spec.get(key) != value]


def main() -> int:
    cap_threads(THREADS)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, EXCLUDED, memory_refusals

    errors = check_spec()
    for cfg, cost in EXCLUDED:
        verdict = memory_refusals([cfg]) or ["within the memory budget"]
        print(f"excluded {cfg.describe()} ({cost}): {verdict[0]}")
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as scratch:
        for workload in WORKLOADS.values():
            errors += check_workload(workload, Path(scratch))
        errors += check_geometric_count(Path(scratch))
    for error in errors:
        print(f"FAIL {error}")
    print("self-test passed" if not errors else f"self-test failed: {len(errors)} errors")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

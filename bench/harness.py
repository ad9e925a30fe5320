"""Passes over a workload through ``holofubini.cli.main`` and checks of their reports.

A pass calls ``cli.main(["verify", ...])`` once per config of the workload,
one call after another from this process (a closed loop with one caller).
"""

from __future__ import annotations

import csv
import io
import json
import re
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Config, Workload, expected_records, write_family_files

ROOT = Path(__file__).resolve().parent.parent


def readme_fields(readme: Path = ROOT / "README.md") -> set[str]:
    """The record fields the README's "Report records" schema promises."""
    text = readme.read_text()
    match = re.search(r"### Report records.*?```(.*?)```", text, re.S)
    if not match:
        raise ValueError(f"{readme} has no report record schema")
    return set(re.findall(r'"(\w+)":', match.group(1)))


@dataclass
class Pass:
    wall_s: float
    codes: list


@dataclass
class Verdict:
    """Output checks over one pass; ``problems`` empty means every check held."""

    records: int = 0
    passed: int = 0
    failed_calls: int = 0
    problems: list[str] = field(default_factory=list)


class Runner:
    """Holds a workload's inputs in a scratch directory and runs passes over it."""

    def __init__(self, workload: Workload, seed: int, scratch: Path):
        from holofubini import cli

        self.main = cli.main
        self.workload = workload
        self.scratch = scratch
        write_family_files(scratch)
        self.outputs = [scratch / f"report-{i}.{cfg.fmt}" for i, cfg in enumerate(workload.configs)]
        self.argvs = [cfg.argv(scratch, seed, out)
                      for cfg, out in zip(workload.configs, self.outputs)]
        self.fields = readme_fields()
        self.reference: list[bytes] | None = None

    def run_pass(self, tracer=None) -> Pass:
        codes = []
        start = time.perf_counter()
        for i, argv in enumerate(self.argvs):
            if tracer is not None:
                tracer.request = i
            try:
                codes.append(self.main(argv))
            except Exception:  # a crash is a failed call, reported and counted
                traceback.print_exc()
                codes.append(None)
        return Pass(time.perf_counter() - start, codes)

    def reports(self) -> list[bytes]:
        return [out.read_bytes() if out.exists() else b"" for out in self.outputs]

    def check(self, result: Pass) -> Verdict:
        """Check the reports the pass left against the README schema, the exit
        codes, the known defects and the first checked pass's bytes."""
        verdict = Verdict()
        reports = self.reports()
        for cfg, code, report in zip(self.workload.configs, result.codes, reports):
            expected = expected_records(cfg.d)
            verdict.records += expected
            if code not in (0, 1):
                verdict.failed_calls += 1
                verdict.problems.append(f"{cfg.describe()}: exit code {code}")
                continue
            try:
                records = _parse(cfg, report)
            except (ValueError, KeyError) as exc:
                verdict.problems.append(f"{cfg.describe()}: unreadable report: {exc}")
                continue
            problems = _check_records(cfg, code, records, expected, self.fields)
            verdict.problems += [f"{cfg.describe()}: {p}" for p in problems]
            verdict.passed += sum(1 for r in records if r.get("pass") is True)
        if self.reference is None:
            self.reference = reports
        else:
            verdict.problems += [f"{cfg.describe()}: report differs from the first pass"
                                 for cfg, a, b in zip(self.workload.configs, reports,
                                                      self.reference) if a != b]
        return verdict


def _parse(cfg: Config, report: bytes) -> list[dict]:
    text = report.decode()
    if cfg.fmt == "json":
        return [json.loads(line) for line in text.splitlines()]
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        row["pass"] = row["pass"] == "True"
    return rows


def _check_records(cfg: Config, code: int, records: list[dict], expected: int,
                   fields: set[str]) -> list[str]:
    problems = []
    if len(records) != expected:
        problems.append(f"{len(records)} records, expected {expected}")
    wrong = [sorted(set(r) ^ fields) for r in records if set(r) != fields]
    if wrong:
        problems.append(f"{len(wrong)} records differ from the README fields: {wrong[0]}")
    failing = {r.get("check") for r in records if r.get("pass") is not True}
    if (code == 0) != (not failing):
        problems.append(f"exit code {code} with failing checks {sorted(map(str, failing))}")
    unknown = failing - set(cfg.known_failures)
    if unknown:
        problems.append(f"unexpected failing checks {sorted(map(str, unknown))}")
    return problems


SETUP_CHILD = """
import sys
import holofubini
for item in sys.argv[1:]:
    kind, _, value = item.partition("=")
    if kind == "file":
        with open(value) as fh:
            holofubini.family_from_json(fh.read())
    elif kind == "preset":
        holofubini.family_preset(value)
    else:
        holofubini.space_preset(value)
print("ready", flush=True)
"""


def setup_seconds(workload: Workload, scratch: Path, env: dict) -> float:
    """Wall time from starting a fresh interpreter until it has imported
    holofubini (numpy included) and loaded the workload's families and spaces."""
    items = []
    for cfg in workload.configs:
        items.append(f"file={scratch / cfg.family}.json" if cfg.from_file
                     else f"preset={cfg.family}")
        items.append(f"space={cfg.space}")
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, *items], stdout=subprocess.PIPE,
                          env=env, cwd=ROOT, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up child exited {child.returncode} before it was ready")
    return elapsed

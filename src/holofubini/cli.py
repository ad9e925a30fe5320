"""Command-line harness: assemble spaces, families, and functionals, run the
checker battery, and emit JSON-lines or CSV reports.

Exit codes: 0 when every check passes, 1 on any violation, 2 on usage or
configuration errors and on a report that cannot be written.  Reports are written
only after the whole battery has run, in canonical order, so identical
configurations and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path

import numpy as np

from . import theorems
from .cauchy import FFT_BLOCK, MAX_TAYLOR_DEGREE
from .domain import CONTOUR_SHRINK, parse_complex
from .family import (FLOOR_NODES, ContourSample, HoloFamily, family_from_json, family_preset,
                     preset_names)
from .functional import (MeasureFunctional, derivative_functional, dirac,
                         functional_from_json, random_measure)
from .measure import ROW_BLOCK, FiniteMeasureSpace, space_from_json, space_preset

#: the battery's checks, in the order of :data:`theorems.CHECKS`, which says for each
#: the calls that run it, the dimensions it applies at and what it holds
CHECK_NAMES = tuple(theorems.CHECKS)

USAGE_ERROR = 2

#: Bytes of complex values the arrays a run holds at once may take
#: (:func:`_counted_values`).  With the default functionals it admits every benchmark
#: configuration, d = 3 with 256 atoms at 64 nodes and d = 4 with 16 atoms at 32 nodes,
#: and refuses d = 4 with 16 atoms at 64 nodes and d = 5 with 1 atom at 32 nodes.
WORK_BUDGET_BYTES = 4 * 2**30


class ConfigError(Exception):
    pass


def _counted_values(config: SuiteConfig) -> int:
    """Complex values the arrays of a run of ``config`` may take at once: one sum of the
    terms below.  A property test holds it to the ``tracemalloc`` peak of building and
    running small configurations: the peak lies under it, and it lies within 3 times
    the peak wherever the run holds a contour sample's values of 1 MiB or more.  It still
    counts a product kind's n^d k sample and Taylor table, held as axis samples and axis
    tables, and a derivative functional's n^d weights, held as d rows of powers, so
    that it admits no configuration it refused before."""
    fam, k, n = config.family, config.space.natoms, config.n
    d, sample = fam.d, ContourSample(fam, config.space, n)
    checks = [theorems.CHECKS[name] for name in config.checks]
    # the run's contour and, below FLOOR_NODES nodes, the one floor contour the sample
    # keeps for order_bound, schwarz and telescoping (Check.floor), each with per node
    # the sample (k), the grid (d) and diff_under_integral's pairing z -> <F(z), h> with
    # its transform (2), and per atom the Taylor table of degree n // 2 - 1, at least 2
    # and at most MAX_TAYLOR_DEGREE; a product kind's planes of n^(d-1) k floats, the
    # product of its axes but the last, and order_bound's block of its table's columns
    # fall under these terms (the property test's exponential d = 3 example)
    floor = n < FLOOR_NODES and any(check.floor for check in checks)
    sides = [n] + ([FLOOR_NODES] if floor else [])
    nodes = sum(m ** d for m in sides)
    contour = nodes * (k + d + 2) + sum(
        max(3, min(m // 2, MAX_TAYLOR_DEGREE + 1)) ** d * k for m in sides)
    # per functional node: its weight and, off the contour, its coordinates and values
    functionals = sum(phi.size * (1 if sample.on_contour(phi) else 1 + d + k)
                      for phi in config.functionals)
    # the largest blocked transient: an evaluation block of ROW_BLOCK values or one row
    # with its arguments and result (d + 2 per value), an FFT block of FFT_BLOCK values
    # or one column, with order_bound's magnitudes of it, and at least 8 EVAL_BLOCK,
    # where constant overheads dominate.  The floor also holds a block's product with
    # every dual stack and the weights in the contour pass (at most ROW_BLOCK values or
    # one row) while ROW_BLOCK <= 8 EVAL_BLOCK, and a block of derivative_profile's
    # atoms (at most 5 values per value of one atom's whole contours: their even half
    # with its FFT and, for the atoms its estimate leaves unresolved, the odd half, the
    # whole and its FFT) while 5 PROFILE_NODES PROFILE_GRID <= 8 EVAL_BLOCK
    rows = min(nodes, max(1, ROW_BLOCK // k))
    transients = max(8 * theorems.EVAL_BLOCK, (d + 2) * rows * k,
                     min(nodes * k, max(FFT_BLOCK, nodes)))
    # per atom: each exponent's ten dual vectors with the memo's copy of them (20),
    # the closed-form vectors of |alpha| <= 2, each functional's slice and closed-form
    # vectors (2) and what each check holds (Check.per_atom)
    per_atom = k * (20 * len(config.p_list) + len(theorems._alpha_battery(d))
                    + 2 * len(config.functionals) + sum(check.per_atom for check in checks))
    return contour + functionals + transients + per_atom


def _check_work_budget(config: SuiteConfig) -> None:
    """Raise :class:`ConfigError` when :func:`_counted_values` exceeds the budget."""
    values = _counted_values(config)
    need = values * np.dtype(complex).itemsize
    if need > WORK_BUDGET_BYTES:
        raise ConfigError(
            f"d = {config.family.d}, {config.space.natoms} atoms and --nodes {config.n} need "
            f"{need / 2**30:.2f} GiB for {values} complex values, over "
            f"the work budget of {WORK_BUDGET_BYTES / 2**30:.2f} GiB"
        )


@dataclass
class SuiteConfig:
    """Validated run configuration; building it performs all precondition checks."""

    family: HoloFamily
    space: FiniteMeasureSpace
    functionals: list[MeasureFunctional]
    p_list: list[float]
    n: int = 64
    shrink: float = 0.5
    seed: int = 0
    output: str | None = None
    fmt: str = "json"
    checks: tuple[str, ...] = CHECK_NAMES

    def __post_init__(self):
        if self.n < 4:
            raise ConfigError(f"--nodes must be at least 4, got {self.n}")
        if self.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {self.seed}")
        if not 0.0 < self.shrink <= 0.9:
            raise ConfigError(f"--shrink must lie in (0, 0.9], got {self.shrink}")
        unknown = set(self.checks) - set(CHECK_NAMES)
        if unknown:
            raise ConfigError(f"unknown checks: {sorted(unknown)}")
        selected, d = self.checks, self.family.d
        self.checks = tuple(c for c in selected if theorems.CHECKS[c].applies(d))
        if not self.checks:
            raise ConfigError(f"no selected check applies at d = {d}: {', '.join(selected)}")
        for p in self.p_list:
            if not p >= 1:
                raise ConfigError(f"exponents must satisfy p >= 1, got {p}")
        if len(set(self.p_list)) != len(self.p_list):
            raise ConfigError(f"--p repeats an exponent: {self.p_list}")
        labels = [phi.label for phi in self.functionals]
        for label in labels:
            if labels.count(label) > 1:
                raise ConfigError(f"--functional repeats the label {label!r}; give each "
                                  "functional its own (a JSON functional sets \"label\")")
        _check_work_budget(self)
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"--format must be json or csv, got {self.fmt}")
        if self.output and (Path(self.output).is_dir() or not Path(self.output).parent.is_dir()):
            raise ConfigError(f"--output {self.output} is a directory or lies in a missing one")
        self.family.validate_on(self.space)
        for phi in self.functionals:
            if phi.d != self.family.d:
                raise ConfigError(
                    f"functional {phi.label!r} has dimension {phi.d}, family needs {self.family.d}"
                )
            if not self.family.domain.contains_all(phi.coordinates):
                raise ConfigError(
                    f"functional {phi.label!r} has nodes outside the family domain"
                )


def default_functionals(fam: HoloFamily, n: int, shrink: float, seed: int):
    """The stock battery: the defaults of the ``dirac``, ``derivative`` and ``random``
    specs of :func:`_parse_functional` (a Dirac node, the first-order derivative
    functional at the domain center and a seeded 8-node random measure), with the
    second-order derivative functional on the same contour after the first, whose
    values both read from the contour sample; neither keeps the grid."""
    point, first, sampled = (_parse_functional(kind, fam, n, shrink, seed)
                             for kind in ("dirac", "derivative", "random"))
    second = derivative_functional(first.center, (2,) + first.alpha[1:], first.radii, n=n)
    return [point, first, second, sampled]


def _random_duals(space: FiniteMeasureSpace, rng) -> list[np.ndarray]:
    """The ten random dual vectors that linearization and fubini draw per exponent."""
    return [rng.standard_normal(space.natoms) + 1j * rng.standard_normal(space.natoms)
            for _ in range(10)]


def run_suite(config: SuiteConfig) -> tuple[int, list[dict]]:
    """Run the configured battery; returns (exit_code, report_records)."""
    rng = np.random.default_rng(config.seed)
    duals = {p: np.array(_random_duals(config.space, rng)) for p in config.p_list}
    sample = ContourSample(config.family, config.space, config.n, config.functionals,
                           config.checks, config.shrink, config.seed, duals)
    records = [_record(rep, config) for rep in theorems.run_checks(sample, duals)]
    records.sort(key=lambda r: (r["check"], r["family"], r["functional"],
                                str(r["p"]), str(r["alpha"])))
    exit_code = 0 if all(r["pass"] for r in records) else 1
    return exit_code, records


def _number(value):
    """``value`` as a float, or as "inf", "-inf" or "nan", which strict JSON cannot hold."""
    value = float(value)
    return value if math.isfinite(value) else str(value)


def _jsonify_side(value):
    if isinstance(value, complex):
        return [_number(value.real), _number(value.imag)]
    return _number(value)


#: the keys of every report record, in the order of the CSV columns
RECORD_FIELDS = ("check", "family", "functional", "p", "alpha", "lhs", "rhs",
                 "residual", "tol", "pass", "n", "seed")


def _record(rep: theorems.CheckReport, config: SuiteConfig) -> dict:
    p = rep.params.get("p")
    values = (rep.name, rep.family, rep.functional, None if p is None else _number(p),
              rep.params.get("alpha"), _jsonify_side(rep.lhs), _jsonify_side(rep.rhs),
              _number(rep.residual), _number(rep.tol), bool(rep.passed),
              rep.params.get("n", config.n), config.seed)
    return dict(zip(RECORD_FIELDS, values, strict=True))


def _emit(records: list[dict], fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = "".join(json.dumps(r, sort_keys=True, allow_nan=False) + "\n" for r in records)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=RECORD_FIELDS)
        writer.writeheader()
        for r in records:
            row = dict(r)
            for key in ("alpha", "lhs", "rhs"):
                if isinstance(row[key], list):
                    row[key] = json.dumps(row[key])
            writer.writerow(row)
        text = buf.getvalue()
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing


def _parse_point(text: str) -> np.ndarray:
    return parse_complex([part for part in text.split(",") if part], axes=1)


def _parse_p_list(text: str) -> list[float]:
    out = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        try:
            out.append(math.inf if part == "oo" else float(part))
        except ValueError:
            raise ConfigError(f"cannot parse exponent {part!r}") from None
    if not out:
        raise ConfigError("--p needs at least one exponent")
    return out


def _load_family(args) -> HoloFamily:
    if args.family_file:
        return family_from_json(Path(args.family_file).read_text())
    name = args.family or "geometric"
    try:
        return family_preset(name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_space(text: str) -> FiniteMeasureSpace:
    if text.endswith(".json") or "/" in text:
        return space_from_json(Path(text).read_text())
    try:
        return space_preset(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_functional(text: str, fam: HoloFamily, n: int, shrink: float,
                      seed: int) -> MeasureFunctional:
    if text.endswith(".json") or "/" in text:
        return functional_from_json(Path(text).read_text())
    kind, _, rest = text.partition(":")
    if kind == "dirac":
        z0 = _parse_point(rest) if rest else fam.domain.center + 0.5 * shrink * fam.domain.radius
        return dirac(z0)
    if kind == "derivative":
        if rest:
            a_text, _, alpha_text = rest.partition(":")
            a = _parse_point(a_text)
            alpha = tuple(int(x) for x in alpha_text.split(",")) if alpha_text \
                else (1,) * fam.d
        else:
            a = fam.domain.center
            alpha = (1,) + (0,) * (fam.d - 1)
        # the largest polydisc about a inside the domain, shrunk as the run's contour is
        radii = CONTOUR_SHRINK * (fam.domain.radius - np.abs(a - fam.domain.center))
        if not np.all(radii > 0):
            raise ConfigError(f"functional {text!r} has its center outside the family domain")
        try:
            return derivative_functional(a, alpha, radii, n=n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if kind == "random":
        k = int(rest) if rest else 8
        return random_measure(fam.domain, k=k, shrink=shrink, seed=seed)
    raise ConfigError(f"cannot parse functional {text!r}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="holofubini",
        description="Quadrature verification of interchange identities for "
                    "holomorphic families over discretized Lp spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--family", help="registered family preset name (default geometric)")
    shared.add_argument("--family-file", help="JSON family definition")
    shared.add_argument("--space", default="uniform-16",
                        help="space preset (uniform-k | geometric-k) or JSON file")
    shared.add_argument("--functional", action="append", default=None,
                        help="dirac:z0 | derivative:a:alpha | random:k | file.json "
                             "(repeatable)")
    shared.add_argument("--p", default="1,2,inf", help="comma-separated exponents")
    shared.add_argument("--nodes", type=int, default=64, help="quadrature nodes per variable")
    shared.add_argument("--shrink", type=float, default=0.5,
                        help="fraction of the domain radii within which span, "
                             "telescoping, order_bound and schwarz draw their points and "
                             "the default Dirac and random functionals place their nodes")
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--output", default=None, help="report path (default stdout)")
    shared.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    sub.add_parser("verify", parents=[shared], help="run the full checker battery")
    single = sub.add_parser("check", parents=[shared], help="run one named checker")
    single.add_argument("name", choices=CHECK_NAMES)
    sub.add_parser("describe", help="list presets, functional grammar, and checks")
    return parser


def _build_config(args, checks) -> SuiteConfig:
    """Check everything but the functionals before building them, then those: the
    defaults only where a check reads them."""
    fam = _load_family(args)
    config = SuiteConfig(
        family=fam, space=_load_space(args.space), functionals=[],
        p_list=_parse_p_list(args.p), n=args.nodes, shrink=args.shrink,
        seed=args.seed, output=args.output, fmt=args.fmt, checks=checks,
    )
    functionals = []
    if args.functional:
        functionals = [_parse_functional(entry, fam, args.nodes, args.shrink, args.seed)
                       for entry in args.functional]
    elif any(theorems.CHECKS[name].functionals for name in config.checks):
        try:
            functionals = default_functionals(fam, args.nodes, args.shrink, args.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return replace(config, functionals=functionals)


def _describe() -> None:
    print("family presets:")
    for name in preset_names():
        fam = family_preset(name)
        print(f"  {name:<12} kind={fam.kind} d={fam.d}")
    print("space presets: uniform-<k>, geometric-<k> (atoms in [-1, 1])")
    print("functional specs: dirac:<z0>, derivative:<a>:<alpha>, random:<k>, <file.json>")
    print("checks:", ", ".join(CHECK_NAMES))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0

    if args.command == "describe":
        _describe()
        return 0

    checks = CHECK_NAMES if args.command == "verify" else (args.name,)
    try:
        config = _build_config(args, checks)
    except (ConfigError, ValueError, TypeError, KeyError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    exit_code, records = run_suite(config)
    try:
        _emit(records, config.fmt, config.output)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if exit_code != 0:
        failing = [r for r in records if not r["pass"]]
        for r in failing:
            print(
                f"violation: {r['check']} family={r['family']} "
                f"functional={r['functional']} residual={float(r['residual']):.3e} "
                f"tol={float(r['tol']):.1e}",
                file=sys.stderr,
            )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness: assemble spaces, families, and functionals, run the
checker battery, and emit JSON-lines or CSV reports.

Exit codes: 0 when every check passes, 1 on any violation, 2 on usage or
configuration errors.  Reports are written only after the whole battery has
run, in canonical order, so identical configurations and seeds produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import theorems
from .cauchy import MAX_TAYLOR_DEGREE, MIN_ORDER_BOUND_DEGREE
from .domain import CONTOUR_SHRINK, parse_complex, sample_polydisc
from .family import ContourSample, HoloFamily, family_from_json, family_preset, preset_names
from .functional import (MeasureFunctional, derivative_functional, dirac,
                         functional_from_json, random_measure)
from .measure import FiniteMeasureSpace, space_from_json, space_preset
from .theorems import CheckReport

def _linearization(config, duals, rng, sample):
    # p outer: the functionals on the contour meet each stack in turn and share its
    # pairing (ContourSample.pairing); the records are sorted afterwards
    for p in config.p_list:
        for phi in config.functionals:
            yield partial(theorems.linearization_residual, phi, sample, duals[p], p=p)


def _fubini(config, duals, rng, sample):
    for phi in config.functionals:
        for p in config.p_list:
            yield partial(theorems.fubini_residual, phi, sample, duals[p], p)


def _derivative_consistency(config, duals, rng, sample):
    yield partial(theorems.derivative_consistency, sample, _alpha_battery(config.family.d),
                  p=config.p_list)


def _diff_under_integral(config, duals, rng, sample):
    yield partial(theorems.diff_under_integral, sample, np.ones(config.space.natoms),
                  _alpha_battery(config.family.d))


def _norm_bound(config, duals, rng, sample):
    yield partial(theorems.norm_bound_check, config.functionals, sample, config.p_list)


def _span(config, duals, rng, sample):
    fam, space = config.family, config.space
    for phi in config.functionals:
        if fam.span_dim is not None:
            samples = list(sample_polydisc(fam.domain, fam.span_dim, config.shrink, rng))
            yield partial(theorems.span_residual, phi, sample, samples)
        else:
            k = min(8, space.natoms)
            samples = list(sample_polydisc(fam.domain, k, config.shrink, rng))
            more = sample_polydisc(fam.domain, k, config.shrink, rng)
            yield partial(theorems.span_monotonicity, phi, sample, samples, more)


def _schwarz(config, duals, rng, sample):
    yield partial(theorems.schwarz_check, sample, seed=config.seed)


def _telescoping(config, duals, rng, sample):
    yield partial(theorems.telescoping_residual, sample, sample_shrink=config.shrink,
                  seed=config.seed)


def _order_bound(config, duals, rng, sample):
    yield partial(theorems.order_bound_check, sample, shrink=config.shrink, seed=config.seed)


def _derivative_profile(config, duals, rng, sample):
    yield partial(theorems.derivative_profile, sample)


#: check name -> generator of the calls that run it, given (config, duals by p, rng,
#: the run's ContourSample).  One sample serves the whole run, so each point set that
#: several checks read is evaluated once.  Checkers are looked up on ``theorems`` when
#: a call is built, so rebinding them there (e.g. to trace them) reaches the battery.
CHECKS = {
    "linearization": _linearization,
    "fubini": _fubini,
    "derivative_consistency": _derivative_consistency,
    "diff_under_integral": _diff_under_integral,
    "norm_bound": _norm_bound,
    "span": _span,
    "schwarz": _schwarz,
    "telescoping": _telescoping,
    "order_bound": _order_bound,
    "derivative_profile": _derivative_profile,
}
CHECK_NAMES = tuple(CHECKS)
#: check name -> whether it applies at dimension d; a check not listed applies at every d.
#: A run keeps the selected checks that apply and refuses a selection where none does.
DIMENSIONS = {
    "schwarz": lambda d: d == 1,
    "telescoping": lambda d: d >= 2,
    "derivative_profile": lambda d: d == 1,
}

USAGE_ERROR = 2

#: Bytes of complex values the arrays a run holds at once may take.  With the
#: default functionals it admits every benchmark configuration, d = 3 with 256 atoms
#: at 32 nodes (0.34 GiB) and d = 4 with 16 atoms at 32 nodes (1.11 GiB), and refuses
#: d = 4 at 64 nodes with 16 atoms (15.25 GiB) or with 1 atom (5.52 GiB).
WORK_BUDGET_BYTES = 4 * 2**30


class ConfigError(Exception):
    pass


def _contour_values_per_node(fam: HoloFamily, k: int) -> int:
    """Complex values per contour node that building the sample and its table takes
    beyond :func:`_held_values`: 1.5k for the FFT's first full-size transform beside
    its first kept half, or the geometric kind's (nodes, k, d) arguments where more,
    and 5d for the grid's points and the transients of the grid and the domain test."""
    atoms = max(3 * k // 2, fam.d * k) if fam.kind == "geometric" else 3 * k // 2
    return atoms + 5 * fam.d


def _profile_values(k: int) -> int:
    """Complex values the budget counts for the d = 1 derivative_profile on k atoms,
    whatever the run's n: its (PROFILE_MAX_ORDER + 1) x PROFILE_GRID x k float
    magnitudes, the region grid and one block of contours of PROFILE_NODES nodes.  A
    block of at most EVAL_BLOCK values counts as 8 x EVAL_BLOCK; once one contour takes
    more, the block is that contour, counted as 5 PROFILE_NODES k: under tracemalloc a
    contour of n nodes held 3.0 n k on 4,096 atoms (its evaluation, the FFT's full
    transform and the kept orders) and up to 4.1 n k at n k = 16,384, where the
    polynomial kinds' evaluation transients weigh more."""
    grid = theorems.PROFILE_GRID
    block = max(8 * theorems.EVAL_BLOCK, 5 * theorems.PROFILE_NODES * k)
    return (theorems.PROFILE_MAX_ORDER + 1) * grid * k // 2 + grid + block


def _held_values(config: SuiteConfig) -> int:
    """Complex values a run holds across its checks: the contour sample and its Taylor
    table of degree max(2, min(n // 2 - 1, MAX_TAYLOR_DEGREE)), the ten dual vectors
    per exponent with the sample's one copy of each stack, and each functional's nodes
    and weights, slice vector and, off the contour, node values."""
    fam, k, n = config.family, config.space.natoms, config.n
    table = max(3, min(n // 2, MAX_TAYLOR_DEGREE + 1)) ** fam.d
    sample = ContourSample(fam, config.space, n)
    functionals = sum((fam.d + 1) * len(phi.nodes) + k
                      + (0 if sample.on_contour(phi) else len(phi.nodes) * k)
                      for phi in config.functionals)
    return (n ** fam.d + table) * k + 20 * k * len(config.p_list) + functionals


def _counted_values(config: SuiteConfig) -> int:
    """:func:`_held_values` plus the largest of the checks' own arrays: building the
    contour sample and its table; below 16 nodes, order_bound's own 16-node sample and
    table; at d = 1, :func:`_profile_values`.  order_bound and schwarz evaluate their
    points for blocks of atoms of about EVAL_BLOCK values."""
    fam, k, n = config.family, config.space.natoms, config.n
    floor = 2 * MIN_ORDER_BOUND_DEGREE + 2
    own_sample = floor ** fam.d * (k + _contour_values_per_node(fam, k)) \
        + (floor // 2) ** fam.d * k if n < floor else 0
    return _held_values(config) + max(n ** fam.d * _contour_values_per_node(fam, k),
                                      own_sample, _profile_values(k) if fam.d == 1 else 0)


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
        self.checks = tuple(c for c in selected if DIMENSIONS.get(c, lambda _: True)(d))
        if not self.checks:
            raise ConfigError(f"no selected check applies at d = {d}: {', '.join(selected)}")
        for p in self.p_list:
            if not p >= 1:
                raise ConfigError(f"exponents must satisfy p >= 1, got {p}")
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
            if not self.family.domain.contains_all(phi.nodes, 1.0):
                raise ConfigError(
                    f"functional {phi.label!r} has nodes outside the family domain"
                )


def default_functionals(fam: HoloFamily, n: int, shrink: float, seed: int):
    """The stock battery: the defaults of the ``dirac``, ``derivative`` and ``random``
    specs of :func:`_parse_functional` (a Dirac node, the first-order derivative
    functional at the domain center and a seeded 8-node random measure), with the
    second-order derivative functional on the same contour after the first."""
    point, first, sampled = (_parse_functional(kind, fam, n, shrink, seed)
                             for kind in ("dirac", "derivative", "random"))
    second = derivative_functional(first.center, (2,) + first.alpha[1:], first.radii, n=n)
    return [point, first, second, sampled]


def _random_duals(space: FiniteMeasureSpace, rng) -> list[np.ndarray]:
    """The ten random dual vectors that linearization and fubini draw per exponent."""
    return [rng.standard_normal(space.natoms) + 1j * rng.standard_normal(space.natoms)
            for _ in range(10)]


def _alpha_battery(d: int, max_total: int = 2):
    alphas = [a for a in np.ndindex(*(max_total + 1,) * d) if sum(a) <= max_total]
    return sorted(alphas, key=lambda a: (sum(a), a))


def run_suite(config: SuiteConfig) -> tuple[int, list[dict]]:
    """Run the configured battery; returns (exit_code, report_records)."""
    rng = np.random.default_rng(config.seed)
    duals = {p: _random_duals(config.space, rng) for p in config.p_list}
    sample = ContourSample(config.family, config.space, config.n)
    reports: list[CheckReport] = []
    for name, calls in CHECKS.items():
        if name not in config.checks:
            continue
        for call in calls(config, duals, rng, sample):
            try:
                result = call()
            except (ValueError, ArithmeticError) as exc:
                result = CheckReport.failed(name, config.family.label, exc)
            reports.extend(result if isinstance(result, list) else [result])

    records = [_record(rep, config) for rep in reports]
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


def _record(rep: CheckReport, config: SuiteConfig) -> dict:
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
    return np.array([parse_complex(part) for part in text.split(",") if part], dtype=complex)


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


def build_parser() -> argparse.ArgumentParser:
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
    shared.add_argument("--shrink", type=float, default=0.5, help="sampling shrink factor")
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--output", default=None, help="report path (default stdout)")
    shared.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    sub.add_parser("verify", parents=[shared], help="run the full checker battery")
    single = sub.add_parser("check", parents=[shared], help="run one named checker")
    single.add_argument("name", choices=CHECK_NAMES)
    sub.add_parser("describe", help="list presets, functional grammar, and checks")
    return parser


def _build_config(args, checks) -> SuiteConfig:
    """Check everything but the functionals before building them, then those."""
    fam = _load_family(args)
    config = SuiteConfig(
        family=fam, space=_load_space(args.space), functionals=[],
        p_list=_parse_p_list(args.p), n=args.nodes, shrink=args.shrink,
        seed=args.seed, output=args.output, fmt=args.fmt, checks=checks,
    )
    if args.functional:
        functionals = [
            _parse_functional(entry, fam, args.nodes, args.shrink, args.seed)
            for entry in args.functional
        ]
    else:
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
    _emit(records, config.fmt, config.output)
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

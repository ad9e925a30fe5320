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
from .cauchy import MIN_ORDER_BOUND_DEGREE
from .domain import CONTOUR_SHRINK, parse_complex, sample_polydisc
from .family import HoloFamily, family_from_json, family_preset, preset_names
from .functional import (MeasureFunctional, derivative_functional, dirac,
                         functional_from_json, random_measure)
from .measure import FiniteMeasureSpace, space_from_json, space_preset
from .theorems import CheckReport

def _tol(config) -> dict:
    """``--tol`` as a checker keyword, or no keyword, so each checker keeps its default."""
    return {} if config.tol is None else {"tol": config.tol}


def _profile_reports(fam, space, grid, n, sampler) -> list[CheckReport]:
    """A finiteness report per derivative order up to PROFILE_MAX_ORDER on the --grid grid."""
    points = theorems.sup_grid(fam.domain, grid, 0.9)
    local = (CONTOUR_SHRINK - 0.9) * fam.domain.radius
    return [
        CheckReport.build("derivative_profile", fam.label, "", prof.sup_integral,
                          float(prof.profile.max()), 0.0 if prof.finite else math.inf, 0.0,
                          alpha=[prof.order])
        for prof in theorems.derivative_profile(fam, space, PROFILE_MAX_ORDER, list(points),
                                                local, n=n, sampler=sampler)
    ]


def _linearization(config, duals, rng, sampler):
    for phi in config.functionals:
        for p in config.p_list:
            yield partial(theorems.linearization_residual, phi, config.family, config.space,
                          duals[p], p=p, sampler=sampler, **_tol(config))


def _fubini(config, duals, rng, sampler):
    for phi in config.functionals:
        for p in config.p_list:
            yield partial(theorems.fubini_residual, phi, config.family, duals[p],
                          config.space, p, sampler=sampler, **_tol(config))


def _derivative_consistency(config, duals, rng, sampler):
    fam = config.family
    yield partial(theorems.derivative_consistency, fam, config.space, fam.domain.center,
                  _alpha_battery(fam.d), fam.domain.radius * CONTOUR_SHRINK, n=config.n,
                  p=config.p_list, sampler=sampler, **_tol(config))


def _diff_under_integral(config, duals, rng, sampler):
    fam = config.family
    for alpha in _alpha_battery(fam.d):
        yield partial(theorems.diff_under_integral, fam, np.ones(config.space.natoms),
                      config.space, fam.domain.center, alpha,
                      fam.domain.radius * CONTOUR_SHRINK, n=config.n, sampler=sampler,
                      **_tol(config))


def _norm_bound(config, duals, rng, sampler):
    for p in config.p_list:
        yield partial(theorems.norm_bound_check, config.functionals, config.family,
                      config.space, p, n=config.n, sampler=sampler)


def _span(config, duals, rng, sampler):
    fam, space = config.family, config.space
    for phi in config.functionals:
        if fam.span_dim is not None:
            samples = list(sample_polydisc(fam.domain, fam.span_dim, config.shrink, rng))
            yield partial(theorems.span_residual, phi, fam, space, samples, sampler=sampler)
        else:
            k = min(8, space.natoms)
            samples = list(sample_polydisc(fam.domain, k, config.shrink, rng))
            more = sample_polydisc(fam.domain, k, config.shrink, rng)
            yield partial(theorems.span_monotonicity, phi, fam, space, samples, more,
                          sampler=sampler)


def _schwarz(config, duals, rng, sampler):
    if config.family.d == 1:
        yield partial(theorems.schwarz_check, config.family, config.space, seed=config.seed,
                      n=config.n)


def _telescoping(config, duals, rng, sampler):
    if config.family.d >= 2:
        yield partial(theorems.telescoping_residual, config.family, config.space,
                      sample_shrink=config.shrink, seed=config.seed, n=config.n,
                      sampler=sampler)


def _order_bound(config, duals, rng, sampler):
    yield partial(theorems.order_bound_check, config.family, config.space,
                  shrink=config.shrink, seed=config.seed, n=config.n, sampler=sampler)


def _derivative_profile(config, duals, rng, sampler):
    if config.family.d == 1:
        yield partial(_profile_reports, config.family, config.space, config.grid, config.n,
                      sampler)


#: check name -> generator of the calls that run it, given (config, duals by p, rng,
#: sampler).  The sampler (``HoloFamily.sampler``) is shared by the whole run, so each
#: boundary point set is evaluated once; given None, each checker samples for itself.
#: Checkers are looked up on ``theorems`` when a call is built, so rebinding them
#: there (e.g. to trace them) reaches the battery.
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

USAGE_ERROR = 2
#: derivative_profile reports orders 0..PROFILE_MAX_ORDER
PROFILE_MAX_ORDER = 4

#: Bytes of complex values the largest arrays a run holds at once may take.  It
#: admits every benchmark configuration, d = 3 with 256 atoms at 32 nodes (0.38 GiB)
#: and d = 4 with 16 atoms at 32 nodes (1.06 GiB), and refuses d = 4 at 64 nodes
#: with 16 atoms (17.00 GiB) or with 1 atom (5.75 GiB).
WORK_BUDGET_BYTES = 4 * 2**30


class ConfigError(Exception):
    pass


def _check_work_budget(fam: HoloFamily, space: FiniteMeasureSpace, n: int, grid: int) -> None:
    """Raise :class:`ConfigError` when the run's largest arrays would exceed the budget.

    Counted in complex values, they are the largest of: the n^d contour grid with
    3k + 5d values per node (the sample, its evaluation's transients and the FFT's
    first transform, 539 per node at d = 3, k = 256 under tracemalloc; points, the
    sampler's copy and key, the domain test's transients); the order_bound table's
    max(n, 16)^d x k grid; and, at d = 1, the grid * n * k derivative_profile values.
    """
    k = space.natoms
    values = max(n ** fam.d * (3 * k + 5 * fam.d),
                 max(n, 2 * MIN_ORDER_BOUND_DEGREE + 2) ** fam.d * k,
                 grid * n * k if fam.d == 1 else 0)
    need = values * np.dtype(complex).itemsize
    if need > WORK_BUDGET_BYTES:
        raise ConfigError(
            f"d = {fam.d}, {k} atoms, --nodes {n} and --grid {grid} need "
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
    grid: int = 32
    tol: float | None = None
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
        if self.grid < 4:
            raise ConfigError(f"--grid must be at least 4, got {self.grid}")
        if (self.family.d == 1 and "derivative_profile" in self.checks
                and self.n <= PROFILE_MAX_ORDER + 1):
            raise ConfigError(f"derivative_profile needs --nodes above {PROFILE_MAX_ORDER + 1} "
                              f"at d = 1 to read order {PROFILE_MAX_ORDER}, got {self.n}")
        if self.tol is not None and not self.tol > 0:
            raise ConfigError(f"--tol must be positive, got {self.tol}")
        for p in self.p_list:
            if not p >= 1:
                raise ConfigError(f"exponents must satisfy p >= 1, got {p}")
        _check_work_budget(self.family, self.space, self.n, self.grid)
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"--format must be json or csv, got {self.fmt}")
        if self.output and (Path(self.output).is_dir() or not Path(self.output).parent.is_dir()):
            raise ConfigError(f"--output {self.output} is a directory or lies in a missing one")
        unknown = set(self.checks) - set(CHECK_NAMES)
        if unknown:
            raise ConfigError(f"unknown checks: {sorted(unknown)}")
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
    """The stock battery: a Dirac node, first- and second-order derivative
    functionals at the domain center, and a seeded 8-node random measure."""
    offset = fam.domain.center + 0.5 * shrink * fam.domain.radius
    contour = fam.domain.radius * CONTOUR_SHRINK
    alpha1 = (1,) + (0,) * (fam.d - 1)
    alpha2 = (2,) + (0,) * (fam.d - 1)
    return [
        dirac(offset),
        derivative_functional(fam.domain.center, alpha1, contour, n=n),
        derivative_functional(fam.domain.center, alpha2, contour, n=n),
        random_measure(fam.domain, k=8, shrink=shrink, seed=seed),
    ]


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
    sampler = config.family.sampler(config.space)
    reports: list[CheckReport] = []
    for name, calls in CHECKS.items():
        if name not in config.checks:
            continue
        for call in calls(config, duals, rng, sampler):
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


def _record(rep: CheckReport, config: SuiteConfig) -> dict:
    p = rep.params.get("p")
    return {
        "check": rep.name,
        "family": rep.family,
        "functional": rep.functional,
        "p": None if p is None else _number(p),
        "alpha": rep.params.get("alpha"),
        "lhs": _jsonify_side(rep.lhs),
        "rhs": _jsonify_side(rep.rhs),
        "residual": _number(rep.residual),
        "tol": _number(rep.tol),
        "pass": bool(rep.passed),
        "n": config.n,
        "seed": config.seed,
    }


def _emit(records: list[dict], fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = "".join(json.dumps(r, sort_keys=True, allow_nan=False) + "\n" for r in records)
    else:
        buf = io.StringIO()
        fields = ["check", "family", "functional", "p", "alpha", "lhs", "rhs",
                  "residual", "tol", "pass", "n", "seed"]
        writer = csv.DictWriter(buf, fieldnames=fields)
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
    contour = fam.domain.radius * CONTOUR_SHRINK
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
        try:
            return derivative_functional(a, alpha, contour, n=n)
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
    shared.add_argument("--grid", type=int, default=32,
                        help="derivative_profile region grid points (d = 1 only)")
    shared.add_argument("--tol", type=float, default=None, help="identity tolerance override")
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
        grid=args.grid, tol=args.tol, seed=args.seed, output=args.output,
        fmt=args.fmt, checks=checks,
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

"""Spans and counters at holofubini's layer boundaries, recorded from outside.

The tracer replaces each traced function with a wrapper at every place it is
bound: a name imported into several modules (``derivative_rule`` lives in
``cauchy``, ``functional`` and ``theorems``) is rebound in each of them, and
methods are replaced on their class.  Nothing under ``src/`` changes, and
``uninstall`` restores every binding.

Each call of a wrapped function records a span (name, parent span, request,
start, end, duration).  Time spent in the wrappers and counters is taken out
of every enclosing span's duration, so bookkeeping never lands in a layer.
A span's self time is its duration minus its children's durations.
Family values are counted at each kind's ``_evaluate``, because
``slice_supnorm`` bypasses ``eval``.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import BATTERY_D2, BATTERY_D3, SWEEP

KINDS = ("constant", "polynomial", "geometric", "exponential", "separable", "tabulated_taylor")

#: check name -> the theorems functions that implement it
CHECKS = {
    "linearization": ("linearization_residual",),
    "fubini": ("fubini_residual",),
    "derivative_consistency": ("derivative_consistency",),
    "diff_under_integral": ("diff_under_integral",),
    "norm_bound": ("norm_bound_check",),
    "span": ("span_residual", "span_monotonicity"),
    "schwarz": ("schwarz_check",),
    "telescoping": ("telescoping_residual",),
    "order_bound": ("order_bound_check",),
    "derivative_profile": ("derivative_profile",),
}


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: (end-to-end metric, workload) pairs this layer metric should move
    moves: tuple[tuple[str, str], ...]


def _metrics(names, moves, unit=None, better="lower") -> list[LayerMetric]:
    """Layer metrics with one prediction; the unit follows the name unless given."""
    out = []
    for name in names:
        timed = name.endswith((".s", ".self_s")) or ".self_s." in name
        out.append(LayerMetric(name, unit or ("s" if timed else "count"), better, tuple(moves)))
    return out


def _span(span, moves, suffixes=("calls", "self_s")) -> list[LayerMetric]:
    return _metrics([f"{span}.{sfx}" for sfx in suffixes], moves)


V, D2, D3 = "verify_s", BATTERY_D2, BATTERY_D3
ALL = (SWEEP, D2, D3)

#: workloads where each kind is evaluated
_KIND_HOME = {"geometric": (D2,), "exponential": (D2, D3)}
#: where each check takes the largest share of a pass
_CHECK_HOME = {
    "linearization": (D2,),
    "fubini": (D2,),
    "derivative_consistency": (D2, D3),
    "diff_under_integral": (D2, D3),
    "norm_bound": (D2,),
    "span": (SWEEP,),
    "schwarz": (SWEEP,),
    "telescoping": (D3,),
    "order_bound": (D3,),
    "derivative_profile": (SWEEP,),
}


def _layer_metrics() -> list[LayerMetric]:
    values = [("family_values", w) for w in ALL]
    out = _metrics(["family.eval.calls", "family.values"], [(V, D2), *values])
    out += _metrics(["family.repeat_share"], [(V, D2), *values], unit="ratio")
    for kind in KINDS:
        out += _metrics([f"family.eval.self_s.{kind}"],
                        [(V, w) for w in _KIND_HOME.get(kind, (SWEEP,))])
    out += _metrics(["family.deriv.values"], values)
    out += _metrics(["family.supnorm.values"], [("family_values", D2), ("family_values", D3)])
    for fn in ("apply_dual", "apply_slices", "ideal_slices"):
        out += _span(f"functional.{fn}", [(V, D2)])
    out += _span("cauchy.derivative_rule", [(V, SWEEP)])
    out += _span("cauchy.cauchy_derivative", [(V, SWEEP), (V, D2)])
    large = [(V, D3), ("peak_rss_mb", D3)]
    out += _span("cauchy.fft", large, ("calls", "points", "self_s"))
    out += _span("cauchy.order_bound", large, ("self_s",))
    out += _span("cauchy.schwarz_violation", [(V, SWEEP)], ("self_s",))
    out += _span("domain.grid", [(V, SWEEP), (V, D3)], ("calls", "points", "self_s"))
    out += _span("domain.contains_all", [(V, SWEEP), (V, D3)])
    out += _span("domain.polydisc", [(V, SWEEP)], ("calls",))
    out += _span("domain.torus_nodes", [(V, SWEEP)], ("calls",))
    for fn in ("lp_norm", "pairing"):
        out += _span(f"measure.{fn}", [(V, SWEEP)])
    for check, homes in _CHECK_HOME.items():
        out += _span(f"check.{check}", [(m, w) for m in (V, "family_values") for w in homes],
                     ("s", "calls", "family_values"))
    out += _metrics(["cli.setup.s"], [("setup_s", w) for w in ALL])
    out += _metrics(["cli.run_suite.self_s", "cli.emit.s"], [(V, SWEEP)])
    out += _metrics(["cli.emit.bytes"], [(V, SWEEP)], unit="bytes")
    out += _metrics(["cli.records"], [("checks_passed_share", SWEEP)], better="higher")
    out += _metrics(["checks_failed_share"],
                    [("checks_passed_share", SWEEP), ("checks_passed_share", D2)], unit="ratio")
    out += _metrics(["trace.overhead_s"], [], unit="s")
    return out


LAYER_METRICS = _layer_metrics()

#: metrics the run computes from several passes rather than from one tracer
RUN_LEVEL = {"family.repeat_share", "checks_failed_share", "trace.overhead_s"}


# -- repeat accounting --------------------------------------------------------

_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_COMPACT_AT = 1 << 22


def _hash_rows(a) -> np.ndarray:
    """A 64-bit splitmix hash of the bytes of each row of a complex 2-d array."""
    words = np.ascontiguousarray(a, dtype=complex).view(np.uint64)
    h = np.full(words.shape[0], 0x9E3779B97F4A7C15, dtype=np.uint64)
    for j in range(words.shape[1]):
        h ^= words[:, j]
        h ^= h >> np.uint64(30)
        h *= _M1
        h ^= h >> np.uint64(27)
        h *= _M2
        h ^= h >> np.uint64(31)
    return h


def _distinct(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values; sort-based, which is much faster than ``np.unique``
    on large uint64 arrays in numpy 2.x."""
    a = np.sort(a, axis=None)
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


class RepeatCounter:
    """Counts family values whose exact (z, t) input was already evaluated.

    A call that pairs every z row with every t (the usual outer product) is
    stored as its distinct z-row hashes under the set of its t hashes; other
    pairings are split per t value.  The distinct count for an atom is the
    union of the z rows of every group that contains it.
    """

    def __init__(self):
        self.total = 0
        self.groups: dict[bytes, list] = {}

    def add(self, z, t, out_shape) -> None:
        z = np.asarray(z, dtype=complex)
        t = np.asarray(t, dtype=complex)
        rank = len(out_shape)
        zl = (1,) * (rank - z.ndim + 1) + z.shape[:-1]
        tl = (1,) * (rank - t.ndim) + t.shape
        self.total += int(np.prod(out_shape, dtype=np.int64))
        if all(a == 1 or b == 1 for a, b in zip(zl, tl)):
            self._add(_distinct(_hash_rows(t.reshape(-1, 1))),
                      _distinct(_hash_rows(z.reshape(-1, z.shape[-1]))))
            return
        hz = _hash_rows(np.broadcast_to(z, tuple(out_shape) + z.shape[-1:]).reshape(-1, z.shape[-1]))
        ht = _hash_rows(np.broadcast_to(t, out_shape).reshape(-1, 1))
        for value in _distinct(ht):
            self._add(np.array([value]), _distinct(hz[ht == value]))

    def _add(self, ht, hz) -> None:
        group = self.groups.setdefault(ht.tobytes(), [ht, [], 0])
        group[1].append(hz)
        group[2] += hz.size
        if group[2] > _COMPACT_AT:
            self._compact(group)

    @staticmethod
    def _compact(group) -> np.ndarray:
        if len(group[1]) > 1:
            group[1] = [_distinct(np.concatenate(group[1]))]
            group[2] = group[1][0].size
        return group[1][0]

    def share(self) -> float:
        if not self.total:
            return 0.0
        rows_by_atom = defaultdict(list)
        for group in self.groups.values():
            rows = self._compact(group)
            for atom in group[0].tolist():
                rows_by_atom[atom].append(rows)
        distinct = sum(parts[0].size if len(parts) == 1 else _distinct(np.concatenate(parts)).size
                       for parts in rows_by_atom.values())
        return 1.0 - distinct / self.total


# -- the tracer ----------------------------------------------------------------

_NAME, _PARENT, _REQUEST, _START, _END, _DURATION = range(6)


class Tracer:
    """Installs wrappers on holofubini and collects spans and counters.

    ``families_only`` wraps just the family kinds, which is enough to count
    family values on an otherwise untraced pass.  A ``repeats`` counter is
    given every family input, to measure the repeat share.
    """

    def __init__(self, families_only: bool = False, repeats: RepeatCounter | None = None):
        self.families_only = families_only
        self.repeats = repeats
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.request = 0
        #: time spent in wrappers and counters, kept out of every span's duration
        self.hidden_s = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------
    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        from holofubini import cauchy, cli, domain, family, functional, measure, theorems

        for cls in _subclasses(family.HoloFamily):
            if "_evaluate" in vars(cls):
                self._patch_attr(cls, "_evaluate", f"family._evaluate.{cls.kind}",
                                 self._count_values)
            if "_derivative" in vars(cls):
                self._patch_attr(cls, "_derivative", f"family._derivative.{cls.kind}",
                                 self._count_derivative)
        if self.families_only:
            return
        self._patch_attr(family.HoloFamily, "eval", "family.eval")
        self._patch_attr(family.HoloFamily, "deriv", "family.deriv")
        self._patch_attr(family.HoloFamily, "slice_supnorm", "family.supnorm")
        for fn in ("apply_dual", "apply_slices", "ideal_slices"):
            self._patch_attr(functional.MeasureFunctional, fn, f"functional.{fn}")
        for fn in ("derivative_rule", "cauchy_derivative", "order_bound", "schwarz_violation"):
            self._patch_function(getattr(cauchy, fn), f"cauchy.{fn}")
        self._patch_function(cauchy._fft_coefficients, "cauchy.fft", self._count_fft)
        self._patch_attr(domain.TorusQuadrature, "grid", "domain.grid", self._count_grid)
        self._patch_attr(domain.Polydisc, "contains_all", "domain.contains_all")
        self._patch_attr(domain.Polydisc, "__init__", "domain.polydisc")
        self._patch_function(domain.torus_nodes, "domain.torus_nodes")
        for fn in ("lp_norm", "pairing"):
            self._patch_attr(measure.FiniteMeasureSpace, fn, f"measure.{fn}")
        for check, functions in CHECKS.items():
            for fn in functions:
                self._patch_function(getattr(theorems, fn), f"check.{check}")
        self._patch_function(cli._build_config, "cli.setup")
        self._patch_function(cli.run_suite, "cli.run_suite")
        self._patch_function(cli._emit, "cli.emit", self._count_emit)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch_attr(self, owner, attr, name, on_exit=None) -> None:
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, on_exit))

    def _patch_function(self, fn, name, on_exit=None) -> None:
        """Rebind ``fn`` in every holofubini module that binds it."""
        wrapper = self._wrap(name, fn, on_exit)
        modules = [m for key, m in sys.modules.items()
                   if key == "holofubini" or key.startswith("holofubini.")]
        sites = [(m, attr) for m in modules for attr, value in vars(m).items() if value is fn]
        if not sites:
            raise LookupError(f"{name}: no binding of {fn.__qualname__} found")
        for module, attr in sites:
            self._undo.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def _wrap(self, name, fn, on_exit):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            if stack and spans[stack[-1]][_NAME] == name:
                # direct re-entry, e.g. span_monotonicity -> span_residual
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, self.request, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            hidden = self.hidden_s
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span[_START], span[_END] = start, end
                span[_DURATION] = end - start - (self.hidden_s - hidden)
                self.hidden_s += start - enter
            if on_exit is not None:
                on_exit(span, args, result)
            self.hidden_s += perf_counter() - end
            return result

        return wrapper

    # -- counters ---------------------------------------------------------------
    def _ancestor(self, span, prefix):
        parent = span[_PARENT]
        while parent >= 0:
            if self.spans[parent][_NAME].startswith(prefix):
                return self.spans[parent][_NAME]
            parent = self.spans[parent][_PARENT]
        return None

    def _count_values(self, span, args, result) -> None:
        parent = self.spans[span[_PARENT]][_NAME] if span[_PARENT] >= 0 else ""
        if parent.startswith("family._derivative"):
            return  # a closed-form derivative built on _evaluate is not a family value
        size = int(np.size(result))
        self.counters["family.values"] += size
        if parent == "family.supnorm":
            self.counters["family.supnorm.values"] += size
        check = self._ancestor(span, "check.")
        if check:
            self.counters[f"{check}.family_values"] += size
        if self.repeats is not None:
            self.repeats.add(args[1], args[2], np.shape(result))

    def _count_derivative(self, span, args, result) -> None:
        self.counters["family.deriv.values"] += int(np.size(result))

    def _count_fft(self, span, args, result) -> None:
        self.counters["cauchy.fft.points"] += int(np.size(args[0]))

    def _count_grid(self, span, args, result) -> None:
        self.counters["domain.grid.points"] += int(result.shape[0])

    def _count_emit(self, span, args, result) -> None:
        records, _fmt, output = args
        self.counters["cli.records"] += len(records)
        if output:
            self.counters["cli.emit.bytes"] += Path(output).stat().st_size

    # -- results ------------------------------------------------------------------
    @property
    def family_values(self) -> int:
        return int(self.counters["family.values"])

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the spans and counters give (not the run-level ones)."""
        calls, inclusive, self_time = Counter(), Counter(), Counter()
        for name, parent, _request, _start, _end, duration in self.spans:
            calls[name] += 1
            inclusive[name] += duration
            self_time[name] += duration
            if parent >= 0:
                self_time[self.spans[parent][_NAME]] -= duration
        out = {}
        for metric in LAYER_METRICS:
            name = metric.name
            if name in RUN_LEVEL:
                continue
            if name.startswith("family.eval.self_s."):
                out[name] = self_time["family._evaluate." + name.rsplit(".", 1)[1]]
            elif name.endswith(".calls"):
                out[name] = calls[name.removesuffix(".calls")]
            elif name.endswith(".self_s"):
                out[name] = self_time[name.removesuffix(".self_s")]
            elif name.endswith(".s"):
                out[name] = inclusive[name.removesuffix(".s")]
            else:
                out[name] = self.counters[name]
        if self.repeats is not None:
            out["family.repeat_share"] = self.repeats.share()
        return out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)

"""Finite atomic measure spaces and the discretized Lp machinery.

The measure space is a finite list of weighted atoms, each carrying one
complex parameter t.  Sigma is the power set, so measurability is vacuous,
and the space is automatically semi-finite (every atom has finite weight).
Vectors in the discretized Lp space are plain complex numpy arrays with one
entry per atom; ``lp_norm`` and ``pairing`` validate lengths on use.  Given
stacks, arrays whose last axis is the atoms (``pairing`` broadcasts its two),
both return an array of one value per vector, equal to the call on it alone.

The pairing is bilinear (no conjugation): it discretizes the integral
``sum_i g_i h_i mu_i`` of the canonical duality between Lp and Lq.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import parse_complex

__all__ = [
    "FiniteMeasureSpace",
    "space_from_json",
    "space_preset",
]


#: Values per block of rows that :meth:`FiniteMeasureSpace.max_lp_norms` reads at once
#: (1 MiB of complex values), so its magnitudes and powers never take a whole stack
ROW_BLOCK = 2 ** 16


def _exponent(p) -> float:
    p = float(p)
    if p < 1.0:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    return p


@dataclass(frozen=True, eq=False)
class FiniteMeasureSpace:
    """Weighted atoms (t_i, mu_i) hosting the discretized Lp norms and pairing."""

    params: np.ndarray   # complex, shape (k,)
    weights: np.ndarray  # nonnegative float, shape (k,)

    def __init__(self, params, weights):
        params = np.atleast_1d(np.asarray(params, dtype=complex)).copy()
        weights = np.atleast_1d(np.asarray(weights, dtype=float)).copy()
        if params.ndim != 1 or weights.shape != params.shape:
            raise ValueError("params and weights must be 1-d arrays of equal length")
        if params.shape[0] < 1:
            raise ValueError("a measure space needs at least one atom")
        if not np.all(weights >= 0):
            raise ValueError("atom weights must be nonnegative")
        params.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "weights", weights)

    @property
    def natoms(self) -> int:
        return self.params.shape[0]

    @cached_property
    def mirror(self) -> np.ndarray | None:
        """The permutation i -> i' with t_i' = -t_i exactly for every atom, or None where
        the atoms are not symmetric about 0 bit for bit; computed on first read.  It is
        its own inverse: the r-th atom of a value and the r-th of its negation, in index
        order, map to each other."""
        params = self.params
        order = np.lexsort((params.imag, params.real))
        negated = np.lexsort((-params.imag, -params.real))
        if not np.array_equal(params[order], -params[negated]):
            return None
        mirror = np.empty(len(params), dtype=np.intp)
        mirror[negated] = order
        mirror.setflags(write=False)
        return mirror

    def _check_vector(self, g) -> np.ndarray:
        g = np.asarray(g, dtype=complex)
        if g.ndim == 0 or g.shape[-1] != self.natoms:
            raise ValueError(f"vector length {g.shape} does not match {self.natoms} atoms")
        return g

    def lp_norm(self, g, p: float) -> float | np.ndarray:
        """Weighted p-norm; p = inf is the essential sup (zero-weight atoms ignored)."""
        g, p = self._check_vector(g), _exponent(p)
        rows = self._row_powers(np.abs(g), p)
        if not math.isinf(p):
            # a scalar power per vector, as numpy's vectorized power rounds some roots apart
            rows = np.reshape([s ** (1.0 / p) for s in np.ravel(rows).tolist()], rows.shape)
        return float(rows) if rows.ndim == 0 else rows

    def max_lp_norms(self, g, ps) -> list[float]:
        """``max(lp_norm(g, p))`` over a stack g for each exponent of ``ps``.

        One pass over blocks of g's rows, of ``ROW_BLOCK`` values or one row, takes each
        block's magnitudes once for every p; each sup is one root, that of the largest
        row sum.  A row's sum does not depend on its block, so the sups are those of
        the whole stack bit for bit.
        """
        ps = [_exponent(p) for p in ps]
        g = self._check_vector(g)
        rows = g.reshape(-1, self.natoms)
        block = max(1, ROW_BLOCK // self.natoms)
        tops = np.zeros(len(ps))
        for start in range(0, len(rows), block):
            mags = np.abs(rows[start:start + block])
            tops = np.maximum(tops, [np.max(self._row_powers(mags, p), initial=0.0)
                                     for p in ps])
        return [top if math.isinf(p) else top ** (1.0 / p)
                for top, p in zip(tops.tolist(), ps)]

    def _row_powers(self, mags: np.ndarray, p: float) -> np.ndarray:
        """sum_i m_i^p mu_i per row of magnitudes; at p = inf, max m_i over weighted atoms."""
        if math.isinf(p):
            return np.max(mags, axis=-1, where=self.weights > 0, initial=0.0)
        return np.sum(mags ** p * self.weights, axis=-1)

    def pairing(self, g, h) -> complex | np.ndarray:
        """Bilinear duality sum_i g_i h_i mu_i (no complex conjugation)."""
        g = self._check_vector(g)
        h = self._check_vector(h)
        paired = np.sum(g * h * self.weights, axis=-1)
        return complex(paired) if paired.ndim == 0 else paired


def space_from_json(doc) -> FiniteMeasureSpace:
    """Load a space from {"atoms": [{"param": [re, im], "weight": w}, ...]}."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    atoms = doc["atoms"]
    params = [parse_complex(a["param"]) for a in atoms]
    weights = [float(a["weight"]) for a in atoms]
    return FiniteMeasureSpace(params, weights)


def space_preset(name: str) -> FiniteMeasureSpace:
    """Named presets: "uniform-k" (weights 1/k) and "geometric-k" (weights 2^-i).

    Both place the k atom parameters equally spaced in [-1, 1], symmetric about 0 bit for
    bit: atom k - 1 - i is -(atom i), within 1 ulp of ``np.linspace`` (which misses the
    symmetry by up to 2.2e-16), and the middle atom of an odd k is 0.
    """
    try:
        kind, count = name.rsplit("-", 1)
        k = int(count)
    except ValueError:
        raise ValueError(f"unknown space preset {name!r}") from None
    if k < 1:
        raise ValueError(f"preset atom count must be positive, got {k}")
    params = np.linspace(-1.0, 1.0, k)
    params[(k + 1) // 2:] = -params[:k // 2][::-1]
    if k % 2:
        params[k // 2] = 0.0
    if kind == "uniform":
        weights = np.full(k, 1.0 / k)
    elif kind == "geometric":
        weights = 0.5 ** np.arange(1, k + 1)
    else:
        raise ValueError(f"unknown space preset {name!r}")
    return FiniteMeasureSpace(params, weights)

"""Cauchy quadrature on polydiscs: derivatives, Taylor tables, the
Schwarz-lemma inequality, and Taylor-majorant order bounds.

Two kernels take the same trapezoid sum: :func:`derivative_rule`'s weights are the
derivative functionals' measures, and ``_fft_coefficients`` serves every checker
derivative and the contour sample's Taylor table.  :func:`schwarz_violation` takes
values only: the interior pass's, at points drawn in the ``--shrink`` polydisc, for the
one increment bound that schwarz (d = 1) and telescoping (d >= 2) report.

A "slice" is any callable accepting a complex array whose last axis indexes
the d variables and returning values with the leading (batch) shape; it must
be analytic on the closed integration polydisc.  All rules discretize the
iterated contour integrals by the tensor-product trapezoid rule on the
distinguished boundary, which converges geometrically for analytic slices.

Everything here is pure and deterministic; node sums are single numpy
reductions, so results are reproducible bit-for-bit for a fixed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .domain import Polydisc, as_multi_index, multi_factorial, torus_nodes
from .family import FLOOR_NODES, ContourSample

__all__ = [
    "derivative_rule",
    "cauchy_derivative",
    "contour_derivatives",
    "schwarz_violation",
    "OrderBound",
    "order_bound",
]

#: Largest Taylor degree the contour sample's table and order_bound take
MAX_TAYLOR_DEGREE = 128
#: Least order_bound degree, read on the floor contour of ``FLOOR_NODES`` nodes.  With
#: degree n // 2 - 1 the geometric preset on uniform-16 fails at shrink 0.1 for n = 5, 7,
#: 9 and 11 (at n = 5 the excess is 0.027 against a tail of 0.021): the coarse odd-n
#: tables alias with the negative atoms and push u below |f|.
MIN_ORDER_BOUND_DEGREE = FLOOR_NODES // 2 - 1
#: Complex values (4 MiB) of each block of columns that ``_fft_coefficients`` transforms
#: at once, at least one column; blocks of 2^16 values nearly doubled the time of the
#: d = 3 table on 16 atoms.  Beside the table a block's transforms hold at most 3/4 of
#: its size at d = 3 (3 MiB): the last axis's kept half beside the middle axis's quarter
FFT_BLOCK = 2 ** 18


def derivative_rule(center, alpha, radii, n: int = 64):
    """Quadrature nodes and weights realizing g -> D^alpha g(center).

    Returns ``(points, weights)`` with points of shape (n^d, d) on the
    distinguished boundary of the polydisc (center, radii) and weights
    ``alpha! * (1/n^d) * prod_j (w_j - a_j)^(-alpha_j)``, so that
    ``sum_k weights_k g(points_k)`` is the trapezoidal discretization of the
    Cauchy integral for the derivative.  It serves the derivative functionals;
    checkers read their derivatives from one FFT of a contour sample instead, by
    :func:`contour_derivatives` or from the sample's Taylor table
    (:meth:`~holofubini.family.ContourSample.taylor_table`), the same trapezoid sum.
    """
    center = np.atleast_1d(np.asarray(center, dtype=complex))
    alpha = as_multi_index(alpha, center.shape[0])
    disc = Polydisc(center, radii)
    if n <= max(alpha) + 1:
        raise ValueError(f"node count {n} is too small for derivative order {max(alpha)}")
    quad = torus_nodes(disc, n)
    offsets = quad.nodes - center[:, None]
    # the outer product of each variable's n powers, in the order of quad.grid(), scaled
    # in place into the weights
    powers = reduce(np.multiply.outer, offsets ** -np.asarray(alpha)[:, None])
    powers *= multi_factorial(alpha) / quad.n ** disc.d
    return quad.grid(), powers.ravel()


def cauchy_derivative(f, center, alpha, radii, n: int = 64) -> complex:
    """D^alpha f(center) by boundary quadrature.

    Exact (to rounding) for polynomial slices of per-variable degree below
    ``n - max(alpha)``; the alpha! factor multiplies after quadrature so the
    exactness class of the trapezoid rule is preserved.
    """
    pts, weights = derivative_rule(center, alpha, radii, n)
    vals = np.asarray(f(pts), dtype=complex)
    return complex(np.sum(weights * vals))


def _fft_coefficients(values: np.ndarray, d: int, n: int, radii, degree: int) -> np.ndarray:
    # values has shape (n^d,) + batch, in grid() order; returns (degree+1,)*d + batch.
    # The batch axes are flattened to columns, taken in blocks of FFT_BLOCK values (at
    # least one column).  Each block goes one axis at a time, last axis first as in
    # np.fft.fftn, keeping only the first degree + 1 frequencies of each.  Every axis
    # but the first is transformed one slab of the first axis at a time, each slab's
    # kept frequencies written into an array of their own size, so a block never holds
    # its full transform beside the kept half; the first axis's kept frequencies go
    # into the one table, which is then divided in place.  Every transform and division
    # acts per column and per line, so the table does not depend on the blocks.
    columns = values.reshape(n ** d, -1)
    table = np.empty((degree + 1,) * d + columns.shape[1:], dtype=complex)
    block = max(1, FFT_BLOCK // n ** d)
    for start in range(0, columns.shape[1], block):
        sel = columns[:, start:start + block].reshape((n,) * d + (-1,))
        for axis in reversed(range(1, d)):
            kept = np.empty(sel.shape[:axis] + (degree + 1,) + sel.shape[axis + 1:],
                            dtype=complex)
            low = (slice(None),) * (axis - 1) + (slice(0, degree + 1),)
            for i in range(n):
                kept[i] = np.fft.fft(sel[i], axis=axis - 1)[low]
            sel = kept
        table[..., start:start + block] = np.fft.fft(sel, axis=0)[:degree + 1]
    table /= n ** d
    scale = reduce(np.multiply.outer, [np.asarray(r) ** np.arange(degree + 1) for r in radii])
    table /= scale[..., None]
    return table.reshape(table.shape[:d] + values.shape[1:])


def contour_derivatives(values, alphas, radii, n: int) -> np.ndarray:
    """D^alpha at the center for each of m multi-indices, from values of shape (n^d,) +
    batch on ``torus_nodes(Polydisc(center, radii), n).grid()``; returns (m,) + batch.

    Entry i is alpha_i! c_alpha_i from one FFT: the trapezoid sum that
    :func:`derivative_rule`'s weights take (Lyness & Moler 1967), with its guard.  The
    alphas are checked as one (m, d) array, and the entries gathered from the table at
    once, each times its alpha!, the exact integer rounded once to a float.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    d = radii.shape[0]
    index = np.asarray(alphas)
    if d == 1 and index.ndim == 1:  # scalar orders at d = 1
        index = index[:, None]
    if (index.ndim != 2 or index.shape[1] != d or not index.size
            or index.dtype.kind not in "iu" or np.any(index < 0)):
        raise ValueError(f"expected multi-indices of {d} nonnegative integers, got {alphas!r}")
    order = int(index.max())
    if n <= order + 1:
        raise ValueError(f"node count {n} is too small for derivative order {order}")
    coeffs = _fft_coefficients(np.asarray(values, dtype=complex), d, n, radii, order)
    factorials = np.array([math.factorial(k) for k in range(order + 1)], dtype=object)
    scale = np.prod(factorials[index], axis=1).astype(float)
    picked = coeffs[tuple(index.T)]
    return scale.reshape((-1,) + (1,) * (picked.ndim - 1)) * picked


def schwarz_violation(fa, fz, steps, sups) -> float:
    """Max over the points z and the slices of |f(z) - f(c)| - 2 B sum_j |z_j - c_j| / R_j.

    Schwarz's lemma, one variable at a time, for a batch of slices holomorphic on the
    polydisc (c, R) (batch shape () for one slice): ``fa`` at c, ``fz`` at m points z,
    shape (m,) + batch, their ``steps`` sum_j |z_j - c_j| / R_j, (m,), and ``sups``, each
    slice's sup B estimated from below, e.g. its max on a contour grid (the maximum
    principle puts the sup on the distinguished boundary).  A nonpositive return
    certifies every slice.
    """
    bound = 2.0 * sups * np.reshape(steps, (-1,) + (1,) * (np.ndim(fz) - 1))
    return float(np.max(np.abs(fz - fa) - bound))


@dataclass(frozen=True, eq=False)
class OrderBound:
    """Componentwise majorant: |f(z, t_i)| <= u_i + tail on the shrink-polydisc.

    ``tail`` sums Cauchy's estimate |c_m| r^m <= M over the degrees outside the table,
    with M the table's grid sup: a lower estimate of the true sup, so not rigorous.
    """

    u: np.ndarray
    tail: float
    degree: int
    #: nodes per variable of the contour sample the table and M were read from
    n: int


def order_bound(sample: ContourSample, shrink: float = 0.5) -> OrderBound:
    """Per-atom Taylor majorant u_i = sum_{m} |c_m(t_i)| (shrink * r)^m plus a tail.

    The coefficients about the sample's center are its Taylor table
    (:meth:`~holofubini.family.ContourSample.taylor_table`), r being its radii; u is
    summed for blocks of atoms of at most ``FFT_BLOCK`` magnitudes, each atom's sum the
    same whatever its block.  The degree is n // 2 - 1, capped at
    ``MAX_TAYLOR_DEGREE``; below ``MIN_ORDER_BOUND_DEGREE`` it is raised to that degree,
    read from the sample's floor contour of ``FLOOR_NODES`` nodes
    (:attr:`~holofubini.family.ContourSample.floor`).
    The tail, M [(1 - s)^-d - ((1 - s^(D+1)) / (1 - s))^d] with s the shrink and M the
    sample's ``sup``, sums M s^|m| over the degrees m outside the table; at s >= 1 the
    sum diverges.
    """
    if not 0.0 < shrink < 1.0:
        raise ValueError(f"shrink must lie in (0, 1), got {shrink}")
    sample = sample.floor
    degree = min(sample.n // 2 - 1, MAX_TAYLOR_DEGREE)
    radii, d = sample.radii, sample.fam.d
    coeffs = sample.taylor_table(degree)
    # u_i sums |c_m(t_i)| prod_j (r_j shrink)^{m_j} for blocks of atoms of at most
    # FFT_BLOCK magnitudes (at least one atom), each atom's terms one contiguous row
    # whose sum does not depend on the block
    scale = reduce(np.multiply.outer, [(r * shrink) ** np.arange(degree + 1)
                                       for r in radii])
    natoms = coeffs.shape[-1]
    u = np.empty(natoms)
    block = max(1, FFT_BLOCK // scale.size)
    for start in range(0, natoms, block):
        terms = np.abs(np.moveaxis(coeffs[..., start:start + block], -1, 0), order="C")
        terms *= scale
        u[start:start + block] = np.sum(terms.reshape(len(terms), -1), axis=1)
    # the bracket as (1 - s)^-d (1 - (1 - s^(D+1))^d), free of cancellation and sign error
    tail = sample.sup * -np.expm1(d * np.log1p(-shrink ** (degree + 1))) / (1.0 - shrink) ** d
    return OrderBound(u=u, tail=float(tail), degree=degree, n=sample.n)

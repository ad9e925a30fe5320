"""Cauchy quadrature on polydiscs: derivatives, Taylor tables, the
Schwarz-lemma inequality, and Taylor-majorant order bounds.

Two kernels take the same trapezoid sum: :func:`derivative_rule`'s weights are the
derivative functionals' measures, and ``_fft_coefficients`` serves every checker
derivative and the contour sample's Taylor table.

A "slice" is any callable accepting a complex array whose last axis indexes
the d variables and returning values with the leading (batch) shape; it must
be analytic on the closed integration polydisc.  All rules discretize the
iterated contour integrals by the tensor-product trapezoid rule on the
distinguished boundary, which converges geometrically for analytic slices.

Everything here is pure and deterministic; node sums are single numpy
reductions, so results are reproducible bit-for-bit for a fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .domain import Polydisc, as_multi_index, multi_factorial, sample_polydisc, torus_nodes
from .family import ContourSample

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
#: Least order_bound degree (16 contour nodes).  With degree n // 2 - 1 the
#: geometric preset on uniform-16 fails at shrink 0.1 for n = 5, 7, 9 and 11 (at n = 5
#: the excess is 0.027 against a tail of 0.021): the coarse odd-n tables alias with
#: the negative atoms and push u below |f|.
MIN_ORDER_BOUND_DEGREE = 7


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
    # the outer product of each variable's n powers, in the order of quad.grid()
    powers = reduce(np.multiply.outer, offsets ** -np.asarray(alpha)[:, None])
    return quad.grid(), powers.ravel() * (multi_factorial(alpha) / quad.n ** disc.d)


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
    # One axis at a time, last axis first as in np.fft.fftn, keeping only the first
    # degree + 1 frequencies after each, so no full-size transform of every axis is held.
    sel = values.reshape((n,) * d + values.shape[1:])
    for axis in reversed(range(d)):
        sel = np.fft.fft(sel, axis=axis)[(slice(None),) * axis + (slice(0, degree + 1),)]
    sel = sel / n ** d
    scale = reduce(np.multiply.outer, [np.asarray(r) ** np.arange(degree + 1) for r in radii])
    return sel / scale.reshape(scale.shape + (1,) * (values.ndim - 1))


def contour_derivatives(values, alphas, radii, n: int) -> np.ndarray:
    """D^alpha at the center for each of m multi-indices, from values of shape (n^d,) +
    batch on ``torus_nodes(Polydisc(center, radii), n).grid()``; returns (m,) + batch.

    Entry i is alpha_i! c_alpha_i from one FFT: the trapezoid sum that
    :func:`derivative_rule`'s weights take (Lyness & Moler 1967), with its guard.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    alphas = [as_multi_index(a, radii.shape[0]) for a in alphas]
    order = max(max(a) for a in alphas)
    if n <= order + 1:
        raise ValueError(f"node count {n} is too small for derivative order {order}")
    coeffs = _fft_coefficients(np.asarray(values, dtype=complex), radii.shape[0], n, radii, order)
    return np.stack([multi_factorial(a) * coeffs[a] for a in alphas])


def schwarz_violation(f, center, radius: float, ring, samples: int = 1000,
                      seed: int = 0) -> float:
    """Max over sampled z of |f(z)-f(a)| - (2/r) ||f||_inf |z-a| on Ball(a; r).

    A univariate (d = 1) check; ``f`` takes points of shape (m, 1) and returns
    values of shape (m,) + batch, one column per slice of a batch of slices (the
    batch shape is () for a single slice).  Each column's sup norm is estimated
    from below by its column of ``ring``, shape (n,) + batch, the values on nodes
    of the circle |z - a| = r such as those of :func:`torus_nodes` (the maximum
    principle puts the sup on the boundary), together with its f(a) and its sample
    values.  Returns the largest violation over the columns; nonpositive return
    values certify the bound for every slice.
    """
    center = complex(center)
    radius = float(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    disc = Polydisc([center], [radius])
    z = sample_polydisc(disc, samples, 1.0, np.random.default_rng(seed))[:, 0]

    fa = np.asarray(f(np.array([[center]])))[0]
    fz = np.asarray(f(z[:, None]))
    sup = np.maximum.reduce([np.max(np.abs(ring), axis=0), np.max(np.abs(fz), axis=0),
                             np.abs(fa)])
    bound = (2.0 / radius) * sup * np.abs(z - center).reshape((-1,) + (1,) * (fz.ndim - 1))
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
    shrink: float
    #: nodes per variable of the contour sample the table and M were read from
    n: int


def order_bound(sample: ContourSample, shrink: float = 0.5) -> OrderBound:
    """Per-atom Taylor majorant u_i = sum_{m} |c_m(t_i)| (shrink * r)^m plus a tail.

    The coefficients about the sample's center are its Taylor table
    (:meth:`~holofubini.family.ContourSample.taylor_table`), r being its radii.  The
    degree is n // 2 - 1, capped at ``MAX_TAYLOR_DEGREE``; below
    ``MIN_ORDER_BOUND_DEGREE`` it is raised to that degree, read from a contour sample
    of its own with 2 * MIN_ORDER_BOUND_DEGREE + 2 nodes.  The tail,
    M [(1 - s)^-d - ((1 - s^(D+1)) / (1 - s))^d] with s the shrink and M the sample's
    ``sup``, sums M s^|m| over the degrees m outside the table; at s >= 1 the sum
    diverges.
    """
    if not 0.0 < shrink < 1.0:
        raise ValueError(f"shrink must lie in (0, 1), got {shrink}")
    if sample.n < 2 * MIN_ORDER_BOUND_DEGREE + 2:
        sample = ContourSample(sample.fam, sample.space, 2 * MIN_ORDER_BOUND_DEGREE + 2)
    degree = min(sample.n // 2 - 1, MAX_TAYLOR_DEGREE)
    radii, d = sample.radii, sample.fam.d
    coeffs = sample.taylor_table(degree)
    # |c_m| * prod_j (r_j shrink)^{m_j}
    rad_scale = reduce(np.multiply.outer, [r ** np.arange(degree + 1) for r in radii])
    rho_scale = reduce(np.multiply.outer, [shrink ** np.arange(degree + 1)] * d)
    u = np.sum(np.abs(coeffs) * rad_scale[..., None] * rho_scale[..., None], axis=tuple(range(d)))
    # the bracket as (1 - s)^-d (1 - (1 - s^(D+1))^d), free of cancellation and sign error
    tail = sample.sup * -np.expm1(d * np.log1p(-shrink ** (degree + 1))) / (1.0 - shrink) ** d
    return OrderBound(u=u, tail=float(tail), degree=degree, shrink=shrink, n=sample.n)

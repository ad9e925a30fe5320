"""Cauchy quadrature on polydiscs: evaluation, derivatives, Taylor tables,
the Schwarz-lemma inequality, and Taylor-majorant order bounds.

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

from .domain import (CONTOUR_SHRINK, Polydisc, as_multi_index, multi_factorial,
                     sample_polydisc, torus_nodes)
from .family import HoloFamily
from .measure import FiniteMeasureSpace

__all__ = [
    "cauchy_eval",
    "derivative_rule",
    "cauchy_derivative",
    "contour_derivatives",
    "taylor_coefficients",
    "schwarz_violation",
    "OrderBound",
    "order_bound",
    "TailEstimateError",
]

MAX_TAYLOR_DEGREE = 128
#: Least default order_bound degree (16 contour nodes).  With degree n // 2 - 1
#: the presets give false violations at --nodes 4 to 11 (degree <= 4): the tail
#: fit window holds one degree, and aliasing of the coarse rule can push u below |f|.
MIN_ORDER_BOUND_DEGREE = 7


def cauchy_eval(f, disc: Polydisc, z, n: int = 64) -> complex:
    """Evaluate f at z inside ``disc`` from distinguished-boundary samples.

    Discretizes the d-fold Cauchy integral with n nodes per variable:
    ``(1/n^d) * sum_k f(w_k) * prod_j (w_{j,k} - a_j) / (w_{j,k} - z_j)``.
    The error is O(rho^n) with rho = max_j |z_j - a_j| / r_j < 1.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if not disc.contains(z, 1.0):
        raise ValueError("evaluation point must lie strictly inside the integration polydisc")
    quad = torus_nodes(disc, n)
    pts = quad.grid()
    kernel = np.prod((pts - disc.center) / (pts - z), axis=-1)
    vals = np.asarray(f(pts), dtype=complex)
    return complex(np.sum(vals * kernel) / quad.n ** disc.d)


def derivative_rule(center, alpha, radii, n: int = 64):
    """Quadrature nodes and weights realizing g -> D^alpha g(center).

    Returns ``(points, weights)`` with points of shape (n^d, d) on the
    distinguished boundary of the polydisc (center, radii) and weights
    ``alpha! * (1/n^d) * prod_j (w_j - a_j)^(-alpha_j)``, so that
    ``sum_k weights_k g(points_k)`` is the trapezoidal discretization of the
    Cauchy integral for the derivative.  Checkers that read several
    derivatives from one sample use :func:`contour_derivatives` instead.
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


def taylor_coefficients(f, center, radii, degree: int, n: int | None = None) -> np.ndarray:
    """Coefficients c_m = D^m f(center) / m! via an FFT of boundary samples.

    Returns the table ``c[m_1, ..., m_d, ...]`` of shape (degree+1,)*d followed
    by the batch shape of f's values.  Requires n > 2 * degree to keep aliasing
    out of the table; the default is the smallest admissible even count.  Exact
    for polynomial slices of per-variable degree <= degree.
    """
    center = np.atleast_1d(np.asarray(center, dtype=complex))
    degree = int(degree)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree > MAX_TAYLOR_DEGREE:
        raise ValueError(f"coefficient extraction is limited to degree {MAX_TAYLOR_DEGREE}")
    if n is None:
        n = max(2 * degree + 2, 4)
    if n <= 2 * degree:
        raise ValueError(f"node count {n} risks aliasing: need n > {2 * degree}")
    disc = Polydisc(center, radii)
    quad = torus_nodes(disc, n)
    samples = np.asarray(f(quad.grid()), dtype=complex)
    return _fft_coefficients(samples, disc.d, quad.n, disc.radius, degree)


def schwarz_violation(f, center, radius: float, samples: int = 1000, seed: int = 0,
                      n: int = 64) -> float:
    """Max over sampled z of |f(z)-f(a)| - (2/r) ||f||_inf |z-a| on Ball(a; r).

    A univariate (d = 1) check; the sup norm is estimated from below on the
    n-node boundary ring of :func:`torus_nodes` (the maximum principle puts the
    sup on the boundary) together with f(a) and the sample values themselves.
    Nonpositive return values certify the bound.
    """
    center = complex(center)
    radius = float(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    disc = Polydisc([center], [radius])
    z = sample_polydisc(disc, samples, 1.0, np.random.default_rng(seed))[:, 0]

    fa = complex(np.ravel(f(np.array([[center]])))[0])
    fz = np.ravel(f(z[:, None]))
    ring = torus_nodes(disc, n).grid()
    sup = max(float(np.max(np.abs(f(ring)))), float(np.max(np.abs(fz))), abs(fa))
    bound = (2.0 / radius) * sup * np.abs(z - center)
    return float(np.max(np.abs(fz - fa) - bound))


class TailEstimateError(ArithmeticError):
    """Raised when coefficient decay inside the table is not geometric."""


@dataclass(frozen=True, eq=False)
class OrderBound:
    """Componentwise majorant: |f(z, t_i)| <= u_i + tail on the rho-polydisc.

    ``tail`` comes from a geometric fit |c_m| <= C q^|m| on the last third of
    the computed coefficient degrees; it is an implementation choice, not a
    rigorous remainder, and is flagged as such wherever reported.
    """

    u: np.ndarray
    tail: float
    fit_rate: float
    fit_scale: float
    degree: int
    shrink: float

    tail_method = "geometric-fit"


def _tail_from_degrees(shell: np.ndarray, degree: int, shrink: float, d: int) -> tuple[float, float, float]:
    # shell[s] = sum of radius-scaled coefficient magnitudes of total degree s <= degree
    start = int(math.ceil(2 * (degree + 1) / 3))
    window = np.arange(start, degree + 1)
    if window.size == 0:
        return 0.0, 0.0, 0.0
    floor = max(1e-14 * float(shell.max(initial=0.0)), 1e-250)
    if np.count_nonzero(shell[window] > floor) == 1:
        # fast decay leaves one degree above the floor; the degree before the
        # window supplies the second point of the rate
        window = np.arange(start - 1, degree + 1)
    values = shell[window]
    keep = values > floor
    if not keep.any():
        return 0.0, 0.0, 0.0
    s = window[keep].astype(float)
    logs = np.log(values[keep])
    if s.size == 1:
        raise TailEstimateError(
            "cannot certify geometric coefficient decay from a single nonzero degree"
        )
    slope, intercept = np.polyfit(s, logs, 1)
    q = float(np.exp(slope))
    scale = float(np.exp(intercept))
    if q >= 1.0 or q * shrink >= 1.0:
        raise TailEstimateError(
            f"coefficient decay slower than geometric within the table (fit rate {q:.6g})"
        )
    tail = scale * (q * shrink) ** (degree + 1) / (1.0 - q * shrink) ** d
    return tail, q, scale


def order_bound(fam: HoloFamily, space: FiniteMeasureSpace, center=None, radii=None,
                degree: int | None = None, shrink: float = 0.5, n: int | None = None,
                sampler=None) -> OrderBound:
    """Per-atom Taylor majorant u_i = sum_{m} |c_m(t_i)| (shrink * r)^m plus a tail.

    ``center``/``radii`` default to the family domain center with radii
    scaled to keep the extraction contour strictly inside the domain.  The
    coefficients come from F on the n-node contour grid, read from ``sampler``.
    The default degree is n // 2 - 1 (n = 64 if neither is given), capped at
    ``MAX_TAYLOR_DEGREE``; below ``MIN_ORDER_BOUND_DEGREE`` the grid is raised
    to 2 * MIN_ORDER_BOUND_DEGREE + 2 nodes.  A degree without n means
    n = 2 * degree + 2.
    The tail is the maximum over atoms of the per-atom geometric-fit
    estimate; it raises :class:`TailEstimateError` instead of guessing when
    the computed coefficients do not decay geometrically.
    """
    if not 0.0 < shrink <= 1.0:
        raise ValueError(f"shrink must lie in (0, 1], got {shrink}")
    if center is None:
        center = fam.domain.center
    if radii is None:
        radii = fam.domain.radius * CONTOUR_SHRINK
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if degree is None:
        n = max(64 if n is None else n, 2 * MIN_ORDER_BOUND_DEGREE + 2)
        degree = min(n // 2 - 1, MAX_TAYLOR_DEGREE)
    sampler = sampler or fam.sampler(space)
    coeffs = taylor_coefficients(lambda pts: sampler(pts).values, center, radii, degree, n)
    d = fam.d

    # radius-scaled magnitudes: gamma_m = |c_m| * prod_j r_j^{m_j}
    rad_scale = reduce(np.multiply.outer, [radii[j] ** np.arange(degree + 1) for j in range(d)])
    gamma = np.abs(coeffs) * rad_scale[..., None]
    rho_scale = reduce(np.multiply.outer,
                       [shrink ** np.arange(degree + 1) for _ in range(d)])
    u = np.sum(gamma * rho_scale[..., None], axis=tuple(range(d)))

    total_degree = sum(np.meshgrid(*[np.arange(degree + 1)] * d, indexing="ij")).ravel()
    tail = 0.0
    rate = 0.0
    scale = 0.0
    for g in gamma.reshape(-1, space.natoms).T:
        shell = np.bincount(total_degree, weights=g)[:degree + 1]
        t_i, q_i, c_i = _tail_from_degrees(shell, degree, shrink, d)
        if t_i > tail:
            tail, rate, scale = t_i, q_i, c_i
    return OrderBound(u=u, tail=tail, fit_rate=rate, fit_scale=scale,
                      degree=degree, shrink=shrink)

"""Checkers for the interchange, bound, and membership assertions.

Each checker evaluates both sides of one identity or inequality through two
genuinely distinct numerical routes and reports the residual in a
:class:`CheckReport`.  Identities whose two routes are algebraically the
same finite sum (Dirac and generic-measure functionals, the vector/scalar
derivative consistency) carry a tight tolerance of 1e-12; identities where
one side is a quadrature approximation of an exact action (derivative
functionals) default to 1e-9 at 64 nodes and shrink <= 0.5, and their
residuals decay geometrically in the node count.

Sup norms over the domain are approximated from below on the run's n-node
contour grid, ``sup_grid(domain, n, CONTOUR_SHRINK)``, which the quadrature
checks sample anyway; by the maximum principle the sup over that polydisc lies
on its distinguished boundary.  ``norm_bound`` adds the functional's own nodes,
so its bound is a finite triangle inequality that grid placement cannot break,
and ``schwarz`` adds its sample values.

Checkers that contract the family's values on a point set take an optional
``sampler`` (:meth:`holofubini.family.HoloFamily.sampler`) and read every
such set from it, so one sampler passed to a whole battery evaluates each
boundary point set once; without one a checker samples for itself.  Checks
are otherwise independent pure computations and may still run concurrently,
because shared samples are read-only; reports are merged by canonical
ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cauchy import derivative_rule, order_bound, schwarz_violation
from .domain import CONTOUR_SHRINK, Polydisc, as_multi_index, sample_polydisc, torus_nodes

__all__ = [
    "CheckReport",
    "linearization_residual",
    "fubini_residual",
    "derivative_consistency",
    "diff_under_integral",
    "norm_bound_check",
    "span_residual",
    "span_monotonicity",
    "sup_grid",
    "OrderProfile",
    "derivative_profile",
    "telescoping_residual",
    "order_bound_check",
    "schwarz_check",
    "TOL_EXACT",
    "TOL_QUADRATURE",
    "CONTOUR_SHRINK",
]

#: identities whose two sides are the same finite sum up to reassociation
TOL_EXACT = 1e-12
#: identities with a quadrature side, at 64 nodes and sampling shrink <= 0.5
TOL_QUADRATURE = 1e-9


@dataclass
class CheckReport:
    """Outcome of a single check; ``passed`` holds iff residual <= tol."""

    name: str
    family: str
    functional: str
    params: dict = field(default_factory=dict)
    lhs: complex | float = 0.0
    rhs: complex | float = 0.0
    residual: float = 0.0
    tol: float = 0.0
    passed: bool = True

    @classmethod
    def build(cls, name, family, functional, lhs, rhs, residual, tol, **params):
        residual = float(residual)
        tol = float(tol)
        return cls(name=name, family=family, functional=functional, params=params,
                   lhs=lhs, rhs=rhs, residual=residual, tol=tol,
                   passed=bool(residual <= tol))

    @classmethod
    def failed(cls, name, family, exc):
        """The failing report of a check that raised ``exc`` instead of finishing."""
        return cls(name=name, family=family, functional="", params={"error": str(exc)},
                   lhs=math.inf, rhs=0.0, residual=math.inf, tol=0.0, passed=False)

    def describe(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return (f"{state} {self.name} family={self.family} functional={self.functional} "
                f"residual={self.residual:.3e} tol={self.tol:.1e}")


def _worst_dual(space, vec, duals, applied) -> tuple[complex, complex, float]:
    """(lhs, rhs, residual) of the dual vector h whose pairing <vec, h> lies
    farthest from its entry of ``applied``."""
    paired = space.pairing(vec, duals)
    gaps = np.abs(paired - applied)
    worst = int(np.argmax(gaps))
    return complex(paired[worst]), complex(applied[worst]), gaps[worst]


def linearization_residual(phi, fam, space, duals, p: float = 2.0,
                           tol: float = TOL_EXACT, sampler=None) -> CheckReport:
    """|<phi.apply_slices(...), h> - phi(z -> <F(z), h>)| maximized over dual vectors.

    Verifies the defining identity of the representing vector (phi(f(., t_i)))_i;
    both sides rearrange the same finite sum, so residuals are pure roundoff.
    ``phi`` is applied to all dual vectors in one product.
    """
    duals = np.array(list(duals), dtype=complex, ndmin=2)
    lhs, rhs, residual = _worst_dual(space, phi.apply_slices(fam, space, sampler), duals,
                                     phi.apply_dual(fam, duals, space, sampler))
    return CheckReport.build(
        "linearization", fam.label, phi.label, lhs, rhs, residual, tol,
        p=p, duals=len(duals),
    )


def fubini_residual(phi, fam, h, space, p: float, tol: float | None = None,
                    sampler=None) -> CheckReport:
    """Interchange check: integrate-then-apply versus apply-then-integrate.

    The left side pairs the ideal slicewise action of the functional
    (closed forms for Dirac and derivative semantics) with the dual vector
    h; the right side applies the functional's quadrature measure to
    z -> <F(z), h>.  For derivative functionals the residual is the
    quadrature error of the measure realization and decays geometrically in
    its node count; for Dirac and generic measures the two sides coincide
    up to reassociation.  ``h`` may also be a stack of dual vectors of shape
    (m, k); the report is then the one with the largest residual.
    """
    if tol is None:
        tol = TOL_QUADRATURE if phi.meaning == "derivative" else TOL_EXACT
    h = np.array(h, dtype=complex, ndmin=2)
    lhs, rhs, residual = _worst_dual(space, phi.ideal_slices(fam, space, sampler), h,
                                     phi.apply_dual(fam, h, space, sampler))
    return CheckReport.build(
        "fubini", fam.label, phi.label, lhs, rhs, residual, tol,
        p=p, alpha=list(phi.alpha) if phi.alpha else None,
    )


def derivative_consistency(fam, space, center, alpha, radii, n: int = 64,
                           p: float | list[float] = 2.0, tol: float = 1e-10,
                           sampler=None) -> CheckReport | list[CheckReport]:
    """Vector-level Cauchy derivative of F versus the per-atom scalar route.

    Both routes apply the derivative rule of each multi-index on the contour
    grid of (center, radii, n).  The vector route contracts the rule's
    weights with the sampled vectors F(w_k), read from ``sampler``.  The
    scalar route evaluates each slice f(., t_i) on the grid through
    :meth:`HoloFamily.slice`, once per call, and sums the weighted values of
    each atom as :func:`holofubini.cauchy.cauchy_derivative` does; it never
    reads the sample.  Agreement in the weighted p-norm certifies that
    differentiating the vector function and differentiating each slice
    commute.  ``alpha`` may be one multi-index or a sequence of them, and
    ``p`` one exponent or a list: a single alpha with a scalar p gives one
    report, anything else a list ordered by (alpha, p).
    """
    batched = np.ndim(alpha) == 2
    alphas = [as_multi_index(a, fam.d) for a in (alpha if batched else [alpha])]
    pts, rows = derivative_rule(center, alphas, radii, n)
    vectors = (sampler or fam.sampler(space))(pts).values
    slices = np.stack([fam.slice(t)(pts) for t in space.params])
    reports = []
    for a, weights in zip(alphas, rows):
        vector_route = weights @ vectors
        scalar_route = np.sum(weights * slices, axis=1)
        routes = np.stack([vector_route, scalar_route, vector_route - scalar_route])
        reports += [
            CheckReport.build("derivative_consistency", fam.label, "",
                              *space.lp_norm(routes, q).tolist(), tol, p=q, alpha=list(a), n=n)
            for q in np.atleast_1d(p).tolist()
        ]
    return reports if batched or np.ndim(p) else reports[0]


def diff_under_integral(fam, h, space, center, alpha, radii, n: int = 64,
                        tol: float = 1e-10, sampler=None) -> CheckReport:
    """D^alpha of z -> <F(z), h> at ``center`` versus pairing the slice derivatives.

    The left side differentiates the composed scalar map by boundary
    quadrature on the contour grid of (center, radii, n), read from
    ``sampler``; the right side pairs the closed-form per-atom derivatives
    with h.  The residual is the quadrature error and decays geometrically
    in n.
    """
    alpha = as_multi_index(alpha, fam.d)
    h = np.asarray(h, dtype=complex)
    hw = h * space.weights
    pts, weights = derivative_rule(center, alpha, radii, n)
    composed = (sampler or fam.sampler(space))(pts).values @ hw
    lhs = complex(np.sum(weights * composed))
    rhs = complex(fam.deriv_vector(center, space, alpha) @ hw)
    return CheckReport.build(
        "diff_under_integral", fam.label, "", lhs, rhs, abs(lhs - rhs), tol,
        alpha=list(alpha), n=n,
    )


def sup_grid(domain: Polydisc, density: int, shrink: float) -> np.ndarray:
    """Deterministic boundary grid used for sup estimates over the domain."""
    return torus_nodes(domain.shrunk(shrink), max(int(density), 4)).grid()


def norm_bound_check(phis, fam, space, p: float, n: int = 64,
                     sampler=None) -> list[CheckReport]:
    """||phi.apply_slices(...)||_p <= total_variation(phi) * sup_z ||F(z)||_p for each phi.

    The sup is taken over ``sup_grid(domain, n, CONTOUR_SHRINK)``, read from
    ``sampler``, together with the functional's own nodes; with the nodes
    included the bound is a finite triangle inequality, while the grid only
    raises the right side toward the true sup.  Passing means lhs <= rhs * (1 + 1e-9).
    The functionals share the grid's row norms; one that raises gets the
    failing report of :meth:`CheckReport.failed` and leaves the others' reports.
    """
    sampler = sampler or fam.sampler(space)
    grid = sampler(sup_grid(fam.domain, n, CONTOUR_SHRINK))
    grid_sup = float(np.max(space.lp_norm(grid.values, p)))
    reports = []
    for phi in phis:
        try:
            lhs = space.lp_norm(phi.apply_slices(fam, space, sampler), p)
            nodes_sup = float(np.max(space.lp_norm(sampler(phi.nodes).values, p)))
        except (ValueError, ArithmeticError) as exc:
            reports.append(CheckReport.failed("norm_bound", fam.label, exc))
            continue
        rhs = phi.total_variation * max(grid_sup, nodes_sup)
        reports.append(CheckReport.build(
            "norm_bound", fam.label, phi.label, lhs, rhs, max(0.0, lhs - rhs), 1e-9 * rhs, p=p,
        ))
    return reports


def span_residual(phi, fam, space, sample_points, tol: float = 1e-8,
                  sampler=None) -> CheckReport:
    """Weighted-L2 distance of phi.apply_slices(...) from span{F(z_k)} by least squares.

    Atom weights define the inner product for every p; rank-deficient
    sample sets fall back to the minimum-norm solution.  The distance is
    nonincreasing under enlarging a nested sample set.
    """
    sample_points = [np.atleast_1d(np.asarray(z, dtype=complex)) for z in sample_points]
    if not sample_points:
        raise ValueError("need at least one sample point")
    vec = phi.apply_slices(fam, space, sampler)
    sqrt_w = np.sqrt(space.weights)
    sample = (sampler or fam.sampler(space))(np.stack(sample_points))
    columns = np.ascontiguousarray(sample.values.T)
    a = columns * sqrt_w[:, None]
    b = vec * sqrt_w
    coeff, *_ = np.linalg.lstsq(a, b, rcond=None)
    distance = float(np.linalg.norm(a @ coeff - b))
    return CheckReport.build(
        "span", fam.label, phi.label, distance, 0.0, distance, tol,
        samples=len(sample_points),
    )


def span_monotonicity(phi, fam, space, sample_points, more_points,
                      tol: float = 1e-12, sampler=None) -> CheckReport:
    """Distance with the enlarged nested sample set never exceeds the original."""
    sampler = sampler or fam.sampler(space)
    base = span_residual(phi, fam, space, sample_points, tol=np.inf, sampler=sampler)
    grown = span_residual(phi, fam, space, list(sample_points) + list(more_points),
                          tol=np.inf, sampler=sampler)
    excess = max(0.0, grown.residual - base.residual)
    return CheckReport.build(
        "span", fam.label, phi.label, base.residual, grown.residual,
        excess, tol * (1.0 + base.residual), samples=len(list(sample_points)),
    )


@dataclass
class OrderProfile:
    """Finiteness profile of one derivative order over a region grid.

    ``profile[i]`` is the per-atom sup over the grid of |D^n f(z, t_i)|;
    ``sup_integral`` is the sup over the grid of the mu-weighted absolute
    integral of the derivative slice.
    """

    order: int
    profile: np.ndarray
    sup_integral: float

    @property
    def finite(self) -> bool:
        return bool(np.all(np.isfinite(self.profile)) and math.isfinite(self.sup_integral))


def derivative_profile(fam, space, max_order: int, region_grid, contour_radii,
                       n: int = 64, sampler=None) -> list[OrderProfile]:
    """Per-order sup profiles of |D^n_z f| over a grid, for univariate domains.

    For each order up to ``max_order`` the derivative is computed by
    boundary quadrature on a contour of ``contour_radii`` about each grid
    point, so every contour must stay inside the family domain.  Each
    contour gets one derivative rule for all orders and is sampled once.
    """
    if fam.d != 1:
        raise ValueError("derivative profiles are defined for univariate domains only")
    grid = [np.atleast_1d(np.asarray(z, dtype=complex)) for z in region_grid]
    if not grid:
        raise ValueError("region grid must be nonempty")
    sampler = sampler or fam.sampler(space)
    mags = np.empty((max_order + 1, len(grid), space.natoms))
    for gi, a in enumerate(grid):
        pts, rows = derivative_rule(a, [(o,) for o in range(max_order + 1)], contour_radii, n)
        values = sampler(pts).values
        for order, weights in enumerate(rows):
            mags[order, gi] = np.abs(weights @ values)
    return [
        OrderProfile(order=order, profile=m.max(axis=0),
                     sup_integral=float(np.max(m @ space.weights)))
        for order, m in enumerate(mags)
    ]


def telescoping_residual(fam, space, n_pairs: int = 200, sample_shrink: float = 0.5,
                         seed: int = 0, n: int = 64, sampler=None) -> CheckReport:
    """Multivariate increment bound via one Schwarz step per variable.

    For sampled pairs z, a in the sample_shrink polydisc, checks
    ``max_i |f(z, t_i) - f(a, t_i)| <= 2 B sum_j |z_j - a_j| / r_j`` where B
    is max |F| on ``sup_grid(domain, n, CONTOUR_SHRINK)``, read from ``sampler``,
    and r_j is the margin (CONTOUR_SHRINK - sample_shrink) * radius_j.  That grid
    is a run's n-node contour grid, a lower estimate of the sup on its polydisc.
    """
    if not sample_shrink < CONTOUR_SHRINK:
        raise ValueError("sampling region must sit strictly inside the sup region")
    rng = np.random.default_rng(seed)
    margin = (CONTOUR_SHRINK - sample_shrink) * fam.domain.radius
    grid = sup_grid(fam.domain, n, CONTOUR_SHRINK)
    bound = float(np.max(np.abs((sampler or fam.sampler(space))(grid).values)))
    z = sample_polydisc(fam.domain, n_pairs, sample_shrink, rng)
    a = sample_polydisc(fam.domain, n_pairs, sample_shrink, rng)
    fz = fam.eval(z[:, None, :], space.params)
    fa = fam.eval(a[:, None, :], space.params)
    lhs = np.max(np.abs(fz - fa), axis=1)
    rhs = 2.0 * bound * np.sum(np.abs(z - a) / margin, axis=1)
    worst = float(np.max(lhs - rhs))
    return CheckReport.build(
        "telescoping", fam.label, "", worst, 0.0, max(0.0, worst),
        1e-12 * (1.0 + bound), pairs=n_pairs, n=n,
    )


def order_bound_check(fam, space, degree: int | None = None, shrink: float = 0.5,
                      n_samples: int = 200, seed: int = 0, n: int | None = None,
                      sampler=None) -> CheckReport:
    """Taylor-majorant domination: |f(z, t_i)| <= u_i + tail on sampled z.

    The center, contour, degree and n-node contour sample (from ``sampler``)
    follow :func:`holofubini.cauchy.order_bound`; sample points fill the closed
    shrink-polydisc.  The reported tail always comes from the geometric fit.
    """
    ob = order_bound(fam, space, degree=degree, shrink=shrink, n=n, sampler=sampler)
    z = sample_polydisc(fam.domain.shrunk(CONTOUR_SHRINK), n_samples, shrink,
                        np.random.default_rng(seed))
    values = np.abs(fam.eval(z[:, None, :], space.params))
    excess = float(np.max(values - ob.u[None, :]))
    tol = 1e-12 * (1.0 + float(np.max(ob.u)))
    return CheckReport.build(
        "order_bound", fam.label, "", excess, ob.tail, max(0.0, excess - ob.tail),
        tol, degree=ob.degree, shrink=shrink, tail_method=ob.tail_method,
    )


def schwarz_check(fam, space, samples: int = 1000, seed: int = 0, n: int = 64) -> CheckReport:
    """Schwarz increment bound on every atom slice of a univariate family, each
    slice's sup taken on the n-node contour ring."""
    if fam.d != 1:
        raise ValueError("the Schwarz check applies to univariate domains only")
    center = complex(fam.domain.center[0])
    radius = float(fam.domain.radius[0]) * CONTOUR_SHRINK
    worst = max(
        schwarz_violation(fam.slice(t), center, radius, samples=samples, seed=seed, n=n)
        for t in space.params
    )
    return CheckReport.build(
        "schwarz", fam.label, "", worst, 0.0, max(0.0, worst), 1e-12,
        samples=samples, slices=space.natoms,
    )

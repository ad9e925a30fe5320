"""Checkers for the interchange, bound, and membership assertions.

Each checker evaluates both sides of one identity or inequality through two
genuinely distinct numerical routes and reports the residual in a
:class:`CheckReport`.  Identities whose two routes are algebraically the
same finite sum (linearization; fubini for Dirac and generic measures) carry
``TOL_EXACT``; identities where one side is a quadrature approximation of an
exact action (fubini for derivative functionals, derivative_consistency and
diff_under_integral against the closed forms) carry ``TOL_QUADRATURE``, set for
64 nodes and shrink <= 0.5; their residuals decay geometrically in the node count.

Every checker takes the run's :class:`~holofubini.family.ContourSample`: F on
the n-node contour grid (the domain center, CONTOUR_SHRINK of the radii),
evaluated on first read, and F on each functional's nodes, evaluated once per
functional.  The contour values serve every checker derivative at the center
and every sup over the domain, which they estimate from below: by the maximum
principle the sup over the contour polydisc lies on its distinguished boundary.
``derivative_consistency`` and ``order_bound`` read one Taylor table that the
sample keeps, so a run takes one FFT of its contour values; ``norm_bound`` takes
every exponent's grid sup in one pass over blocks of contour rows and adds the
functional's own nodes, so its bound is a finite triangle inequality that grid
placement cannot break, and ``schwarz`` adds its sample values.  The sample also
keeps each functional's slice vector and its values on each stack of dual
vectors, which linearization, fubini, norm_bound and span share; the functionals
on the contour get theirs from one pass over blocks of it per stack, whose node
sums call no BLAS, so no report depends on the BLAS thread count.  Linearization
and fubini report both sides for the first dual vector of a stack beside the
largest residual over it.  The sample keeps each closed-form vector that fubini,
derivative_consistency and diff_under_integral read, too.  Points a check draws
for itself (the span, telescoping, order_bound and schwarz samples and the
derivative_profile contours, which take only the sample's family and space and
have ``PROFILE_NODES`` nodes whatever the run's n) are drawn once per check and
evaluated where they are drawn; telescoping, order_bound, schwarz and
derivative_profile evaluate theirs for a block of atoms or contours per call, of
at most ``EVAL_BLOCK`` complex values unless one atom or contour takes more, so
none pays one call per atom or contour nor holds all of them at once.  Samples are
read-only, so checks may run concurrently; reports are merged by canonical
ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .cauchy import contour_derivatives, order_bound, schwarz_violation
from .domain import (CONTOUR_SHRINK, Polydisc, as_multi_index, multi_factorial,
                     sample_polydisc, torus_nodes)
from .family import ContourSample

__all__ = [
    "CheckReport",
    "linearization_residual",
    "fubini_residual",
    "derivative_consistency",
    "diff_under_integral",
    "norm_bound_check",
    "span_residual",
    "span_monotonicity",
    "derivative_profile",
    "telescoping_residual",
    "order_bound_check",
    "schwarz_check",
    "TOL_EXACT",
    "TOL_QUADRATURE",
    "CONTOUR_SHRINK",
]

#: Complex values (128 KiB) that telescoping, order_bound, schwarz and
#: derivative_profile evaluate per family call: each call takes as many atoms or
#: contours as fit, and at least one
EVAL_BLOCK = 8192
#: derivative_profile reports orders 0..PROFILE_MAX_ORDER on PROFILE_GRID region points,
#: each read on a contour of PROFILE_NODES nodes whatever the run's n: at its radius
#: of 0.05 r the trapezoid error falls geometrically in the node count, and 32 nodes
#: hold the rate-0.99 geometric family (pole at |z| = 1.0101) to 1.1e-11 of its
#: closed-form maxima, relative to max(maximum, 1), where 24 leave 5.9e-9
PROFILE_MAX_ORDER = 4
PROFILE_GRID = 32
PROFILE_NODES = 32
#: identities whose two sides are the same finite sum up to reassociation, and
#: span_monotonicity's growth relative to 1 + the base distance
TOL_EXACT = 1e-12
#: identities with a quadrature side, at 64 nodes and sampling shrink <= 0.5
TOL_QUADRATURE = 1e-9
#: span_residual's weighted-L2 distance from the span
TOL_SPAN = 1e-8
#: points order_bound and schwarz draw, and pairs telescoping draws
ORDER_BOUND_SAMPLES = 200
SCHWARZ_SAMPLES = 1000
TELESCOPING_PAIRS = 200


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


def _dual_sides(space, vec, duals, applied) -> tuple[complex, complex, float]:
    """(lhs, rhs, residual): the pairing <vec, h> and its entry of ``applied`` for the
    first dual vector h of the stack, and the largest gap between them over the stack.
    The sides shown do not depend on which gap roundoff makes the largest."""
    paired = space.pairing(vec, duals)
    return complex(paired[0]), complex(applied[0]), np.max(np.abs(paired - applied))


def linearization_residual(phi, sample: ContourSample, duals, p: float = 2.0) -> CheckReport:
    """|<phi.apply_slices(...), h> - phi(z -> <F(z), h>)| maximized over dual vectors.

    Verifies the defining identity of the representing vector (phi(f(., t_i)))_i;
    both sides rearrange the same finite sum, so residuals are pure roundoff.
    Both sides are the sample's, the right one for all dual vectors in one pass.  The
    report shows both sides for the first dual vector and the largest residual.
    """
    duals = np.array(list(duals), dtype=complex, ndmin=2)
    lhs, rhs, residual = _dual_sides(sample.space, sample.slice_vector(phi), duals,
                                     sample.dual_values(phi, duals))
    return CheckReport.build(
        "linearization", sample.fam.label, phi.label, lhs, rhs, residual, TOL_EXACT,
        p=p, duals=len(duals),
    )


def fubini_residual(phi, sample: ContourSample, h, p: float) -> CheckReport:
    """Interchange check: integrate-then-apply versus apply-then-integrate.

    The left side pairs the ideal slicewise action of the functional
    (closed forms for Dirac and derivative semantics) with the dual vector
    h; the right side applies the functional's quadrature measure to
    z -> <F(z), h>.  For derivative functionals the residual is the
    quadrature error of the measure realization and decays geometrically in
    its node count; for Dirac and generic measures the two sides coincide
    up to reassociation.  ``h`` may also be a stack of dual vectors of shape
    (m, k); the report then shows both sides for the first of them and the largest
    residual over the stack.  The right side
    is the sample's, shared with ``linearization`` on the same stack.  The tolerance
    is ``TOL_QUADRATURE`` for derivative functionals and ``TOL_EXACT`` otherwise.
    """
    tol = TOL_QUADRATURE if phi.meaning == "derivative" else TOL_EXACT
    h = np.array(h, dtype=complex, ndmin=2)
    lhs, rhs, residual = _dual_sides(sample.space, phi.ideal_slices(sample), h,
                                     sample.dual_values(phi, h))
    return CheckReport.build(
        "fubini", sample.fam.label, phi.label, lhs, rhs, residual, tol,
        p=p, alpha=list(phi.alpha) if phi.alpha else None,
    )


def derivative_consistency(sample: ContourSample, alphas,
                           p: list[float] | tuple[float, ...] = (2.0,)) -> list[CheckReport]:
    """Vector-level Cauchy derivative of F versus the closed-form slice derivatives.

    The vector route reads every multi-index of ``alphas`` as alpha! c_alpha from the
    sample's Taylor table (:meth:`~holofubini.family.ContourSample.taylor_table`), the
    trapezoid sum of :func:`holofubini.cauchy.contour_derivatives`; the slice route is
    the closed form D^alpha_z f(center, t_i) of
    :meth:`HoloFamily.deriv_vector` at the sample's center, kept on the sample
    (:meth:`~holofubini.family.ContourSample.closed_form`).  Agreement in the
    weighted p-norm certifies that D^alpha of the L^p-valued map is the slicewise
    derivative; the residual is the quadrature error and decays geometrically in
    n.  Returns one report per (alpha, p), ordered by alpha, for each exponent of
    the list ``p``.
    """
    fam, space = sample.fam, sample.space
    alphas = [as_multi_index(a, fam.d) for a in alphas]
    order = max(max(a) for a in alphas)
    if sample.n <= order + 1:
        raise ValueError(f"node count {sample.n} is too small for derivative order {order}")
    table = sample.taylor_table(order)
    reports = []
    for a in alphas:
        vec = multi_factorial(a) * table[a]
        closed = sample.closed_form(sample.center, a)
        routes = np.stack([vec, closed, vec - closed])
        reports += [
            CheckReport.build("derivative_consistency", fam.label, "",
                              *space.lp_norm(routes, q).tolist(), TOL_QUADRATURE, p=q,
                              alpha=list(a), n=sample.n)
            for q in map(float, p)
        ]
    return reports


def diff_under_integral(sample: ContourSample, h, alphas) -> list[CheckReport]:
    """D^alpha of z -> <F(z), h> at the sample's center versus pairing the slice derivatives.

    The left side differentiates the composed scalar map on the sample's contour:
    every multi-index of ``alphas`` is read from one FFT of its values z -> <F(z), h>
    by :func:`holofubini.cauchy.contour_derivatives`.  The right side pairs the
    closed-form per-atom derivatives with h.  The residual is the quadrature error
    and decays geometrically in n.  Returns one report per alpha, in order.
    """
    fam, space = sample.fam, sample.space
    alphas = [as_multi_index(a, fam.d) for a in alphas]
    hw = np.asarray(h, dtype=complex) * space.weights
    composed = contour_derivatives(sample.values @ hw, alphas, sample.radii, sample.n)
    reports = []
    for a, lhs in zip(alphas, composed.tolist()):
        rhs = complex(sample.closed_form(sample.center, a) @ hw)
        reports.append(CheckReport.build(
            "diff_under_integral", fam.label, "", lhs, rhs, abs(lhs - rhs), TOL_QUADRATURE,
            alpha=list(a), n=sample.n,
        ))
    return reports


def norm_bound_check(phis, sample: ContourSample, p_list) -> list[CheckReport]:
    """||phi.apply_slices(...)||_p <= total_variation(phi) * sup_z ||F(z)||_p for each
    phi and each exponent of ``p_list``.

    The sup is taken over the sample's contour grid together with the functional's
    own nodes; with the nodes included the bound is a finite triangle inequality,
    while the grid only raises the right side toward the true sup.  Passing means
    lhs <= rhs * (1 + 1e-9).  Each sup is one root, of the largest row sum
    (:meth:`~holofubini.measure.FiniteMeasureSpace.max_lp_norms`); the grid's, for every
    p from one pass over blocks of the contour rows, serves every functional on the
    contour.  A functional that raises gets the failing report of
    :meth:`CheckReport.failed` and leaves the others' reports.
    """
    space = sample.space
    reports = []
    for p, grid_sup in zip(p_list, space.max_lp_norms(sample.values, p_list)):
        for phi in phis:
            try:
                lhs = space.lp_norm(sample.slice_vector(phi), p)
                values = sample.node_values(phi)
                nodes_sup = (grid_sup if values is sample.values
                             else space.max_lp_norms(values, [p])[0])
            except (ValueError, ArithmeticError) as exc:
                reports.append(CheckReport.failed("norm_bound", sample.fam.label, exc))
                continue
            rhs = phi.total_variation * max(grid_sup, nodes_sup)
            reports.append(CheckReport.build(
                "norm_bound", sample.fam.label, phi.label, lhs, rhs, max(0.0, lhs - rhs),
                1e-9 * rhs, p=p,
            ))
    return reports


def span_residual(phi, sample: ContourSample, sample_points) -> CheckReport:
    """Weighted-L2 distance of phi.apply_slices(...) from span{F(z_k)} by least squares.

    Atom weights define the inner product for every p; rank-deficient
    sample sets fall back to the minimum-norm solution.  The distance is
    nonincreasing under enlarging a nested sample set.
    """
    values = _span_values(sample, sample_points)
    distance = _span_distance(phi, sample, values)
    return CheckReport.build(
        "span", sample.fam.label, phi.label, distance, 0.0, distance, TOL_SPAN,
        samples=len(values),
    )


def span_monotonicity(phi, sample: ContourSample, sample_points, more_points) -> CheckReport:
    """Distance with the enlarged nested sample set never exceeds the original; the
    two point sets are evaluated together, and the base distance reads the first rows."""
    base_count = len(sample_points)
    values = _span_values(sample, list(sample_points) + list(more_points))
    base = _span_distance(phi, sample, values[:base_count])
    grown = _span_distance(phi, sample, values)
    return CheckReport.build(
        "span", sample.fam.label, phi.label, base, grown, max(0.0, grown - base),
        TOL_EXACT * (1.0 + base), samples=base_count,
    )


def _span_values(sample: ContourSample, points) -> np.ndarray:
    """F at each of ``points``, shape (points, k)."""
    points = [np.atleast_1d(np.asarray(z, dtype=complex)) for z in points]
    if not points:
        raise ValueError("need at least one sample point")
    return sample.fam.eval(np.stack(points)[:, None, :], sample.space.params)


def _span_distance(phi, sample: ContourSample, values: np.ndarray) -> float:
    """Weighted-L2 distance of phi's slice vector from the span of the rows of ``values``."""
    if not len(values):
        raise ValueError("need at least one sample point")
    sqrt_w = np.sqrt(sample.space.weights)
    a = np.ascontiguousarray(values.T) * sqrt_w[:, None]
    b = sample.slice_vector(phi) * sqrt_w
    coeff, *_ = np.linalg.lstsq(a, b, rcond=None)
    return float(np.linalg.norm(a @ coeff - b))


def derivative_profile(sample: ContourSample) -> list[CheckReport]:
    """Finiteness of the sup of |D^m_z f| over a region grid, for univariate domains.

    The region grid is ``PROFILE_GRID`` points of the torus at 0.9 of the family's
    domain radius.  Every order m up to ``PROFILE_MAX_ORDER`` is read from the
    values on a contour of radius (CONTOUR_SHRINK - 0.9) r and ``PROFILE_NODES``
    nodes about each grid point, by :func:`holofubini.cauchy.contour_derivatives`;
    the node count is fixed, so the reports do not depend on the sample's n.  The
    contours are evaluated in blocks of at most max(1, EVAL_BLOCK // (PROFILE_NODES
    k)) grid points: one evaluation of the block's points, center + the offsets of
    one origin-centered contour, and one FFT for every order and contour of the
    block.  Returns one report per order: ``lhs`` the sup over the grid of the
    mu-weighted integral of |D^m f|, ``rhs`` the largest |D^m f(z, t_i)|, and a
    residual of 0 when both are finite and inf otherwise; each carries n =
    PROFILE_NODES.  It reads only the sample's family and space.
    """
    fam, space, n = sample.fam, sample.space, PROFILE_NODES
    if fam.d != 1:
        raise ValueError("derivative profiles are defined for univariate domains only")
    grid = torus_nodes(fam.domain.shrunk(0.9), PROFILE_GRID).grid()
    radii = (CONTOUR_SHRINK - 0.9) * fam.domain.radius
    orders = [(order,) for order in range(PROFILE_MAX_ORDER + 1)]
    offsets = torus_nodes(Polydisc(np.zeros(1), radii), n).grid()
    block = max(1, EVAL_BLOCK // (n * space.natoms))
    mags = np.empty((len(orders), len(grid), space.natoms))
    for start in range(0, len(grid), block):
        pts = grid[start:start + block] + offsets[:, None, :]
        values = fam.eval(pts[:, :, None, :], space.params)
        mags[:, start:start + block] = np.abs(contour_derivatives(values, orders, radii, n))
    reports = []
    for order, m in enumerate(mags):
        lhs, rhs = float(np.max(m @ space.weights)), float(m.max())
        finite = math.isfinite(lhs) and math.isfinite(rhs)
        reports.append(CheckReport.build("derivative_profile", fam.label, "", lhs, rhs,
                                         0.0 if finite else math.inf, 0.0, alpha=[order],
                                         n=n))
    return reports


def telescoping_residual(sample: ContourSample, sample_shrink: float = 0.5,
                         seed: int = 0) -> CheckReport:
    """Multivariate increment bound via one Schwarz step per variable.

    For ``TELESCOPING_PAIRS`` sampled pairs z, a in the sample_shrink polydisc, checks
    ``max_i |f(z, t_i) - f(a, t_i)| <= 2 B sum_j |z_j - a_j| / r_j`` where B is
    the sample's ``sup``: max |F| on its contour grid, a run's n-node grid at
    CONTOUR_SHRINK of the radii and so a lower estimate of the sup on its polydisc.
    r_j is the margin (CONTOUR_SHRINK - sample_shrink) * radius_j.  z and a are
    evaluated for blocks of max(1, EVAL_BLOCK // TELESCOPING_PAIRS) atoms per call, and
    each pair's max is taken over the blocks.
    """
    if not sample_shrink < CONTOUR_SHRINK:
        raise ValueError("sampling region must sit strictly inside the sup region")
    fam, params = sample.fam, sample.space.params
    rng = np.random.default_rng(seed)
    margin = (CONTOUR_SHRINK - sample_shrink) * fam.domain.radius
    bound, pairs = sample.sup, TELESCOPING_PAIRS
    z = sample_polydisc(fam.domain, pairs, sample_shrink, rng)
    a = sample_polydisc(fam.domain, pairs, sample_shrink, rng)
    lhs = np.max([
        np.max(np.abs(_eval_atoms(fam, params[atoms], z) - _eval_atoms(fam, params[atoms], a)),
               axis=1)
        for atoms in _atom_blocks(len(params), pairs)
    ], axis=0)
    rhs = 2.0 * bound * np.sum(np.abs(z - a) / margin, axis=1)
    worst = float(np.max(lhs - rhs))
    return CheckReport.build(
        "telescoping", fam.label, "", worst, 0.0, max(0.0, worst),
        1e-12 * (1.0 + bound), pairs=pairs, n=sample.n,
    )


def order_bound_check(sample: ContourSample, shrink: float = 0.5, seed: int = 0) -> CheckReport:
    """Taylor-majorant domination: |f(z, t_i)| <= u_i + tail on sampled z.

    The degree and the contour values follow :func:`holofubini.cauchy.order_bound`,
    and the report carries the node count of the contour it read;
    ``ORDER_BOUND_SAMPLES`` sample points fill the closed shrink-polydisc of the
    contour and are evaluated for blocks of max(1, EVAL_BLOCK // ORDER_BOUND_SAMPLES)
    atoms per call.  The reported tail is Cauchy's estimate from the contour's grid
    sup; it is not rigorous while that sup lies below the true one.
    """
    fam, params, samples = sample.fam, sample.space.params, ORDER_BOUND_SAMPLES
    ob = order_bound(sample, shrink=shrink)
    z = sample_polydisc(fam.domain.shrunk(CONTOUR_SHRINK), samples, shrink,
                        np.random.default_rng(seed))
    excess = float(np.max([
        np.max(np.abs(_eval_atoms(fam, params[atoms], z)) - ob.u[atoms])
        for atoms in _atom_blocks(len(params), samples)
    ]))
    tol = 1e-12 * (1.0 + float(np.max(ob.u)))
    return CheckReport.build(
        "order_bound", fam.label, "", excess, ob.tail, max(0.0, excess - ob.tail),
        tol, degree=ob.degree, shrink=shrink, n=ob.n,
    )


def schwarz_check(sample: ContourSample, seed: int = 0) -> CheckReport:
    """Schwarz increment bound on every atom slice of a univariate family, on the
    sample's contour disc, at ``SCHWARZ_SAMPLES`` points drawn once in it; each slice's
    sup is read from its column of the contour values.  The slices go to
    :func:`holofubini.cauchy.schwarz_violation` in blocks of max(1, EVAL_BLOCK //
    (SCHWARZ_SAMPLES + 1)) atoms, so a block's center and points are one evaluation."""
    fam, space, samples = sample.fam, sample.space, SCHWARZ_SAMPLES
    if fam.d != 1:
        raise ValueError("the Schwarz check applies to univariate domains only")
    center, radius = complex(sample.center[0]), float(sample.radii[0])
    z = sample_polydisc(Polydisc([center], [radius]), samples, 1.0,
                        np.random.default_rng(seed))[:, 0]
    worst = max(
        schwarz_violation(partial(_eval_atoms, fam, space.params[atoms]),
                          center, radius, sample.values[:, atoms], z)
        for atoms in _atom_blocks(space.natoms, samples + 1)
    )
    return CheckReport.build(
        "schwarz", fam.label, "", worst, 0.0, max(0.0, worst), 1e-12,
        samples=samples, slices=space.natoms,
    )


def _atom_blocks(natoms, points):
    """Slices of max(1, EVAL_BLOCK // points) atoms covering all natoms: the blocks in
    which the checks that evaluate ``points`` points per atom take their atoms."""
    block = max(1, EVAL_BLOCK // points)
    return [slice(start, start + block) for start in range(0, natoms, block)]


def _eval_atoms(fam, params, z):
    """F(z) restricted to the atoms ``params`` for points z of shape (m, d): (m, len(params))."""
    return fam.eval(z[:, None, :], params)

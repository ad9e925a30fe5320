"""Checkers for the interchange, bound, and membership assertions, and the battery's
table of them, :data:`CHECKS`, which the run, its dimension filter, the interior pass
and the work budget read.

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
functional.  The sample evaluates one grid row per orbit of conjugation, for a real
family, and at d = 1 of the reflection w -> -w with the atoms mirrored, for the
geometric, exponential and constant kinds about the center 0 on atoms symmetric about 0.
Those three kinds at d >= 2, products of one-variable factors, keep one one-variable
contour per distinct axis in place of the grid: geometric-d2 at n = 64 evaluates 2 x 17
rows for its 4,096, and exponential-d3 at n = 32 the 9 rows of its one axis for its
32,768.  derivative_profile evaluates the same leading points of its region grid (9 of
32 for a real reflective family).  The contour serves every checker derivative at the
center and every sup over the domain, which it estimates from below: by the maximum
principle the sup over the contour polydisc lies on its distinguished boundary.
``derivative_consistency`` and ``order_bound`` read one Taylor table that the sample
keeps, one FFT of its contour values or, for a product kind, one FFT per distinct axis
kept as it is.  linearization, fubini, norm_bound and diff_under_integral read
one pass over blocks of the contour (:meth:`~holofubini.family.ContourSample.run_pass`):
each block meets every dual stack of the run and the weights in one product, whose
node sums call no BLAS, so no report depends on the BLAS thread count; it keeps each
on-contour functional's values on each stack, every exponent's grid sup and
diff_under_integral's map z -> <F(z), 1>.  ``norm_bound`` adds the functional's own
nodes to the grid sup, so its bound is a finite triangle inequality that grid placement
cannot break, and ``schwarz`` and ``telescoping`` add F at the center: they are one
Schwarz increment bound under two record names, schwarz at d = 1 and telescoping at
d >= 2, while the benchmark names both.  The sample also keeps each functional's slice
vector, which linearization, norm_bound and span share, and each closed-form vector that
fubini, derivative_consistency and diff_under_integral read.  Linearization and fubini
report both sides for the first dual vector of a stack beside the largest residual over
it.  The sample is built with the run's checks, shrink and seed, and draws one interior
sequence in the domain's shrink polydisc (:func:`interior_pass`), the only points span,
telescoping, order_bound and schwarz read, so their records depend on the shrink: it
evaluates the longest prefix its checks read once, for blocks of atoms, and keeps only
what they read of it.  The derivative_profile contours take only the sample's family and
space and have at most ``PROFILE_NODES`` nodes whatever the run's n: each atom reads
their even half, and the odd half too only where the error estimate of that half's FFT
leaves it unresolved.  The interior pass and derivative_profile evaluate for a block of
atoms per call, of at most ``EVAL_BLOCK`` complex values unless one atom takes more, so
neither pays one call per atom nor holds all atoms at once.
Samples are read-only, so checks may run concurrently; reports are merged by canonical
ordering.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .cauchy import contour_derivatives, order_bound, schwarz_violation
from .domain import (CONTOUR_SHRINK, Polydisc, as_multi_index, multi_factorial,
                     sample_polydisc, torus_nodes)
from .family import ContourSample, _ring_count

__all__ = [
    "CheckReport",
    "Check",
    "CHECKS",
    "run_checks",
    "linearization_residual",
    "fubini_residual",
    "derivative_consistency",
    "diff_under_integral",
    "norm_bound_check",
    "span_residual",
    "span_monotonicity",
    "interior_pass",
    "InteriorPass",
    "derivative_profile",
    "telescoping_residual",
    "order_bound_check",
    "schwarz_check",
    "TOL_EXACT",
    "TOL_QUADRATURE",
    "CONTOUR_SHRINK",
]

#: Complex values (128 KiB) that the interior pass and derivative_profile evaluate per
#: family call: each call takes as many atoms as fit, and at least one
EVAL_BLOCK = 8192
#: derivative_profile reports orders 0..PROFILE_MAX_ORDER on PROFILE_GRID region points,
#: each read on a contour of at most PROFILE_NODES nodes whatever the run's n: every
#: atom reads its PROFILE_NODES / 2 even nodes and refines to PROFILE_NODES where their
#: error estimate asks (:func:`_profile_magnitudes`).  At its radius of 0.05 r the
#: trapezoid error falls geometrically in the node count: the presets sit at their
#: roundoff floor from 12 nodes on, while 32 nodes hold the rate-0.99 geometric family
#: (pole at |z| = 1.0101) to 1.1e-11 of its closed-form maxima, relative to
#: max(maximum, 1), where 24 leave 5.9e-9 and 16 leave 3.3e-6
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
#: the fraction of its norm that a row of span's points must keep, orthogonal to the
#: rows before it, to add a direction: duplicated points add none
SPAN_RANK_TOL = 1e-12
#: points of the interior sequence order_bound, schwarz and telescoping read
ORDER_BOUND_SAMPLES = 200


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

    The left side differentiates the composed scalar map z -> <F(z), h> on the sample's
    contour (:meth:`~holofubini.family.ContourSample.composed`): every multi-index of
    ``alphas`` is read from one FFT of it by :func:`holofubini.cauchy.contour_derivatives`.
    The right side pairs the closed-form per-atom derivatives with h.  The residual is
    the quadrature error and decays geometrically in n.  Returns one report per alpha, in
    order.
    """
    fam, space = sample.fam, sample.space
    alphas = [as_multi_index(a, fam.d) for a in alphas]
    hw = np.asarray(h, dtype=complex) * space.weights
    composed = contour_derivatives(sample.composed(h), alphas, sample.radii, sample.n)
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
    (:meth:`~holofubini.measure.FiniteMeasureSpace.max_lp_norms`); the grid's, every p's
    from the sample's one pass over the contour, serves every functional on it, and
    each other's is its nodes' (:meth:`~holofubini.family.ContourSample.grid_sups`).  A
    functional that raises gets the failing report of :meth:`CheckReport.failed` and
    leaves the others' reports.
    """
    space = sample.space
    reports = []
    for p, grid_sup in zip(p_list, sample.grid_sups(p_list)):
        for phi in phis:
            try:
                lhs = space.lp_norm(sample.slice_vector(phi), p)
                nodes_sup = grid_sup if sample.on_contour(phi) else sample.grid_sups([p], phi)[0]
            except (ValueError, ArithmeticError) as exc:
                reports.append(CheckReport.failed("norm_bound", sample.fam.label, exc))
                continue
            rhs = phi.total_variation * max(grid_sup, nodes_sup)
            reports.append(CheckReport.build(
                "norm_bound", sample.fam.label, phi.label, lhs, rhs, max(0.0, lhs - rhs),
                1e-9 * rhs, p=p,
            ))
    return reports


def span_residual(phi, sample: ContourSample) -> CheckReport:
    """Weighted-L2 distance of phi.apply_slices(...) from span{F(z_j)}.

    The points are the first ``span_dim`` points of the sample's interior sequence
    (:func:`interior_pass`), whose span every functional reads.  Atom weights define the
    inner product for every p; a point whose F adds no direction to those before it is
    skipped (:class:`_Span`), so rank-deficient point sets are tolerated.
    """
    count = sample.fam.span_dim
    (distance,) = _span(sample, count).distances(sample.slice_vector(phi), [count])
    return CheckReport.build(
        "span", sample.fam.label, phi.label, distance, 0.0, distance, TOL_SPAN,
        samples=count,
    )


def span_monotonicity(phi, sample: ContourSample) -> CheckReport:
    """Distance with the enlarged nested point set never exceeds the original.

    The sets are the first min(8, k) points of the sample's interior sequence and the
    first twice that; one orthogonalization of the larger set gives both distances."""
    count = min(8, sample.space.natoms)
    base, grown = _span(sample, 2 * count).distances(sample.slice_vector(phi),
                                                     [count, 2 * count])
    return CheckReport.build(
        "span", sample.fam.label, phi.label, base, grown, max(0.0, grown - base),
        TOL_EXACT * (1.0 + base), samples=count,
    )


def _span(sample: ContourSample, count) -> _Span:
    """The span of F at the interior sequence's first ``count`` points, kept by the
    sample's interior pass."""
    span = _interior(sample, "span").span
    if count != len(span.ranks):
        raise ValueError(f"span reads {len(span.ranks)} points of the interior "
                         f"sequence, not {count}")
    return span


class _Span:
    """An orthonormal basis, in the atom-weighted inner product, of the span of the
    leading rows of F at a point sequence, one row after another: classical Gram-Schmidt
    with one reorthogonalization, whose sums call no BLAS or LAPACK, so the distances do
    not depend on the BLAS thread count.  A row whose part orthogonal to the rows before
    it is at most ``SPAN_RANK_TOL`` of its norm adds no vector.  Each row is processed
    the same way whatever follows it, so a prefix of the rows has for its basis a prefix
    of the vectors."""

    def __init__(self, space, rows):
        self.sqrt_w = np.sqrt(space.weights)
        vectors = np.empty((len(rows), len(self.sqrt_w)), dtype=complex)
        #: after each row, the number of vectors that span the rows so far
        self.ranks = []
        rank = 0
        for row in rows:
            row = row * self.sqrt_w
            v = row - _project(vectors[:rank], row)
            v -= _project(vectors[:rank], v)
            norm = _norm(v)
            if norm > SPAN_RANK_TOL * _norm(row):
                vectors[rank] = v / norm
                rank += 1
            self.ranks.append(rank)
        self.vectors = vectors[:rank]

    def distances(self, vector, counts) -> list[float]:
        """Weighted-L2 distance of ``vector`` from the span of the first c rows, for each
        c of ``counts``."""
        b = vector * self.sqrt_w
        return [_norm(b - _project(self.vectors[:self.ranks[count - 1]], b))
                for count in counts]


def _project(q, v):
    """sum_j <v, q_j> q_j, the projection of v on the span of the orthonormal rows of q,
    by ``np.einsum``, which calls no BLAS."""
    return np.einsum("j,jk->k", np.einsum("jk,k->j", q, np.conj(v)).conj(), q)


def _norm(v) -> float:
    return float(np.sqrt(np.sum(v.real ** 2 + v.imag ** 2)))


def derivative_profile(sample: ContourSample) -> list[CheckReport]:
    """Finiteness of the sup of |D^m_z f| over a region grid, for univariate domains.

    The region grid is ``PROFILE_GRID`` points of the torus at 0.9 of the family's
    domain radius.  Every order m up to ``PROFILE_MAX_ORDER`` is read from the values on
    a contour of radius (CONTOUR_SHRINK - 0.9) r about each grid point, of at most
    ``PROFILE_NODES`` nodes, each atom's count chosen by :func:`_profile_magnitudes`; the
    node counts do not depend on the sample's n.  Only the leading
    :func:`~holofubini.family._ring_count` points of the grid under the sample's moves
    (:meth:`~holofubini.family.ContourSample.symmetries`) have their contours evaluated,
    one per orbit.  Point PROFILE_GRID - j is the conjugate of point j, where |D^m f| is
    the same, and about the center 0 point j + PROFILE_GRID / 2 is -(point j), where
    |D^m f(., t_i)| is |D^m f(., t_i')| at point j, t_i' = -t_i: every point's
    magnitudes are a leading point's, on the mirrored atoms where the reflection reaches
    it, so the maxima over the leading points, their weighted integrals taken against
    the weights and, where the reflection applies, the mirrored weights, are those of
    the whole grid up to roundoff.  A real reflective family reads the first 9 of the 32
    points, another real family 17, the constant preset 16.  Returns one report per
    order: ``lhs`` the sup over the grid of the mu-weighted integral of |D^m f|, ``rhs``
    the largest |D^m f(z, t_i)|, and a residual of 0 when both are finite and inf
    otherwise; each carries as n the largest node count any atom read.  It reads only
    the sample's family and space.
    """
    fam, space = sample.fam, sample.space
    if fam.d != 1:
        raise ValueError("derivative profiles are defined for univariate domains only")
    region = fam.domain.shrunk(0.9)
    conjugate, reflect = sample.symmetries(region.center, region.radius, PROFILE_GRID)
    count = _ring_count(PROFILE_GRID, conjugate, reflect)
    mags, n = _profile_magnitudes(fam, space.params,
                                  torus_nodes(region, PROFILE_GRID).grid()[:count])
    # a reflected point's magnitudes are a leading point's on the mirrored atoms, so its
    # weighted integral is that point's against the mirrored weights
    weights = [space.weights] + ([space.weights[space.mirror]] if reflect else [])
    reports = []
    for order, m in enumerate(mags):
        lhs, rhs = max(float(np.max(m @ w)) for w in weights), float(m.max())
        finite = math.isfinite(lhs) and math.isfinite(rhs)
        reports.append(CheckReport.build("derivative_profile", fam.label, "", lhs, rhs,
                                         0.0 if finite else math.inf, 0.0, alpha=[order],
                                         n=n))
    return reports


def _profile_magnitudes(fam, params, grid) -> tuple[np.ndarray, int]:
    """|D^m f(a, t_i)| for m = 0..PROFILE_MAX_ORDER, each point a of ``grid`` (shape (P,
    1)) and atom t_i of ``params``, shape (orders, P, k), with the largest node count any
    atom read.

    Each order is read by :func:`holofubini.cauchy.contour_derivatives` on the contour
    of radius delta = (CONTOUR_SHRINK - 0.9) r about each point, at the even-indexed h =
    PROFILE_NODES / 2 of its PROFILE_NODES nodes.  The same FFT keeps the bins m + h/2:
    the h/2-node rule's coefficient c_m differs from the h-node one by the aliased
    c_{m+h/2} delta^(h/2) alone, so m! |c_{m+h/2}| delta^(h/2) estimates the h/2-node
    error of D^m, and the h-node error is about its square over the scale m! max|f| /
    delta^m (Trefethen & Weideman, SIAM Review 56, 2014), max|f| over the contour's
    nodes.  An atom is resolved when at every point and order the estimate is at most
    sqrt(eps) times that scale, so that the h-node error lies at the roundoff floor m!
    eps max|f| / delta^m (Bornemann, Found. Comput. Math. 11, 2011); the condition reads
    |c_{m+h/2}| delta^(m+h/2) <= sqrt(eps) max|f|.  Every other atom's odd nodes are
    evaluated and interleaved with its even ones, so its magnitudes are those of the
    PROFILE_NODES-node rule bit for bit.  Each atom's count rests on its own values
    only, so no magnitude depends on ``EVAL_BLOCK``.  Where 4 does not divide
    PROFILE_NODES, or h/2 - 1 <= PROFILE_MAX_ORDER, so that contour_derivatives' guard
    (nodes > order + 1) refuses the h-node table the bins need, every atom reads its
    PROFILE_NODES nodes at once.  The atoms are taken in the blocks of
    :func:`_atom_blocks` for PROFILE_NODES nodes per contour, each with one evaluation
    of every contour's even nodes, one FFT, and where an atom is not resolved one
    evaluation of the odd nodes and one FFT of its whole contours.
    """
    n = PROFILE_NODES
    half = n // 2 if n % 4 == 0 and n // 4 > PROFILE_MAX_ORDER + 1 else n
    radii = (CONTOUR_SHRINK - 0.9) * fam.domain.radius
    orders = [(order,) for order in range(PROFILE_MAX_ORDER + 1)]
    aliased = [(order + half // 2,) for order in range(PROFILE_MAX_ORDER + 1)] if half < n else []
    # |D^j| delta^j / j! = |c_j| delta^j for each aliased order j = m + h/2
    bin_scale = np.array([float(radii[0]) ** j / math.factorial(j) for (j,) in aliased])
    offsets = torus_nodes(Polydisc(np.zeros(1), radii), n).grid()
    pts = (grid + offsets[:, None, :])[:, :, None, :]
    mags = np.empty((len(orders), len(grid), len(params)))
    read = half
    for atoms in _atom_blocks(len(params), n * len(grid)):
        values = fam.eval(pts[::n // half], params[atoms])  # the even nodes, or all
        coeffs = contour_derivatives(values, orders + aliased, radii, half)
        mags[..., atoms] = np.abs(coeffs[:len(orders)])
        if not aliased:
            continue
        estimate = np.abs(coeffs[len(orders):]) * bin_scale[:, None, None]
        floor = math.sqrt(np.finfo(float).eps) * np.max(np.abs(values), axis=0)
        refine = np.flatnonzero(~np.all(estimate <= floor, axis=(0, 1)))
        if refine.size:
            whole = np.empty((n, len(grid), refine.size), dtype=complex)
            whole[0::2] = values[..., refine]
            whole[1::2] = fam.eval(pts[1::2], params[atoms][refine])
            mags[..., atoms.start + refine] = np.abs(contour_derivatives(whole, orders, radii, n))
            read = n
    return mags, read


def telescoping_residual(sample: ContourSample) -> CheckReport:
    """Multivariate increment bound via one Schwarz step per variable from the center c.

    At the ``ORDER_BOUND_SAMPLES`` points z of the sample's interior sequence, in the
    polydisc of its shrink, the interior pass (:func:`interior_pass`) takes the largest
    violation of ``|f(z, t_i) - f(c, t_i)| <= 2 B_i sum_j |z_j - c_j| / R_j``
    (:func:`holofubini.cauchy.schwarz_violation`), R the sample's contour radii and B_i
    atom i's max |f| on a contour grid, a lower estimate of its sup: that of the sample's
    :attr:`~holofubini.family.ContourSample.floor`, the sample itself or, below
    ``FLOOR_NODES`` nodes, where 4 nodes can miss the sup by far, the floor contour of
    that many nodes that order_bound reads too, whose count the report carries.
    schwarz reads the same violation at d = 1.
    """
    return _increment_report(sample, "telescoping", 1e-12 * (1.0 + sample.floor.sup))


def order_bound_check(sample: ContourSample) -> CheckReport:
    """Taylor-majorant domination: |f(z, t_i)| <= u_i + tail on sampled z.

    The points are the first ``ORDER_BOUND_SAMPLES`` of the sample's interior sequence
    (:func:`interior_pass`), in the domain's polydisc of the sample's shrink s; the
    majorant is taken on that polydisc, ``s / CONTOUR_SHRINK`` of the contour's radii, so
    every point lies inside it.  The degree and the contour values follow
    :func:`holofubini.cauchy.order_bound`, and the report carries the node count of the
    contour it read.  The largest excess max_i (M_i - u_i) reads each atom's largest
    |f| over the points, M_i, from the interior pass: rounding is monotone, so it equals
    the max over the points and atoms of |f| - u_i bit for bit.  The reported tail is
    Cauchy's estimate from the contour's grid sup; it is not rigorous while that sup
    lies below the true one.
    """
    ob = order_bound(sample, shrink=sample.shrink / CONTOUR_SHRINK)
    maxima = _interior(sample, "order_bound").maxima
    excess = float(np.max(maxima - ob.u))
    tol = 1e-12 * (1.0 + float(np.max(ob.u)))
    return CheckReport.build(
        "order_bound", sample.fam.label, "", excess, ob.tail, max(0.0, excess - ob.tail),
        tol, degree=ob.degree, shrink=sample.shrink, n=ob.n,
    )


@dataclass(frozen=True, eq=False)
class InteriorPass:
    """What the checks keep of F on the run's interior sequence (:func:`interior_pass`)."""

    #: schwarz's and telescoping's largest violation of the Schwarz increment bound over
    #: the points and the atoms
    violation: float | None
    #: order_bound's max over its points of |f(z, t_i)| for each atom
    maxima: np.ndarray | None
    #: span's basis of F at its leading points
    span: _Span | None


def interior_pass(sample: ContourSample) -> InteriorPass:
    """One evaluation of the sample's interior sequence for its checks, or for every
    check of :data:`CHECKS` when it has none.

    The sequence is ``ORDER_BOUND_SAMPLES`` points drawn from ``default_rng(sample.seed)``
    in the domain's polydisc of the sample's shrink
    (:func:`~holofubini.domain.sample_polydisc`).  Each check reads the prefix of its
    :attr:`Check.rows`: schwarz, telescoping and order_bound all of it and span the
    family's ``span_dim`` or 2 min(8, k).  The longest prefix the checks read is
    evaluated in one pass over the atom blocks of :func:`_atom_blocks`, which keeps only
    the largest violation of the Schwarz increment bound
    (:func:`~holofubini.cauchy.schwarz_violation`, from F at the center and each atom's
    sup on the sample's :attr:`~holofubini.family.ContourSample.floor`), each atom's
    largest |f| and span's rows, so no (rows, k) array is held but span's.
    :attr:`~holofubini.family.ContourSample.interior` keeps it.
    """
    fam, params = sample.fam, sample.space.params
    natoms = len(params)
    reads = {name: CHECKS[name].rows(sample) for name in sample.checks or CHECKS}
    span_rows = reads.get("span", 0)
    points = sample_polydisc(fam.domain, ORDER_BOUND_SAMPLES, sample.shrink,
                             np.random.default_rng(sample.seed))[:max(reads.values())]
    increments = {"schwarz", "telescoping"} & reads.keys()
    maxima = np.empty(natoms) if "order_bound" in reads else None
    kept = np.empty((span_rows, natoms), dtype=complex)
    if increments:
        at_center = sample.closed_form(sample.center)
        sups = sample.floor.sups
        steps = np.sum(np.abs(points - sample.center) / sample.radii, axis=1)
    worst = []
    for atoms in _atom_blocks(natoms, len(points)):
        values = fam.eval(points[:, None, :], params[atoms])
        if increments:
            worst.append(schwarz_violation(at_center[atoms], values, steps, sups[atoms]))
        if maxima is not None:
            maxima[atoms] = np.max(np.abs(values), axis=0)
        kept[:, atoms] = values[:span_rows]
    return InteriorPass(max(worst) if worst else None, maxima,
                        _Span(sample.space, kept) if span_rows else None)


def _interior(sample: ContourSample, check: str) -> InteriorPass:
    """The sample's interior pass for ``check``, one of its checks if it has any."""
    if sample.checks and check not in sample.checks:
        raise ValueError(f"the sample is built for {sample.checks}, not for {check}")
    return sample.interior


def schwarz_check(sample: ContourSample) -> CheckReport:
    """Schwarz increment bound on every atom slice: the violation that
    :func:`telescoping_residual` reads, under the record name the battery runs at d = 1."""
    return _increment_report(sample, "schwarz", 1e-12, slices=sample.space.natoms)


def _increment_report(sample: ContourSample, check: str, tol: float, **params) -> CheckReport:
    """``check``'s report of the interior pass's largest violation of the Schwarz
    increment bound, with the node count of the contour its sups were read on."""
    if not sample.shrink < CONTOUR_SHRINK:
        raise ValueError("sampling region must sit strictly inside the sup region")
    worst = _interior(sample, check).violation
    return CheckReport.build(check, sample.fam.label, "", worst, 0.0, max(0.0, worst), tol,
                             samples=ORDER_BOUND_SAMPLES, n=sample.floor.n, **params)


def _atom_blocks(natoms, points):
    """Slices of max(1, EVAL_BLOCK // points) atoms covering all natoms: the blocks in
    which the interior pass and derivative_profile, evaluating ``points`` points per
    atom, take their atoms."""
    block = max(1, EVAL_BLOCK // points)
    return [slice(start, start + block) for start in range(0, natoms, block)]


def _alpha_battery(d: int):
    """Every multi-index of dimension d and order at most 2, by order."""
    alphas = [a for a in np.ndindex(*(3,) * d) if sum(a) <= 2]
    return sorted(alphas, key=lambda a: (sum(a), a))


@dataclass(frozen=True)
class Check:
    """One check of the battery: what a run, its dimension filter, the interior pass
    (:func:`interior_pass`) and the work budget read of it."""

    #: the calls that run it, given the run's ContourSample (its family, space and
    #: functionals) and its dual stacks keyed by p.  A call looks its checker up on this
    #: module when it is built, so rebinding a checker here (e.g. to trace it) reaches
    #: the battery
    calls: Callable
    #: whether it applies at dimension d: a run keeps the selected checks that apply
    applies: Callable[[int], bool] = lambda d: True
    #: rows of the sample's interior sequence it reads, given the sample
    rows: Callable[[ContourSample], int] = lambda sample: 0
    #: whether its calls read the run's functionals: a run builds the default ones only
    #: for a check that does
    functionals: bool = False
    #: complex values per atom it holds beside the sample
    per_atom: int = 0
    #: whether it reads the sample's :attr:`~holofubini.family.ContourSample.floor`, a
    #: contour of ``FLOOR_NODES`` nodes below that many: the work budget counts it
    floor: bool = False


def _span_rows(sample):
    fam = sample.fam
    return fam.span_dim if fam.span_dim is not None else 2 * min(8, sample.space.natoms)


#: check name -> its :class:`Check`, in the order a run takes them.  span holds at most
#: 16 rows of the interior sequence with their basis, order_bound each atom's largest
#: |f| and majorant, schwarz and telescoping each atom's F at the center and its float
#: contour sup (order_bound, schwarz and telescoping read one floor contour of
#: ``FLOOR_NODES`` nodes below that many), and derivative_profile the float magnitudes
#: of each order at each region point.  schwarz and telescoping are one increment bound
#: under two record names, one for each d, while the benchmark names both
CHECKS = {
    "linearization": Check(lambda sample, duals: [
        partial(linearization_residual, phi, sample, h, p=p)
        for phi in sample.functionals for p, h in duals.items()], functionals=True),
    "fubini": Check(lambda sample, duals: [
        partial(fubini_residual, phi, sample, h, p)
        for phi in sample.functionals for p, h in duals.items()], functionals=True),
    "derivative_consistency": Check(lambda sample, duals: [
        partial(derivative_consistency, sample, _alpha_battery(sample.fam.d), p=list(duals))]),
    "diff_under_integral": Check(lambda sample, duals: [
        partial(diff_under_integral, sample, np.ones(sample.space.natoms),
                _alpha_battery(sample.fam.d))]),
    "norm_bound": Check(lambda sample, duals: [
        partial(norm_bound_check, sample.functionals, sample, list(duals))], functionals=True),
    "span": Check(lambda sample, duals: [
        partial(span_residual if sample.fam.span_dim is not None else span_monotonicity,
                phi, sample) for phi in sample.functionals], functionals=True, rows=_span_rows,
        per_atom=32),
    "schwarz": Check(lambda sample, duals: [partial(schwarz_check, sample)],
                     applies=lambda d: d == 1, rows=lambda sample: ORDER_BOUND_SAMPLES,
                     per_atom=2, floor=True),
    "telescoping": Check(lambda sample, duals: [partial(telescoping_residual, sample)],
                         applies=lambda d: d >= 2, rows=lambda sample: ORDER_BOUND_SAMPLES,
                         per_atom=2, floor=True),
    "order_bound": Check(lambda sample, duals: [partial(order_bound_check, sample)],
                         rows=lambda sample: ORDER_BOUND_SAMPLES, per_atom=1, floor=True),
    "derivative_profile": Check(lambda sample, duals: [partial(derivative_profile, sample)],
                                applies=lambda d: d == 1,
                                per_atom=(PROFILE_MAX_ORDER + 1) * PROFILE_GRID // 2),
}


def run_checks(sample: ContourSample, duals) -> list[CheckReport]:
    """The reports of the sample's checks, given the run's dual stacks keyed by p: every
    call of each, in turn; a call that raises gets the failing report of
    :meth:`CheckReport.failed`."""
    reports = []
    for name in sample.checks:
        for call in CHECKS[name].calls(sample, duals):
            try:
                result = call()
            except (ValueError, ArithmeticError) as exc:
                result = CheckReport.failed(name, sample.fam.label, exc)
            reports.extend(result if isinstance(result, list) else [result])
    return reports

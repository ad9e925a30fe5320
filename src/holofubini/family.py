"""Registry of two-variable holomorphic families f(z, t) with closed forms.

Each family kind is holomorphic and bounded in z on the closed domain for
every admissible atom parameter t, and carries closed-form evaluation and
closed-form z-derivatives of every order.  The closed forms are the
independent oracles against which all quadrature paths are checked, so the
registry is deliberately closed: arbitrary black-box callables could not
certify the holomorphy and boundedness hypotheses.

Evaluation is batched: ``z`` is any complex array whose last axis indexes
the d variables, ``t`` broadcasts against the leading axes.
"""

from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import measure
from .domain import CONTOUR_SHRINK, Polydisc, as_multi_index, parse_complex, torus_nodes
from .measure import FiniteMeasureSpace

__all__ = [
    "ContourSample",
    "FLOOR_NODES",
    "HoloFamily",
    "ConstantFamily",
    "PolynomialFamily",
    "GeometricFamily",
    "ExponentialFamily",
    "SeparableFamily",
    "TabulatedTaylorFamily",
    "family_from_json",
    "family_preset",
    "preset_names",
    "unit_polydisc",
]


#: contour nodes that order_bound, schwarz and telescoping read at least: below them each
#: reads the sample's floor contour of this many (:attr:`ContourSample.floor`), where
#: order_bound's degree n // 2 - 1 is ``cauchy.MIN_ORDER_BOUND_DEGREE``
FLOOR_NODES = 16


def unit_polydisc(d: int = 1) -> Polydisc:
    return Polydisc(np.zeros(d), np.ones(d))


class HoloFamily:
    """Base class: a named f(z, t) with a domain and closed forms.

    Subclasses implement ``_evaluate`` and ``_derivative`` without domain
    checks; the public entry points enforce membership at shrink 1.  Each registered
    kind declares its complex parameters once, in :attr:`parameters`.  ``span_dim``
    is the dimension of span{F(z)} over a generic atom set when it is finite and
    known, else None.
    """

    kind = "abstract"
    #: each complex parameter, a constructor argument and a complex array attribute of that
    #: name, with its number of axes at dimension d: what the constructor checks,
    #: :func:`family_from_json` reads, :meth:`params_json` writes and
    #: :attr:`ContourSample.conjugate_symmetric` tests
    parameters: dict = {}
    #: whether a real family of the kind is conjugated (:attr:`ContourSample.conjugate_symmetric`)
    conjugates = True

    def __init__(self, domain: Polydisc, label: str, span_dim: int | None = None, **params):
        self.domain = domain
        self.label = label
        self.span_dim = span_dim
        for name, axes in self.parameters.items():
            value = np.asarray(params[name], dtype=complex)
            if value.ndim != axes(domain.d):
                raise ValueError(f"{self.kind} parameter {name} needs {axes(domain.d)} axes "
                                 f"at d = {domain.d}, got {value.ndim}")
            setattr(self, name, value)

    # -- kind-specific closed forms ------------------------------------
    def _evaluate(self, z: np.ndarray, t) -> np.ndarray:
        raise NotImplementedError

    def _derivative(self, z: np.ndarray, t, alpha: tuple[int, ...]) -> np.ndarray:
        raise NotImplementedError

    def params_json(self) -> dict:
        """Each declared parameter as nested ``[re, im]`` pairs, one level per axis."""
        values = {name: getattr(self, name) for name in self.parameters}
        return {name: np.stack((v.real, v.imag), axis=-1).tolist() for name, v in values.items()}

    def _reflects(self) -> bool:
        """Whether ``_evaluate`` at -z and t equals it at z and -t bit for bit: true for
        kinds that read z only through products t z, or not at all, since (-b) z = b (-z)
        exactly."""
        return False

    def _axis_parameters(self, j: int) -> dict | None:
        """The parameters of the one-variable family of the kind whose values at z_j are
        factor j of ``_evaluate``, or None where the kind's values are no product of
        one-variable factors (the default)."""
        return None

    def _axis_families(self) -> tuple | None:
        """At d >= 2, d one-variable families of the registered kind, family j of
        :meth:`_axis_parameters` j on the domain's axis j, whose values at z_j, multiplied
        left to right by :func:`_product`, are ``_evaluate`` at z bit for bit, built on
        each call; or None at d = 1 or where the kind is no such product."""
        if self.d < 2 or self._axis_parameters(0) is None:
            return None
        center, radius = self.domain.center, self.domain.radius
        return tuple(_KINDS[self.kind](**self._axis_parameters(j), label=self.label,
                                       domain=Polydisc(center[j:j + 1], radius[j:j + 1]))
                     for j in range(self.d))

    # -- public surface --------------------------------------------------
    @property
    def d(self) -> int:
        return self.domain.d

    def _coerce_points(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        if z.ndim == 0 or z.shape[-1] != self.d:
            if self.d == 1 and (z.ndim == 0 or z.shape[-1] != 1):
                z = z[..., None]
            else:
                raise ValueError(f"points must have last axis {self.d}")
        return z

    def eval(self, z, t):
        """f(z, t) for z inside the open domain; batched over z and t."""
        z = self._coerce_points(z)
        if not self.domain.contains_all(z):
            raise ValueError(f"evaluation point outside the domain of {self.label!r}")
        return self._evaluate(z, np.asarray(t, dtype=complex))

    def deriv(self, z, t, alpha):
        """Closed-form mixed partial D^alpha_z f(z, t)."""
        alpha = as_multi_index(alpha, self.d)
        z = self._coerce_points(z)
        if not self.domain.contains_all(z):
            raise ValueError(f"evaluation point outside the domain of {self.label!r}")
        return self._derivative(z, np.asarray(t, dtype=complex), alpha)

    def vector(self, z, space: FiniteMeasureSpace) -> np.ndarray:
        """F(z): the per-atom value vector (one entry per atom of ``space``)."""
        z = np.asarray(z, dtype=complex)
        out = self.eval(z.reshape(1, -1), space.params)
        return np.ravel(out)

    def deriv_vector(self, z, space: FiniteMeasureSpace, alpha) -> np.ndarray:
        """Per-atom closed-form derivative vector D^alpha_z f(z, .)."""
        z = np.asarray(z, dtype=complex)
        alpha = as_multi_index(alpha, self.d)
        zb = np.broadcast_to(z.reshape(1, -1), (space.natoms, self.d))
        return np.ravel(self.deriv(zb, space.params, alpha))

    def slice_supnorm(self, t, grid_density: int = 64, shrink: float = 1.0) -> float | np.ndarray:
        """Sup of |f(., t)| over the closed shrink-scaled domain, via a boundary grid.

        By the maximum principle the sup over the closed polydisc is attained
        on the distinguished boundary, so a tensor grid there suffices.  The
        estimate is monotone under grid refinement (nested grids) and never
        exceeds the true sup.  An array of parameters ``t`` of shape (k,)
        gives the k sups from one grid, entry i equal to the sup for t[i].
        """
        grid_density = int(grid_density)
        if grid_density < 2:
            raise ValueError(f"grid density must be at least 2, got {grid_density}")
        if not 0.0 < shrink <= 1.0:
            raise ValueError(f"shrink must lie in (0, 1], got {shrink}")
        pts = torus_nodes(self.domain.shrunk(shrink), max(grid_density, 4)).grid()
        ts = np.atleast_1d(np.asarray(t, complex))
        sups = np.max(np.abs(self._evaluate(pts[:, None, :], ts)), axis=0)
        return sups if np.ndim(t) else float(sups[0])

    def validate_on(self, space: FiniteMeasureSpace) -> None:
        """Check the analyticity/boundedness hypotheses for every atom of ``space``."""
        # Entire kinds need nothing; kinds with singularities override.

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params_json(),
            "domain": {
                "center": [[c.real, c.imag] for c in self.domain.center],
                "radius": [float(r) for r in self.domain.radius],
            },
            "label": self.label,
        }

    def __repr__(self):
        return f"<{type(self).__name__} {self.label!r} d={self.d}>"


class ContourSample:
    """One run's family values: F on the n-node contour grid and on functionals' nodes.

    ``values[j, i] = f(w_j, t_i)`` on ``torus_nodes(Polydisc(center, radii), n).grid()``,
    about the domain center at CONTOUR_SHRINK of the radii: the array that the
    derivative functionals on the contour hold as their nodes, if any does
    (:meth:`~holofubini.domain.TorusQuadrature.grid`).  One grid row is evaluated per
    orbit of the moves that leave F unchanged (:meth:`symmetries`), for a real family
    (:attr:`conjugate_symmetric`) conjugation and, for a :attr:`reflective` family at
    d = 1 and even n, the reflection w -> -w with the atoms mirrored: the leading slabs
    of the grid's first axis are evaluated and every other slab is copied from them by
    the slices that build the ring (:meth:`_fill`), equal to direct evaluation but for
    the sign of a zero part.  A family whose values are a product of one-variable factors
    (the geometric, exponential and constant kinds at d >= 2) fills the grid instead
    from one such sample per distinct axis, each by its own slabs, bit for bit
    (:meth:`_product_values`).  A derivative functional off the contour has its nodes
    evaluated the same way (:meth:`node_values`), and derivative_profile evaluates the
    same leading points of its region grid (:func:`_ring_count`).  The sample is built
    with the run's ``functionals``.  Every point set is evaluated through
    :meth:`HoloFamily.eval` (so the domain check applies, and covers the copied rows)
    when it is first read, into one array by blocks of rows, and is read-only from then
    on; an evaluation that raises is not kept, so each reader meets the error itself.
    So are one Taylor table of the contour values, built by blocks of columns into one
    array, each functional's (k,) slice vector, its (m,) values on each stack of m dual
    vectors (:meth:`pair_duals`, one pass over blocks of the contour for every
    functional on it) and each closed-form (k,) vector read (:meth:`closed_form`); no
    (nodes, m) pairing of F with a stack is held.  The sample is also built with the
    run's ``checks``, ``shrink`` and ``seed``, and keeps what the checks read of F on
    the run's interior sequence, evaluated once (:attr:`interior`), and, below
    ``FLOOR_NODES`` nodes, the one floor contour that order_bound, schwarz and
    telescoping read (:attr:`floor`); a sample built without checks serves every reader
    of it.  Two threads sharing a sample can at worst compute one twice.
    """

    def __init__(self, fam: HoloFamily, space: FiniteMeasureSpace, n: int, functionals=(),
                 checks=(), shrink: float = 0.5, seed: int = 0):
        self.fam, self.space, self.n = fam, space, int(n)
        self.functionals, self.checks = tuple(functionals), tuple(checks)
        self.shrink, self.seed = shrink, seed
        self.center, self.radii = fam.domain.center, fam.domain.radius * CONTOUR_SHRINK
        self._node_values, self._slices, self._duals, self._closed = {}, {}, {}, {}
        #: the Taylor table kept, or None
        self._table = None
        #: the floor contour's sample kept, or None
        self._floor = None

    @cached_property
    def conjugate_symmetric(self) -> bool:
        """Whether f(conj z, t_i) = conj f(z, t_i) for every atom: the family's kind
        certifies it (:func:`_certified`, :attr:`HoloFamily.conjugates`) and the parameters
        it declares (:attr:`HoloFamily.parameters`), its domain center and every atom
        parameter of the space are real."""
        fam = self.fam
        return (_certified(fam) and fam.conjugates and not np.any(fam.domain.center.imag)
                and not np.any(self.space.params.imag)
                and not any(np.any(np.imag(getattr(fam, name))) for name in fam.parameters))

    @cached_property
    def reflective(self) -> bool:
        """Whether f(-z, t_i) = f(z, t_i') for every atom, t_i' = -t_i: the family's kind
        declares it (:meth:`HoloFamily._reflects`: the geometric, exponential and constant
        kinds) and certifies it (:func:`_certified`), its domain center is 0 and the
        space's atoms are symmetric about 0 bit for bit (its
        :attr:`~holofubini.measure.FiniteMeasureSpace.mirror`).  Neither real atoms nor
        real parameters are needed."""
        fam = self.fam
        return (fam._reflects() and _certified(fam) and not np.any(fam.domain.center)
                and self.space.mirror is not None)

    def symmetries(self, center, radii, n: int) -> tuple:
        """(conjugate, reflect): the moves that leave F unchanged on the torus grid
        ``torus_nodes(Polydisc(center, radii), n).grid()``, by which :meth:`_fill` copies
        it.  Conjugation j -> -j mod n, for a conjugate-symmetric family
        (:attr:`conjugate_symmetric`) about a real center, where the ring's conjugate
        symmetry makes node n - j the conjugate of node j; and the reflection j -> j +
        n/2 mod n, for a :attr:`reflective` family at d = 1 and even n about the center
        0, where node j + n/2 is -(node j) (:class:`~holofubini.domain.TorusQuadrature`).
        At d >= 2 each reflective kind fills its grid from its axes' one-variable
        contours (:meth:`_product_values`), so the reflection is not asked there."""
        return (self.conjugate_symmetric and not np.any(np.imag(center)),
                self.fam.d == 1 and self.reflective and n % 2 == 0 and not np.any(center))

    @cached_property
    def values(self) -> np.ndarray:
        """F on the contour grid, shape (n^d, k): :meth:`_orbit_values` of the contour.

        Conjugation alone leaves (n^d + 2^d) / 2 rows at even n, (n^d + 1) / 2 at odd n;
        with the reflection, at d = 1, n / 4 + 1 where 4 divides n, so a real family at
        n = 64 evaluates 17 of 64 rows; the reflection alone leaves n / 2 (the constant
        preset's 32 of 64).  geometric-d2 at n = 64 evaluates 17 rows of each of its two
        axes' contours, 34 for its 4,096 rows, and exponential-d3 at n = 32 the 9 rows
        of its one axis's contour for its 32,768 (:meth:`_product_values`)."""
        return self._orbit_values(self.center, self.radii, self.n)

    def _orbit_values(self, center, radii, n: int) -> np.ndarray:
        """F on ``torus_nodes(Polydisc(center, radii), n).grid()``, shape (n^d, k).

        A family that the kind's certificate (:func:`_certified`) lets declare itself a
        product of one-variable factors (:meth:`HoloFamily._axis_families`) is filled
        from them (:meth:`_product_values`).  Otherwise the grid, viewed as (n,)*d +
        (k,), is filled by slabs of its first axis (:meth:`_fill`) under the moves that
        leave F unchanged (:meth:`symmetries`)."""
        axes = self.fam._axis_families() if _certified(self.fam) else None
        if axes is not None:
            return self._product_values(axes, center, radii, n)
        d, k = self.fam.d, self.space.natoms
        grid = torus_nodes(Polydisc(center, radii), n).grid()
        values = np.empty((len(grid), k), dtype=complex)
        self._fill(values.reshape((n,) * d + (k,)), grid.reshape((n,) * d + (d,)),
                   *self.symmetries(center, radii, n))
        return _read_only(values)

    def _fill(self, values: np.ndarray, grid: np.ndarray, conjugate: bool,
              reflect: bool) -> None:
        """F into ``values`` of shape (n,)*m + (k,) on the torus points ``grid`` of shape
        (n,)*m + (d,), by the slices that build the ring
        (:class:`~holofubini.domain.TorusQuadrature`).

        The leading :func:`_ring_count` slabs are evaluated through
        :meth:`HoloFamily.eval` (:meth:`_evaluate`), and every other slab is copied:
        under ``conjugate`` slab n - j is the conjugate of slab j with the other axes
        negated, and the self-conjugate slabs 0 and n/2 are filled the same way, one
        axis down; under ``reflect`` (m = 1, about the center 0) row j + n/2 is row j on
        the mirrored atoms (:attr:`~holofubini.measure.FiniteMeasureSpace.mirror`) and,
        under both, row n/2 - j the conjugate of row n/2 + j.  So the evaluated rows are
        the least flat index of each orbit, and each copy is an exact conjugation or
        permutation of one of them.  Conjugated slabs are written in place by blocks of
        ``measure.ROW_BLOCK`` values or one slab, each gathered once, the fill's largest
        transient.  Copied rows skip the domain test, which their source passes:
        conjugation keeps |z - c| about a real center and the reflection |z| about the
        center 0, and the geometric kind's analyticity test reads |rate t z|, which both
        moves keep.  Copies equal direct evaluation ((-b) z = b (-z)), but a conjugated
        zero part can carry the sign that evaluation does not give it."""
        n, half = len(values), len(values) // 2
        count = _ring_count(n, conjugate, reflect)
        if conjugate and values.ndim > 2:
            self._fill(values[0], grid[0], True, False)
            self._evaluate(grid[1:(n + 1) // 2], out=values[1:(n + 1) // 2])
            if n % 2 == 0:
                self._fill(values[half], grid[half], True, False)
        else:
            self._evaluate(grid[:count], out=values[:count])
        if reflect:
            values[half:half + count] = values[:count, self.space.mirror]
        if not conjugate:
            return
        last = half - count if reflect else (n - 1) // 2  # slab n - j is copied, j <= last
        if reflect:
            np.conjugate(values[half + 1:][:last], out=values[count:half][::-1])
        negated = np.ix_(*[-np.arange(n) % n] * (values.ndim - 2))
        block = max(1, measure.ROW_BLOCK // values[0].size)
        for start in range(1, last + 1, block):
            stop = min(start + block, last + 1)
            np.conjugate(values[start:stop][(slice(None),) + negated],
                         out=values[n - start:n - stop:-1])

    def _product_values(self, axes, center, radii, n: int) -> np.ndarray:
        """:meth:`_orbit_values` of a family whose values are a product of the
        one-variable ``axes`` (:meth:`HoloFamily._axis_families`): each distinct axis,
        of equal parameters, domain and grid center and radius, is sampled once on its n
        nodes by its own slab fill (:meth:`_orbit_values`), and the grid is their outer
        product in the arithmetic of :func:`_product`, which is what ``_evaluate``
        computes on it.  The product of every axis but the last is held as real and
        imaginary planes of n^(d-1) k floats each, from the first axis's step from
        1 + 0i, and the last axis multiplies them into the values by blocks of
        ``measure.ROW_BLOCK`` values or one plane row."""
        samples, rows = {}, []
        for j, axis in enumerate(axes):
            key = np.concatenate([np.ravel(getattr(axis, name)) for name in axis.parameters]
                                 + [axis.domain.center, axis.domain.radius,
                                    center[j:j + 1], radii[j:j + 1]]).tobytes()
            if key not in samples:
                samples[key] = ContourSample(axis, self.space, n)._orbit_values(
                    center[j:j + 1], radii[j:j + 1], n)
            rows.append(samples[key])
        k = self.space.natoms
        first = rows[0]
        re, im = first.real - 0.0 * first.imag, first.imag + 0.0 * first.real
        for axis in rows[1:-1]:
            planes = np.empty((2, len(re), n, k))
            _multiply(re[:, None], im[:, None], axis, *planes)
            re, im = planes.reshape(2, -1, k)
            del planes
        values = np.empty((len(re) * n, k), dtype=complex)
        grid = values.reshape(len(re), n, k)
        block = max(1, measure.ROW_BLOCK // (n * k))
        for start in range(0, len(re), block):
            part = grid[start:start + block]
            _multiply(re[start:start + block, None], im[start:start + block, None], rows[-1],
                      part.real, part.imag)
        return _read_only(values)

    @cached_property
    def sups(self) -> np.ndarray:
        """Each atom's max |f| on the contour grid, (k,), a lower estimate of its sup on
        the polydisc, from blocks of rows of ``measure.ROW_BLOCK`` values or one row,
        padded to a multiple of 8 rows (with zeros or earlier rows) and reduced as rows of
        8 k values (a max over rows of few atoms is slow).  A max is exact: this is the
        whole sample's bit for bit."""
        rows, k = self.values, self.space.natoms
        block = max(1, measure.ROW_BLOCK // k)
        mags, sups = np.zeros((-(-min(block, len(rows)) // 8) * 8, k)), np.zeros(8 * k)
        for start in range(0, len(rows), block):
            part = rows[start:start + block]
            np.abs(part, out=mags[:len(part)])
            np.maximum(sups, mags.reshape(-1, 8 * k).max(axis=0), out=sups)
        return _read_only(sups.reshape(8, k).max(axis=0))

    @cached_property
    def sup(self) -> float:
        """max |F| on the contour grid, the largest of :attr:`sups`."""
        return float(self.sups.max())

    def taylor_table(self, degree: int) -> np.ndarray:
        """Taylor coefficients c_m of F about the center for m up to ``degree`` per
        variable, shape (degree + 1,)*d + (k,).

        Every reader takes the leading block of one kept table, built by one FFT of
        :attr:`values` (``cauchy._fft_coefficients``) at degree max(degree, min(n // 2 - 1,
        ``cauchy.MAX_TAYLOR_DEGREE``)); a larger degree rebuilds it.  The FFT keeps each
        axis's leading frequencies, so the block equals a table of that degree bit for
        bit.  Guarding against aliasing is the reader's part.
        """
        from . import cauchy  # cauchy imports this module

        table = self._table
        if table is None or table.shape[0] <= degree:
            top = max(degree, min(self.n // 2 - 1, cauchy.MAX_TAYLOR_DEGREE))
            table = self._table = _read_only(
                cauchy._fft_coefficients(self.values, self.fam.d, self.n, self.radii, top))
        return table[(slice(degree + 1),) * self.fam.d]

    @property
    def floor(self) -> "ContourSample":
        """The contour that order_bound, schwarz and telescoping read: this sample if it
        has ``FLOOR_NODES`` nodes or more, else a contour sample of its family and space
        with ``FLOOR_NODES`` nodes, built once.  The sample never keeps itself, so no
        reference cycle holds it past its run."""
        if self.n >= FLOOR_NODES:
            return self
        if self._floor is None:
            self._floor = ContourSample(self.fam, self.space, FLOOR_NODES)
        return self._floor

    @cached_property
    def interior(self):
        """What the sample's checks keep of F on the interior sequence at its shrink and
        seed: :func:`~holofubini.theorems.interior_pass`, computed once."""
        from . import theorems  # theorems imports this module

        return theorems.interior_pass(self)

    def node_values(self, phi) -> np.ndarray:
        """F on the nodes of the measure functional ``phi``, shape (nodes, k).

        A derivative functional on this contour (equal center and radii, n^d nodes)
        reads :attr:`values`; any other derivative functional's nodes, the torus grid of
        its center, radii and node count, are filled once by slabs
        (:meth:`_orbit_values`), and any other functional's nodes evaluated once each.
        """
        if phi.d != self.fam.d:
            raise ValueError("functional and family dimensions differ")
        if self.on_contour(phi):
            return self.values
        if phi not in self._node_values:
            n = round(len(phi.nodes) ** (1 / phi.d))
            self._node_values[phi] = (self._orbit_values(phi.center, phi.radii, n)
                                      if phi.meaning == "derivative"
                                      else self._evaluate(phi.nodes))
        return self._node_values[phi]

    def slice_vector(self, phi) -> np.ndarray:
        """``phi.apply_slices(self)``, the (k,) vector (phi(f(., t_i)))_i, computed once."""
        if phi not in self._slices:
            self._slices[phi] = _read_only(phi.apply_slices(self))
        return self._slices[phi]

    def closed_form(self, z, alpha=None) -> np.ndarray:
        """The family's closed form at the point z, (k,), computed once per point and
        alpha: F(z) by :meth:`HoloFamily.vector` when alpha is None, else D^alpha F(z)
        by :meth:`HoloFamily.deriv_vector`.  It reads no sample value."""
        z = np.ravel(np.asarray(z, dtype=complex))
        key = (z.tobytes(), alpha if alpha is None else tuple(alpha))
        if key not in self._closed:
            self._closed[key] = _read_only(
                self.fam.vector(z, self.space) if alpha is None
                else self.fam.deriv_vector(z, self.space, alpha))
        return self._closed[key]

    def dual_values(self, phi, h) -> np.ndarray:
        """``phi.apply_dual(self, h)`` for a stack h of m dual vectors, (m,), computed once.

        The memo keeps each stack's bytes once, with every functional's values on it; a
        functional on the contour finds there the values of the pass that another one's
        call made (:meth:`pair_duals`)."""
        h = np.array(h, dtype=complex, ndmin=2)
        memo = self._stack_memo(h)
        if phi not in memo:
            memo[phi] = _read_only(phi.apply_dual(self, h))
        return memo[phi]

    def pair_duals(self, phi, h) -> np.ndarray:
        """``phi`` applied to z -> <F(z), h_j> for each dual vector h_j of the stack h,
        shape (m,).

        F on phi's nodes meets (h mu).T in blocks of rows of at most ``measure.ROW_BLOCK``
        values both of F and of the product, max(1, ROW_BLOCK // max(k, m)) rows; each
        block's product is summed over its nodes with phi's
        weights by ``np.einsum``, which calls no BLAS, and the block sums are added in
        node order, so no node sum depends on the BLAS thread count.  On the contour
        each block's product also serves every other functional of the run on it, whose
        values the memo of :meth:`dual_values` keeps, so no (n^d, m) pairing is held and
        a run pairs its contour once per stack.
        """
        values = self.node_values(phi)
        phis = [phi]
        if self.on_contour(phi):
            phis += [psi for psi in self.functionals if psi is not phi and self.on_contour(psi)]
        hw = (h * self.space.weights).T
        sums = np.zeros((len(phis), len(h)), dtype=complex)
        block = max(1, measure.ROW_BLOCK // max(self.space.natoms, len(h)))
        for start in range(0, len(values), block):
            paired = values[start:start + block] @ hw
            for total, psi in zip(sums, phis):
                total += np.einsum("n,nm->m", psi.weights[start:start + block], paired)
            del paired  # so the next block's product is not made beside this one
        memo = self._stack_memo(h)
        for psi, total in zip(phis[1:], sums[1:]):
            memo.setdefault(psi, _read_only(total))
        return sums[0]

    def _stack_memo(self, h: np.ndarray) -> dict:
        """The functionals' values kept for the stack h, keyed by functional."""
        return self._duals.setdefault((h.shape, h.tobytes()), {})

    def on_contour(self, phi) -> bool:
        """Whether ``phi`` is a derivative functional on this contour: equal center and
        radii, n^d nodes."""
        return (phi.meaning == "derivative" and len(phi.nodes) == self.n ** self.fam.d
                and np.array_equal(phi.center, self.center)
                and np.array_equal(phi.radii, self.radii))

    def _evaluate(self, points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """F on ``points`` of shape (..., d), shape (..., k): one array, or the contiguous
        ``out`` in place, filled by blocks of rows of ``measure.ROW_BLOCK`` values or one
        row, each through :meth:`HoloFamily.eval`."""
        params = self.space.params
        values = np.empty(points.shape[:-1] + params.shape, complex) if out is None else out
        points, rows = points.reshape(-1, self.fam.d), values.reshape(-1, len(params))
        block = max(1, measure.ROW_BLOCK // len(params))
        for start in range(0, len(points), block):
            rows[start:start + block] = self.fam.eval(points[start:start + block, None, :],
                                                      params)
        return values if out is not None else _read_only(values)


def _certified(fam: HoloFamily) -> bool:
    """Whether the symmetries read off the family's kind hold for it: the kind is
    registered and the family's ``_evaluate`` is the kind's own."""
    kind = _KINDS.get(fam.kind)
    return kind is not None and type(fam)._evaluate is kind._evaluate


def _ring_count(n: int, conjugate: bool, reflect: bool) -> int:
    """The leading slabs of an n-node ring's first axis that :meth:`ContourSample._fill`
    evaluates, every other slab copied: n // 2 + 1 under conjugation j -> -j mod n, n/2
    under the reflection j -> j + n/2 mod n (n even), n // 4 + 1 under both, else n."""
    if conjugate:
        return n // 4 + 1 if reflect else n // 2 + 1
    return n // 2 if reflect else n


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def _multiply(re: np.ndarray, im: np.ndarray, b: np.ndarray, out_re: np.ndarray,
              out_im: np.ndarray) -> None:
    """(re + i im) b into the real arrays ``out_re`` and ``out_im``, broadcast, by one step
    of :func:`_product`: out_re = re br - im bi, out_im = im br + re bi."""
    np.multiply(re, b.real, out=out_re)
    out_re -= im * b.imag
    np.multiply(im, b.real, out=out_im)
    out_im += re * b.imag


def _product(factors, out: np.ndarray | None = None) -> np.ndarray:
    """The product of an iterable of complex arrays of one shape, into ``out`` if given.

    It computes what ``np.prod`` over a last axis does: from 1, each step the schoolbook
    multiply re = ar br - ai bi, im = ar bi + ai br in float arithmetic, so it equals that
    bit for bit on finite factors (numpy's binary ``a * b`` differs in last bits).  It
    is about 2 times faster than ``np.prod`` over a length-2 axis, works in ``out`` and
    holds one factor at a time beside it."""
    factors = iter(factors)
    first = next(factors)
    if out is None:
        out = np.empty(first.shape, dtype=complex)
    out[...] = first
    del first
    # the step from 1 + 0i: 1 ar - 0 ai and 1 ai + 0 ar, which fix the signs of zeros;
    # each temporary is dropped before the next is made
    zero = 0.0 * out.imag
    out.imag += 0.0 * out.real
    out.real -= zero
    del zero
    for b in factors:
        re = out.real * b.real
        re -= out.imag * b.imag
        out.imag *= b.real
        out.imag += out.real * b.imag
        out.real = re
        del re
    return out


def _tensor_poly_eval(coeffs: np.ndarray, z: np.ndarray, t) -> np.ndarray:
    """Evaluate sum_{m,j} coeffs[m, j] z^m t^j with z batched on (..., d)."""
    zshape = coeffs.shape[:-1]
    out = np.zeros(np.broadcast_shapes(z.shape[:-1], np.shape(t)), dtype=complex)
    for m in np.ndindex(zshape):
        mono = np.ones(z.shape[:-1], dtype=complex)
        for j, mj in enumerate(m):
            if mj:
                mono = mono * z[..., j] ** mj
        out = out + npoly.polyval(t, coeffs[m]) * mono
    return out


def _tensor_poly_diff(coeffs: np.ndarray, alpha: tuple[int, ...]) -> np.ndarray:
    out = coeffs
    for axis, order in enumerate(alpha):
        if order:
            if order >= out.shape[axis]:
                out = np.zeros((1,) * (coeffs.ndim - 1) + (1,), dtype=complex)
                break
            out = npoly.polyder(out, m=order, axis=axis)
    return np.asarray(out, dtype=complex)


class ConstantFamily(HoloFamily):
    """f(z, t) = value.  At d >= 2 it is the product of ``value`` on the first variable and
    1 on every other, multiplied by :func:`_product`, so it equals the product fill of
    its axes (:meth:`~HoloFamily._axis_families`) bit for bit, signed zeros included."""

    kind = "constant"
    parameters = {"value": lambda d: 0}
    #: it reads no z, so a conjugated row would flip the sign of a zero imaginary part
    #: that evaluation keeps, and the product fill carries that sign where value < 0
    conjugates = False

    def __init__(self, value, domain: Polydisc, label: str = "constant",
                 span_dim: int | None = 1):
        super().__init__(domain, label, span_dim, value=value)

    def _evaluate(self, z, t):
        shape = np.broadcast_shapes(z.shape[:-1], np.shape(t))
        if self.d == 1:
            return np.broadcast_to(self.value, shape).copy()
        return _product([np.broadcast_to(self.value, shape)]
                        + [np.broadcast_to(1 + 0j, shape)] * (self.d - 1))

    def _derivative(self, z, t, alpha):
        shape = np.broadcast_shapes(z.shape[:-1], np.shape(t))
        if all(a == 0 for a in alpha):
            return np.broadcast_to(self.value, shape).copy()
        return np.zeros(shape, dtype=complex)

    def _reflects(self):
        return True

    def _axis_parameters(self, j):
        # factor j is the value on the first variable and 1 on the others, as _evaluate
        # multiplies them
        return {"value": self.value if j == 0 else 1.0}


class PolynomialFamily(HoloFamily):
    """f(z, t) = sum_{m, j} coeffs[m_1, ..., m_d, j] z^m t^j (entire in z)."""

    kind = "polynomial"
    parameters = {"coeffs": lambda d: d + 1}

    def __init__(self, coeffs, domain: Polydisc, label: str = "polynomial",
                 span_dim: int | None = None):
        super().__init__(domain, label, span_dim, coeffs=coeffs)

    def _evaluate(self, z, t):
        return _tensor_poly_eval(self.coeffs, z, t)

    def _derivative(self, z, t, alpha):
        return _tensor_poly_eval(_tensor_poly_diff(self.coeffs, alpha), z, t)


class GeometricFamily(HoloFamily):
    """f(z, t) = prod_j 1 / (1 - rate_j t z_j), analytic while |rate_j t z_j| < 1."""

    kind = "geometric"
    parameters = {"rates": lambda d: 1}

    def __init__(self, rates, domain: Polydisc, label: str = "geometric",
                 span_dim: int | None = None):
        super().__init__(domain, label, span_dim, rates=rates)
        if len(self.rates) != domain.d:
            raise ValueError(f"need one rate per variable ({domain.d})")

    def _rate_args(self, z, t):
        # per-axis beta_j(t) = rate_j * t and arguments beta_j(t) * z_j, shape (..., d);
        # the analyticity test takes one axis's magnitudes at a time
        beta = self.rates * np.expand_dims(np.asarray(t, dtype=complex), -1)
        args = beta * z
        if any(np.any(np.abs(args[..., j]) >= 1.0 - 1e-12) for j in range(self.d)):
            raise ValueError(
                f"{self.label!r} leaves its guaranteed analyticity region: "
                "|rate * t * z| must stay below 1"
            )
        return beta, args

    def _evaluate(self, z, t):
        _, args = self._rate_args(z, t)  # (N, k, d), the largest array: 1 / (1 - args) in place
        factors = np.divide(1.0, np.subtract(1.0, args, out=args), out=args)
        return _product(factors[..., j] for j in range(self.d))

    def _derivative(self, z, t, alpha):
        beta, args = self._rate_args(z, t)
        out = np.ones(np.broadcast_shapes(z.shape[:-1], np.shape(t)), dtype=complex)
        for j, aj in enumerate(alpha):
            base = 1.0 / (1.0 - args[..., j])
            if aj:
                out = out * (math.factorial(aj) * beta[..., j] ** aj * base ** (aj + 1))
            else:
                out = out * base
        return out

    def validate_on(self, space):
        reach = np.abs(self.domain.center) + self.domain.radius
        worst = np.max(np.abs(self.rates) * reach * np.max(np.abs(space.params)))
        if worst >= 1.0 - 1e-9:
            raise ValueError(
                f"{self.label!r} is not analytic on the closed domain for these atoms: "
                f"max |rate| * |t| * |z| = {worst:.6g} >= 1"
            )

    def _reflects(self):
        return True

    def _axis_parameters(self, j):
        # factor j is 1 / (1 - rate_j t z_j), computed as _evaluate computes it at d
        return {"rates": self.rates[j:j + 1]}


class ExponentialFamily(HoloFamily):
    """f(z, t) = exp(scale * t * (z_1 + ... + z_d)); entire in z.

    At d >= 2 it is evaluated as the product of exp(scale * t * z_j) over the variables
    by :func:`_product`, which the product fill of its axes
    (:meth:`~HoloFamily._axis_families`) equals bit for bit; exp(a + b) and exp(a) exp(b)
    differ in last bits."""

    kind = "exponential"
    parameters = {"scale": lambda d: 0}

    def __init__(self, scale, domain: Polydisc, label: str = "exponential",
                 span_dim: int | None = None):
        super().__init__(domain, label, span_dim, scale=scale)

    def _evaluate(self, z, t):
        if self.d == 1:
            return np.exp(self.scale * np.asarray(t) * z.sum(axis=-1))
        st = self.scale * np.asarray(t)
        return _product(np.exp(st * z[..., j]) for j in range(self.d))

    def _derivative(self, z, t, alpha):
        order = sum(alpha)
        return (self.scale * np.asarray(t)) ** order * self._evaluate(z, t)

    def _reflects(self):
        return True

    def _axis_parameters(self, j):
        # factor j is exp(scale t z_j), computed as _evaluate at d = 1 computes it
        return {"scale": self.scale}


class SeparableFamily(HoloFamily):
    """f(z, t) = g(z) m(t) with polynomial factors g and m."""

    kind = "separable"
    parameters = {"z_coeffs": lambda d: d, "t_coeffs": lambda d: 1}

    def __init__(self, z_coeffs, t_coeffs, domain: Polydisc, label: str = "separable",
                 span_dim: int | None = 1):
        super().__init__(domain, label, span_dim, z_coeffs=z_coeffs, t_coeffs=t_coeffs)

    def z_factor(self, z):
        z = self._coerce_points(z)
        return _tensor_poly_eval(self.z_coeffs[..., None], z, 0.0)

    def t_factor(self, t):
        return npoly.polyval(np.asarray(t, dtype=complex), self.t_coeffs)

    def _evaluate(self, z, t):
        return self.z_factor(z) * self.t_factor(t)

    def _derivative(self, z, t, alpha):
        dcoeffs = _tensor_poly_diff(self.z_coeffs[..., None], alpha)
        return _tensor_poly_eval(dcoeffs, z, 0.0) * self.t_factor(t)


class TabulatedTaylorFamily(HoloFamily):
    """f(z, t) = sum_{m, j} coeffs[m, j] t^j (z - center)^m about the domain center.

    The stored table is the round-trip oracle for Taylor-coefficient
    extraction by boundary quadrature.
    """

    kind = "tabulated_taylor"
    parameters = {"coeffs": lambda d: d + 1}

    def __init__(self, coeffs, domain: Polydisc, label: str = "tabulated",
                 span_dim: int | None = None):
        super().__init__(domain, label, span_dim, coeffs=coeffs)

    def _evaluate(self, z, t):
        return _tensor_poly_eval(self.coeffs, z - self.domain.center, t)

    def _derivative(self, z, t, alpha):
        dcoeffs = _tensor_poly_diff(self.coeffs, alpha)
        return _tensor_poly_eval(dcoeffs, z - self.domain.center, t)


_KINDS = {
    cls.kind: cls
    for cls in (
        ConstantFamily,
        PolynomialFamily,
        GeometricFamily,
        ExponentialFamily,
        SeparableFamily,
        TabulatedTaylorFamily,
    )
}


def family_from_json(doc) -> HoloFamily:
    """Load a family from {"kind", "params", "domain", ["label"]}: each parameter its kind
    declares (:attr:`HoloFamily.parameters`) a complex entry, or nested lists of them
    with the declared number of axes."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    kind = doc["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    cls, dom, params = _KINDS[kind], doc["domain"], doc.get("params", {})
    domain = Polydisc(parse_complex(dom["center"], axes=1), dom["radius"])
    return cls(**{name: parse_complex(params[name], axes(domain.d))
                  for name, axes in cls.parameters.items()},
               domain=domain, label=doc.get("label", kind))


def _preset_constant():
    return ConstantFamily(2 + 1j, unit_polydisc(), label="constant")


def _preset_polynomial():
    # f(z, t) = t z^2: dim span F(O) = 1 since every F(z) is parallel to (t_i)
    coeffs = np.zeros((3, 2), dtype=complex)
    coeffs[2, 1] = 1.0
    return PolynomialFamily(coeffs, unit_polydisc(), label="polynomial", span_dim=1)


def _preset_affine():
    # f(z, t) = (1 + t/2) + z (2 - t): span dimension 2 for generic atoms
    coeffs = np.array([[1.0, 0.5], [2.0, -1.0]], dtype=complex)
    return PolynomialFamily(coeffs, unit_polydisc(), label="affine", span_dim=2)


def _preset_geometric():
    return GeometricFamily([0.5], unit_polydisc(), label="geometric")


def _preset_exponential():
    return ExponentialFamily(1.0, unit_polydisc(), label="exponential")


def _preset_separable():
    # g(z) = 1 + z/2 + z^2/4, m(t) = 1 + t/2
    return SeparableFamily([1.0, 0.5, 0.25], [1.0, 0.5], unit_polydisc(), label="separable")


def _preset_tabulated():
    coeffs = np.array([[0.3, 0.1], [0.0, 0.7], [0.2, 0.0]], dtype=complex)
    return TabulatedTaylorFamily(coeffs, unit_polydisc(), label="tabulated")


_PRESETS = {
    "constant": _preset_constant,
    "polynomial": _preset_polynomial,
    "affine": _preset_affine,
    "geometric": _preset_geometric,
    "exponential": _preset_exponential,
    "separable": _preset_separable,
    "tabulated": _preset_tabulated,
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def family_preset(name: str) -> HoloFamily:
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ValueError(f"unknown family preset {name!r}") from None

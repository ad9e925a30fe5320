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


def unit_polydisc(d: int = 1) -> Polydisc:
    return Polydisc(np.zeros(d), np.ones(d))


class HoloFamily:
    """Base class: a named f(z, t) with a domain and closed forms.

    Subclasses implement ``_evaluate`` and ``_derivative`` without domain
    checks; the public entry points enforce membership at shrink 1.
    ``span_dim`` is the dimension of span{F(z)} over a generic atom set when
    it is finite and known, else None.
    """

    kind = "abstract"

    def __init__(self, domain: Polydisc, label: str, span_dim: int | None = None):
        self.domain = domain
        self.label = label
        self.span_dim = span_dim

    # -- kind-specific closed forms ------------------------------------
    def _evaluate(self, z: np.ndarray, t) -> np.ndarray:
        raise NotImplementedError

    def _derivative(self, z: np.ndarray, t, alpha: tuple[int, ...]) -> np.ndarray:
        raise NotImplementedError

    def params_json(self) -> dict:
        raise NotImplementedError

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
        if not self.domain.contains_all(z, 1.0):
            raise ValueError(f"evaluation point outside the domain of {self.label!r}")
        return self._evaluate(z, np.asarray(t, dtype=complex))

    def deriv(self, z, t, alpha):
        """Closed-form mixed partial D^alpha_z f(z, t)."""
        alpha = as_multi_index(alpha, self.d)
        z = self._coerce_points(z)
        if not self.domain.contains_all(z, 1.0):
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
    about the domain center at CONTOUR_SHRINK of the radii.  Every point
    set is evaluated through :meth:`HoloFamily.eval` (so the domain check applies) when
    it is first read, and is read-only from then on; an evaluation that raises is not
    kept, so each reader meets the error itself.  So are one Taylor table of the contour
    values, each functional's (k,) slice vector and its (m,) values on each stack of m
    dual vectors.  The contour's (n^d, m) pairing with a stack is kept only from one
    functional on the contour to the next that reads it (:meth:`pairing`).  Two threads
    sharing a sample can at worst compute one twice.
    """

    def __init__(self, fam: HoloFamily, space: FiniteMeasureSpace, n: int):
        self.fam, self.space, self.n = fam, space, int(n)
        self.center, self.radii = fam.domain.center, fam.domain.radius * CONTOUR_SHRINK
        self._node_values, self._slices, self._duals = {}, {}, {}
        #: the Taylor table and the (stack key, contour pairing) kept, or None
        self._table = self._pairing = None

    @cached_property
    def values(self) -> np.ndarray:
        """F on the contour grid, shape (n^d, k)."""
        return self._evaluate(torus_nodes(Polydisc(self.center, self.radii), self.n).grid())

    @cached_property
    def sup(self) -> float:
        """max |F| on the contour grid, a lower estimate of its sup on the polydisc.

        It reads blocks of rows of ``measure.ROW_BLOCK`` values or one row, so the
        magnitudes never take the whole sample; a max is exact, so it equals the
        whole sample's max bit for bit."""
        rows = self.values
        block = max(1, measure.ROW_BLOCK // self.space.natoms)
        return float(np.max([np.max(np.abs(rows[start:start + block]))
                             for start in range(0, len(rows), block)]))

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

    def node_values(self, phi) -> np.ndarray:
        """F on the nodes of the measure functional ``phi``, shape (nodes, k).

        A derivative functional on this contour (equal center and radii, n^d nodes)
        reads :attr:`values`; any other functional's nodes are evaluated once.
        """
        if phi.d != self.fam.d:
            raise ValueError("functional and family dimensions differ")
        if self.on_contour(phi):
            return self.values
        if phi not in self._node_values:
            self._node_values[phi] = self._evaluate(phi.nodes)
        return self._node_values[phi]

    def slice_vector(self, phi) -> np.ndarray:
        """``phi.apply_slices(self)``, the (k,) vector (phi(f(., t_i)))_i, computed once."""
        if phi not in self._slices:
            self._slices[phi] = _read_only(phi.apply_slices(self))
        return self._slices[phi]

    def dual_values(self, phi, h) -> np.ndarray:
        """``phi.apply_dual(self, h)`` for a stack h of m dual vectors, (m,), computed once.

        The memo keeps each stack's bytes once, with every functional's values on it.
        A call that does not read the kept contour pairing (:meth:`pairing`) drops it."""
        h = np.array(h, dtype=complex, ndmin=2)
        memo = self._duals.setdefault((h.shape, h.tobytes()), {})
        if phi in memo or not self.on_contour(phi):
            self._pairing = None
        if phi not in memo:
            memo[phi] = _read_only(phi.apply_dual(self, h))
        return memo[phi]

    def pairing(self, phi, h) -> np.ndarray:
        """F on ``phi``'s nodes paired with each dual vector of h, ``node_values(phi) @
        (h mu).T``, shape (nodes,) + h.shape[:-1].

        One product serves every functional on the contour: the contour's is kept for
        the last stack h until a :meth:`dual_values` call that does not read it.
        """
        values = self.node_values(phi)
        hw = (h * self.space.weights).T
        if not self.on_contour(phi):
            return values @ hw
        key = (h.shape, h.tobytes())
        held = self._pairing
        if held is None or held[0] != key:
            held = self._pairing = (key, _read_only(values @ hw))
        return held[1]

    def on_contour(self, phi) -> bool:
        """Whether ``phi`` is a derivative functional on this contour: equal center and
        radii, n^d nodes."""
        return (phi.meaning == "derivative" and len(phi.nodes) == self.n ** self.fam.d
                and np.array_equal(phi.center, self.center)
                and np.array_equal(phi.radii, self.radii))

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        return _read_only(self.fam.eval(points[:, None, :], self.space.params))


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


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
    kind = "constant"

    def __init__(self, value, domain: Polydisc, label: str = "constant",
                 span_dim: int | None = 1):
        super().__init__(domain, label, span_dim)
        self.value = complex(value)

    def _evaluate(self, z, t):
        return np.broadcast_to(
            np.asarray(self.value), np.broadcast_shapes(z.shape[:-1], np.shape(t))
        ).copy()

    def _derivative(self, z, t, alpha):
        shape = np.broadcast_shapes(z.shape[:-1], np.shape(t))
        if all(a == 0 for a in alpha):
            return np.broadcast_to(np.asarray(self.value), shape).copy()
        return np.zeros(shape, dtype=complex)

    def params_json(self):
        return {"value": [self.value.real, self.value.imag]}


class PolynomialFamily(HoloFamily):
    """f(z, t) = sum_{m, j} coeffs[m_1, ..., m_d, j] z^m t^j (entire in z)."""

    kind = "polynomial"

    def __init__(self, coeffs, domain: Polydisc, label: str = "polynomial",
                 span_dim: int | None = None):
        super().__init__(domain, label, span_dim)
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != domain.d + 1:
            raise ValueError(
                f"coefficient tensor needs {domain.d + 1} axes (z monomials + t degree)"
            )
        self.coeffs = coeffs

    def _evaluate(self, z, t):
        return _tensor_poly_eval(self.coeffs, z, t)

    def _derivative(self, z, t, alpha):
        return _tensor_poly_eval(_tensor_poly_diff(self.coeffs, alpha), z, t)

    def params_json(self):
        return {"coeffs": _complex_nested(self.coeffs)}


class GeometricFamily(HoloFamily):
    """f(z, t) = prod_j 1 / (1 - rate_j t z_j), analytic while |rate_j t z_j| < 1."""

    kind = "geometric"

    def __init__(self, rates, domain: Polydisc, label: str = "geometric",
                 span_dim: int | None = None):
        super().__init__(domain, label, span_dim)
        rates = np.atleast_1d(np.asarray(rates, dtype=complex))
        if rates.shape != (domain.d,):
            raise ValueError(f"need one rate per variable ({domain.d})")
        self.rates = rates

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
        return np.prod(np.divide(1.0, np.subtract(1.0, args, out=args), out=args), axis=-1)

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

    def params_json(self):
        return {"rates": [[r.real, r.imag] for r in self.rates]}


class ExponentialFamily(HoloFamily):
    """f(z, t) = exp(scale * t * (z_1 + ... + z_d)); entire in z."""

    kind = "exponential"

    def __init__(self, scale, domain: Polydisc, label: str = "exponential",
                 span_dim: int | None = None):
        super().__init__(domain, label, span_dim)
        self.scale = complex(scale)

    def _evaluate(self, z, t):
        return np.exp(self.scale * np.asarray(t) * z.sum(axis=-1))

    def _derivative(self, z, t, alpha):
        order = sum(alpha)
        return (self.scale * np.asarray(t)) ** order * self._evaluate(z, t)

    def params_json(self):
        return {"scale": [self.scale.real, self.scale.imag]}


class SeparableFamily(HoloFamily):
    """f(z, t) = g(z) m(t) with polynomial factors g and m."""

    kind = "separable"

    def __init__(self, z_coeffs, t_coeffs, domain: Polydisc, label: str = "separable",
                 span_dim: int | None = 1):
        super().__init__(domain, label, span_dim)
        z_coeffs = np.asarray(z_coeffs, dtype=complex)
        if z_coeffs.ndim != domain.d:
            raise ValueError(f"z coefficient tensor needs {domain.d} axes")
        self.z_coeffs = z_coeffs
        self.t_coeffs = np.atleast_1d(np.asarray(t_coeffs, dtype=complex))

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

    def params_json(self):
        return {
            "z_coeffs": _complex_nested(self.z_coeffs),
            "t_coeffs": _complex_nested(self.t_coeffs),
        }


class TabulatedTaylorFamily(HoloFamily):
    """f(z, t) = sum_{m, j} coeffs[m, j] t^j (z - center)^m about the domain center.

    The stored table is the round-trip oracle for Taylor-coefficient
    extraction by boundary quadrature.
    """

    kind = "tabulated_taylor"

    def __init__(self, coeffs, domain: Polydisc, label: str = "tabulated",
                 span_dim: int | None = None):
        super().__init__(domain, label, span_dim)
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != domain.d + 1:
            raise ValueError(
                f"coefficient tensor needs {domain.d + 1} axes (z monomials + t degree)"
            )
        self.coeffs = coeffs

    def _evaluate(self, z, t):
        return _tensor_poly_eval(self.coeffs, z - self.domain.center, t)

    def _derivative(self, z, t, alpha):
        dcoeffs = _tensor_poly_diff(self.coeffs, alpha)
        return _tensor_poly_eval(dcoeffs, z - self.domain.center, t)

    def params_json(self):
        return {"coeffs": _complex_nested(self.coeffs)}


def _complex_nested(arr: np.ndarray):
    if arr.ndim == 0:
        c = complex(arr)
        return [c.real, c.imag]
    return [_complex_nested(sub) for sub in arr]


def _nested_complex(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("complex tensors must be nested [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


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
    """Load a family from {"kind", "params", "domain", ["label"]}."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    kind = doc["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    dom = doc["domain"]
    center = [parse_complex(c) for c in dom["center"]]
    domain = Polydisc(center, dom["radius"])
    params = doc.get("params", {})
    kwargs = {"domain": domain, "label": doc.get("label", kind)}
    if kind == "constant":
        return ConstantFamily(parse_complex(params["value"]), **kwargs)
    if kind == "polynomial":
        return PolynomialFamily(_nested_complex(params["coeffs"]), **kwargs)
    if kind == "geometric":
        return GeometricFamily([parse_complex(r) for r in params["rates"]], **kwargs)
    if kind == "exponential":
        return ExponentialFamily(parse_complex(params["scale"]), **kwargs)
    if kind == "separable":
        return SeparableFamily(
            _nested_complex(params["z_coeffs"]), _nested_complex(params["t_coeffs"]), **kwargs
        )
    return TabulatedTaylorFamily(_nested_complex(params["coeffs"]), **kwargs)


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

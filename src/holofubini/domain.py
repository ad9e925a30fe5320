"""Polydisc geometry and distinguished-boundary (torus) quadrature rules.

All values are immutable after construction and every operation is pure,
so shared instances are safe under unrestricted concurrent use.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CONTOUR_SHRINK",
    "Polydisc",
    "TorusQuadrature",
    "torus_nodes",
    "as_multi_index",
    "multi_factorial",
    "parse_complex",
    "sample_polydisc",
]

#: contour placement inside a family domain, keeping strict analyticity margin; every
#: module builds its contour grid from it, so grids meant to coincide are byte-identical
CONTOUR_SHRINK = 0.95
#: every torus grid some holder still keeps, by (center, radii, n) bytes
_GRIDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def parse_complex(value, axes: int = 0):
    """A complex number from an ``[re, im]`` pair, a number or a string; with ``axes`` >
    0, a complex array of that many axes from nested lists whose leaves are such entries,
    no axis empty or ragged."""
    if axes:
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"cannot parse complex array {value!r}: expected a nonempty "
                             f"list nested {axes} deep")
        entries = [parse_complex(entry, axes - 1) for entry in value]
        if any(np.shape(entry) != np.shape(entries[0]) for entry in entries):
            raise ValueError(f"cannot parse complex array {value!r}: ragged")
        return np.array(entries, dtype=complex)
    try:
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return complex(float(value[0]), float(value[1]))
        return complex(value)  # a list of another length raises TypeError
    except (TypeError, ValueError):
        raise ValueError(f"cannot parse complex number {value!r}: expected an [re, im] "
                         "pair, a number or a string") from None


def as_multi_index(alpha, d: int | None = None) -> tuple[int, ...]:
    """Coerce ``alpha`` to a tuple of nonnegative ints, optionally of length d."""
    if np.isscalar(alpha):
        alpha = (alpha,)
    out = tuple(int(a) for a in alpha)
    if any(a < 0 for a in out) or any(a != b for a, b in zip(out, alpha)):
        raise ValueError(f"multi-index entries must be nonnegative integers, got {alpha}")
    if d is not None and len(out) != d:
        raise ValueError(f"multi-index length {len(out)} does not match dimension {d}")
    return out


def multi_factorial(alpha) -> float:
    """alpha! = prod_j alpha_j! for a multi-index."""
    return float(math.prod(math.factorial(a) for a in as_multi_index(alpha)))


@dataclass(frozen=True, eq=False)
class Polydisc:
    """Open product of discs { z : |z_j - center_j| < radius_j for all j }.

    Parameters
    ----------
    center : complex vector of length d
    radius : positive real vector of length d
    """

    center: np.ndarray
    radius: np.ndarray

    def __init__(self, center, radius):
        center = np.atleast_1d(np.asarray(center, dtype=complex)).copy()
        radius = np.atleast_1d(np.asarray(radius, dtype=float)).copy()
        if center.ndim != 1:
            raise ValueError(f"expected a complex vector, got shape {center.shape}")
        if radius.shape != center.shape:
            raise ValueError("center and radius must have the same length")
        if center.shape[0] < 1:
            raise ValueError("polydisc dimension must be at least 1")
        if not np.all(radius > 0):
            raise ValueError("all radii must be positive")
        center.setflags(write=False)
        radius.setflags(write=False)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

    @property
    def d(self) -> int:
        return self.center.shape[0]

    def contains_all(self, points) -> bool:
        """Vectorized membership test for an array of points with last axis d, taking
        one variable's distances at a time."""
        pts = np.asarray(points, dtype=complex)
        if pts.shape[-1] != self.d:
            raise ValueError(f"dimension mismatch: expected last axis {self.d}")
        return all(bool(np.all(np.abs(pts[..., j] - c) < r))
                   for j, (c, r) in enumerate(zip(self.center, self.radius)))

    def shrunk(self, factor: float) -> "Polydisc":
        """The concentric polydisc with radii scaled by ``factor``."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"shrink factor must lie in (0, 1], got {factor}")
        return Polydisc(self.center, self.radius * factor)


@dataclass(frozen=True, eq=False)
class TorusQuadrature:
    """Tensor-product trapezoid rule on the distinguished boundary of a polydisc.

    ``nodes[j, k] = center_j + radius_j * exp(2 pi i k / n)``.  The Cauchy-normalized
    trapezoid rule of the iterated contour integral is the plain node mean in each
    variable, which annihilates ``(w_j - center_j)^m`` exactly for 0 < |m| < n.

    The ring of roots of unity is conjugate-symmetric bit for bit, and at even n
    antisymmetric too: entries k <= n/4 of an even ring are computed, entry n/2 - k is
    -conj(entry k) (so entry n/2 is -1 and, where 4 divides n, entry n/4 is 1j exactly)
    and entry n - k is the conjugate of entry k; an odd ring computes its entries k <=
    n/2.  So about a real center node n - k is the conjugate of node k, and the grid is
    closed under conjugation with each index j mapped to -j mod n; at even n entry k +
    n/2 is -(entry k), so about the center 0 node k + n/2 is -(node k), and the grid is
    closed under w -> -w with each index j mapped to j + n/2 mod n.
    """

    disc: Polydisc
    n: int
    nodes: np.ndarray  # shape (d, n)

    def __init__(self, disc: Polydisc, n: int):
        n = int(n)
        if n < 4:
            raise ValueError(f"node count per variable must be at least 4, got {n}")
        # entries 0..n // 4 at even n, else 0..(n - 1) // 2, are computed; at even n entry
        # n/2 - j is -conj(entry j), and entry n/4 is 1j where 4 divides n
        half = n // 4 if n % 2 == 0 else (n - 1) // 2
        ring = np.empty(n, dtype=complex)
        ring[:half + 1] = np.exp(1j * (2.0 * np.pi * np.arange(half + 1) / n))
        if n % 2 == 0:
            ring[n // 2 - half:n // 2 + 1] = -ring[half::-1].conj()
            if n % 4 == 0:
                ring[half] = 1j
        ring[:n // 2:-1] = ring[1:(n + 1) // 2].conj()
        nodes = disc.center[:, None] + disc.radius[:, None] * ring[None, :]
        nodes.setflags(write=False)
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nodes", nodes)

    @property
    def d(self) -> int:
        return self.disc.d

    def grid(self) -> np.ndarray:
        """All n^d tensor-product boundary points, flattened to shape (n^d, d), read-only.

        Rules of equal center, radii and n give one array while anything holds it, so
        the derivative functionals on a contour and the contour sample share one grid.
        The mesh is a broadcast view, so the points are the only array built."""
        key = (self.disc.center.tobytes(), self.disc.radius.tobytes(), self.n)
        points = _GRIDS.get(key)
        if points is None:
            mesh = np.meshgrid(*self.nodes, indexing="ij", copy=False)
            points = np.stack(mesh, axis=-1).reshape(-1, self.d)
            points.setflags(write=False)
            _GRIDS[key] = points
        return points


def sample_polydisc(disc: Polydisc, count: int, shrink: float, rng) -> np.ndarray:
    """``count`` seeded points uniform in the shrink-scaled ``disc``, shape (count, d).

    All radii are drawn before all angles, so one generator state fixes the
    points for every caller.
    """
    radial = np.sqrt(rng.random((count, disc.d)))
    angle = rng.random((count, disc.d)) * 2.0 * np.pi
    return disc.center + shrink * disc.radius * radial * np.exp(1j * angle)


def torus_nodes(disc: Polydisc, n: int) -> TorusQuadrature:
    """Build the n-per-variable distinguished-boundary rule for ``disc``."""
    return TorusQuadrature(disc, n)

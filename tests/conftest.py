"""Shared fixtures and independent test oracles.

The polynomial and finite-difference helpers here are deliberately written
with plain loops, independent of the package's evaluation paths, so they can
serve as oracles for the quadrature routes.
"""

import numpy as np
import pytest

from holofubini import FiniteMeasureSpace, Polydisc, family_preset, space_preset, torus_nodes
from holofubini.domain import sample_polydisc
from holofubini.family import GeometricFamily

PRESET_NAMES = ("constant", "polynomial", "geometric", "exponential",
                "separable", "tabulated")


class UnfactoredGeometric(GeometricFamily):
    """The geometric kind with no axis parameters: its ``_evaluate`` is the kind's own, so
    its symmetries are certified, but its contour sample holds the whole grid, not the
    one-variable samples of its axes."""

    def _axis_parameters(self, j):
        return None


@pytest.fixture
def space16():
    return space_preset("uniform-16")


@pytest.fixture
def space3():
    return FiniteMeasureSpace([-0.8, 0.1, 0.7], [1 / 3] * 3)


@pytest.fixture(params=PRESET_NAMES)
def preset_family(request):
    return family_preset(request.param)


def poly_deriv(coeffs, z, alpha):
    """Direct falling-factorial oracle for D^alpha of a monomial sum."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    total = 0.0 + 0.0j
    for m in np.ndindex(*coeffs.shape):
        term = coeffs[m]
        for j, (mj, aj) in enumerate(zip(m, alpha)):
            if mj < aj:
                term = 0.0
                break
            fall = 1.0
            for i in range(aj):
                fall *= mj - i
            term = term * fall * z[j] ** (mj - aj)
        total += term
    return total


def _fd(f, a, alpha, h):
    a = np.asarray(a, dtype=complex)
    axis = next((j for j, k in enumerate(alpha) if k > 0), None)
    if axis is None:
        return complex(np.ravel(f(a[None, :]))[0])
    step = np.zeros(len(alpha), dtype=complex)
    step[axis] = h
    lower = tuple(k - 1 if j == axis else k for j, k in enumerate(alpha))
    return (_fd(f, a + step, lower, h) - _fd(f, a - step, lower, h)) / (2.0 * h)


def fd_derivative(f, a, alpha, h=1e-4):
    """Central differences with one Richardson extrapolation step."""
    return (4.0 * _fd(f, a, alpha, h / 2.0) - _fd(f, a, alpha, h)) / 3.0


def random_duals(space, count, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(space.natoms) + 1j * rng.standard_normal(space.natoms)
            for _ in range(count)]


def schwarz_values(f, center, radius, seed):
    """schwarz_violation's arguments for the slice f on the disc |z - center| < radius:
    f(center), f at 1000 points drawn in the disc from default_rng(seed), their steps
    |z - center| / radius and the max of |f| on the 64-node ring."""
    disc = Polydisc([center], [radius])
    z = sample_polydisc(disc, 1000, 1.0, np.random.default_rng(seed))
    return (f(np.array([[center]], dtype=complex))[0], f(z), np.abs(z[:, 0] - center) / radius,
            np.max(np.abs(f(torus_nodes(disc, 64).grid()))))

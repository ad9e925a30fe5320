"""Shared fixtures and independent test oracles.

The polynomial and finite-difference helpers here are deliberately written
with plain loops, independent of the package's evaluation paths, so they can
serve as oracles for the quadrature routes.
"""

import numpy as np
import pytest

from holofubini import FiniteMeasureSpace, family_preset, space_preset

PRESET_NAMES = ("constant", "polynomial", "geometric", "exponential",
                "separable", "tabulated")


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

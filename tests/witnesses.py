"""Witness families: each breaks a hypothesis of the checks by a term of size eps, and a
test pins the smallest eps from which a check detects it."""

import numpy as np

from holofubini import Polydisc, family_preset, unit_polydisc
from holofubini.domain import CONTOUR_SHRINK
from holofubini.family import GeometricFamily, PolynomialFamily


class ConjugatePerturbedGeometric(GeometricFamily):
    """The geometric preset plus eps * conj(z_1) * t, which is not holomorphic in z."""

    def __init__(self, eps):
        base = family_preset("geometric")
        super().__init__(base.rates, base.domain, f"geometric+{eps:g}conj")
        self.eps = eps

    def _evaluate(self, z, t):
        return super()._evaluate(z, t) + self.eps * np.conj(z[..., 0]) * t


class OffDerivativeFamily(GeometricFamily):
    """A geometric family whose closed-form derivatives are all off by ``eps``."""

    def __init__(self, rates, eps):
        super().__init__(rates, Polydisc([0.0] * len(rates), [1.0] * len(rates)))
        self.eps = eps

    def _derivative(self, z, t, alpha):
        return super()._derivative(z, t, alpha) + self.eps


class ContourVanishingGeometric(GeometricFamily):
    """geometric-d2 (rates 0.5, 0.4) plus eps * t * (0.95^2 - |z_1|^2): not holomorphic
    in z, and zero on the contour, so the sample's sup B does not see it."""

    def __init__(self, eps):
        super().__init__([0.5, 0.4], unit_polydisc(2), f"geometric-d2+{eps:g}bump")
        self.eps = eps

    def _evaluate(self, z, t):
        bump = CONTOUR_SHRINK ** 2 - np.abs(z[..., 0]) ** 2
        return super()._evaluate(z, t) + self.eps * t * bump


class SqrtPerturbedGeometric(GeometricFamily):
    """The geometric preset plus eps * t * sqrt|z|: not holomorphic in z, and its
    increment from the center grows like sqrt|z|, faster than the Schwarz bound's |z|."""

    def __init__(self, eps):
        base = family_preset("geometric")
        super().__init__(base.rates, base.domain, f"geometric+{eps:g}sqrt")
        self.eps = eps

    def _evaluate(self, z, t):
        return super()._evaluate(z, t) + self.eps * t * np.sqrt(np.abs(z[..., 0]))


def one_minus_z4():
    """f = 1 - z^4 on the unit disc: |f| = 1 - 0.95^4 on every node of the 4-node contour
    ring, far below its sup 1 + 0.95^4 on the contour and below f(0) = 1."""
    return PolynomialFamily([[1.0], [0.0], [0.0], [0.0], [-1.0]], unit_polydisc(1))

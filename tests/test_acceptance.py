"""Acceptance battery: one test per criterion, each at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion pass lines).  The identity matrix shared by criteria 2, 3 and
5 is computed once per module.
"""

import math

import numpy as np
import pytest

from holofubini import (FiniteMeasureSpace, cauchy_derivative,
                        derivative_functional, dirac, family_preset, random_measure,
                        space_preset, unit_polydisc)
from holofubini import theorems
from holofubini.cauchy import schwarz_violation
from holofubini.family import ContourSample, GeometricFamily
from holofubini.functional import MeasureFunctional

from conftest import PRESET_NAMES, poly_deriv, random_duals, schwarz_values

INF = math.inf
P_LIST = (1.0, 2.0, INF)
CONTOUR = [0.95]
KINDS = PRESET_NAMES  # constant, polynomial, geometric, exponential, separable, tabulated


def announce(number, name):
    print(f"[acceptance] criterion {number:2d} ({name}): PASS")


def batched_poly(coeffs):
    def f(z):
        out = np.zeros(z.shape[:-1], dtype=complex)
        for m in np.ndindex(*coeffs.shape):
            term = np.full(z.shape[:-1], coeffs[m])
            for j, mj in enumerate(m):
                term = term * z[..., j] ** mj
            out = out + term
        return out
    return f


def all_alphas(d, max_total):
    return [tuple(int(a) for a in alpha)
            for alpha in np.ndindex(*((max_total + 1,) * d))
            if sum(alpha) <= max_total]


@pytest.fixture(scope="module")
def space16():
    return space_preset("uniform-16")


@pytest.fixture(scope="module")
def functionals():
    domain = unit_polydisc()
    return [
        dirac([0.25]),
        derivative_functional([0.0], (1,), CONTOUR, n=64),
        derivative_functional([0.0], (2,), CONTOUR, n=64),
        random_measure(domain, k=8, shrink=0.5, seed=0),
    ]


@pytest.fixture(scope="module")
def identity_matrix(space16, functionals):
    """fubini / linearization / norm-bound reports over the full case matrix."""
    duals = {p: random_duals(space16, 10, seed=100 + i) for i, p in enumerate(P_LIST)}
    out = {"fubini": [], "linearization": [], "norm_bound": []}
    for kind in KINDS:
        sample = ContourSample(family_preset(kind), space16, 64)
        for phi in functionals:
            for p in P_LIST:
                worst = max(
                    (theorems.fubini_residual(phi, sample, h, p) for h in duals[p]),
                    key=lambda rep: rep.residual,
                )
                out["fubini"].append(worst)
                out["linearization"].append(theorems.linearization_residual(
                    phi, sample, duals[p], p=p))
            out["norm_bound"] += theorems.norm_bound_check([phi], sample, P_LIST)
    return out


def test_criterion_01_cauchy_exactness():
    # polynomial slices of per-variable degree <= 8 in d = 1, 2 against the
    # direct-evaluation oracle, relative 1e-11 at n = 32; alpha = 0 is Cauchy's
    # formula for the value at an off-centre point a
    rng = np.random.default_rng(42)
    for d in (1, 2):
        shape = (9,) * d
        coeffs = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
        f = batched_poly(coeffs)
        for alpha in all_alphas(d, 3):
            a = 0.1 * (rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d))
            oracle = poly_deriv(coeffs, a, alpha)
            got = cauchy_derivative(f, a, alpha, [0.8] * d, n=32)
            assert abs(got - oracle) <= 1e-11 * max(1.0, abs(oracle))
    announce(1, "Cauchy exactness")


def test_criterion_02_fubini_identity(identity_matrix):
    # every kind x functional x p x 10 duals at n = 64, shrink 0.5, 16 atoms
    reports = identity_matrix["fubini"]
    assert len(reports) == len(KINDS) * 4 * len(P_LIST)
    worst = max(rep.residual for rep in reports)
    assert worst <= 1e-9, worst
    announce(2, "Fubini identity")


def test_criterion_03_linearization(identity_matrix):
    reports = identity_matrix["linearization"]
    assert max(rep.residual for rep in reports) <= 1e-10
    dirac_reports = [rep for rep in reports if rep.functional.startswith("dirac")]
    assert dirac_reports and max(rep.residual for rep in dirac_reports) <= 1e-13
    announce(3, "linearization")


def test_criterion_04_derivative_consistency(space16):
    for kind in KINDS:
        fam = family_preset(kind)
        reports = theorems.derivative_consistency(
            ContourSample(fam, space16, 64), [(0,), (1,), (2,)], p=P_LIST)
        assert len(reports) == 3 * len(P_LIST)
        for rep in reports:
            assert rep.passed and rep.residual <= 1e-10, rep.describe()
    announce(4, "derivative consistency")


def test_criterion_05_norm_bounds(identity_matrix, space16):
    for rep in identity_matrix["norm_bound"]:
        assert rep.lhs <= rep.rhs * (1.0 + 1e-9), rep.describe()
    # homogeneity: scaling the weights by 7 scales both sides exactly
    fam = family_preset("geometric")
    phi = derivative_functional([0.0], (1,), CONTOUR, n=64)
    seven = MeasureFunctional(nodes=phi.nodes, weights=7.0 * phi.weights, label="7 phi")
    base, scaled = theorems.norm_bound_check([phi, seven], ContourSample(fam, space16, 64), [2])
    assert scaled.lhs == pytest.approx(7.0 * base.lhs, rel=1e-13)
    assert scaled.rhs == pytest.approx(7.0 * base.rhs, rel=1e-13)
    announce(5, "norm bounds")


def test_criterion_06_span_membership(space16):
    # span reads the first span_dim points of the interior sequence, drawn at seed 6;
    # on 3 atoms the geometric family's span is all of C^3
    cases = [
        (family_preset("constant"), space16),
        (family_preset("affine"), space16),
        (GeometricFamily([0.5], unit_polydisc(), span_dim=3),
         FiniteMeasureSpace([-0.8, 0.1, 0.7], [1 / 3] * 3)),
    ]
    for fam, space in cases:
        for phi in (dirac([0.3]), random_measure(fam.domain, k=5, shrink=0.5, seed=2)):
            rep = theorems.span_residual(phi, ContourSample(fam, space, 64, seed=6))
            assert rep.passed, rep.describe()
    announce(6, "span membership")


def test_criterion_07_schwarz_and_telescoping(space16):
    # ten registered univariate slices, five kinds on two atoms: 1000 seeded samples each
    # over the whole 0.95 contour disc, and the 200 seeded points of the interior
    # sequence that schwarz reads
    two_atoms = FiniteMeasureSpace([1.0, -0.7], [0.5, 0.5])
    for kind in ("constant", "polynomial", "geometric", "exponential", "separable"):
        fam = family_preset(kind)
        for t in two_atoms.params:
            v = schwarz_violation(*schwarz_values(lambda z: fam.eval(z, t), 0.0, 0.95, seed=7))
            assert v <= 1e-12, (kind, t, v)
        rep = theorems.schwarz_check(ContourSample(fam, two_atoms, 64, seed=7))
        assert rep.passed and rep.params["slices"] == 2, (kind, rep.lhs)
    # multivariate telescoping bound at 200 sampled points in d = 2, from the center
    fam2 = GeometricFamily([0.5, 0.3], unit_polydisc(2), label="geometric2")
    rep = theorems.telescoping_residual(ContourSample(fam2, space16, 64, seed=0))
    assert rep.passed, rep.describe()
    announce(7, "Schwarz and telescoping bounds")


def test_criterion_08_order_bound(space16):
    for kind in KINDS:
        fam = family_preset(kind)
        # 82 contour nodes per variable give degree 40
        rep = theorems.order_bound_check(ContourSample(fam, space16, 82, shrink=0.5, seed=8))
        assert rep.passed and rep.params["degree"] == 40, rep.describe()
    announce(8, "order bound domination")


def test_criterion_09_derivative_profiles(space16):
    ones = np.ones(space16.natoms)
    for kind in KINDS:
        fam = family_preset(kind)
        reports = theorems.derivative_profile(ContourSample(fam, space16, 64))
        assert len(reports) == 5
        assert all(rep.passed for rep in reports), [rep.describe() for rep in reports]
        for order in range(5):
            [rep] = theorems.diff_under_integral(ContourSample(fam, space16, 64), ones,
                                                 [(order,)])
            assert rep.passed and rep.residual <= 1e-10, rep.describe()
    announce(9, "derivative profiles and C3")


def test_criterion_10_convergence_law(space16):
    fam = family_preset("geometric")
    duals = random_duals(space16, 10, seed=10)
    worst = {}
    for n in (16, 32):
        phi = derivative_functional([0.0], (1,), CONTOUR, n=n)
        sample = ContourSample(fam, space16, n)
        worst[n] = max(theorems.fubini_residual(phi, sample, h, 1).residual
                       for h in duals)
    assert worst[16] >= 100.0 * worst[32], worst
    announce(10, "convergence law")

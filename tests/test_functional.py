import json
import math

import numpy as np
import pytest

from holofubini import (FiniteMeasureSpace, cauchy_derivative, derivative_functional, dirac,
                        family_preset, functional_from_json, random_measure, space_preset,
                        unit_polydisc)
from holofubini.family import ContourSample
from holofubini.functional import MeasureFunctional


def apply(phi, g):
    """phi(g) = sum_k w_k g(z_k) for a batched callable g."""
    return phi.weights @ g(phi.nodes)


def one_sample(fam, *params):
    """The contour sample of ``fam`` on a space with one atom per parameter."""
    return ContourSample(fam, FiniteMeasureSpace(params, np.ones(len(params))), 64)


class TestDirac:
    def test_constant(self):
        phi = dirac([0.3])
        assert apply(phi, lambda z: np.full(z.shape[:-1], 4 - 1j)) == 4 - 1j

    def test_point_evaluation(self):
        phi = dirac([0.5])
        assert apply(phi, lambda z: z[..., 0] ** 2) == pytest.approx(0.25)

    def test_total_variation(self):
        assert dirac([0.5]).total_variation == 1.0


class TestDerivativeFunctional:
    def test_functionals_on_one_contour_share_one_read_only_grid(self):
        # the grid of a contour is one array while a functional holds it, and a
        # read-only node array is held without a copy; a writable one is copied
        first = derivative_functional([0.0, 0.0], (1, 0), [0.95, 0.95], n=8)
        second = derivative_functional([0.0, 0.0], (2, 0), [0.95, 0.95], n=8)
        assert second.nodes is first.nodes and not first.nodes.flags.writeable
        assert MeasureFunctional(first.nodes, first.weights, "copy").nodes is first.nodes
        nodes = np.array(first.nodes)
        phi = MeasureFunctional(nodes, first.weights, "own")
        assert phi.nodes is not nodes and not phi.nodes.flags.writeable

    def test_order_zero_on_constant(self):
        phi = derivative_functional([0.0], (0,), [0.9], n=16)
        assert apply(phi, lambda z: np.full(z.shape[:-1], 2.5)) == pytest.approx(2.5, abs=1e-13)

    def test_monomial_gives_factorial(self):
        k = 4
        phi = derivative_functional([0.0], (k,), [1.0], n=32)
        assert apply(phi, lambda z: z[..., 0] ** k) == pytest.approx(math.factorial(k), abs=1e-11)

    def test_mixed_bivariate(self):
        phi = derivative_functional([0.0, 0.0], (1, 1), [1.0, 1.0], n=16)
        assert apply(phi, lambda z: z[..., 0] * z[..., 1]) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_low_node_count(self):
        with pytest.raises(ValueError):
            derivative_functional([0.0], (3,), [1.0], n=8)

    def test_matches_cauchy_derivative_exactly(self):
        # same quadrature rule on both paths, equal up to summation order
        fam = family_preset("geometric")
        phi = derivative_functional([0.0], (2,), [0.95], n=64)
        for t, a in zip((1.0, -0.4), phi.apply_slices(one_sample(fam, 1.0, -0.4))):
            b = cauchy_derivative(lambda z: fam.eval(z, t), [0.0], (2,), [0.95], n=64)
            assert a == pytest.approx(b, abs=1e-15)

    def test_total_variation_dominates_witness(self):
        # phi(z -> z) = 1 while the witness has sup norm 1 on the unit disc
        phi = derivative_functional([0.0], (1,), [1.0], n=64)
        assert phi.total_variation >= 1.0 - 1e-12


class TestApplySlice:
    def test_dirac_slice(self):
        fam = family_preset("geometric")
        phi = dirac([0.3])
        for t, value in zip((0.8, -0.5j), phi.apply_slices(one_sample(fam, 0.8, -0.5j))):
            assert value == pytest.approx(complex(fam.eval([0.3], t)))

    def test_polynomial_third_derivative(self):
        # f(z, t) = t z^3: D^3 at 0 is 6t
        from holofubini.family import PolynomialFamily

        coeffs = np.zeros((4, 2))
        coeffs[3, 1] = 1.0
        fam = PolynomialFamily(coeffs, unit_polydisc())
        phi = derivative_functional([0.0], (3,), [0.95], n=32)
        np.testing.assert_allclose(phi.apply_slices(one_sample(fam, 1.0, -2.0)), [6.0, -12.0],
                                   rtol=0, atol=1e-11)

    def test_mean_value_property(self):
        # uniform weights on a circle reproduce the center value
        n = 64
        nodes = 0.5 * np.exp(2j * np.pi * np.arange(n) / n)[:, None]
        phi = MeasureFunctional(nodes=nodes, weights=np.full(n, 1.0 / n), label="mean")
        fam = family_preset("exponential")
        [value] = phi.apply_slices(one_sample(fam, 0.7))
        assert value == pytest.approx(complex(fam.eval([0.0], 0.7)), abs=1e-12)

    def test_node_outside_domain_rejected(self):
        fam = family_preset("geometric")
        with pytest.raises(ValueError):
            dirac([1.5]).apply_slices(one_sample(fam, 0.5))


class TestApplyDual:
    def test_dirac_reduces_to_pairing(self, space16):
        fam = family_preset("geometric")
        phi = dirac([0.25])
        h = np.linspace(-1, 1, 16) + 0.5j
        expected = space16.pairing(fam.vector([0.25], space16), h)
        assert phi.apply_dual(ContourSample(fam, space16, 64), h) == pytest.approx(expected,
                                                                                  abs=1e-15)

    def test_zero_dual(self, space16):
        fam = family_preset("constant")
        phi = derivative_functional([0.0], (1,), [0.95], n=16)
        assert phi.apply_dual(ContourSample(fam, space16, 16), np.zeros(16)) == 0.0

    def test_separable_factorization(self, space16):
        # phi(z -> <F(z), h>) = phi(g) <m, h> for f = g(z) m(t)
        fam = family_preset("separable")
        phi = derivative_functional([0.0], (1,), [0.95], n=64)
        rng = np.random.default_rng(11)
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        phi_g = apply(phi, fam.z_factor)
        oracle = phi_g * space16.pairing(fam.t_factor(space16.params), h)
        assert phi.apply_dual(ContourSample(fam, space16, 64), h) == pytest.approx(oracle,
                                                                                  rel=1e-12)


class TestInvariants:
    def test_linearity(self, space16):
        fam1 = family_preset("geometric")
        phi = random_measure(fam1.domain, k=6, seed=4)
        g1 = lambda z: z[..., 0] ** 2
        g2 = lambda z: 1.0 / (2.0 - z[..., 0])
        lam = 0.7 - 0.2j
        combined = apply(phi, lambda z: g1(z) + lam * g2(z))
        assert combined == pytest.approx(apply(phi, g1) + lam * apply(phi, g2), abs=1e-13)

    def test_norm_bound_over_nodes_and_grid(self):
        phi = derivative_functional([0.0], (1,), [0.9], n=32)
        fam = family_preset("geometric")
        g = lambda z: fam.eval(z, 1.0)
        applied = abs(apply(phi, g))
        node_sup = float(np.max(np.abs(g(phi.nodes))))
        assert applied <= phi.total_variation * node_sup + 1e-13
        grid_sup = fam.slice_supnorm(1.0, 128, shrink=0.95)
        assert applied <= phi.total_variation * grid_sup + 1e-13

    def test_bounded_pointwise_continuity_at_finite_scale(self):
        # g_m(z) = z^m tends to 0 pointwise with unit sup norms; applications vanish
        phi = derivative_functional([0.0], (1,), [0.9], n=32)
        values = [abs(apply(phi, lambda z, m=m: z[..., 0] ** m)) for m in (5, 20, 80)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-3

    def test_weights_total_variation(self):
        phi = MeasureFunctional(nodes=np.array([[0.1], [0.2]]),
                                weights=np.array([1.0, -1.0]), label="pm")
        assert phi.total_variation == pytest.approx(2.0)

    def test_scaled(self):
        phi = dirac([0.2])
        scaled = MeasureFunctional(nodes=phi.nodes, weights=7 * phi.weights, label="7 dirac")
        assert scaled.total_variation == pytest.approx(7.0)


class TestRandomMeasure:
    def test_deterministic_given_seed(self):
        a = random_measure(unit_polydisc(), k=8, seed=3)
        b = random_measure(unit_polydisc(), k=8, seed=3)
        np.testing.assert_array_equal(a.nodes, b.nodes)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_nodes_inside_shrunken_disc(self):
        phi = random_measure(unit_polydisc(2), k=16, shrink=0.5, seed=1)
        assert np.all(np.abs(phi.nodes) <= 0.5)


class TestJson:
    def test_measure_round_trip(self):
        doc = {"label": "nu", "nodes": [[[0.1, 0.2]], [[0.0, -0.3]]],
               "weights": [[1.0, 0.0], [2.0, -1.0]]}
        clone = functional_from_json(json.dumps(doc))
        np.testing.assert_allclose(clone.nodes, [[0.1 + 0.2j], [-0.3j]])
        np.testing.assert_allclose(clone.weights, [1.0, 2.0 - 1.0j])
        assert clone.label == "nu"

    def test_named_constructors(self):
        d = functional_from_json({"dirac": {"z0": [0.5, 0.0]}})
        assert d.meaning == "dirac"
        dv = functional_from_json({
            "derivative": {"center": [0.0, 0.0], "alpha": [1], "radii": [0.9], "n": 16}
        })
        assert dv.meaning == "derivative" and dv.alpha == (1,)

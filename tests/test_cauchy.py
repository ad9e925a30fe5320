import math
import tracemalloc

import numpy as np
import pytest

from holofubini import (FiniteMeasureSpace, Polydisc, TailEstimateError, cauchy_derivative,
                        cauchy_eval, family_from_json, family_preset, order_bound,
                        order_bound_check, preset_names, schwarz_violation, space_preset,
                        taylor_coefficients, unit_polydisc)
from holofubini.cauchy import MIN_ORDER_BOUND_DEGREE, contour_derivatives, derivative_rule
from holofubini.family import PolynomialFamily, TabulatedTaylorFamily

from conftest import fd_derivative


class TestCauchyEval:
    def test_constant(self):
        val = cauchy_eval(lambda w: np.full(w.shape[:-1], 3.5 - 2j), unit_polydisc(), [0.2], n=32)
        assert val == pytest.approx(3.5 - 2j, abs=1e-13)

    def test_bivariate_monomial(self):
        # z1^2 z2 at (0.3, 0.5i): 0.09 * 0.5i = 0.045i by direct evaluation;
        # the eval rule aliases at (|z_2|/r)^n ~ 0.5^32
        val = cauchy_eval(lambda w: w[..., 0] ** 2 * w[..., 1], unit_polydisc(2),
                          [0.3, 0.5j], n=32)
        assert val == pytest.approx(0.045j, abs=5e-11)
        val64 = cauchy_eval(lambda w: w[..., 0] ** 2 * w[..., 1], unit_polydisc(2),
                            [0.3, 0.5j], n=64)
        assert val64 == pytest.approx(0.045j, abs=1e-13)

    def test_geometric_closed_form(self):
        val = cauchy_eval(lambda w: 1.0 / (2.0 - w[..., 0]), unit_polydisc(), [0.5], n=64)
        assert val == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_rejects_boundary_point(self):
        with pytest.raises(ValueError):
            cauchy_eval(lambda w: w[..., 0], unit_polydisc(), [1.0], n=16)

    def test_geometric_convergence_rate(self):
        # halving-radius evaluation error drops by >= 100x from n=16 to n=32
        disc = unit_polydisc()
        f = lambda w: 1.0 / (1.0 - 0.5 * w[..., 0])
        z = [0.5]
        exact = 1.0 / (1.0 - 0.25)
        errs = [abs(cauchy_eval(f, disc, z, n=n) - exact) for n in (16, 32)]
        assert errs[0] >= 100.0 * errs[1]


class TestCauchyDerivative:
    def test_cubic(self):
        val = cauchy_derivative(lambda w: w[..., 0] ** 3, [0.0], (3,), [1.0], n=16)
        assert val == pytest.approx(6.0, abs=1e-12)

    def test_mixed_bivariate(self):
        # D^{(1,2)} z1 z2^2 = 1! * 2! = 2
        val = cauchy_derivative(lambda w: w[..., 0] * w[..., 1] ** 2,
                                [0.0, 0.0], (1, 2), [1.0, 1.0], n=16)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_exponential_order_five(self):
        val = cauchy_derivative(lambda w: np.exp(w[..., 0]), [0.0], (5,), [1.0], n=32)
        assert val == pytest.approx(1.0, rel=1e-11)
        fd = fd_derivative(lambda w: np.exp(w[..., 0]), [0.0], (2,))
        quad = cauchy_derivative(lambda w: np.exp(w[..., 0]), [0.0], (2,), [1.0], n=32)
        assert quad == pytest.approx(fd, rel=1e-5)

    def test_rejects_low_node_count(self):
        with pytest.raises(ValueError):
            cauchy_derivative(lambda w: w[..., 0], [0.0], (5,), [1.0], n=6)

    def test_unequal_radii(self):
        # per-coordinate radii: D^{(2,3)} z1^2 z2^3 = 2! * 3! = 12
        val = cauchy_derivative(lambda w: w[..., 0] ** 2 * w[..., 1] ** 3,
                                [0.0, 0.0], (2, 3), [0.7, 1.3], n=16)
        assert val == pytest.approx(12.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [(1,), (2,)])
    def test_finite_difference_agreement(self, alpha):
        fam = family_preset("geometric")
        slice_ = fam.slice(1.0)
        quad = cauchy_derivative(slice_, [0.0], alpha, [0.9], n=64)
        fd = fd_derivative(slice_, [0.0], alpha)
        assert quad == pytest.approx(fd, rel=1e-5)

    def test_mixed_finite_difference_agreement(self):
        f = lambda w: np.exp(0.7 * (w[..., 0] + w[..., 1])) * w[..., 0]
        quad = cauchy_derivative(f, [0.1, -0.1], (1, 1), [0.8, 0.8], n=32)
        fd = fd_derivative(f, [0.1, -0.1], (1, 1))
        assert quad == pytest.approx(fd, rel=1e-5)


class TestDerivativeRuleStack:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_weights_match_the_power_formula(self, d):
        # alpha! / n^d * prod_j (w_j - a_j)^(-alpha_j), evaluated node by node
        center, radii = [0.1 - 0.2j] * d, [0.5 + 0.1 * j for j in range(d)]
        for alpha in (a for a in np.ndindex(*(3,) * d) if sum(a) <= 2):
            pts, weights = derivative_rule(center, alpha, radii, 8)
            oracle = [math.prod(math.factorial(k) * complex(w - c) ** -k
                                for w, c, k in zip(point, center, alpha)) / 8 ** d
                      for point in pts]
            np.testing.assert_allclose(weights, oracle, rtol=1e-14, atol=0)

    def test_peak_memory_stays_near_the_returned_arrays(self):
        # the weights are built from each variable's n powers, with no (n^d, d)
        # array of them: d = 3 and n = 64 return 10 MB of points and weights
        tracemalloc.start()
        try:
            pts, weights = derivative_rule([0.0] * 3, (1, 1, 0), [0.95] * 3, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (pts.nbytes + weights.nbytes)


class TestContourDerivatives:
    @staticmethod
    def alphas(d, max_total):
        return [a for a in np.ndindex(*(max_total + 1,) * d) if sum(a) <= max_total]

    @pytest.mark.parametrize("d, max_total", [(1, 4), (2, 2), (3, 2)])
    def test_matches_the_weight_contraction(self, d, max_total):
        # alpha! c_alpha from one FFT equals the trapezoid sum derivative_rule's
        # weights take, for a batch of values on the shared contour grid
        center, radii = [0.1 - 0.2j] * d, [0.5 + 0.1 * j for j in range(d)]
        alphas = self.alphas(d, max_total)
        pts, _ = derivative_rule(center, alphas[0], radii, 8)
        # exp(s . z) for three s of modulus 2 per variable: D^alpha = s^alpha exp(s . a)
        # stays far above the roundoff of alpha! / r^alpha * sup |f|
        rates = 2.0 * np.exp(2j * np.pi * np.random.default_rng(d).random((3, d)))
        values = np.exp(pts @ rates.T)
        got = contour_derivatives(values, alphas, radii, 8)
        assert got.shape == (len(alphas), 3)
        for alpha, row in zip(alphas, got):
            weights = derivative_rule(center, alpha, radii, 8)[1]
            np.testing.assert_allclose(row, weights @ values, rtol=1e-13, atol=0)

    def test_order_guard_uses_largest_order(self):
        values = np.ones(4, dtype=complex)
        contour_derivatives(values, [(0,), (2,)], [0.5], 4)
        with pytest.raises(ValueError, match="node count 4 is too small for derivative order 3"):
            contour_derivatives(values, [(0,), (3,), (1,)], [0.5], 4)


class TestTaylorCoefficients:
    def test_exponential_series(self):
        table = taylor_coefficients(lambda w: np.exp(w[..., 0]), [0.0], [1.0], 6)
        expected = [1.0 / math.factorial(k) for k in range(7)]
        np.testing.assert_allclose(table, expected, atol=1e-12)

    def test_geometric_series(self):
        table = taylor_coefficients(lambda w: 1.0 / (1.0 - 0.5 * w[..., 0]),
                                    [0.0], [1.0], 10, n=64)
        np.testing.assert_allclose(table, 0.5 ** np.arange(11), atol=1e-12)

    def test_polynomial_reproduction(self):
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        f = lambda w: sum(
            coeffs[i, j] * w[..., 0] ** i * w[..., 1] ** j
            for i in range(4) for j in range(3)
        )
        table = taylor_coefficients(f, [0.0, 0.0], [1.0, 1.0], 3, n=16)
        np.testing.assert_allclose(table[:4, :3], coeffs, atol=1e-12)

    def test_tabulated_round_trip(self):
        fam = family_preset("tabulated")
        t = 0.8
        table = taylor_coefficients(fam.slice(t), fam.domain.center,
                                    fam.domain.radius * 0.95, 2, n=16)
        np.testing.assert_allclose(table, fam.table_for(t), atol=1e-12)

    def test_rejects_aliasing_node_count(self):
        with pytest.raises(ValueError):
            taylor_coefficients(lambda w: w[..., 0], [0.0], [1.0], 8, n=16)

    def test_rejects_degree_above_limit(self):
        with pytest.raises(ValueError):
            taylor_coefficients(lambda w: w[..., 0], [0.0], [1.0], 129)

    def test_eval_consistency_with_c0(self):
        # cauchy_eval at the center equals the zeroth coefficient
        fam = family_preset("geometric")
        slice_ = fam.slice(0.9)
        disc = Polydisc([0.0], [0.95])
        c0 = taylor_coefficients(slice_, [0.0], [0.95], 4, n=32)[0]
        assert cauchy_eval(slice_, disc, [0.0], n=32) == pytest.approx(c0, abs=1e-12)

    @pytest.mark.parametrize("name", ["constant", "polynomial", "geometric",
                                      "exponential", "separable", "tabulated"])
    def test_derivative_coefficient_link(self, name):
        # D^alpha f(a) = alpha! c_alpha for |alpha| <= 4
        fam = family_preset(name)
        slice_ = fam.slice(0.7)
        table = taylor_coefficients(slice_, [0.0], [0.9], 4, n=32)
        for k in range(5):
            deriv = cauchy_derivative(slice_, [0.0], (k,), [0.9], n=32)
            assert deriv == pytest.approx(
                math.factorial(k) * table[k], abs=1e-10, rel=1e-10
            )


class TestSchwarz:
    def test_identity_slice(self):
        v = schwarz_violation(lambda w: w[..., 0], 0.0, 1.0, samples=1000, seed=0)
        assert v <= 0.0

    def test_constant_slice(self):
        v = schwarz_violation(lambda w: np.full(w.shape[:-1], 2.5), 0.0, 1.0)
        assert v <= 0.0

    def test_square_slice(self):
        v = schwarz_violation(lambda w: w[..., 0] ** 2, 0.0, 1.0, samples=1000, seed=1)
        assert v <= 0.0

    def test_off_center_ball(self):
        v = schwarz_violation(lambda w: np.exp(w[..., 0]), 0.5 + 0.5j, 0.75, seed=2)
        assert v <= 1e-12

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            schwarz_violation(lambda w: w[..., 0], 0.0, -1.0)


class TestOrderBound:
    def test_affine_family_exact(self):
        # F(z) = v0 + v1 z with contour radius 1 and shrink 1: u = |v0| + |v1|
        coeffs = np.zeros((2, 2), dtype=complex)
        coeffs[0, 0] = 1.5 - 0.5j   # v0 independent of t
        coeffs[1, 1] = -2.0j        # v1 = -2i t
        fam = PolynomialFamily(coeffs, Polydisc([0.0], [2.0]))
        space = FiniteMeasureSpace([1.0, -0.5], [0.5, 0.5])
        ob = order_bound(fam, space, center=[0.0], radii=[1.0], degree=8, shrink=1.0)
        expected = [abs(1.5 - 0.5j) + 2.0, abs(1.5 - 0.5j) + 1.0]
        np.testing.assert_allclose(ob.u, expected, atol=1e-12)
        assert ob.tail == 0.0

    def test_constant_family(self, space16):
        fam = family_preset("constant")
        ob = order_bound(fam, space16, degree=10, shrink=0.5)
        np.testing.assert_allclose(ob.u, abs(2 + 1j), atol=1e-12)
        assert ob.tail == 0.0

    def test_geometric_dominates_samples(self, space16):
        fam = family_preset("geometric")
        ob = order_bound(fam, space16, degree=40, shrink=0.5)
        rng = np.random.default_rng(0)
        radius = 0.95 * 0.5
        z = radius * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
        values = np.abs(fam.eval(z[:, None, None], space16.params))
        assert np.all(values <= ob.u[None, :] + ob.tail + 1e-12)

    def test_tail_positive_for_geometric(self, space16):
        ob = order_bound(family_preset("geometric"), space16, degree=40, shrink=0.5)
        assert 0.0 < ob.tail < 1e-10
        assert 0.0 < ob.fit_rate < 1.0
        assert ob.tail_method == "geometric-fit"

    def test_divergent_coefficients_reported(self):
        # stored coefficients grow like 2^k: no geometric decay inside the table
        coeffs = (2.0 ** np.arange(13))[:, None].astype(complex)
        fam = TabulatedTaylorFamily(coeffs, Polydisc([0.0], [1.0]))
        space = FiniteMeasureSpace([1.0], [1.0])
        with pytest.raises(TailEstimateError):
            order_bound(fam, space, degree=12, shrink=0.5)

    def test_fast_decay_is_not_a_violation(self):
        # small |t| leaves one shell of the fit window above the floor; the rate
        # must still be fitted and the domination check must pass
        fam = family_preset("geometric")
        for k in range(1, 301):
            rep = order_bound_check(fam, space_preset(f"uniform-{k}"))
            assert rep.passed and math.isfinite(rep.residual), k

    @pytest.mark.parametrize("space", ["uniform-16", "uniform-20", "geometric-64", "uniform-256"])
    @pytest.mark.parametrize("name", preset_names())
    def test_every_preset_passes(self, name, space):
        rep = order_bound_check(family_preset(name), space_preset(space))
        assert rep.passed, rep.params

    @pytest.mark.parametrize("name", preset_names())
    def test_every_preset_passes_at_few_nodes(self, name, space16):
        # below 16 nodes the default degree n // 2 - 1 is raised to
        # MIN_ORDER_BOUND_DEGREE; at degree <= 4 these cases give false violations
        for n in range(4, 17):
            for shrink in (0.1, 0.5, 0.9):
                rep = order_bound_check(family_preset(name), space16, shrink=shrink, n=n)
                assert rep.passed, (n, shrink, rep.params)
                assert rep.params["degree"] == max(n // 2 - 1, MIN_ORDER_BOUND_DEGREE)

    def test_bivariate_geometric_on_many_atoms(self):
        fam = family_from_json({"kind": "geometric", "params": {"rates": [[0.5, 0], [0.4, 0]]},
                                "domain": {"center": [[0, 0], [0, 0]], "radius": [1, 1]}})
        ob = order_bound(fam, space_preset("uniform-256"), degree=40, shrink=0.5)
        assert 0.0 < ob.fit_rate < 1.0 and math.isfinite(ob.tail)

    def test_exponential_noise_floor_handled(self, space16):
        # far tail of e^{tz} sits below quadrature noise: fit must not see it
        ob = order_bound(family_preset("exponential"), space16, degree=40, shrink=0.5)
        assert ob.tail < 1e-12
        rng = np.random.default_rng(3)
        radius = 0.95 * 0.5
        z = radius * np.sqrt(rng.random(100)) * np.exp(2j * np.pi * rng.random(100))
        values = np.abs(family_preset("exponential").eval(z[:, None, None], space16.params))
        assert np.all(values <= ob.u[None, :] + ob.tail + 1e-12)

import math

import numpy as np
import pytest

from holofubini import (FiniteMeasureSpace, Polydisc, cauchy_derivative,
                        derivative_functional, dirac, family_preset, preset_names,
                        random_measure, space_preset, unit_polydisc)
from holofubini import theorems
from holofubini.cauchy import derivative_rule
from holofubini.family import (BoundarySample, ExponentialFamily, GeometricFamily,
                               PolynomialFamily)

from conftest import random_duals

INF = math.inf
CONTOUR = [0.95]


@pytest.fixture
def geometric():
    return family_preset("geometric")


class TestLinearize:
    def test_dirac_is_family_vector(self, geometric, space16):
        z0 = [0.3 - 0.2j]
        vec = dirac(z0).apply_slices(geometric, space16)
        np.testing.assert_array_equal(vec, geometric.vector(z0, space16))

    def test_linear_combination_of_diracs(self, geometric, space16):
        from holofubini.functional import MeasureFunctional

        nodes = np.array([[0.2], [0.4j]])
        weights = np.array([2.0, -1.5j])
        phi = MeasureFunctional(nodes=nodes, weights=weights, label="combo")
        vec = phi.apply_slices(geometric, space16)
        oracle = (2.0 * geometric.vector([0.2], space16)
                  - 1.5j * geometric.vector([0.4j], space16))
        np.testing.assert_allclose(vec, oracle, atol=1e-15)

    def test_derivative_functional_matches_per_atom_quadrature(self, geometric, space16):
        phi = derivative_functional([0.0], (1,), CONTOUR, n=32)
        vec = phi.apply_slices(geometric, space16)
        oracle = np.array([
            cauchy_derivative(geometric.slice(t), [0.0], (1,), CONTOUR, n=32)
            for t in space16.params
        ])
        np.testing.assert_allclose(vec, oracle, atol=1e-15)


class TestLinearizationResidual:
    def test_dirac_reassociation_only(self, geometric, space16):
        duals = random_duals(space16, 10, seed=0)
        rep = theorems.linearization_residual(dirac([0.25]), geometric, space16, duals)
        assert rep.residual <= 1e-14 and rep.passed

    def test_generator_duals_counted(self, geometric, space16):
        duals = (h for h in random_duals(space16, 10, seed=0))
        rep = theorems.linearization_residual(dirac([0.25]), geometric, space16, duals)
        assert rep.params["duals"] == 10 and rep.residual > 0.0

    def test_separable(self, space16):
        duals = random_duals(space16, 10, seed=1)
        rep = theorems.linearization_residual(
            derivative_functional([0.0], (1,), CONTOUR, n=64),
            family_preset("separable"), space16, duals,
        )
        assert rep.residual <= 1e-12

    def test_geometric_derivative_ten_duals(self, geometric, space16):
        duals = random_duals(space16, 10, seed=2)
        rep = theorems.linearization_residual(
            derivative_functional([0.0], (2,), CONTOUR, n=64), geometric, space16, duals,
            tol=1e-10,
        )
        assert rep.residual <= 1e-10 and rep.passed


class TestFubiniResidual:
    def test_dirac_exact(self, geometric, space16):
        for h in random_duals(space16, 10, seed=3):
            for p in (1, 2, INF):
                rep = theorems.fubini_residual(dirac([0.25]), geometric, h, space16, p)
                assert rep.residual <= 1e-13

    def test_separable_factorization_oracle(self, space16):
        # both sides must equal phi(g) <m, h> computed through the factorization
        fam = family_preset("separable")
        phi = derivative_functional([0.0], (1,), CONTOUR, n=64)
        h = random_duals(space16, 1, seed=4)[0]
        exact_phi_g = complex(fam.deriv([0.0], 0.0, (1,)) / fam.t_factor(0.0))
        oracle = exact_phi_g * space16.pairing(fam.t_factor(space16.params), h)
        rep = theorems.fubini_residual(phi, fam, h, space16, 2)
        assert rep.lhs == pytest.approx(oracle, rel=1e-11)
        assert rep.rhs == pytest.approx(oracle, rel=1e-9)
        assert rep.residual <= 1e-9

    def test_geometric_derivative_p2(self, geometric, space16):
        phi = derivative_functional([0.0], (2,), CONTOUR, n=64)
        h = random_duals(space16, 1, seed=5)[0]
        rep = theorems.fubini_residual(phi, geometric, h, space16, 2)
        assert rep.residual <= 1e-9 and rep.passed

    def test_residual_decays_geometrically(self, geometric, space16):
        h = random_duals(space16, 1, seed=6)[0]
        residuals = {}
        for n in (16, 64):
            phi = derivative_functional([0.0], (1,), CONTOUR, n=n)
            residuals[n] = theorems.fubini_residual(phi, geometric, h, space16, 1,
                                                    tol=INF).residual
        assert residuals[64] <= 1e-2 * residuals[16]

    def test_random_measure_exact(self, geometric, space16):
        phi = random_measure(geometric.domain, k=8, seed=7)
        h = random_duals(space16, 1, seed=8)[0]
        rep = theorems.fubini_residual(phi, geometric, h, space16, 1)
        assert rep.residual <= 1e-13

    @pytest.mark.parametrize("name", ["constant", "polynomial", "geometric",
                                      "exponential", "separable", "tabulated"])
    def test_dirac_exact_everywhere(self, name, space16):
        # point evaluations are exact for every family, sample point, and p
        fam = family_preset(name)
        rng = np.random.default_rng(20)
        duals = random_duals(space16, 5, seed=21)
        for _ in range(3):
            z0 = 0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            phi = dirac([z0])
            for p in (1, 2, INF):
                for h in duals:
                    rep = theorems.fubini_residual(phi, fam, h, space16, p)
                    assert rep.residual <= 1e-13

    def test_linf_reduces_to_l1_of_weighted_family(self, space16):
        # pairing f = t z^2 against h_i = t_i matches the p=1 check of t^2 z^2
        fam = family_preset("polynomial")
        product_coeffs = np.zeros((3, 3))
        product_coeffs[2, 2] = 1.0
        product = PolynomialFamily(product_coeffs, unit_polydisc(), label="product")
        phi = derivative_functional([0.0], (2,), CONTOUR, n=32)
        h = np.asarray(space16.params)
        ones = np.ones(space16.natoms)
        rep_inf = theorems.fubini_residual(phi, fam, h, space16, INF, tol=INF)
        rep_one = theorems.fubini_residual(phi, product, ones, space16, 1, tol=INF)
        assert abs(rep_inf.residual - rep_one.residual) <= 1e-12
        assert rep_inf.lhs == pytest.approx(rep_one.lhs, abs=1e-13)


class TestDerivativeConsistency:
    def test_constant_family_vanishes(self, space16):
        rep = theorems.derivative_consistency(
            family_preset("constant"), space16, [0.0], (1,), CONTOUR, n=32, p=2
        )
        assert rep.lhs <= 1e-14 and rep.residual <= 1e-14

    def test_polynomial_alpha2(self, space16):
        # D^2 (t z^2) = 2t on every route
        fam = family_preset("polynomial")
        from holofubini.cauchy import derivative_rule

        pts, weights = derivative_rule([0.0], (2,), CONTOUR, n=32)
        vector_route = weights @ fam.eval(pts[:, None, :], space16.params)
        np.testing.assert_allclose(vector_route, 2.0 * space16.params, atol=1e-12)
        rep = theorems.derivative_consistency(fam, space16, [0.0], (2,), CONTOUR,
                                              n=32, p=INF)
        assert rep.residual <= 1e-10 and rep.passed

    def test_geometric_alpha1_matches_closed_form(self, geometric, space16):
        rep = theorems.derivative_consistency(geometric, space16, [0.0], (1,), CONTOUR,
                                              n=64, p=2)
        assert rep.residual <= 1e-10
        oracle = space16.lp_norm(geometric.deriv_vector([0.0], space16, (1,)), 2)
        assert rep.lhs == pytest.approx(oracle, rel=1e-10)


    @staticmethod
    def bivariate():
        return GeometricFamily([0.5, 0.4], Polydisc([0.0, 0.0], [1.0, 1.0]))

    @staticmethod
    def alphas(d):
        """Every multi-index with |alpha| <= 2, as ``verify`` checks them."""
        return [a for a in np.ndindex(*(3,) * d) if sum(a) <= 2]

    @pytest.mark.parametrize("d", [1, 2])
    def test_multi_indices_match_one_call_each(self, geometric, space16, d):
        fam = geometric if d == 1 else self.bivariate()
        contour = CONTOUR * d
        alphas = self.alphas(d)
        batched = theorems.derivative_consistency(fam, space16, [0.0] * d, alphas, contour,
                                                  n=32, p=[1, 2, INF])
        single = [rep for a in alphas
                  for rep in theorems.derivative_consistency(fam, space16, [0.0] * d, a,
                                                             contour, n=32, p=[1, 2, INF])]
        assert len(batched) == len(single) == 3 * len(alphas)
        for a, b in zip(batched, single):
            assert a.params == b.params
            assert (a.lhs, a.rhs, a.residual) == (b.lhs, b.rhs, b.residual)

    @pytest.mark.parametrize("d", [1, 2])
    def test_perturbed_sample_fails_every_alpha(self, geometric, space16, d):
        # the per-slice route must not read the sample it is checked against
        fam = geometric if d == 1 else self.bivariate()
        alphas = self.alphas(d)
        exact = fam.sampler(space16)
        rng = np.random.default_rng(5)

        def perturbed(points):
            sample = exact(points)
            noise = 1e-6 * np.exp(2j * np.pi * rng.random(sample.values.shape))
            return BoundarySample(sample.points, sample.values + noise)

        args = (fam, space16, [0.0] * d, alphas, CONTOUR * d)
        clean = theorems.derivative_consistency(*args, n=32, p=[1, 2, INF])
        dirty = theorems.derivative_consistency(*args, n=32, p=[1, 2, INF],
                                                sampler=perturbed)
        assert all(rep.passed for rep in clean)
        assert not any(rep.passed for rep in dirty)
        assert [rep.rhs for rep in dirty] == [rep.rhs for rep in clean]

    @pytest.mark.parametrize("d, count", [(1, 1), (1, 3), (2, 1), (2, 6)])
    def test_slices_evaluated_once_for_all_alphas(self, geometric, space16, monkeypatch,
                                                  d, count):
        fam = geometric if d == 1 else self.bivariate()
        alphas = self.alphas(d)[:count]
        sampler = fam.sampler(space16)
        pts, _ = derivative_rule([0.0] * d, alphas[0], CONTOUR * d, 32)
        sampler(pts)  # the vector route then reads a finished sample
        counted = []
        evaluate = GeometricFamily._evaluate

        def counting(self, z, t):
            out = evaluate(self, z, t)
            counted.append(np.size(out))
            return out

        monkeypatch.setattr(GeometricFamily, "_evaluate", counting)
        theorems.derivative_consistency(fam, space16, [0.0] * d, alphas, CONTOUR * d,
                                        n=32, p=[1, 2, INF], sampler=sampler)
        assert sum(counted) == 32 ** d * space16.natoms


class TestDiffUnderIntegral:
    def test_zero_dual(self, geometric, space16):
        rep = theorems.diff_under_integral(geometric, np.zeros(16), space16,
                                           [0.0], (1,), CONTOUR, n=32)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.residual == 0.0

    def test_polynomial_exact(self, space16):
        h = random_duals(space16, 1, seed=9)[0]
        rep = theorems.diff_under_integral(family_preset("polynomial"), h, space16,
                                           [0.0], (2,), CONTOUR, n=32)
        assert rep.residual <= 1e-12

    def test_exponential_closed_form_oracle(self, space16):
        # lhs must converge to sum_i t_i^alpha e^{a t_i} h_i mu_i
        fam = family_preset("exponential")
        h = random_duals(space16, 1, seed=10)[0]
        a = 0.2
        for alpha in (1, 2):
            oracle = complex(np.sum(
                space16.params ** alpha * np.exp(a * space16.params) * h * space16.weights
            ))
            rep = theorems.diff_under_integral(fam, h, space16, [a], (alpha,),
                                               [0.7], n=64)
            assert rep.rhs == pytest.approx(oracle, rel=1e-13)
            assert rep.lhs == pytest.approx(oracle, rel=1e-11)
            assert rep.residual <= 1e-10


class TestNormBound:
    def test_dirac_node_in_grid(self, geometric, space16):
        rep = theorems.norm_bound_check([dirac([0.9])], geometric, space16, 2)[0]
        assert rep.passed

    def test_homogeneity(self, geometric, space16):
        phi = derivative_functional([0.0], (1,), CONTOUR, n=64)
        base = theorems.norm_bound_check([phi], geometric, space16, 2)[0]
        scaled = theorems.norm_bound_check([phi.scaled(7.0)], geometric, space16, 2)[0]
        assert scaled.lhs == pytest.approx(7.0 * base.lhs, rel=1e-13)
        assert scaled.rhs == pytest.approx(7.0 * base.rhs, rel=1e-13)
        assert base.passed and scaled.passed

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_derivative_on_geometric(self, geometric, space16, p):
        phi = derivative_functional([0.0], (2,), CONTOUR, n=64)
        rep = theorems.norm_bound_check([phi], geometric, space16, p)[0]
        assert rep.passed

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_tight_polynomial_case(self, space16, p):
        # lhs touches the bound when the sup grid contains the contour nodes
        phi = derivative_functional([0.0], (2,), CONTOUR, n=64)
        rep = theorems.norm_bound_check([phi], family_preset("polynomial"), space16, p)[0]
        assert rep.passed

    def test_a_raising_functional_keeps_the_others(self, geometric, space16):
        # a node outside the unit polydisc fails the domain check of that functional only
        good = dirac([0.9])
        reports = theorems.norm_bound_check([good, dirac([1.5]), good], geometric, space16, 2)
        alone = theorems.norm_bound_check([good], geometric, space16, 2)[0]
        assert [vars(r) for r in reports[::2]] == [vars(alone)] * 2
        assert not reports[1].passed and "outside" in reports[1].params["error"]

    @pytest.mark.parametrize("p", [1, 2, 3.5, INF])
    def test_functional_list_matches_one_call_each(self, geometric, space16, monkeypatch, p):
        phis = [dirac([0.9]), derivative_functional([0.0], (1,), CONTOUR, n=64),
                random_measure(geometric.domain, k=8, shrink=0.5, seed=2)]
        # the sup grid is the n-node contour grid, n^d rows; n = 48 sets it apart
        # from the derivative functional's 64 nodes
        n = 48
        alone = [theorems.norm_bound_check([phi], geometric, space16, p, n=n)[0]
                 for phi in phis]
        grid_rows = []
        lp_norm = FiniteMeasureSpace.lp_norm

        def counting(self, v, q):
            grid_rows.append(np.shape(v)[0] == n ** geometric.d and np.ndim(v) == 2)
            return lp_norm(self, v, q)

        monkeypatch.setattr(FiniteMeasureSpace, "lp_norm", counting)
        batch = theorems.norm_bound_check(phis, geometric, space16, p, n=n)
        assert [vars(r) for r in batch] == [vars(r) for r in alone]
        assert sum(grid_rows) == 1


class TestSpan:
    def test_constant_one_sample(self, space16):
        rep = theorems.span_residual(dirac([0.3]), family_preset("constant"),
                                     space16, [[0.1]])
        assert rep.residual <= 1e-12

    def test_affine_two_samples(self, space16):
        rep = theorems.span_residual(
            random_measure(unit_polydisc(), k=5, seed=12),
            family_preset("affine"), space16, [[0.1], [-0.3 + 0.2j]],
        )
        assert rep.residual <= 1e-10

    def test_geometric_three_atoms(self, space3):
        fam = family_preset("geometric")
        rep = theorems.span_residual(
            derivative_functional([0.0], (1,), CONTOUR, n=32), fam, space3,
            [[0.1], [-0.25 + 0.1j], [0.3j]],
        )
        assert rep.residual <= 1e-8

    def test_monotone_under_nesting(self, geometric, space16):
        phi = dirac([0.2])
        rep = theorems.span_monotonicity(phi, geometric, space16,
                                         [[0.1], [0.3]], [[-0.2], [0.25j]])
        assert rep.passed

    def test_needs_a_sample(self, geometric, space16):
        with pytest.raises(ValueError):
            theorems.span_residual(dirac([0.2]), geometric, space16, [])

    def test_rank_deficiency_tolerated(self, space16):
        # duplicated samples keep the minimum-norm solution well defined
        fam = family_preset("affine")
        rep = theorems.span_residual(dirac([0.1]), fam, space16,
                                     [[0.2], [0.2], [-0.3]])
        assert rep.residual <= 1e-10


class TestDerivativeProfile:
    def test_constant_vanishing_orders(self, space16):
        grid = [np.array([0.3 * np.exp(2j * np.pi * k / 8)]) for k in range(8)]
        profs = theorems.derivative_profile(family_preset("constant"), space16, 3,
                                            grid, [0.5], n=32)
        for prof in profs[1:]:
            assert np.max(prof.profile) <= 1e-13
            assert prof.sup_integral <= 1e-13

    def test_polynomial_order_two_profile(self, space16):
        # f = t z^2: D^2 = 2t everywhere, so the profile is 2|t| and the
        # weighted integral is 2 sum |t_i| mu_i
        grid = [np.array([0.2]), np.array([0.4j])]
        profs = theorems.derivative_profile(family_preset("polynomial"), space16, 2,
                                            grid, [0.2], n=32)
        np.testing.assert_allclose(profs[2].profile, 2.0 * np.abs(space16.params),
                                   atol=1e-11)
        oracle = 2.0 * float(np.sum(np.abs(space16.params) * space16.weights))
        assert profs[2].sup_integral == pytest.approx(oracle, rel=1e-11)

    def test_geometric_profiles_finite_and_growing(self, geometric, space16):
        inner = [np.array([0.2])]
        outer = [np.array([0.7])]
        for order in range(5):
            pin = theorems.derivative_profile(geometric, space16, order, inner,
                                              [0.1], n=64)[order]
            pout = theorems.derivative_profile(geometric, space16, order, outer,
                                               [0.1], n=64)[order]
            assert pin.finite and pout.finite
            if order >= 1:
                assert pout.sup_integral > pin.sup_integral

    def test_rejects_multivariate(self, space16):
        fam = GeometricFamily([0.5, 0.3], unit_polydisc(2))
        with pytest.raises(ValueError):
            theorems.derivative_profile(fam, space16, 1, [np.zeros(2)], [0.1, 0.1])

    def test_one_rule_per_contour(self, geometric, space16, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return derivative_rule(*args, **kwargs)

        monkeypatch.setattr(theorems, "derivative_rule", counting)
        grid = [np.array([0.3 * np.exp(2j * np.pi * k / 6)]) for k in range(6)]
        profs = theorems.derivative_profile(geometric, space16, 4, grid, [0.1], n=32)
        assert len(calls) == len(grid)
        # each order's profile equals the one its own single-order rule gives
        sampler = geometric.sampler(space16)
        for prof in profs:
            mags = []
            for a in grid:
                pts, weights = derivative_rule(a, (prof.order,), [0.1], 32)
                mags.append(np.abs(weights @ sampler(pts).values))
            assert prof.profile.tolist() == np.max(mags, axis=0).tolist()


class TestTelescoping:
    def test_bivariate_geometric(self, space16):
        fam = GeometricFamily([0.5, 0.3], unit_polydisc(2), label="geometric2")
        rep = theorems.telescoping_residual(fam, space16, n_pairs=200, seed=0)
        assert rep.passed and rep.residual == 0.0

    def test_bivariate_polynomial(self, space16):
        coeffs = np.zeros((2, 2, 2))
        coeffs[1, 1, 1] = 1.0  # f = t z1 z2
        fam = PolynomialFamily(coeffs, unit_polydisc(2), label="poly2")
        rep = theorems.telescoping_residual(fam, space16, n_pairs=200, seed=1)
        assert rep.passed

    @pytest.mark.parametrize("fam", [
        GeometricFamily([0.5, 0.4], unit_polydisc(2)),
        GeometricFamily([0.5j, 0.3 + 0.3j], unit_polydisc(2)),
        GeometricFamily([0.35 - 0.35j, -0.2 + 0.45j], unit_polydisc(2)),
        ExponentialFamily(1.0, unit_polydisc(2)),
        ExponentialFamily(0.7 + 0.7j, unit_polydisc(2)),
        ExponentialFamily(1.0, unit_polydisc(3)),
        ExponentialFamily(0.7 + 0.7j, unit_polydisc(3)),
    ], ids=["geo-real", "geo-imag", "geo-skew", "exp-d2", "exp-d2-rot", "exp-d3",
            "exp-d3-rot"])
    def test_passes_at_few_nodes(self, fam, space16):
        # the sup is taken on the n-node contour grid, a coarser lower estimate of
        # the sup at small n; the bound's slack still covers it, also where the
        # sup does not lie on the real axis
        for n in range(4, 17):
            for shrink in (0.1, 0.5, 0.9):
                rep = theorems.telescoping_residual(fam, space16, sample_shrink=shrink, n=n)
                assert rep.passed, (n, shrink, rep.lhs, rep.tol)


class TestSchwarzCheck:
    def test_all_presets(self, preset_family, space16):
        if preset_family.d != 1:
            pytest.skip("univariate only")
        rep = theorems.schwarz_check(preset_family, space16, samples=300, seed=0)
        assert rep.passed


@pytest.mark.parametrize("name", preset_names())
def test_contour_sups_pass_at_few_nodes(name, space16):
    # schwarz and norm_bound take their sups on the n-node contour grid, a coarser
    # lower estimate of the sup at small n, which must give no false violation
    fam = family_preset(name)
    for n in range(4, 17):
        rep = theorems.schwarz_check(fam, space16, n=n)
        assert rep.passed, (n, rep.lhs)
        for shrink in (0.1, 0.9):
            # the default battery's functionals, less derivatives of an order n
            # cannot resolve
            phis = [dirac(0.5 * shrink * fam.domain.radius),
                    random_measure(fam.domain, k=8, shrink=shrink, seed=0)]
            phis += [derivative_functional([0.0], (order,), CONTOUR, n=n)
                     for order in (1, 2) if n > 2 * order + 2]
            for p in (1, 2, INF):
                for rep in theorems.norm_bound_check(phis, fam, space16, p, n=n):
                    assert rep.passed, (n, shrink, p, rep.functional, rep.lhs, rep.rhs)


class TestZeroWeightRobustness:
    def test_residuals_stable_under_null_atom(self, geometric, space16):
        grown = FiniteMeasureSpace(
            np.concatenate([space16.params, [0.3 - 0.2j]]),
            np.concatenate([space16.weights, [0.0]]),
        )
        phi = derivative_functional([0.0], (1,), CONTOUR, n=32)
        rng = np.random.default_rng(13)
        h16 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        h17 = np.concatenate([h16, [5.0 + 5.0j]])

        fub_a = theorems.fubini_residual(phi, geometric, h16, space16, 2, tol=INF)
        fub_b = theorems.fubini_residual(phi, geometric, h17, grown, 2, tol=INF)
        assert abs(fub_a.residual - fub_b.residual) <= 1e-13

        lin_a = theorems.linearization_residual(phi, geometric, space16, [h16])
        lin_b = theorems.linearization_residual(phi, geometric, grown, [h17])
        assert abs(lin_a.residual - lin_b.residual) <= 1e-13

        nb_a = theorems.norm_bound_check([phi], geometric, space16, 2)[0]
        nb_b = theorems.norm_bound_check([phi], geometric, grown, 2)[0]
        assert abs(nb_a.residual - nb_b.residual) <= 1e-13
        assert abs(nb_a.lhs - nb_b.lhs) <= 1e-13

        dc_a = theorems.derivative_consistency(geometric, space16, [0.0], (1,),
                                               CONTOUR, n=32, p=2)
        dc_b = theorems.derivative_consistency(geometric, grown, [0.0], (1,),
                                               CONTOUR, n=32, p=2)
        assert abs(dc_a.residual - dc_b.residual) <= 1e-13


def test_check_report_describe(geometric, space16):
    rep = theorems.norm_bound_check([dirac([0.2])], geometric, space16, 1)[0]
    text = rep.describe()
    assert "norm_bound" in text and ("pass" in text or "FAIL" in text)

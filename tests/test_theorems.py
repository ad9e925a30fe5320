import math
import tracemalloc

import numpy as np
import pytest

from holofubini import (FiniteMeasureSpace, Polydisc, cauchy_derivative,
                        derivative_functional, dirac, family_preset, preset_names,
                        random_measure, space_preset, torus_nodes, unit_polydisc)
from holofubini import cauchy, cli, theorems
from holofubini.cauchy import derivative_rule
from holofubini.domain import CONTOUR_SHRINK, sample_polydisc
from holofubini.family import (ContourSample, ExponentialFamily, GeometricFamily,
                               PolynomialFamily)
from holofubini.functional import MeasureFunctional

from conftest import random_duals

INF = math.inf
CONTOUR = [0.95]


@pytest.fixture
def geometric():
    return family_preset("geometric")


@pytest.fixture
def sample64(geometric, space16):
    """The geometric family's contour sample on uniform-16 at 64 nodes."""
    return ContourSample(geometric, space16, 64)


class OffDerivativeFamily(GeometricFamily):
    """A geometric family whose closed-form derivatives are all off by ``eps``."""

    def __init__(self, rates, eps):
        super().__init__(rates, Polydisc([0.0] * len(rates), [1.0] * len(rates)))
        self.eps = eps

    def _derivative(self, z, t, alpha):
        return super()._derivative(z, t, alpha) + self.eps


class TestLinearize:
    def test_dirac_is_family_vector(self, geometric, space16):
        z0 = [0.3 - 0.2j]
        vec = dirac(z0).apply_slices(ContourSample(geometric, space16, 64))
        np.testing.assert_array_equal(vec, geometric.vector(z0, space16))

    def test_linear_combination_of_diracs(self, geometric, space16):
        nodes = np.array([[0.2], [0.4j]])
        weights = np.array([2.0, -1.5j])
        phi = MeasureFunctional(nodes=nodes, weights=weights, label="combo")
        vec = phi.apply_slices(ContourSample(geometric, space16, 64))
        oracle = (2.0 * geometric.vector([0.2], space16)
                  - 1.5j * geometric.vector([0.4j], space16))
        np.testing.assert_allclose(vec, oracle, atol=1e-15)

    def test_derivative_functional_matches_per_atom_quadrature(self, geometric, space16):
        phi = derivative_functional([0.0], (1,), CONTOUR, n=32)
        vec = phi.apply_slices(ContourSample(geometric, space16, 32))
        oracle = np.array([
            cauchy_derivative(lambda z: geometric.eval(z, t), [0.0], (1,), CONTOUR, n=32)
            for t in space16.params
        ])
        np.testing.assert_allclose(vec, oracle, atol=1e-15)


class TestLinearizationResidual:
    def test_dirac_reassociation_only(self, sample64, space16):
        duals = random_duals(space16, 10, seed=0)
        rep = theorems.linearization_residual(dirac([0.25]), sample64, duals)
        assert rep.residual <= 1e-14 and rep.passed

    def test_generator_duals_counted(self, sample64, space16):
        duals = (h for h in random_duals(space16, 10, seed=0))
        rep = theorems.linearization_residual(dirac([0.25]), sample64, duals)
        assert rep.params["duals"] == 10 and rep.residual > 0.0

    def test_separable(self, space16):
        duals = random_duals(space16, 10, seed=1)
        rep = theorems.linearization_residual(
            derivative_functional([0.0], (1,), CONTOUR, n=64),
            ContourSample(family_preset("separable"), space16, 64), duals,
        )
        assert rep.residual <= 1e-12

    def test_geometric_derivative_ten_duals(self, sample64, space16):
        duals = random_duals(space16, 10, seed=2)
        rep = theorems.linearization_residual(
            derivative_functional([0.0], (2,), CONTOUR, n=64), sample64, duals,
        )
        assert rep.residual <= 1e-10 and rep.passed


class TestFubiniResidual:
    def test_dirac_exact(self, sample64, space16):
        for h in random_duals(space16, 10, seed=3):
            for p in (1, 2, INF):
                rep = theorems.fubini_residual(dirac([0.25]), sample64, h, p)
                assert rep.residual <= 1e-13

    def test_separable_factorization_oracle(self, space16):
        # both sides must equal phi(g) <m, h> computed through the factorization
        fam = family_preset("separable")
        phi = derivative_functional([0.0], (1,), CONTOUR, n=64)
        h = random_duals(space16, 1, seed=4)[0]
        exact_phi_g = complex(fam.deriv([0.0], 0.0, (1,)) / fam.t_factor(0.0))
        oracle = exact_phi_g * space16.pairing(fam.t_factor(space16.params), h)
        rep = theorems.fubini_residual(phi, ContourSample(fam, space16, 64), h, 2)
        assert rep.lhs == pytest.approx(oracle, rel=1e-11)
        assert rep.rhs == pytest.approx(oracle, rel=1e-9)
        assert rep.residual <= 1e-9

    def test_geometric_derivative_p2(self, geometric, space16):
        phi = derivative_functional([0.0], (2,), CONTOUR, n=64)
        h = random_duals(space16, 1, seed=5)[0]
        rep = theorems.fubini_residual(phi, ContourSample(geometric, space16, 64), h, 2)
        assert rep.residual <= 1e-9 and rep.passed

    def test_residual_decays_geometrically(self, geometric, space16):
        h = random_duals(space16, 1, seed=6)[0]
        residuals = {}
        for n in (16, 64):
            phi = derivative_functional([0.0], (1,), CONTOUR, n=n)
            sample = ContourSample(geometric, space16, n)
            residuals[n] = theorems.fubini_residual(phi, sample, h, 1).residual
        assert residuals[64] <= 1e-2 * residuals[16]

    def test_random_measure_exact(self, geometric, space16):
        phi = random_measure(geometric.domain, k=8, seed=7)
        h = random_duals(space16, 1, seed=8)[0]
        rep = theorems.fubini_residual(phi, ContourSample(geometric, space16, 64), h, 1)
        assert rep.residual <= 1e-13

    @pytest.mark.parametrize("name", ["constant", "polynomial", "geometric",
                                      "exponential", "separable", "tabulated"])
    def test_dirac_exact_everywhere(self, name, space16):
        # point evaluations are exact for every family, sample point, and p
        fam = family_preset(name)
        rng = np.random.default_rng(20)
        duals = random_duals(space16, 5, seed=21)
        sample = ContourSample(fam, space16, 64)
        for _ in range(3):
            z0 = 0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            phi = dirac([z0])
            for p in (1, 2, INF):
                for h in duals:
                    rep = theorems.fubini_residual(phi, sample, h, p)
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
        rep_inf = theorems.fubini_residual(phi, ContourSample(fam, space16, 32), h, INF)
        rep_one = theorems.fubini_residual(phi, ContourSample(product, space16, 32), ones, 1)
        assert abs(rep_inf.residual - rep_one.residual) <= 1e-12
        assert rep_inf.lhs == pytest.approx(rep_one.lhs, abs=1e-13)


class TestDerivativeConsistency:
    def test_constant_family_vanishes(self, space16):
        [rep] = theorems.derivative_consistency(
            ContourSample(family_preset("constant"), space16, 32), [(1,)], p=[2]
        )
        assert rep.lhs <= 1e-14 and rep.residual <= 1e-14

    def test_polynomial_alpha2(self, space16):
        # D^2 (t z^2) = 2t on every route
        fam = family_preset("polynomial")
        pts, weights = derivative_rule([0.0], (2,), CONTOUR, n=32)
        vector_route = weights @ fam.eval(pts[:, None, :], space16.params)
        np.testing.assert_allclose(vector_route, 2.0 * space16.params, atol=1e-12)
        [rep] = theorems.derivative_consistency(ContourSample(fam, space16, 32), [(2,)],
                                                p=[INF])
        assert rep.residual <= 1e-10 and rep.passed

    def test_geometric_alpha1_matches_closed_form(self, geometric, space16):
        [rep] = theorems.derivative_consistency(ContourSample(geometric, space16, 64), [(1,)],
                                                p=[2])
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
        alphas = self.alphas(d)
        batched = theorems.derivative_consistency(ContourSample(fam, space16, 32), alphas,
                                                  p=[1, 2, INF])
        single = [rep for a in alphas
                  for rep in theorems.derivative_consistency(ContourSample(fam, space16, 32),
                                                             [a], p=[1, 2, INF])]
        assert len(batched) == len(single) == 3 * len(alphas)
        for a, b in zip(batched, single):
            assert a.params == b.params
            assert (a.lhs, a.rhs, a.residual) == (b.lhs, b.rhs, b.residual)

    @staticmethod
    def run_checks(config, sample):
        """Every report of the battery of ``config``, as run_suite builds it, on ``sample``."""
        rng = np.random.default_rng(config.seed)
        duals = {p: cli._random_duals(config.space, rng) for p in config.p_list}
        reports = []
        for name in config.checks:
            for call in cli.CHECKS[name](config, duals, rng, sample):
                try:
                    result = call()
                except (ValueError, ArithmeticError) as exc:
                    result = theorems.CheckReport.failed(name, config.family.label, exc)
                reports += result if isinstance(result, list) else [result]
        return reports

    @pytest.mark.parametrize("d", [1, 2])
    def test_perturbed_sample_fails_every_alpha(self, geometric, space16, d):
        # one perturbed contour sample reaches every reader of the contour: the
        # closed-form routes must not read it, and no check may evaluate a contour
        # grid of its own, or its record would not move
        fam = geometric if d == 1 else self.bivariate()
        config = cli.SuiteConfig(family=fam, space=space16, p_list=[1.0, 2.0, INF], n=32,
                                 functionals=cli.default_functionals(fam, 32, 0.5, 0))
        noisy = ContourSample(fam, space16, 32)
        rng = np.random.default_rng(5)
        noisy.values = noisy.values + 1e-6 * np.exp(2j * np.pi * rng.random(noisy.values.shape))
        clean = self.run_checks(config, ContourSample(fam, space16, 32))
        dirty = self.run_checks(config, noisy)
        assert all(rep.passed for rep in clean)
        assert [(r.name, r.functional) for r in dirty] == \
            [(r.name, r.functional) for r in clean]
        seen = set()
        for a, b in zip(clean, dirty):
            kind = a.functional.partition(":")[0]
            seen.add((a.name, kind))
            if a.name in ("derivative_consistency", "diff_under_integral") or \
                    (a.name, kind) == ("fubini", "derivative"):
                assert not b.passed, vars(b)
                if a.name != "fubini":
                    assert b.rhs == a.rhs  # the closed form
            elif a.name == "norm_bound":
                assert b.rhs != a.rhs
            elif a.name in ("telescoping", "schwarz", "order_bound"):
                assert b.lhs != a.lhs
            elif kind in ("dirac", "random") or a.name == "derivative_profile":
                assert vars(b) == vars(a)
        assert {("derivative_consistency", ""), ("diff_under_integral", ""),
                ("fubini", "derivative"), ("norm_bound", "dirac"), ("norm_bound", "random"),
                ("norm_bound", "derivative"), ("order_bound", ""), ("linearization", "dirac"),
                ("fubini", "random"), ("span", "dirac"),
                ("schwarz" if d == 1 else "telescoping", "")} <= seen

    @pytest.mark.parametrize("d", [1, 2])
    def test_reads_only_the_shared_sample(self, geometric, space16, monkeypatch, d):
        # once the sample holds the contour values, the closed forms are the only
        # other values the check reads, and they are no family values
        fam = geometric if d == 1 else self.bivariate()
        sample = ContourSample(fam, space16, 32)
        sample.values
        counted = []
        evaluate = GeometricFamily._evaluate

        def counting(self, z, t):
            out = evaluate(self, z, t)
            counted.append(np.size(out))
            return out

        monkeypatch.setattr(GeometricFamily, "_evaluate", counting)
        reports = theorems.derivative_consistency(sample, self.alphas(d), p=[1, 2, INF])
        assert all(rep.passed for rep in reports)
        assert counted == []

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("eps", [0.0, 2e-9, 1e-6])
    def test_detects_an_offset_closed_form(self, space16, d, eps):
        # the weights of uniform-16 sum to 1, so an offset eps reads eps in every
        # p-norm against the 1e-9 tolerance, while the quadrature error at 64
        # nodes is far below it
        fam = OffDerivativeFamily([0.5, 0.4][:d], eps)
        reports = theorems.derivative_consistency(ContourSample(fam, space16, 64),
                                                  self.alphas(d), p=[1, 2, INF])
        assert len(reports) == 3 * len(self.alphas(d))
        assert [rep.passed for rep in reports] == [eps == 0.0] * len(reports)


class TestDiffUnderIntegral:
    def test_zero_dual(self, geometric, space16):
        [rep] = theorems.diff_under_integral(ContourSample(geometric, space16, 32),
                                             np.zeros(16), [(1,)])
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.residual == 0.0

    def test_polynomial_exact(self, space16):
        h = random_duals(space16, 1, seed=9)[0]
        sample = ContourSample(family_preset("polynomial"), space16, 32)
        [rep] = theorems.diff_under_integral(sample, h, [(2,)])
        assert rep.residual <= 1e-12

    def test_exponential_closed_form_oracle(self, space16):
        # lhs must converge to sum_i t_i^alpha e^{a t_i} h_i mu_i; the domain puts the
        # contour about a with radius 0.7
        a = 0.2
        fam = ExponentialFamily(1.0, Polydisc([a], [0.7 / CONTOUR_SHRINK]))
        h = random_duals(space16, 1, seed=10)[0]
        for alpha in (1, 2):
            oracle = complex(np.sum(
                space16.params ** alpha * np.exp(a * space16.params) * h * space16.weights
            ))
            [rep] = theorems.diff_under_integral(ContourSample(fam, space16, 64), h,
                                                 [(alpha,)])
            assert rep.rhs == pytest.approx(oracle, rel=1e-13)
            assert rep.lhs == pytest.approx(oracle, rel=1e-11)
            assert rep.residual <= 1e-10


    @staticmethod
    def per_alpha(sample, h, alpha):
        """The check for one alpha, with its own pairing product and FFT."""
        fam, space = sample.fam, sample.space
        hw = np.asarray(h, dtype=complex) * space.weights
        lhs = complex(cauchy.contour_derivatives(sample.values @ hw, [alpha], sample.radii,
                                                 sample.n)[0])
        rhs = complex(fam.deriv_vector(sample.center, space, alpha) @ hw)
        return theorems.CheckReport.build(
            "diff_under_integral", fam.label, "", lhs, rhs, abs(lhs - rhs),
            theorems.TOL_QUADRATURE, alpha=list(alpha), n=sample.n,
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_alphas_match_one_call_each(self, space16, monkeypatch, d):
        # every alpha of the battery from one FFT, equal to the per-alpha check
        fam = GeometricFamily([0.5, 0.4, 0.3][:d], Polydisc([0.0] * d, [1.0] * d))
        h = random_duals(space16, 1, seed=11)[0]
        alphas = cli._alpha_battery(d)
        single = [self.per_alpha(ContourSample(fam, space16, 16), h, a) for a in alphas]
        ffts = []
        fft = cauchy._fft_coefficients

        def counting(values, *args):
            ffts.append(values.shape)
            return fft(values, *args)

        monkeypatch.setattr(cauchy, "_fft_coefficients", counting)
        batched = theorems.diff_under_integral(ContourSample(fam, space16, 16), h, alphas)
        assert ffts == [(16 ** d,)]
        assert [vars(r) for r in batched] == [vars(r) for r in single]


class TestNormBound:
    def test_dirac_node_in_grid(self, geometric, space16):
        rep = theorems.norm_bound_check([dirac([0.9])], ContourSample(geometric, space16, 64),
                                        [2])[0]
        assert rep.passed

    def test_homogeneity(self, geometric, space16):
        phi = derivative_functional([0.0], (1,), CONTOUR, n=64)
        seven = MeasureFunctional(nodes=phi.nodes, weights=7.0 * phi.weights, label="7 phi")
        sample = ContourSample(geometric, space16, 64)
        base, scaled = theorems.norm_bound_check([phi, seven], sample, [2])
        assert scaled.lhs == pytest.approx(7.0 * base.lhs, rel=1e-13)
        assert scaled.rhs == pytest.approx(7.0 * base.rhs, rel=1e-13)
        assert base.passed and scaled.passed

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_derivative_on_geometric(self, geometric, space16, p):
        phi = derivative_functional([0.0], (2,), CONTOUR, n=64)
        rep = theorems.norm_bound_check([phi], ContourSample(geometric, space16, 64), [p])[0]
        assert rep.passed

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_tight_polynomial_case(self, space16, p):
        # lhs touches the bound when the sup grid contains the contour nodes
        phi = derivative_functional([0.0], (2,), CONTOUR, n=64)
        sample = ContourSample(family_preset("polynomial"), space16, 64)
        rep = theorems.norm_bound_check([phi], sample, [p])[0]
        assert rep.passed

    def test_a_raising_functional_keeps_the_others(self, geometric, space16):
        # a node outside the unit polydisc fails the domain check of that functional only
        good = dirac([0.9])
        # at every p: the failed evaluation is not kept, so each p meets the error itself
        reports = theorems.norm_bound_check([good, dirac([1.5]), good],
                                            ContourSample(geometric, space16, 64), [2, INF])
        for p, group in zip([2, INF], (reports[:3], reports[3:])):
            alone = theorems.norm_bound_check([good], ContourSample(geometric, space16, 64),
                                              [p])[0]
            assert [vars(r) for r in group[::2]] == [vars(alone)] * 2
            assert not group[1].passed and "outside" in group[1].params["error"]

    @pytest.mark.parametrize("p", [1, 2, 3.5, INF])
    def test_functional_list_matches_one_call_each(self, geometric, space16, monkeypatch, p):
        # the derivative functional's 64 nodes are the contour grid, so one max_lp_norms
        # call on the n^d contour rows serves the grid sup of every p and that
        # functional's sup, and no lp_norm call takes the contour rows
        phis = [dirac([0.9]), derivative_functional([0.0], (1,), CONTOUR, n=64),
                random_measure(geometric.domain, k=8, shrink=0.5, seed=2)]
        alone = [theorems.norm_bound_check([phi], ContourSample(geometric, space16, 64), [p])[0]
                 for phi in phis]
        grid_rows = {"lp_norm": [], "max_lp_norms": []}

        def counting(name):
            method = getattr(FiniteMeasureSpace, name)

            def wrapper(self, v, q):
                grid_rows[name].append(np.shape(v)[0] == 64 ** geometric.d and np.ndim(v) == 2)
                return method(self, v, q)
            return wrapper

        for name in grid_rows:
            monkeypatch.setattr(FiniteMeasureSpace, name, counting(name))
        batch = theorems.norm_bound_check(phis, ContourSample(geometric, space16, 64), [p, 1])
        assert [vars(r) for r in batch[:3]] == [vars(r) for r in alone]
        assert sum(grid_rows["max_lp_norms"]) == 1
        assert sum(grid_rows["lp_norm"]) == 0


class TestSpan:
    def test_constant_one_sample(self, space16):
        sample = ContourSample(family_preset("constant"), space16, 64)
        rep = theorems.span_residual(dirac([0.3]), sample, [[0.1]])
        assert rep.residual <= 1e-12

    def test_affine_two_samples(self, space16):
        rep = theorems.span_residual(
            random_measure(unit_polydisc(), k=5, seed=12),
            ContourSample(family_preset("affine"), space16, 64), [[0.1], [-0.3 + 0.2j]],
        )
        assert rep.residual <= 1e-10

    def test_geometric_three_atoms(self, space3):
        fam = family_preset("geometric")
        rep = theorems.span_residual(
            derivative_functional([0.0], (1,), CONTOUR, n=32), ContourSample(fam, space3, 32),
            [[0.1], [-0.25 + 0.1j], [0.3j]],
        )
        assert rep.residual <= 1e-8

    def test_monotone_under_nesting(self, geometric, space16):
        phi = dirac([0.2])
        rep = theorems.span_monotonicity(phi, ContourSample(geometric, space16, 64),
                                         [[0.1], [0.3]], [[-0.2], [0.25j]])
        assert rep.passed

    def test_monotonicity_evaluates_each_point_once(self, geometric, space16, monkeypatch):
        # the base distance reads the first rows of one evaluation of both point sets;
        # the report equals the one built from two span_residual calls
        phi, base, more = dirac([0.2]), [[0.1], [0.3], [-0.1j]], [[-0.2], [0.25j]]
        sample = ContourSample(geometric, space16, 64)
        small = theorems.span_residual(phi, sample, base)
        grown = theorems.span_residual(phi, sample, base + more)
        evaluated = []
        evaluate = GeometricFamily._evaluate

        def counting(self, z, t):
            evaluated.append(z.shape[0])
            return evaluate(self, z, t)

        monkeypatch.setattr(GeometricFamily, "_evaluate", counting)
        rep = theorems.span_monotonicity(phi, sample, base, more)
        assert evaluated == [5]
        assert (rep.lhs, rep.rhs, rep.params) == (small.residual, grown.residual,
                                                  {"samples": 3})
        assert rep.residual == max(0.0, grown.residual - small.residual)

    def test_needs_a_sample(self, geometric, space16):
        with pytest.raises(ValueError):
            theorems.span_residual(dirac([0.2]), ContourSample(geometric, space16, 64), [])

    def test_rank_deficiency_tolerated(self, space16):
        # duplicated samples keep the minimum-norm solution well defined
        fam = family_preset("affine")
        rep = theorems.span_residual(dirac([0.1]), ContourSample(fam, space16, 64),
                                     [[0.2], [0.2], [-0.3]])
        assert rep.residual <= 1e-10


class TestDerivativeProfile:
    """One report per order 0..PROFILE_MAX_ORDER over the PROFILE_GRID region points at
    0.9 of the radius: lhs the sup of the mu-weighted integral of |D^m f|, rhs the
    largest |D^m f|."""

    @staticmethod
    def region_grid(fam):
        return torus_nodes(fam.domain.shrunk(0.9), theorems.PROFILE_GRID).grid()

    def test_constant_vanishing_orders(self, space16):
        reports = theorems.derivative_profile(ContourSample(family_preset("constant"),
                                                            space16, 32))
        assert [rep.params for rep in reports] == [{"alpha": [m], "n": theorems.PROFILE_NODES}
                                                   for m in range(5)]
        assert all(rep.passed and rep.residual == 0.0 for rep in reports)
        for rep in reports[1:]:
            assert rep.rhs <= 1e-13
            assert rep.lhs <= 1e-13

    def test_polynomial_order_two_profile(self, space16):
        # f = t z^2: D^2 = 2t everywhere, so the largest magnitude is 2 max |t| and
        # the weighted integral is 2 sum |t_i| mu_i
        reports = theorems.derivative_profile(ContourSample(family_preset("polynomial"),
                                                            space16, 32))
        assert reports[2].rhs == pytest.approx(2.0 * np.max(np.abs(space16.params)),
                                               rel=1e-11)
        oracle = 2.0 * float(np.sum(np.abs(space16.params) * space16.weights))
        assert reports[2].lhs == pytest.approx(oracle, rel=1e-11)

    @pytest.mark.parametrize("space", ["uniform-16", "geometric-64"])
    @pytest.mark.parametrize("name", preset_names())
    def test_matches_the_closed_form_maxima(self, name, space):
        # each order's lhs and rhs against the closed-form deriv_vector over the same
        # region grid: relative where the derivative is large, absolute where it
        # vanishes (orders above a polynomial's degree)
        fam, space = family_preset(name), space_preset(space)
        reports = theorems.derivative_profile(ContourSample(fam, space, 64))
        for order, rep in enumerate(reports):
            closed = np.abs([fam.deriv_vector(a, space, (order,))
                             for a in self.region_grid(fam)])
            assert rep.passed
            assert rep.rhs == pytest.approx(closed.max(), rel=1e-8, abs=1e-8)
            assert rep.lhs == pytest.approx(np.max(closed @ space.weights), rel=1e-8,
                                            abs=1e-8)

    def relative_gap(self, fam, space):
        """The largest gap of any order's lhs or rhs from the closed-form maxima over
        the region grid, relative to max(that maximum, 1)."""
        reports = theorems.derivative_profile(ContourSample(fam, space, 64))
        gaps = []
        for order, rep in enumerate(reports):
            closed = np.abs([fam.deriv_vector(a, space, (order,))
                             for a in self.region_grid(fam)])
            exact = (closed.max(), np.max(closed @ space.weights))
            gaps += [abs(side - e) / max(e, 1.0) for side, e in zip((rep.rhs, rep.lhs), exact)]
        return max(gaps)

    def test_near_singular_family_needs_the_profile_nodes(self, space16, monkeypatch):
        # rate 0.99 puts the pole of the t = +-1 slices at |z| = 1.0101, 0.11 from the
        # region grid at 0.9 and 0.06 beyond its 0.05-radius contours, so the
        # trapezoid error of each order falls as about (0.05 / 0.11)^n: 1.1e-11 at
        # PROFILE_NODES = 32, while 24 nodes leave 5.9e-9 and 16 leave 3.3e-6
        fam = GeometricFamily([0.99], unit_polydisc(1))
        assert self.relative_gap(fam, space16) <= 1e-10
        for nodes in (16, 24):
            monkeypatch.setattr(theorems, "PROFILE_NODES", nodes)
            assert self.relative_gap(fam, space16) > 1e-10, nodes

    def test_reports_do_not_depend_on_the_sample_nodes(self, geometric, space16):
        # the contours have PROFILE_NODES nodes whatever the run's n
        reports = [theorems.derivative_profile(ContourSample(geometric, space16, n))
                   for n in (4, 32, 64)]
        assert reports[0] == reports[1] == reports[2]

    def test_rejects_multivariate(self, space16):
        fam = GeometricFamily([0.5, 0.3], unit_polydisc(2))
        with pytest.raises(ValueError):
            theorems.derivative_profile(ContourSample(fam, space16, 32))

    def test_one_rule_per_contour(self, geometric, space16, monkeypatch):
        # the contours are evaluated in blocks of B = EVAL_BLOCK // (PROFILE_NODES k)
        # grid points, one evaluation and one FFT per block that serves orders 0-4 of
        # its contours; 33 points of 32 nodes on 16 atoms are blocks of 16, 16 and 1
        monkeypatch.setattr(theorems, "PROFILE_GRID", 33)
        sampled, ffts = [], []
        evaluate, fft = GeometricFamily._evaluate, cauchy._fft_coefficients

        def sampling(self, z, t):
            out = evaluate(self, z, t)
            sampled.append(np.size(out))
            return out

        def counting(values, *args):
            ffts.append(values.shape)
            return fft(values, *args)

        monkeypatch.setattr(GeometricFamily, "_evaluate", sampling)
        monkeypatch.setattr(cauchy, "_fft_coefficients", counting)
        reports = theorems.derivative_profile(ContourSample(geometric, space16, 64))
        k = space16.natoms
        assert sampled == [32 * 16 * k, 32 * 16 * k, 32 * k]
        assert max(sampled) <= theorems.EVAL_BLOCK
        assert ffts == [(32, 16, k), (32, 16, k), (32, 1, k)]
        # each order's sides match those its own single-order rule gives, up to
        # roundoff, which at order 4 on radius 0.05 scales with 4! / 0.05^4 * sup |f|
        radii = (CONTOUR_SHRINK - 0.9) * geometric.domain.radius
        for order, rep in enumerate(reports):
            mags = []
            for a in self.region_grid(geometric):
                pts, weights = derivative_rule(a, (order,), radii, theorems.PROFILE_NODES)
                mags.append(np.abs(weights @ geometric.eval(pts[:, None, :], space16.params)))
            mags = np.array(mags)
            np.testing.assert_allclose(rep.rhs, mags.max(), rtol=1e-8)
            np.testing.assert_allclose(rep.lhs, np.max(mags @ space16.weights), rtol=1e-8)


class TestTelescoping:
    def test_bivariate_geometric(self, space16):
        fam = GeometricFamily([0.5, 0.3], unit_polydisc(2), label="geometric2")
        rep = theorems.telescoping_residual(ContourSample(fam, space16, 64), seed=0)
        assert rep.passed and rep.residual == 0.0

    def test_bivariate_polynomial(self, space16):
        coeffs = np.zeros((2, 2, 2))
        coeffs[1, 1, 1] = 1.0  # f = t z1 z2
        fam = PolynomialFamily(coeffs, unit_polydisc(2), label="poly2")
        rep = theorems.telescoping_residual(ContourSample(fam, space16, 64), seed=1)
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
                rep = theorems.telescoping_residual(ContourSample(fam, space16, n),
                                                    sample_shrink=shrink)
                assert rep.passed, (n, shrink, rep.lhs, rep.tol)


class TestSchwarzCheck:
    def test_all_presets(self, preset_family, space16):
        if preset_family.d != 1:
            pytest.skip("univariate only")
        rep = theorems.schwarz_check(ContourSample(preset_family, space16, 64), seed=0)
        assert rep.passed


class TestBlockedEvaluation:
    """order_bound, schwarz and derivative_profile evaluate blocks of atoms or
    contours; their reports equal, bit for bit, those of one evaluation per atom or
    contour, or, for order_bound, of one evaluation of all atoms."""

    @staticmethod
    def schwarz_per_slice(sample, samples=1000, seed=0):
        center, radius = complex(sample.center[0]), float(sample.radii[0])
        return max(cauchy.schwarz_violation(lambda z: sample.fam.eval(z, t), center, radius,
                                            ring, samples=samples, seed=seed)
                   for t, ring in zip(sample.space.params, sample.values.T))

    @staticmethod
    def profile_per_contour(fam, space):
        """(lhs, rhs) of each order, one evaluation and FFT per region contour."""
        n = theorems.PROFILE_NODES
        radii = (CONTOUR_SHRINK - 0.9) * fam.domain.radius
        grid = torus_nodes(fam.domain.shrunk(0.9), theorems.PROFILE_GRID).grid()
        orders = [(order,) for order in range(theorems.PROFILE_MAX_ORDER + 1)]
        mags = np.empty((len(orders), len(grid), space.natoms))
        for gi, a in enumerate(grid):
            pts = torus_nodes(Polydisc(a, radii), n).grid()
            values = fam.eval(pts[:, None, :], space.params)
            mags[:, gi] = np.abs(cauchy.contour_derivatives(values, orders, radii, n))
        return [(float(np.max(m @ space.weights)), float(m.max())) for m in mags]

    # uniform-13 leaves a partial last block of 5 atoms after one of 8
    @pytest.mark.parametrize("space", ["uniform-16", "geometric-64", "uniform-13"])
    @pytest.mark.parametrize("name", preset_names())
    def test_schwarz_equals_the_per_slice_loop(self, name, space):
        sample = ContourSample(family_preset(name), space_preset(space), 64)
        assert theorems.schwarz_check(sample).lhs == self.schwarz_per_slice(sample)

    @staticmethod
    def order_bound_in_one_call(sample):
        """order_bound_check's report with its 200 sample points evaluated for every
        atom in one call."""
        fam = sample.fam
        ob = cauchy.order_bound(sample)
        z = sample_polydisc(fam.domain.shrunk(CONTOUR_SHRINK), 200, 0.5,
                            np.random.default_rng(0))
        values = np.abs(fam.eval(z[:, None, :], sample.space.params))
        excess = float(np.max(values - ob.u[None, :]))
        return theorems.CheckReport.build(
            "order_bound", fam.label, "", excess, ob.tail, max(0.0, excess - ob.tail),
            1e-12 * (1.0 + float(np.max(ob.u))), degree=ob.degree, shrink=0.5, n=ob.n)

    # 40 atoms a block: one block on 16 atoms, 40 and 24 on 64, six of 40 and 16 on 256
    @pytest.mark.parametrize("space", ["uniform-16", "geometric-64", "uniform-256"])
    @pytest.mark.parametrize("name", preset_names())
    def test_order_bound_equals_one_evaluation(self, name, space):
        sample = ContourSample(family_preset(name), space_preset(space), 64)
        assert theorems.order_bound_check(sample) == self.order_bound_in_one_call(sample)

    # 33 grid points of 32-node contours leave a partial last block: 2 blocks of 16
    # and one of 1 on 16 atoms, 8 blocks of 4 and one of 1 on 64
    @pytest.mark.parametrize("space", ["uniform-16", "geometric-64"])
    @pytest.mark.parametrize("name", preset_names())
    def test_profile_equals_the_per_contour_loop(self, name, space, monkeypatch):
        monkeypatch.setattr(theorems, "PROFILE_GRID", 33)
        fam, space = family_preset(name), space_preset(space)
        reports = theorems.derivative_profile(ContourSample(fam, space, 64))
        oracle = self.profile_per_contour(fam, space)
        assert [(rep.lhs, rep.rhs) for rep in reports] == oracle

    def test_peak_memory_is_bounded_by_the_block(self):
        # the blocks, not the k = 64 atoms or the 32 contours, bound the transient
        # arrays: at most 8 blocks' worth of complex values, 1 MiB
        fam, space = family_preset("geometric"), space_preset("geometric-64")
        sample = ContourSample(fam, space, 64)
        sample.values
        runs = {
            "schwarz": lambda: theorems.schwarz_check(sample),
            "derivative_profile": lambda: theorems.derivative_profile(sample),
        }
        for name, run in runs.items():
            run()  # one-time imports and caches of a first call are no transient arrays
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * theorems.EVAL_BLOCK * 16, (name, peak)


@pytest.mark.parametrize("name", preset_names())
def test_contour_sups_pass_at_few_nodes(name, space16):
    # schwarz and norm_bound take their sups on the n-node contour grid, a coarser
    # lower estimate of the sup at small n, which must give no false violation
    fam = family_preset(name)
    for n in range(4, 17):
        sample = ContourSample(fam, space16, n)
        rep = theorems.schwarz_check(sample)
        assert rep.passed, (n, rep.lhs)
        for shrink in (0.1, 0.9):
            # the default battery's functionals, less derivatives of an order n
            # cannot resolve
            phis = [dirac(0.5 * shrink * fam.domain.radius),
                    random_measure(fam.domain, k=8, shrink=shrink, seed=0)]
            phis += [derivative_functional([0.0], (order,), CONTOUR, n=n)
                     for order in (1, 2) if n > 2 * order + 2]
            for rep in theorems.norm_bound_check(phis, sample, [1, 2, INF]):
                assert rep.passed, (n, shrink, rep.params, rep.functional, rep.lhs, rep.rhs)


def test_contour_sups_need_their_construction_terms(space16):
    # f = 1 - z^4 reads |f| = 1 - 0.95^4 = 0.1855 on every node of the 4-node ring
    # at 0.95 r, while f(0) = 1: schwarz passes only because its sup adds f(a) and
    # the sample values, and norm_bound only because its sup adds the Dirac node
    fam = PolynomialFamily([[1.0], [0.0], [0.0], [0.0], [-1.0]], unit_polydisc(1))
    sample = ContourSample(fam, space16, 4)
    np.testing.assert_allclose(np.abs(sample.values), 1.0 - 0.95 ** 4)
    assert theorems.schwarz_check(sample).passed
    [rep] = theorems.norm_bound_check([dirac([0.0])], sample, [2])
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0) and rep.rhs == pytest.approx(1.0)


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

        sample_a = ContourSample(geometric, space16, 32)
        sample_b = ContourSample(geometric, grown, 32)

        fub_a = theorems.fubini_residual(phi, sample_a, h16, 2)
        fub_b = theorems.fubini_residual(phi, sample_b, h17, 2)
        assert abs(fub_a.residual - fub_b.residual) <= 1e-13

        lin_a = theorems.linearization_residual(phi, sample_a, [h16])
        lin_b = theorems.linearization_residual(phi, sample_b, [h17])
        assert abs(lin_a.residual - lin_b.residual) <= 1e-13

        nb_a = theorems.norm_bound_check([phi], sample_a, [2])[0]
        nb_b = theorems.norm_bound_check([phi], sample_b, [2])[0]
        assert abs(nb_a.residual - nb_b.residual) <= 1e-13
        assert abs(nb_a.lhs - nb_b.lhs) <= 1e-13

        [dc_a] = theorems.derivative_consistency(sample_a, [(1,)], p=[2])
        [dc_b] = theorems.derivative_consistency(sample_b, [(1,)], p=[2])
        assert abs(dc_a.residual - dc_b.residual) <= 1e-13


def test_check_report_describe(sample64):
    rep = theorems.norm_bound_check([dirac([0.2])], sample64, [1])[0]
    text = rep.describe()
    assert "norm_bound" in text and ("pass" in text or "FAIL" in text)

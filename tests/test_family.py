import json

import numpy as np
import pytest

from holofubini import (FiniteMeasureSpace, Polydisc, derivative_functional, dirac,
                        family_from_json, family_preset, measure, order_bound_check,
                        random_measure, space_preset, telescoping_residual, torus_nodes,
                        unit_polydisc)
from holofubini.family import (ConstantFamily, ContourSample, ExponentialFamily,
                               GeometricFamily, PolynomialFamily, SeparableFamily,
                               TabulatedTaylorFamily)
from holofubini.functional import MeasureFunctional

from conftest import PRESET_NAMES, fd_derivative


class TestEval:
    def test_constant(self):
        fam = ConstantFamily(2 + 1j, unit_polydisc())
        assert fam.eval([0.3], 5.0) == 2 + 1j

    def test_polynomial_t_z_squared(self):
        fam = family_preset("polynomial")
        assert fam.eval([0.3], 2.0) == pytest.approx(0.18)

    def test_geometric_closed_form(self):
        fam = family_preset("geometric")
        assert fam.eval([0.5], 1.0) == pytest.approx(4.0 / 3.0)

    def test_outside_domain_rejected(self):
        fam = family_preset("geometric")
        with pytest.raises(ValueError):
            fam.eval([1.2], 1.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_geometric_matches_the_out_of_place_product(self, space16, d):
        rng = np.random.default_rng(d)
        fam = GeometricFamily(rng.uniform(0.2, 0.6, d), unit_polydisc(d))
        z = rng.uniform(-0.6, 0.6, (200, 1, d)) + 1j * rng.uniform(-0.6, 0.6, (200, 1, d))
        args = fam.rates * space16.params[:, None] * z
        np.testing.assert_array_equal(fam._evaluate(z, space16.params),
                                      np.prod(1.0 / (1.0 - args), axis=-1))

    def test_geometric_refuses_to_leave_its_analyticity_region(self):
        fam = GeometricFamily([2.0], unit_polydisc())
        with pytest.raises(ValueError, match="guaranteed analyticity region"):
            fam._evaluate(np.array([[0.6]]), 1.0)

    def test_exponential(self):
        fam = family_preset("exponential")
        assert fam.eval([0.4], 0.5) == pytest.approx(np.exp(0.2))

    def test_separable_factorizes(self):
        fam = family_preset("separable")
        z, t = 0.3 + 0.1j, -0.7
        assert fam.eval([z], t) == pytest.approx(fam.z_factor([z]) * fam.t_factor(t))

    def test_tabulated_matches_direct_sum(self):
        fam = family_preset("tabulated")
        z, t = 0.2 - 0.3j, 0.8
        expected = (0.3 + 0.1 * t) + 0.7 * t * z + 0.2 * z ** 2
        assert fam.eval([z], t) == pytest.approx(expected)


class TestVector:
    def test_slice_consistency(self, preset_family, space16):
        z = np.array([0.21 - 0.13j])
        vec = preset_family.vector(z, space16)
        per_atom = np.array([preset_family.eval(z, t) for t in space16.params])
        np.testing.assert_array_equal(vec, per_atom)

    def test_separable_vector_factorizes(self, space16):
        fam = family_preset("separable")
        z = np.array([0.4j])
        vec = fam.vector(z, space16)
        np.testing.assert_allclose(
            vec, complex(fam.z_factor(z)) * fam.t_factor(space16.params), rtol=1e-15
        )

    def test_geometric_componentwise_closed_form(self, space3):
        fam = family_preset("geometric")
        z = 0.37 + 0.21j
        vec = fam.vector([z], space3)
        oracle = np.array([1.0 / (1.0 - 0.5 * t * z) for t in space3.params])
        np.testing.assert_allclose(vec, oracle, rtol=1e-14)


class TestSampler:
    """The run's contour sample: F on the contour grid and on functionals' nodes."""

    def test_sample_matches_vectors(self, preset_family, space16):
        sample = ContourSample(preset_family, space16, 8)
        grid = torus_nodes(Polydisc(sample.center, sample.radii), 8).grid()
        phi = MeasureFunctional(nodes=[[0.21 - 0.13j], [-0.4j], [0.0]], weights=np.ones(3),
                                label="three")
        for points, values in ((grid, sample.values), (phi.nodes, sample.node_values(phi))):
            assert values.shape == (len(points), 16)
            for z, row in zip(points, values):
                np.testing.assert_array_equal(row, preset_family.vector(z, space16))

    def test_arrays_are_read_only(self, space16):
        sample = ContourSample(family_preset("geometric"), space16, 8)
        with pytest.raises(ValueError):
            sample.values[0, 0] = 0.0
        with pytest.raises(ValueError):
            sample.node_values(dirac([0.3]))[0, 0] = 0.0

    def test_equal_points_are_sampled_once(self, space16, monkeypatch):
        # the contour values and each functional's node values are evaluated on first
        # read; a derivative functional on the sample's contour reads the contour values
        sample = ContourSample(family_preset("geometric"), space16, 8)
        evaluated = []
        evaluate = GeometricFamily._evaluate

        def counting(self, z, t):
            evaluated.append(z.shape[0])
            return evaluate(self, z, t)

        monkeypatch.setattr(GeometricFamily, "_evaluate", counting)
        phi = dirac([0.3])
        assert sample.node_values(phi) is sample.node_values(phi)
        assert sample.values is sample.values
        for alpha in (1, 2):
            on = derivative_functional([0.0], (alpha,), [0.95], n=8)
            assert sample.node_values(on) is sample.values
        off = derivative_functional([0.0], (1,), [0.95], n=16)
        assert sample.node_values(off) is sample.node_values(off)
        assert evaluated == [1, 8, 16]

    def test_functional_products_are_computed_once(self, space16):
        # each functional's slice vector and dual values on a stack are kept read-only,
        # bit for bit what a fresh apply_slices and apply_dual give on a new sample
        fam = family_preset("geometric")
        rng = np.random.default_rng(5)
        h = rng.standard_normal((10, 16)) + 1j * rng.standard_normal((10, 16))
        for phi in (dirac([0.3]), derivative_functional([0.0], (1,), [0.95], n=8),
                    random_measure(fam.domain, k=4, seed=3)):
            sample = ContourSample(fam, space16, 8)
            slices, duals = sample.slice_vector(phi), sample.dual_values(phi, h)
            assert sample.slice_vector(phi) is slices
            assert sample.dual_values(phi, h) is duals
            assert sample.dual_values(phi, list(h)) is duals
            assert not slices.flags.writeable and not duals.flags.writeable
            assert (slices.view(float) == phi.apply_slices(
                ContourSample(fam, space16, 8)).view(float)).all()
            assert (duals.view(float) == phi.apply_dual(
                ContourSample(fam, space16, 8), h).view(float)).all()
            # another stack is another entry
            assert (sample.dual_values(phi, h[:3]).view(float) == phi.apply_dual(
                ContourSample(fam, space16, 8), h[:3]).view(float)).all()

    def test_each_dual_stack_is_kept_once(self, space16):
        # the memo holds one copy of a stack's bytes, whatever the functionals on it
        fam = family_preset("geometric")
        sample = ContourSample(fam, space16, 8)
        rng = np.random.default_rng(5)
        stacks = [rng.standard_normal((10, 16)) + 1j * rng.standard_normal((10, 16))
                  for _ in range(3)]
        phis = [dirac([0.3]), derivative_functional([0.0], (1,), [0.95], n=8),
                derivative_functional([0.0], (2,), [0.95], n=8),
                random_measure(fam.domain, k=4, seed=3)]
        for h in stacks:
            for phi in phis:
                sample.dual_values(phi, h)
        assert [key[1] for key in sample._duals] == [h.tobytes() for h in stacks]
        assert all(list(memo) == phis for memo in sample._duals.values())

    def test_contour_pairing_is_kept_until_a_read_that_does_not_use_it(self, space16):
        # both derivative functionals on the contour share one product per stack; a
        # dual_values call that does not read it (another node set, a kept value)
        # drops it, so the (n^d, m) array lives from one such functional to the next
        class Products(np.ndarray):
            """Contour values that count their products with a stack of dual vectors."""
            count = 0

            def __matmul__(self, other):
                type(self).count += 1
                return np.asarray(self) @ other

        sample = ContourSample(family_preset("geometric"), space16, 8)
        sample.__dict__["values"] = sample.values.view(Products)
        on = [derivative_functional([0.0], (alpha,), [0.95], n=8) for alpha in (1, 2)]
        rng = np.random.default_rng(5)
        h = rng.standard_normal((10, 16)) + 1j * rng.standard_normal((10, 16))
        for phi in on:
            sample.dual_values(phi, h)
        assert Products.count == 1
        assert sample.pairing(on[0], h) is sample.pairing(on[1], h)
        sample.dual_values(dirac([0.3]), h)
        sample.pairing(on[0], h)
        assert Products.count == 2
        sample.dual_values(on[0], h)
        sample.pairing(on[1], h)
        assert Products.count == 3
        sample.dual_values(on[0], h[:3])
        assert Products.count == 4

    def test_sup_is_read_once_by_both_checks(self, space16):
        # telescoping's B and order_bound's M are one cached float, max |F| on the grid
        sample = ContourSample(family_preset("geometric"), space16, 64)
        assert sample.sup is sample.sup
        assert sample.sup == float(np.max(np.abs(sample.values)))
        assert telescoping_residual(sample).tol == 1e-12 * (1.0 + sample.sup)
        assert order_bound_check(sample).rhs == pytest.approx(sample.sup * 2.0 ** -31,
                                                              rel=1e-12)

    @pytest.mark.parametrize("row_block", [1, 10, 64 * 3])
    def test_blocked_sup_is_the_whole_sample_max(self, monkeypatch, row_block):
        # sup reads blocks of measure.ROW_BLOCK values (whole rows, at least one): of
        # 1 row, of 3 rows with the largest |F|, in row 63, alone in the last block,
        # and all 64 rows in one; each gives the whole sample's max, float for float
        fam = ExponentialFamily(np.exp(2j * np.pi / 64), unit_polydisc(1))
        space = FiniteMeasureSpace([0.2, 1.0, -0.5], np.ones(3))
        sample = ContourSample(fam, space, 64)
        mags = np.abs(sample.values)
        assert int(np.argmax(np.max(mags, axis=1))) == 63
        monkeypatch.setattr(measure, "ROW_BLOCK", row_block)
        assert sample.sup == float(np.max(mags))

    def test_outside_domain_rejected(self):
        # a failed evaluation is not kept: every read raises.  The atom t = 3 puts the
        # pole 1 / (0.5 t) = 0.67 inside the contour at 0.95, and the Dirac node lies
        # outside the domain
        space = FiniteMeasureSpace([3.0], [1.0])
        sample = ContourSample(family_preset("geometric"), space, 8)
        for _ in range(2):
            with pytest.raises(ValueError):
                sample.values
            with pytest.raises(ValueError):
                sample.node_values(dirac([1.2]))


class TestClosedFormDerivatives:
    """The registry's closed forms are cross-checked by finite differences."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("alpha", [(0,), (1,), (2,)])
    def test_against_finite_differences(self, name, alpha):
        fam = family_preset(name)
        t = 1.0
        a = np.array([0.2 - 0.1j])
        exact = complex(fam.deriv(a, t, alpha))
        approx = fd_derivative(lambda z: fam.eval(z, t), a, alpha)
        assert exact == pytest.approx(approx, rel=1e-5, abs=1e-7)

    def test_geometric_formula(self):
        fam = family_preset("geometric")
        z, t = 0.3, 0.9
        beta = 0.5 * t
        expected = beta / (1 - beta * z) ** 2
        assert fam.deriv([z], t, (1,)) == pytest.approx(expected)

    def test_multivariate_mixed(self):
        fam = GeometricFamily([0.5, 0.3], unit_polydisc(2))
        a = np.array([0.1, -0.2 + 0.1j])
        exact = complex(fam.deriv(a, 1.0, (1, 1)))
        approx = fd_derivative(lambda z: fam.eval(z, 1.0), a, (1, 1))
        assert exact == pytest.approx(approx, rel=1e-5)


class TestSupNorm:
    def test_constant_any_density(self):
        fam = family_preset("constant")
        assert fam.slice_supnorm(0.0, 8) == pytest.approx(abs(2 + 1j))

    def test_linear_slice_on_half_disc(self):
        # sup of |2 z| over |z| <= 0.5 is 1
        coeffs = np.zeros((2, 2))
        coeffs[1, 1] = 1.0
        fam = PolynomialFamily(coeffs, unit_polydisc())
        assert fam.slice_supnorm(2.0, 64, shrink=0.5) == pytest.approx(1.0, rel=1e-12)

    def test_geometric_within_one_percent(self):
        fam = family_preset("geometric")
        exact = 1.0 / (1.0 - 0.45)
        est = fam.slice_supnorm(1.0, 64, shrink=0.9)
        assert est <= exact + 1e-12
        assert est == pytest.approx(exact, rel=0.01)

    def test_monotone_under_refinement(self, preset_family):
        sups = [preset_family.slice_supnorm(0.7, density, shrink=0.9)
                for density in (16, 32, 64)]
        assert sups[0] <= sups[1] + 1e-13 and sups[1] <= sups[2] + 1e-13

    def test_density_validation(self):
        with pytest.raises(ValueError):
            family_preset("constant").slice_supnorm(0.0, 1)

    @pytest.mark.parametrize("space", ["uniform-16", "geometric-64"])
    def test_params_array_matches_each_atom(self, preset_family, space):
        params = space_preset(space).params
        sups = preset_family.slice_supnorm(params, 64, shrink=0.95)
        assert sups.tolist() == [preset_family.slice_supnorm(t, 64, shrink=0.95)
                                 for t in params]


def test_boundedness_certificate(preset_family, space16):
    # at density 64 every slice sup is finite
    for t in space16.params:
        assert np.isfinite(preset_family.slice_supnorm(t, 64))


def test_uniform_lp_hypothesis_stable(preset_family, space16):
    # max_z ||F(z)||_p over a 256-point grid moves < 5% under 2x refinement
    from holofubini.domain import torus_nodes

    for p in (1.0, 2.0):
        sups = []
        for density in (256, 512):
            grid = torus_nodes(preset_family.domain.shrunk(0.9), density).grid()
            values = preset_family.eval(grid[:, None, :], space16.params)
            norms = np.sum(np.abs(values) ** p * space16.weights, axis=1) ** (1 / p)
            sups.append(float(norms.max()))
        assert np.isfinite(sups[0])
        assert abs(sups[1] - sups[0]) < 0.05 * sups[0]


class TestHypothesisValidation:
    def test_geometric_accepts_preset_space(self, space16):
        family_preset("geometric").validate_on(space16)

    def test_geometric_rejects_fast_rate(self, space16):
        fam = GeometricFamily([2.0], unit_polydisc())
        with pytest.raises(ValueError):
            fam.validate_on(space16)

    def test_eval_guards_analyticity(self):
        fam = GeometricFamily([0.99], unit_polydisc())
        with pytest.raises(ValueError):
            fam.eval([0.9], 1.5)


class TestJson:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_round_trip(self, name):
        fam = family_preset(name)
        clone = family_from_json(json.dumps(fam.to_json()))
        assert clone.kind == fam.kind
        z, t = np.array([0.3 - 0.2j]), 0.6
        assert clone.eval(z, t) == pytest.approx(complex(fam.eval(z, t)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            family_from_json({"kind": "rational", "params": {},
                              "domain": {"center": [[0, 0]], "radius": [1.0]}})


def test_tabulated_table_for():
    # the stored table at t = 0.5, sum_j coeffs[m, j] t^j, is the family's Taylor
    # table about the center 0
    fam = family_preset("tabulated")
    table = fam.coeffs @ 0.5 ** np.arange(fam.coeffs.shape[-1])
    np.testing.assert_allclose(table, [0.3 + 0.05, 0.35, 0.2])
    z = 0.3 - 0.2j
    assert complex(fam.eval([z], 0.5)) == pytest.approx(table @ z ** np.arange(3))


def test_separable_is_separable_kind():
    fam = family_preset("separable")
    assert isinstance(fam, SeparableFamily) and fam.span_dim == 1


def test_tabulated_kind():
    assert isinstance(family_preset("tabulated"), TabulatedTaylorFamily)

import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from holofubini import (FiniteMeasureSpace, Polydisc, cauchy_derivative, family,
                        family_from_json, family_preset, order_bound, order_bound_check,
                        preset_names, schwarz_violation, space_preset, torus_nodes,
                        unit_polydisc)
from holofubini.cauchy import (MAX_TAYLOR_DEGREE, MIN_ORDER_BOUND_DEGREE, _fft_coefficients,
                              contour_derivatives, derivative_rule)
from holofubini.domain import CONTOUR_SHRINK, multi_factorial
from holofubini.family import ContourSample, PolynomialFamily, TabulatedTaylorFamily

from conftest import UnfactoredGeometric, fd_derivative, schwarz_values
from witnesses import ConjugatePerturbedGeometric


def ring(f, center, radius, n=64):
    """f on the n-node ring of radius ``radius`` about ``center``."""
    return f(torus_nodes(Polydisc([center], [radius]), n).grid())


def table_sample(fam, space, degree):
    """The contour sample whose order_bound degree is ``degree``: 2 degree + 2 nodes,
    from the 16-node floor on."""
    assert degree >= MIN_ORDER_BOUND_DEGREE
    return ContourSample(fam, space, 2 * degree + 2)


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
        slice_ = lambda z: fam.eval(z, 1.0)
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

    def test_weights_are_the_powers_scaled_in_place(self):
        # beside the grid it returns, the rule makes one complex value per node: the
        # outer product of the powers, scaled into the weights.  A scaled copy beside it
        # took 2
        derivative_rule([0.0] * 4, (1, 0, 0, 0), [0.95] * 4, 4)  # one-time caches
        tracemalloc.start()
        try:
            pts, weights = derivative_rule([0.0] * 4, (2, 0, 0, 0), [0.95] * 4, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pts.nbytes + 1.5 * weights.nbytes


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

    @pytest.mark.parametrize("d, batch", [(1, ()), (1, (5,)), (2, (3,)), (3, (2, 2))])
    def test_gather_equals_the_per_alpha_loop(self, d, batch):
        # one gather from the table times each alpha! equals alpha! c_alpha taken one
        # alpha at a time, bit for bit, also where the values hold inf and NaN and where
        # alpha! / r^alpha overflows the last column; alphas repeat and come in no order
        rng = np.random.default_rng(d)
        values = (rng.standard_normal((8 ** d,) + batch)
                  + 1j * rng.standard_normal((8 ** d,) + batch)) * 1e150
        values.reshape(8 ** d, -1)[:, -1] *= 1e156
        values.reshape(-1)[rng.choice(values.size, 3, replace=False)] = [np.inf, np.nan,
                                                                         complex(0, -np.inf)]
        alphas = [tuple(a) for a in rng.integers(0, 7, (9, d))] + [(0,) * d, (6,) * d]
        with np.errstate(invalid="ignore", over="ignore"):
            table = _fft_coefficients(values, d, 8, [0.5] * d, 6)
            loop = np.stack([multi_factorial(a) * table[a] for a in alphas])
            got = contour_derivatives(values, alphas, [0.5] * d, 8)
        assert got.shape == loop.shape == (len(alphas),) + batch
        assert got.tobytes() == loop.tobytes()
        assert not np.isfinite(got).all()

    @pytest.mark.parametrize("alphas", [[(0, 1)], [(-1,)], [(0.5,)], [], [[(1,)]]],
                             ids=["length", "negative", "fraction", "empty", "nested"])
    def test_malformed_alphas_are_refused(self, alphas):
        with pytest.raises(ValueError, match="expected multi-indices of 1 nonnegative"):
            contour_derivatives(np.ones(8, dtype=complex), alphas, [0.5], 8)


def one_shot_coefficients(values, d, n, radii, degree):
    """The Taylor table from one FFT chain over the whole batch at once."""
    sel = values.reshape((n,) * d + values.shape[1:])
    for axis in reversed(range(d)):
        sel = np.fft.fft(sel, axis=axis)[(slice(None),) * axis + (slice(0, degree + 1),)]
    sel = sel / n ** d
    scale = reduce(np.multiply.outer, [np.asarray(r) ** np.arange(degree + 1) for r in radii])
    return sel / scale.reshape(scale.shape + (1,) * (values.ndim - 1))


class TestBlockedFFT:
    @pytest.mark.parametrize("d, n", [(1, 16), (2, 8), (3, 4)])
    @pytest.mark.parametrize("batch", [(), (7,), (3, 5)])
    def test_blocks_equal_the_one_shot_chain(self, monkeypatch, d, n, batch):
        # FFT_BLOCK below one column takes one column per block; 2 and 4 columns leave
        # a short last block of the 7 and the 15 columns; 2^20 values take every
        # column in one block.  Each table equals the one-shot chain's value for value
        rng = np.random.default_rng(d)
        shape = (n ** d,) + batch
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        radii, degree = [0.95 - 0.1 * j for j in range(d)], n // 2 - 1
        expected = one_shot_coefficients(values, d, n, radii, degree)
        assert expected.shape == (degree + 1,) * d + batch
        for block in (1, 2 * n ** d, 4 * n ** d, 2 ** 20):
            monkeypatch.setattr("holofubini.cauchy.FFT_BLOCK", block)
            np.testing.assert_array_equal(_fft_coefficients(values, d, n, radii, degree),
                                          expected, strict=True)


class TestTaylorCoefficients:
    """The contour sample's Taylor table, on spaces of one atom t: the table of f(., t)."""

    @staticmethod
    def table(fam, t, n, degree):
        sample = ContourSample(fam, FiniteMeasureSpace([t], [1.0]), n)
        return sample.taylor_table(degree)[..., 0]

    def test_exponential_series(self):
        table = self.table(family_preset("exponential"), 1.0, 14, 6)
        expected = [1.0 / math.factorial(k) for k in range(7)]
        np.testing.assert_allclose(table, expected, atol=1e-12)

    def test_geometric_series(self):
        table = self.table(family_preset("geometric"), 1.0, 64, 10)
        np.testing.assert_allclose(table, 0.5 ** np.arange(11), atol=1e-12)

    def test_polynomial_reproduction(self):
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        fam = PolynomialFamily(coeffs[..., None], unit_polydisc(2))
        table = self.table(fam, 1.0, 16, 3)
        np.testing.assert_allclose(table[:4, :3], coeffs, atol=1e-12)

    def test_tabulated_round_trip(self):
        # the stored table at t: sum_j coeffs[m, j] t^j
        fam = family_preset("tabulated")
        t = 0.8
        table = self.table(fam, t, 16, 2)
        np.testing.assert_allclose(table, fam.coeffs @ t ** np.arange(fam.coeffs.shape[-1]),
                                   atol=1e-12)

    def test_eval_consistency_with_c0(self):
        # Cauchy's formula at the center (alpha = 0) equals the zeroth coefficient, on
        # the same contour
        fam = family_preset("geometric")
        c0 = self.table(fam, 0.9, 32, 4)[0]
        cauchy = cauchy_derivative(lambda z: fam.eval(z, 0.9), [0.0], (0,), [0.95], n=32)
        assert cauchy == pytest.approx(c0, abs=1e-12)

    @pytest.mark.parametrize("name", ["constant", "polynomial", "geometric",
                                      "exponential", "separable", "tabulated"])
    def test_derivative_coefficient_link(self, name):
        # D^alpha f(a) = alpha! c_alpha for |alpha| <= 4, the table read on the 0.95
        # contour and the derivatives on a 0.9 one
        fam = family_preset(name)
        table = self.table(fam, 0.7, 32, 4)
        for k in range(5):
            deriv = cauchy_derivative(lambda z: fam.eval(z, 0.7), [0.0], (k,), [0.9], n=32)
            assert deriv == pytest.approx(
                math.factorial(k) * table[k], abs=1e-10, rel=1e-10
            )

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [4, 5, 8, 16, 32])
    def test_table_derivatives_equal_contour_derivatives(self, d, n):
        # alpha! table[alpha] from the one kept table, of degree max(2, n // 2 - 1), is
        # contour_derivatives' degree-2 FFT bit for bit, also where n // 2 - 1 < 2, on a
        # family whose sample holds its whole grid (a product kind's table is the outer
        # product of its axes' tables, tested against this FFT in test_family.py)
        fam = UnfactoredGeometric([0.5, 0.4, 0.3][:d], unit_polydisc(d))
        assert family._certified(fam) and fam._axis_families() is None
        sample = ContourSample(fam, space_preset("uniform-4"), n)
        alphas = [a for a in np.ndindex(*(3,) * d) if sum(a) <= 2]
        table = sample.taylor_table(2)
        assert table.shape == (3,) * d + (4,)
        got = np.stack([multi_factorial(a) * table[a] for a in alphas])
        oracle = contour_derivatives(sample.values, alphas, sample.radii, n)
        assert got.tobytes() == oracle.tobytes()
        # the default order_bound degree reads the same kept table
        assert np.shares_memory(sample.taylor_table(max(n // 2 - 1, 2)), table)


class TestSchwarz:
    def test_identity_slice(self):
        v = schwarz_violation(*schwarz_values(lambda w: w[..., 0], 0.0, 1.0, seed=0))
        assert v <= 0.0

    def test_constant_slice(self):
        f = lambda w: np.full(w.shape[:-1], 2.5)
        assert schwarz_violation(*schwarz_values(f, 0.0, 1.0, seed=0)) <= 0.0

    def test_square_slice(self):
        v = schwarz_violation(*schwarz_values(lambda w: w[..., 0] ** 2, 0.0, 1.0, seed=1))
        assert v <= 0.0

    def test_off_center_ball(self):
        f = lambda w: np.exp(w[..., 0])
        assert schwarz_violation(*schwarz_values(f, 0.5 + 0.5j, 0.75, seed=2)) <= 1e-12


def tail_bracket_brute_force(shrink, degree, d, cut=80):
    """sum of shrink^|m| over the multi-indices m outside the table cube, each m_j < cut."""
    m = np.indices((cut,) * d).reshape(d, -1)
    outside = m.max(axis=0) > degree
    return float(np.sum(shrink ** m.sum(axis=0)[outside]))


class TestOrderBound:
    def test_affine_family_exact(self):
        # F(z) = v0 + v1 z with contour radius 1 and shrink 0.5: u = |v0| + 0.5 |v1|;
        # the tail at degree 8 is M [2 - 2 (1 - 2^-9)] = M 2^-8
        coeffs = np.zeros((2, 2), dtype=complex)
        coeffs[0, 0] = 1.5 - 0.5j   # v0 independent of t
        coeffs[1, 1] = -2.0j        # v1 = -2i t
        fam = PolynomialFamily(coeffs, Polydisc([0.0], [1.0 / CONTOUR_SHRINK]))
        space = FiniteMeasureSpace([1.0, -0.5], [0.5, 0.5])
        sample = table_sample(fam, space, 8)
        assert sample.radii[0] == pytest.approx(1.0, rel=1e-15)
        ob = order_bound(sample, shrink=0.5)
        assert ob.degree == 8
        expected = [abs(1.5 - 0.5j) + 1.0, abs(1.5 - 0.5j) + 0.5]
        np.testing.assert_allclose(ob.u, expected, atol=1e-12)
        assert ob.tail == pytest.approx(sample.sup * 2.0 ** -8, rel=1e-12)

    def test_constant_family(self, space16):
        fam = family_preset("constant")
        ob = order_bound(table_sample(fam, space16, 10), shrink=0.5)
        np.testing.assert_allclose(ob.u, abs(2 + 1j), atol=1e-12)
        assert ob.tail == pytest.approx(abs(2 + 1j) * 2.0 ** -10, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tail_bracket_matches_brute_force(self, d):
        # a constant family has M = |2 + i| on every grid, so tail / M is the bracket
        fam = family_from_json({"kind": "constant", "params": {"value": [2, 1]},
                                "domain": {"center": [[0, 0]] * d, "radius": [1] * d}})
        space = FiniteMeasureSpace([0.0], [1.0])
        for degree in (MIN_ORDER_BOUND_DEGREE, 9):
            sample = table_sample(fam, space, degree)
            assert sample.sup == abs(2 + 1j)
            for shrink in (0.1, 0.5):
                tail = order_bound(sample, shrink=shrink).tail
                assert tail / sample.sup == pytest.approx(
                    tail_bracket_brute_force(shrink, degree, d), rel=1e-9), (degree, shrink)

    @pytest.mark.parametrize("shrink", [0.0, 1.0])
    def test_shrink_outside_open_unit_interval_refused(self, shrink, space16):
        # the tail's sum of shrink^|m| diverges at shrink >= 1
        with pytest.raises(ValueError, match="shrink"):
            order_bound(ContourSample(family_preset("constant"), space16, 16), shrink=shrink)

    @pytest.mark.parametrize("d, n, space", [(1, 64, "geometric-64"), (2, 16, "uniform-13"),
                                             (3, 16, "uniform-5")])
    def test_blocked_majorant_equals_the_unblocked_sum(self, monkeypatch, d, n, space):
        # u sums each atom's scaled magnitudes for blocks of atoms of FFT_BLOCK values:
        # blocks of one atom and of 3 atoms with a short last one give the u of one
        # block of every atom bit for bit, within roundoff of an exact sum per atom.  At
        # d >= 2 the kind's table is kept as its axis tables, and the oracle reads all
        # its columns at once
        fam = family_from_json({"kind": "exponential", "params": {"scale": [0.7, 0.7]},
                                "domain": {"center": [[0, 0]] * d, "radius": [1] * d}})
        sample = ContourSample(fam, space_preset(space), n)
        degree = n // 2 - 1
        table = sample.taylor_table(degree)  # kept, so the blocks below do not rebuild it
        if d > 1:
            table = table.columns(0, table.shape[-1])
        per_atom = table[..., 0].size
        runs = []
        for block in (1, 3 * per_atom, table.size):
            monkeypatch.setattr("holofubini.cauchy.FFT_BLOCK", block)
            runs.append(order_bound(sample, shrink=0.5).u)
        np.testing.assert_array_equal(runs[0], runs[2], strict=True)
        np.testing.assert_array_equal(runs[1], runs[2], strict=True)
        scale = reduce(np.multiply.outer,
                       [(r * 0.5) ** np.arange(degree + 1) for r in sample.radii])
        exact = [math.fsum((np.abs(table[..., i]) * scale).ravel())
                 for i in range(table.shape[-1])]
        np.testing.assert_allclose(runs[2], exact, rtol=1e-14)

    def test_floor_sample_uses_its_own_sup(self, space16):
        # at 4 nodes the table comes from a 16-node contour sample, and so does M
        fam = family_preset("geometric")
        ob = order_bound(ContourSample(fam, space16, 4), shrink=0.5)
        floor_sup = ContourSample(fam, space16, 2 * MIN_ORDER_BOUND_DEGREE + 2).sup
        assert (ob.degree, ob.n) == (MIN_ORDER_BOUND_DEGREE, 2 * MIN_ORDER_BOUND_DEGREE + 2)
        assert ob.tail == pytest.approx(floor_sup * 2.0 ** -MIN_ORDER_BOUND_DEGREE, rel=1e-12)

    def test_degree_is_capped(self):
        # n // 2 - 1 = 255 at 512 nodes is capped at MAX_TAYLOR_DEGREE
        ob = order_bound(ContourSample(family_preset("constant"), space_preset("uniform-1"), 512))
        assert (ob.degree, ob.n) == (MAX_TAYLOR_DEGREE, 512)

    def test_geometric_dominates_samples(self, space16):
        fam = family_preset("geometric")
        ob = order_bound(table_sample(fam, space16, 40), shrink=0.5)
        rng = np.random.default_rng(0)
        radius = 0.95 * 0.5
        z = radius * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
        values = np.abs(fam.eval(z[:, None, None], space16.params))
        assert np.all(values <= ob.u[None, :] + ob.tail + 1e-12)

    def test_tail_positive_for_geometric(self, space16):
        ob = order_bound(table_sample(family_preset("geometric"), space16, 40), shrink=0.5)
        assert 0.0 < ob.tail < 1e-10

    def test_divergent_coefficients_reported(self):
        # stored coefficients grow like 2^k inside the table: Cauchy's estimate
        # still gives a finite tail, M 2^-12 at degree 12, and u + tail dominates
        coeffs = (2.0 ** np.arange(13))[:, None].astype(complex)
        fam = TabulatedTaylorFamily(coeffs, Polydisc([0.0], [1.0]))
        space = FiniteMeasureSpace([1.0], [1.0])
        sample = table_sample(fam, space, 12)
        ob = order_bound(sample, shrink=0.5)
        assert math.isfinite(ob.tail)
        assert ob.tail == pytest.approx(sample.sup * 2.0 ** -12, rel=1e-12)
        rng = np.random.default_rng(5)
        radius = 0.95 * 0.5
        z = radius * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
        values = np.abs(fam.eval(z[:, None, None], space.params))
        assert np.all(values <= ob.u[None, :] + ob.tail + 1e-12)

    def test_fast_decay_is_not_a_violation(self):
        # on spaces of few atoms the coefficients of small |t| fall to the noise floor
        # within the table; the domination check must still pass
        fam = family_preset("geometric")
        for k in range(1, 301):
            rep = order_bound_check(ContourSample(fam, space_preset(f"uniform-{k}"), 64))
            assert rep.passed and math.isfinite(rep.residual), k

    @pytest.mark.parametrize("space", ["uniform-16", "uniform-20", "geometric-64", "uniform-256"])
    @pytest.mark.parametrize("name", preset_names())
    def test_every_preset_passes(self, name, space):
        rep = order_bound_check(ContourSample(family_preset(name), space_preset(space), 64))
        assert rep.passed, rep.params

    @pytest.mark.parametrize("name", preset_names())
    def test_every_preset_passes_at_few_nodes(self, name, space16):
        # below 16 nodes the default degree n // 2 - 1 is raised to
        # MIN_ORDER_BOUND_DEGREE; at degree <= 4 these cases give false violations
        for n in range(4, 17):
            for shrink in (0.1, 0.5, 0.9):
                rep = order_bound_check(ContourSample(family_preset(name), space16, n,
                                                      shrink=shrink))
                assert rep.passed, (n, shrink, rep.params)
                assert rep.params["degree"] == max(n // 2 - 1, MIN_ORDER_BOUND_DEGREE)

    def test_bivariate_geometric_on_many_atoms(self):
        fam = family_from_json({"kind": "geometric", "params": {"rates": [[0.5, 0], [0.4, 0]]},
                                "domain": {"center": [[0, 0], [0, 0]], "radius": [1, 1]}})
        ob = order_bound(table_sample(fam, space_preset("uniform-256"), 40), shrink=0.5)
        assert 0.0 < ob.tail and math.isfinite(ob.tail)

    def test_exponential_noise_floor_handled(self, space16):
        # far tail of e^{tz} sits below quadrature noise; the tail at degree 40 is M 2^-40
        sample = table_sample(family_preset("exponential"), space16, 40)
        ob = order_bound(sample, shrink=0.5)
        assert ob.tail == pytest.approx(sample.sup * 2.0 ** -40, rel=1e-12)
        rng = np.random.default_rng(3)
        radius = 0.95 * 0.5
        z = radius * np.sqrt(rng.random(100)) * np.exp(2j * np.pi * rng.random(100))
        values = np.abs(family_preset("exponential").eval(z[:, None, None], space16.params))
        assert np.all(values <= ob.u[None, :] + ob.tail + 1e-12)

    @pytest.mark.parametrize("n, passes, fails", [(64, (0.0, 1e-4), 1e-3), (32, (1e-3,), 1e-2)])
    def test_conjugate_perturbation_detected(self, space16, n, passes, fails):
        # the tail grows with the table's shrink^(D+1), so at n = 32 eps = 1e-3 slips under it
        for eps in passes:
            rep = order_bound_check(ContourSample(ConjugatePerturbedGeometric(eps), space16, n))
            assert rep.passed, (eps, rep.lhs, rep.rhs)
        rep = order_bound_check(ContourSample(ConjugatePerturbedGeometric(fails), space16, n))
        assert not rep.passed, (fails, rep.lhs, rep.rhs)

import json
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holofubini import (FiniteMeasureSpace, Polydisc, cauchy, derivative_functional, dirac,
                        family, family_from_json, family_preset, measure, order_bound_check,
                        preset_names, random_measure, space_from_json, space_preset,
                        telescoping_residual, torus_nodes, unit_polydisc)
from holofubini.cli import main
from holofubini.domain import CONTOUR_SHRINK
from holofubini.family import (ConstantFamily, ContourSample, ExponentialFamily,
                               GeometricFamily, PolynomialFamily, SeparableFamily,
                               TabulatedTaylorFamily)
from holofubini.functional import MeasureFunctional

from conftest import PRESET_NAMES, UnfactoredGeometric, fd_derivative, random_duals
from witnesses import (ConjugatePerturbedGeometric, ContourVanishingGeometric,
                       OffDerivativeFamily, SqrtPerturbedGeometric)


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
        # read; a derivative functional on the sample's contour reads the contour values.
        # The family is real and reflective, so of the 8 contour nodes only 0, 1 and 2
        # are evaluated, and of the other functional's 16 nodes 0..4
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
        assert evaluated == [1, 3, 5]

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

    # 64 contour rows of 16 atoms: blocks of 1 row, of 3 rows with a short last block,
    # and all rows in one
    @pytest.mark.parametrize("row_block", [16, 3 * 16, 2 ** 20])
    def test_one_product_per_block_serves_every_functional_on_the_contour(
            self, monkeypatch, space16, row_block):
        # the sample is built with the run's functionals; the first dual_values read of
        # one on the contour pairs each block of contour rows with the stack once and
        # gives both derivative functionals their values, each bit for bit what its own
        # pass on a sample without the other gives.  Off the contour a functional pairs
        # its own nodes, and no (n^d, m) pairing is kept
        class Products(np.ndarray):
            """Contour values that count their products with a stack of dual vectors."""
            count = 0

            def __matmul__(self, other):
                type(self).count += 1
                return np.asarray(self) @ other

        monkeypatch.setattr(measure, "ROW_BLOCK", row_block)
        fam = family_preset("geometric")
        on = [derivative_functional([0.0], (alpha,), [0.95], n=64) for alpha in (1, 2)]
        off = [dirac([0.3]), random_measure(fam.domain, k=4, seed=3)]
        sample = ContourSample(fam, space16, 64, [off[0], *on, off[1]])
        sample.__dict__["values"] = sample.values.view(Products)
        rng = np.random.default_rng(5)
        h = rng.standard_normal((10, 16)) + 1j * rng.standard_normal((10, 16))
        blocks = -(-64 * 16 // row_block)
        first = sample.dual_values(on[1], h)
        assert Products.count == blocks
        second = sample.dual_values(on[0], h)
        assert Products.count == blocks
        for phi, values in zip(on, (second, first)):
            alone = phi.apply_dual(ContourSample(fam, space16, 64), h)
            assert values.tobytes() == alone.tobytes()
            assert not values.flags.writeable
        for phi in off:
            sample.dual_values(phi, h)
        assert Products.count == blocks
        sample.dual_values(on[0], h[:3])
        assert Products.count == 2 * blocks
        assert all(np.ndim(value) == 1 for memo in sample._duals.values()
                   for value in memo.values())

    @pytest.mark.parametrize("row_block", [16, 5 * 16, 2 ** 20])
    def test_blocked_pairing_equals_an_unblocked_oracle(self, monkeypatch, row_block):
        # d = 2 on 16 atoms at 16 nodes: 256 contour rows in blocks of 1 row, of 5 rows
        # with a short last block, and all in one; every functional's values on a stack
        # equal one product of its node values with the stack, weighted by one matmul,
        # to roundoff
        monkeypatch.setattr(measure, "ROW_BLOCK", row_block)
        fam = family_from_json({"kind": "geometric",
                                "params": {"rates": [[0.5, 0.0], [0.4, 0.0]]},
                                "domain": {"center": [[0.0, 0.0]] * 2, "radius": [1.0] * 2}})
        space = space_preset("geometric-16")
        phis = [derivative_functional([0.0, 0.0], alpha, [0.95, 0.95], n=16)
                for alpha in ((1, 0), (2, 1))]
        phis += [dirac([0.3, -0.2j]), random_measure(fam.domain, k=8, seed=3)]
        sample = ContourSample(fam, space, 16, phis)
        h = np.stack(random_duals(space, 10, seed=4))
        for phi in phis:
            oracle = phi.weights @ (sample.node_values(phi) @ (h * space.weights).T)
            got = sample.dual_values(phi, h)
            assert np.max(np.abs(got - oracle)) <= 1e-14 * np.max(np.abs(oracle)), phi

    def test_sup_is_read_once_by_both_checks(self, space16):
        # telescoping's B and order_bound's M are one cached float, max |F| on the grid
        sample = ContourSample(family_preset("geometric"), space16, 64)
        assert sample.sup is sample.sup
        assert sample.sup == float(np.max(np.abs(sample.values)))
        # each atom's sup, which schwarz reads, is its column's max bit for bit
        assert sample.sups.tobytes() == np.max(np.abs(sample.values), axis=0).tobytes()
        assert telescoping_residual(sample).tol == 1e-12 * (1.0 + sample.sup)
        # the tail at degree 31 on the domain's 0.5 polydisc, s = 0.5 / CONTOUR_SHRINK of
        # the contour's radii: M s^32 / (1 - s)
        s = 0.5 / CONTOUR_SHRINK
        tail = sample.sup * s ** 32 / (1 - s)
        assert order_bound_check(sample).rhs == pytest.approx(tail, rel=1e-12)

    @pytest.mark.parametrize("row_block", [1, 10, 64 * 3])
    def test_blocked_sup_is_the_whole_sample_max(self, monkeypatch, row_block):
        # sup reads blocks of measure.ROW_BLOCK values (whole rows, at least one): of
        # 1 row, of 3 rows with the largest |F|, in row 63, alone in the last block,
        # and all 64 rows in one; each gives the whole sample's max, float for float,
        # and each atom's, though the first two pad their blocks with zeros to 8 rows
        fam = ExponentialFamily(np.exp(2j * np.pi / 64), unit_polydisc(1))
        space = FiniteMeasureSpace([0.2, 1.0, -0.5], np.ones(3))
        sample = ContourSample(fam, space, 64)
        mags = np.abs(sample.values)
        assert int(np.argmax(np.max(mags, axis=1))) == 63
        monkeypatch.setattr(measure, "ROW_BLOCK", row_block)
        assert sample.sup == float(np.max(mags))
        assert sample.sups.tobytes() == np.max(mags, axis=0).tobytes()

    @pytest.mark.parametrize("row_block", [1, 3 * 16, 5 * 16, 2 ** 20])
    def test_blocked_values_equal_one_evaluation(self, monkeypatch, space16, row_block):
        # the contour values are filled by blocks of measure.ROW_BLOCK values (whole
        # rows, at least one): of 1 row, of 3 and 5 rows with a short last block of the
        # 64, and all rows in one; each equals one eval on the whole grid, value for value
        # at every d
        fams = [family_preset(name) for name in preset_names()] + [
            family_from_json({"kind": "geometric", "params": {"rates": [[0.5, 0.0], [0.4, 0.0]]},
                              "domain": {"center": [[0.0, 0.0]] * 2, "radius": [1.0] * 2}}),
            family_from_json({"kind": "exponential", "params": {"scale": [1.0, 0.0]},
                              "domain": {"center": [[0.0, 0.0]] * 3, "radius": [1.0] * 3}})]
        assert len(fams) == 9
        monkeypatch.setattr(measure, "ROW_BLOCK", row_block)
        for fam in fams:
            n = {1: 64, 2: 8, 3: 4}[fam.d]
            sample = ContourSample(fam, space16, n)
            grid = torus_nodes(Polydisc(sample.center, sample.radii), n).grid()
            np.testing.assert_array_equal(sample.values,
                                          fam.eval(grid[:, None, :], space16.params),
                                          strict=True)
            assert not sample.values.flags.writeable

    def test_pole_inside_the_contour_keeps_nothing(self, monkeypatch):
        # the contour about -0.5 of radius 0.475 runs from |z| = 0.025 (row 0) to 0.975
        # (row 8 of 16); rate 1.5 at t = 1 leaves the analyticity region from |z| = 2/3
        # on, so blocks of two rows pass before one raises: the message is that of one
        # eval on the whole grid, and no values are kept
        fam = GeometricFamily([1.5], Polydisc([-0.5], [0.5]))
        space = FiniteMeasureSpace([0.0, 1.0], [0.5, 0.5])
        sample = ContourSample(fam, space, 16)
        grid = torus_nodes(Polydisc(sample.center, sample.radii), 16).grid()
        with pytest.raises(ValueError) as whole:
            fam.eval(grid[:, None, :], space.params)
        assert "analyticity region" in str(whole.value)
        monkeypatch.setattr(measure, "ROW_BLOCK", 2 * space.natoms)
        fam.eval(grid[:2, None, :], space.params)
        for _ in range(2):
            with pytest.raises(ValueError) as blocked:
                sample.values
            assert str(blocked.value) == str(whole.value)
            assert "values" not in vars(sample)

    def test_building_values_and_table_holds_no_second_sample(self):
        # d = 3 on uniform-256 at n = 32, a family whose sample holds its whole grid: the
        # values (k per node) and their degree-15 table (k / 8 per node) are filled block
        # by block, so building both peaks within one FFT block of them (0.77 blocks: a
        # block's transforms write only the kept frequencies of all axes but the first);
        # a full transform beside each block's kept half peaked 1.5 blocks over them, and
        # one evaluation and one whole-batch FFT at about 2.5k per node.  (A product
        # kind's table is the outer product of its axes' tables, and builds no values.)
        fam = UnfactoredGeometric([0.5, 0.4, 0.3], unit_polydisc(3))
        # a first build's one-time imports and caches are no sample arrays
        ContourSample(fam, space_preset("uniform-4"), 8).taylor_table(2)
        k, n = 256, 32
        sample = ContourSample(fam, space_preset(f"uniform-{k}"), n)
        tracemalloc.start()
        try:
            assert sample.taylor_table(2).shape == (3, 3, 3, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample._table.shape == (16, 16, 16, k)
        assert peak <= ((1 + 1 / 8) * k * n ** 3 + cauchy.FFT_BLOCK) * 16

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


#: the benchmark's d > 1 family documents: real rates, scales and centers
BENCH_DOCS = [
    {"kind": "geometric", "params": {"rates": [[0.5, 0.0], [0.4, 0.0]]},
     "domain": {"center": [[0.0, 0.0]] * 2, "radius": [1.0] * 2}, "label": "geometric-d2"},
    {"kind": "exponential", "params": {"scale": [1.0, 0.0]},
     "domain": {"center": [[0.0, 0.0]] * 2, "radius": [1.0] * 2}, "label": "exponential-d2"},
    {"kind": "exponential", "params": {"scale": [1.0, 0.0]},
     "domain": {"center": [[0.0, 0.0]] * 3, "radius": [1.0] * 3}, "label": "exponential-d3"},
]


def conjugate_symmetric_families():
    """Every real preset and the benchmark's family documents."""
    return ([family_preset(name) for name in preset_names() if name != "constant"]
            + [family_from_json(doc) for doc in BENCH_DOCS])


def real_polynomial(d):
    """A real polynomial family at d with dense coefficients up to degree 2 in each
    variable and 1 in t: conjugate-symmetric, never reflected, no product of its axes."""
    coeffs = np.random.default_rng(2).uniform(-0.5, 0.5, (3,) * d + (2,))
    return PolynomialFamily(coeffs.astype(complex), unit_polydisc(d), f"polynomial-d{d}")


def orbit_least(n, d, conjugate, reflect=False):
    """Each contour grid row's least flat index over its orbit, by brute force: the row's
    indices, when ``conjugate`` their negations mod n and when ``reflect`` their shifts by
    n/2 mod n."""
    digits = np.indices((n,) * d).reshape(d, -1)
    return np.min([np.ravel_multi_index((sign * digits + shift) % n, (n,) * d)
                   for sign in ((1, -1) if conjugate else (1,))
                   for shift in ((0, n // 2) if reflect else (0,))], axis=0)


def axis_key(axis):
    """What makes two axis families (:meth:`HoloFamily._axis_families`) share one sample:
    their parameters, domain center and radius."""
    params = np.concatenate([np.ravel(getattr(axis, name)) for name in axis.parameters])
    return params.tobytes(), complex(axis.domain.center[0]), float(axis.domain.radius[0])


def assert_orbit_fill(sample):
    """The sample's values against one evaluation of the whole grid, every row equal (a
    conjugated copy may differ in the sign of a zero) and, for a family filled from
    one-variable contours (:meth:`HoloFamily._axis_families`), bit for bit.  Returns the
    number of rows evaluated: the number of orbits, or for a product the sum of that over
    its distinct axes' contours."""
    n, d = sample.n, sample.fam.d
    grid = torus_nodes(Polydisc(sample.center, sample.radii), n).grid()
    direct = sample.fam.eval(grid[:, None, :], sample.space.params)
    assert np.array_equal(sample.values, direct), sample.fam.label
    axes = sample.fam._axis_families() if family._certified(sample.fam) else None
    if axes is not None:
        assert sample.values.tobytes() == direct.tobytes(), sample.fam.label
        distinct = {axis_key(a): a for a in axes}
        return sum(assert_orbit_fill(ContourSample(a, sample.space, n))
                   for a in distinct.values())
    conjugate, reflect = sample.symmetries(sample.center, sample.radii, n)
    return int(np.sum(orbit_least(n, d, conjugate, reflect) == np.arange(n ** d)))


class TestConjugateMirror:
    """A real family's contour sample evaluates one row per orbit and copies the rest."""

    @pytest.mark.parametrize("n", [4, 5, 7, 32, 33])
    def test_mirror_equals_direct_evaluation(self, space16, n):
        # at even and odd n, for every conjugate-symmetric family (a conjugated zero part
        # may carry the other sign)
        for fam in conjugate_symmetric_families():
            sample = ContourSample(fam, space16, n)
            assert sample.conjugate_symmetric, fam.label
            grid = torus_nodes(Polydisc(sample.center, sample.radii), n).grid()
            assert np.array_equal(sample.values, sample._evaluate(grid)), fam.label

    def test_overridden_evaluate_is_not_mirrored(self, space16):
        # the geometric preset plus 0.1i t z is holomorphic, with real rates, center and
        # atoms, but not conjugate-symmetric: its kind's certificate does not cover an
        # _evaluate of its own, so every row is evaluated.  Mirrored, the sample missed
        # direct evaluation by 0.19 at 16 nodes
        fam = ImaginaryTermGeometric()
        sample = ContourSample(fam, space16, 16)
        assert not sample.conjugate_symmetric
        grid = torus_nodes(Polydisc(sample.center, sample.radii), 16).grid()
        assert np.array_equal(sample.values, fam.eval(grid[:, None, :], space16.params))

    def test_mirror_holds_no_second_sample(self):
        # a real polynomial at d = 2, no product of its axes, 64 nodes, 256 atoms: a 16
        # MiB sample evaluated in blocks of measure.ROW_BLOCK values, whose 31 conjugated
        # slabs of 64 x 256 values (7.75 MiB) are written in place from one gathered block
        # at a time: the peak is the sample and one block with its arguments (d + 2
        # values per value, 4 MiB), below a copy of the conjugated slabs
        fam, space = real_polynomial(2), space_preset("uniform-256")
        sample = ContourSample(fam, space, 64)
        assert sample.symmetries(sample.center, sample.radii, 64) == (True, False)
        assert fam._axis_families() is None
        tracemalloc.start()
        try:
            values = sample.values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = (fam.d + 2) * measure.ROW_BLOCK * 16
        assert peak <= values.nbytes + block < values.nbytes + 31 * 64 * 256 * 16


class ImaginaryTermGeometric(GeometricFamily):
    """The geometric preset plus 0.1i t z: holomorphic, but f(conj z, t) is not
    conj f(z, t) for real t."""

    def __init__(self):
        base = family_preset("geometric")
        super().__init__(base.rates, base.domain, "geometric+0.1i t z")

    def _evaluate(self, z, t):
        return super()._evaluate(z, t) + 0.1j * t * z[..., 0]


class OneSidedGeometric(GeometricFamily):
    """Equal rates plus t z_1, a term in one variable only: no product of its axes, and
    its ``_evaluate`` is not its kind's own, so it is never permuted."""

    def __init__(self):
        super().__init__([0.5, 0.5], unit_polydisc(2), "geometric-d2+z1")

    def _evaluate(self, z, t):
        return super()._evaluate(z, t) + t * z[..., 0]


def orbit_families():
    """The conjugate-symmetric families, geometric ones at equal rates (one contour of
    their one axis fills them), a constant one and exponential ones whose axes differ
    in radius or center."""
    skew = 0.6363961030678927 * (1 + 1j)  # 0.9 e^(i pi / 4)
    d2, d3 = unit_polydisc(2), unit_polydisc(3)
    return conjugate_symmetric_families() + [
        GeometricFamily([0.5, 0.5], d2, "geometric-d2-equal"),
        GeometricFamily([0.5] * 3, d3, "geometric-d3-equal"),
        GeometricFamily([skew, skew], d2, "geometric-d2-skew"),
        ConstantFamily(2 + 1j, d2, "constant-d2"),
        OneSidedGeometric(),
        ExponentialFamily(1.0, Polydisc([0] * 3, [1, 0.5, 1]), "exponential-radii"),
        ExponentialFamily(1.0, Polydisc([0, 0.1], [1, 1]), "exponential-centers")]


class TestOrbitFill:
    """The contour sample evaluates one row per orbit of conjugation and the reflection,
    or per orbit of each distinct axis's contour for a product kind."""

    @pytest.mark.parametrize("n", [4, 5, 7, 8, 32, 33])
    def test_rows_equal_direct_evaluation(self, space16, monkeypatch, n):
        # every family evaluates one row per orbit, or a product kind one row per orbit
        # of each distinct axis's contour, each through HoloFamily.eval, and its values
        # match direct evaluation (assert_orbit_fill)
        evaluated = []
        evaluate = family.HoloFamily.eval

        def counting(self, z, t):
            out = evaluate(self, z, t)
            evaluated.append(np.size(out))
            return out

        monkeypatch.setattr(family.HoloFamily, "eval", counting)
        for fam in orbit_families():
            sample = ContourSample(fam, space16, n)
            evaluated.clear()
            sample.values
            values = sum(evaluated)
            assert values == 16 * assert_orbit_fill(sample), fam.label

    # Burnside: the orbit count is the mean over the moves of the rows each fixes.  On
    # uniform-4, whose atoms are symmetric, the real families are conjugated and
    # reflected, 4 moves s on each index: the identity fixes n indices, the negation 2
    # (0 and n/2), the shift by n/2 none and the negated shift 2 where 4 divides n (n/4
    # and 3n/4).  The product kinds at d >= 2 evaluate the one-variable contour of each
    # distinct axis: the geometric rates differ here, twice the d = 1 count, and the
    # exponential axes are all equal, one d = 1 count whatever d.
    @pytest.mark.parametrize("doc, n, rows", [
        (BENCH_DOCS[2], 32, 9),   # exponential-d3, one axis contour: (32 + 2 + 0 + 2) / 4
        (BENCH_DOCS[1], 64, 17),  # exponential-d2, one axis contour: (64 + 2 + 0 + 2) / 4
        (BENCH_DOCS[0], 64, 34),  # geometric-d2, unequal rates: 2 * (64 + 2 + 0 + 2) / 4
        (BENCH_DOCS[0], 32, 18),  # 2 * (32 + 2 + 0 + 2) / 4
        (family_preset("geometric").to_json(), 64, 17),  # real, d = 1: (64 + 2 + 0 + 2) / 4
        (family_preset("constant").to_json(), 64, 32),   # 2 + 1j, reflected only: 64 / 2
    ], ids=["exponential-d3-n32", "exponential-d2-n64", "geometric-d2-n64",
            "geometric-d2-n32", "geometric-d1-n64", "constant-d1-n64"])
    def test_evaluated_rows_are_the_orbit_count(self, monkeypatch, doc, n, rows):
        fam = family_from_json(doc)
        sample = ContourSample(fam, space_preset("uniform-4"), n)
        evaluated = []
        evaluate = family.HoloFamily.eval

        def counting(self, z, t):
            evaluated.append(np.size(z) // self.d)
            return evaluate(self, z, t)

        monkeypatch.setattr(family.HoloFamily, "eval", counting)
        sample.values
        assert sum(evaluated) == rows

    def test_representative_outside_the_domain_raises(self, monkeypatch):
        # equal rates 1.5 about the center (-0.5, -0.5): the contour of radius 0.475
        # reaches |z_j| = 0.975, past the pole region |z_j| >= 2/3 at t = 1; only the one
        # axis's contour is evaluated, by orbits, and one of its representatives raises,
        # with the message of one eval on the whole grid, and no values are kept
        fam = GeometricFamily([1.5, 1.5], Polydisc([-0.5, -0.5], [0.5, 0.5]))
        space = FiniteMeasureSpace([0.0, 1.0], [0.5, 0.5])
        sample = ContourSample(fam, space, 16)
        assert sample.conjugate_symmetric
        grid = torus_nodes(Polydisc(sample.center, sample.radii), 16).grid()
        with pytest.raises(ValueError) as whole:
            fam.eval(grid[:, None, :], space.params)
        monkeypatch.setattr(measure, "ROW_BLOCK", 2 * space.natoms)
        for _ in range(2):
            with pytest.raises(ValueError) as blocked:
                sample.values
            assert str(blocked.value) == str(whole.value)
            assert "values" not in vars(sample)


def evaluated_rows(monkeypatch, sample, n):
    """The flat indices of the contour grid rows that building the sample's values
    evaluates, each once, in the order evaluated."""
    grid = torus_nodes(Polydisc(sample.center, sample.radii), n).grid()
    index = {row.tobytes(): i for i, row in enumerate(grid)}
    rows = []
    evaluate = family.HoloFamily.eval

    def recording(self, z, t):
        rows.extend(index[point.tobytes()] for point in z.reshape(-1, self.d))
        return evaluate(self, z, t)

    monkeypatch.setattr(family.HoloFamily, "eval", recording)
    sample.values
    monkeypatch.setattr(family.HoloFamily, "eval", evaluate)
    assert len(set(rows)) == len(rows)
    return rows


class TestSlabFill:
    """The slab fill evaluates exactly the rows that are their own least image under the
    moves (``orbit_least``), the leading ``_ring_count`` rows of a one-variable ring, and
    copies the rest."""

    @staticmethod
    def one_variable(conjugate, reflect):
        """A d = 1 family on uniform-16 whose symmetries are (conjugate, reflect) at even
        n: the real geometric preset, the real polynomial preset (no reflection), a
        complex rate (no conjugation) and a complex rate about 0.1 (neither)."""
        return {(True, True): family_preset("geometric"),
                (True, False): family_preset("polynomial"),
                (False, True): GeometricFamily([0.4 + 0.2j], unit_polydisc(1)),
                (False, False): GeometricFamily([0.4 + 0.2j], Polydisc([0.1], [1.0]))
                }[conjugate, reflect]

    @pytest.mark.parametrize("n", range(4, 36))
    def test_ring_count(self, n):
        assert family._ring_count(n, False, False) == n
        assert family._ring_count(n, True, False) == n // 2 + 1
        if n % 2 == 0:
            assert family._ring_count(n, False, True) == n // 2
            assert family._ring_count(n, True, True) == n // 4 + 1
            for conjugate in (False, True):  # Burnside: the number of least images
                count = int(np.sum(orbit_least(n, 1, conjugate, True) == np.arange(n)))
                assert family._ring_count(n, conjugate, True) == count

    @pytest.mark.parametrize("n", range(4, 36))
    def test_one_variable_ring(self, monkeypatch, space16, n):
        # every (conjugate, reflect) pair that the ring admits, reflect at even n only;
        # the evaluated rows are the leading _ring_count ones, in order
        for conjugate, reflect in [(c, r) for c in (False, True)
                                   for r in (False, True)[:1 + (n % 2 == 0)]]:
            sample = ContourSample(self.one_variable(conjugate, reflect), space16, n)
            assert sample.symmetries(sample.center, sample.radii, n) == (conjugate, reflect)
            rows = evaluated_rows(monkeypatch, sample, n)
            least = orbit_least(n, 1, conjugate, reflect)
            assert rows == np.flatnonzero(least == np.arange(n)).tolist()
            assert rows == list(range(family._ring_count(n, conjugate, reflect)))
            assert_orbit_fill(sample)

    @pytest.mark.parametrize("n", range(4, 36))
    @pytest.mark.parametrize("d", [2, 3])
    def test_conjugated_slabs(self, monkeypatch, n, d):
        # a real polynomial at d = 2 and 3: the self-conjugate slabs 0 and n/2 are filled
        # one axis down, so the evaluated rows are the least images, no more, and every
        # other row is the conjugate of its least image's bit for bit.  numpy's complex
        # product rounds by an element's place in the call, so the polynomial kinds'
        # values match one evaluation of the whole grid to roundoff only
        fam, space = real_polynomial(d), space_preset("uniform-4")
        sample = ContourSample(fam, space, n)
        assert sample.symmetries(sample.center, sample.radii, n) == (True, False)
        rows = evaluated_rows(monkeypatch, sample, n)
        least = orbit_least(n, d, True)
        own = least == np.arange(n ** d)
        assert sorted(rows) == np.flatnonzero(own).tolist()
        values = sample.values
        assert values[~own].tobytes() == values[least[~own]].conj().tobytes()
        grid = torus_nodes(Polydisc(sample.center, sample.radii), n).grid()
        direct = fam.eval(grid[:, None, :], space.params)
        np.testing.assert_allclose(values, direct, rtol=1e-14, atol=1e-15)


class TestProductFill:
    """A certified geometric, exponential or constant family at d >= 2 fills each torus
    grid from one one-variable contour sample per distinct axis, multiplied in the
    arithmetic of the kernel its _evaluate uses."""

    RATES = {"real": [0.5, 0.4, 0.3], "complex": [0.4 + 0.2j, 0.3 - 0.1j, 0.2j],
             "equal-complex": [0.3 + 0.3j] * 3}

    @pytest.mark.parametrize("n", [7, 16])
    @pytest.mark.parametrize("center", [0.0, 0.1 - 0.05j], ids=["centre-0", "complex-centre"])
    @pytest.mark.parametrize("rates", ["real", "complex", "equal-complex"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_values_equal_direct_evaluation(self, space16, d, rates, center, n):
        # bit for bit at d = 2 and 3, real and complex rates, about 0 (reflected where n
        # is even) and about a complex centre (neither conjugated nor reflected)
        fam = GeometricFamily(self.RATES[rates][:d], Polydisc([center] * d, [1.0] * d))
        sample = ContourSample(fam, space16, n)
        grid = torus_nodes(Polydisc(sample.center, sample.radii), n).grid()
        direct = fam._evaluate(grid[:, None, :], space16.params)
        assert sample.values.tobytes() == direct.tobytes()

    def test_floor_contour(self, space16):
        # at --nodes 8 order_bound, schwarz and telescoping read the 16-node floor contour,
        # filled the same way
        fam = family_from_json(BENCH_DOCS[0])
        floor = ContourSample(fam, space16, 8).floor
        grid = torus_nodes(Polydisc(floor.center, floor.radii), 16).grid()
        assert floor.n == 16
        assert floor.values.tobytes() == fam._evaluate(grid[:, None, :], space16.params).tobytes()

    def test_off_centre_derivative_functional(self, monkeypatch, space16):
        # nodes about (0.2, -0.1i): the first axis's contour, real rate and centre, is
        # conjugated, (9 + 1) / 2 = 5 rows; the second's, complex, all 9
        fam = GeometricFamily([0.5, 0.4 + 0.1j], unit_polydisc(2))
        sample = ContourSample(fam, space16, 16)
        phi = derivative_functional([0.2, -0.1j], (1, 0), [0.5, 0.6], n=9)
        assert counted_rows(monkeypatch, lambda: sample.node_values(phi)) == 5 + 9
        direct = fam._evaluate(phi.nodes[:, None, :], space16.params)
        assert sample.node_values(phi).tobytes() == direct.tobytes()

    @pytest.mark.parametrize("d, radii, rows", [
        (2, [1.0, 1.0], 5),      # one contour: (16 + 2 + 0 + 2) / 4
        (3, [1.0] * 3, 5),
        (2, [1.0, 0.5], 2 * 5),  # equal rates, but radii that differ: two contours
    ])
    def test_equal_rates_evaluate_one_axis_sample(self, monkeypatch, space16, d, radii, rows):
        built = []
        init = ContourSample.__init__

        def tracking(sample, fam, *args, **kwargs):
            built.append(fam.d)
            init(sample, fam, *args, **kwargs)

        fam = GeometricFamily([0.5] * d, Polydisc([0.0] * d, radii))
        sample = ContourSample(fam, space16, 16)
        monkeypatch.setattr(ContourSample, "__init__", tracking)
        assert counted_rows(monkeypatch, sample) == rows
        assert built == [1] * (rows // 5)
        assert assert_orbit_fill(sample) == rows

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_product_is_np_prod(self, d):
        # the shared kernel equals np.prod over the stacked factors bit for bit, signed
        # zeros and underflow included
        rng = np.random.default_rng(d)
        parts = (rng.choice([0.0, -0.0, 1.5, -0.3, 1e-200, -3e100], (2, 4096, d))
                 * rng.uniform(0.5, 2.0, (2, 4096, d)))
        factors = np.empty((4096, d), dtype=complex)
        factors.real, factors.imag = parts
        columns = [factors[:, j] for j in range(d)]
        expected = np.prod(np.stack(columns, -1), -1)
        assert family._product(columns).tobytes() == expected.tobytes()
        out = np.empty(4096, dtype=complex)
        assert family._product(iter(columns), out=out) is out
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("fam", [ContourVanishingGeometric(1e-3), OneSidedGeometric()],
                             ids=["bump-witness", "one-sided"])
    def test_overridden_evaluate_evaluates_the_whole_grid(self, monkeypatch, space16, fam):
        # a geometric subclass with an _evaluate of its own is no product of its axes
        sample = ContourSample(fam, space16, 8)
        assert counted_rows(monkeypatch, sample) == 8 ** 2
        grid = torus_nodes(Polydisc(sample.center, sample.radii), 8).grid()
        assert sample.values.tobytes() == fam.eval(grid[:, None, :], space16.params).tobytes()

    def test_axis_families_are_built_only_to_fill_a_grid(self, monkeypatch, space16):
        # neither loading the family nor building its sample builds the axes
        calls = []
        axis_families = GeometricFamily._axis_families

        def recording(fam):
            calls.append(fam)
            return axis_families(fam)

        monkeypatch.setattr(GeometricFamily, "_axis_families", recording)
        fam = family_from_json(BENCH_DOCS[0])
        sample = ContourSample(fam, space16, 8)
        assert calls == []
        sample.values
        assert [f for f in calls if f.d > 1] == [fam]  # each axis's own sample asks too


@st.composite
def product_families(draw):
    """(family, space, n, off-centre derivative functional): a geometric, exponential or
    constant family at d = 2 or 3 with complex parameters, a real or complex centre and
    unequal radii, on symmetric atoms (odd k has the atom 0) or complex ones, with n in
    4..33 contour nodes and a functional of 5..17 nodes about a point off the centre."""
    kind = draw(st.sampled_from(["geometric", "exponential", "constant"]))
    d = draw(st.integers(2, 3))
    parts = st.floats(-1.0, 1.0)
    number = st.builds(complex, parts, parts)
    radii = draw(st.permutations([draw(st.floats(0.5, 0.7)) + 0.15 * j for j in range(d)]))
    small = st.builds(complex, st.floats(-0.1, 0.1), st.floats(-0.1, 0.1))
    if draw(st.booleans()):
        small = small.map(lambda c: complex(c.real))
    center = draw(st.lists(small, min_size=d, max_size=d))
    domain = Polydisc(center, radii)
    if kind == "geometric":  # |rate t z| <= 0.45 (0.1 + 1) on atoms |t| <= 1
        rates = draw(st.lists(number.map(lambda r: 0.45 * r / max(1.0, abs(r))),
                              min_size=d, max_size=d))
        fam = GeometricFamily(rates, domain)
    elif kind == "exponential":
        fam = ExponentialFamily(2 * draw(number), domain)
    else:
        fam = ConstantFamily(draw(number), domain)
    space = draw(st.sampled_from([
        space_preset("uniform-4"), space_preset("uniform-15"),
        FiniteMeasureSpace([0.5, -0.5j, 0.0, 0.25 + 0.5j, -0.0 - 1.0j], np.ones(5) / 5)]))
    offset = draw(st.lists(st.floats(-0.1, 0.1), min_size=d, max_size=d))
    phi = derivative_functional(np.add(center, np.multiply(offset, radii)),
                                (1,) + (0,) * (d - 1), 0.4 * np.asarray(radii),
                                n=draw(st.integers(5, 17)))
    return fam, space, draw(st.integers(4, 33)), phi


class TestProductProperty:
    """The product fill equals direct evaluation bit for bit, sign bits included."""

    @given(drawn=product_families())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_fill_equals_direct_evaluation(self, drawn):
        # the contour and an off-centre derivative functional's nodes, each the outer
        # product of its distinct axes' contours, against one _evaluate of the grid
        fam, space, n, phi = drawn
        sample = ContourSample(fam, space, n)
        assert family._certified(fam) and fam._axis_families() is not None
        grid = torus_nodes(Polydisc(sample.center, sample.radii), n).grid()
        assert sample.values.tobytes() == fam._evaluate(grid[:, None, :], space.params).tobytes()
        direct = fam._evaluate(phi.nodes[:, None, :], space.params)
        assert sample.node_values(phi).tobytes() == direct.tobytes()

    @pytest.mark.parametrize("space", ["uniform-15", "geometric-64"])
    def test_d1_exponential_is_the_exponential_of_the_sum(self, space):
        # at d = 1 the exponential kind keeps exp(scale t z), no product: its values on
        # the contour and the region grid are what they were before the product fill
        fam, space = ExponentialFamily(0.7 + 0.4j, unit_polydisc(1)), space_preset(space)
        sample = ContourSample(fam, space, 64)
        assert fam._axis_families() is None
        for points in (torus_nodes(Polydisc(sample.center, sample.radii), 64).grid(),
                       torus_nodes(fam.domain.shrunk(0.9), 32).grid()):
            z = points[:, None, :]
            expected = np.exp(fam.scale * space.params * z.sum(axis=-1))
            assert fam._evaluate(z, space.params).tobytes() == expected.tobytes()
        grid = torus_nodes(Polydisc(sample.center, sample.radii), 64).grid()
        assert np.array_equal(sample.values, np.exp(fam.scale * space.params * grid))


class TestFactoredSample:
    """A product kind's contour sample keeps its axis samples, and every reader takes what
    it needs from them, within ``BOUND`` of the same reduction of the full grid relative
    to the scale of its roundoff: for a Taylor coefficient c_m each atom's grid max over
    r^m, for a sup the sup, and for a node sum or a pairing the sum of the magnitudes of
    its terms.  The largest seen over the examples is 1.4e-14, an on-contour derivative
    functional's slice vector of a constant family, which is 0 up to roundoff."""

    BOUND = 1e-13

    @given(drawn=product_families(), data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_readers_match_the_full_grid(self, drawn, data):
        fam, space, n, _ = drawn
        d, k = fam.d, space.natoms
        alpha = tuple(data.draw(st.integers(0, min(2, (n - 3) // 2))) for _ in range(d))
        phi = derivative_functional(fam.domain.center, alpha,
                                    fam.domain.radius * CONTOUR_SHRINK, n=n)
        duals = {p: np.stack(random_duals(space, 3, seed))
                 for seed, p in enumerate((1.0, 2.0, np.inf))}
        sample = ContourSample(fam, space, n, [phi], duals=duals)
        assert sample.on_contour(phi) and len(sample._factors) == d
        degree = max(n // 2 - 1, 2)
        table = sample.taylor_table(degree)
        got = {"table": table.columns(0, k), "sups": sample.sups,
               "slices": sample.slice_vector(phi),
               "pairings": np.stack([sample.dual_values(phi, h) for h in duals.values()]),
               "row sums": np.array(sample.grid_sups(list(duals))),
               "composed": sample.composed(np.ones(k))}
        assert "values" not in vars(sample)
        # the full grid, bit for bit one evaluation of it (TestProductProperty)
        values = ContourSample(fam, space, n).values
        mags, hw = np.abs(values), [(h * space.weights).T for h in duals.values()]
        full = cauchy._fft_coefficients(values, d, n, sample.radii, degree)
        sups = np.array(space.max_lp_norms(values, list(duals)))
        oracles = {
            "table": (full, mags.max(axis=0) / reduce(np.multiply.outer, [
                r ** np.arange(degree + 1) for r in sample.radii])[..., None]),
            "sups": (mags.max(axis=0), mags.max(axis=0)),
            "slices": (phi.weights @ values, np.abs(phi.weights) @ mags),
            "pairings": (np.stack([phi.weights @ (values @ w) for w in hw]),
                         np.stack([np.abs(phi.weights) @ (mags @ np.abs(w)) for w in hw])),
            "row sums": (sups, sups),
            "composed": (values @ space.weights, mags @ space.weights)}
        for name, (oracle, scale) in oracles.items():
            assert np.all(np.abs(got[name] - oracle) <= self.BOUND * scale), name

    @pytest.mark.parametrize("doc", [BENCH_DOCS[0], BENCH_DOCS[2]],
                             ids=["geometric-d2", "exponential-d3"])
    def test_verify_builds_no_contour_values(self, monkeypatch, tmp_path, doc):
        # no contour sample of a run, the floor's and the axes' own included, builds the
        # n^d x k grid of a product kind: every reader reads the axis samples
        samples = []
        init = ContourSample.__init__

        def tracking(sample, *args, **kwargs):
            init(sample, *args, **kwargs)
            samples.append(sample)

        monkeypatch.setattr(ContourSample, "__init__", tracking)
        (tmp_path / "family.json").write_text(json.dumps(doc))
        for nodes in ("8", "32"):
            assert main(["verify", "--family-file", str(tmp_path / "family.json"),
                         "--space", "uniform-16", "--nodes", nodes,
                         "--output", str(tmp_path / "report.jsonl")]) in (0, 1)
        assert {sample.n for sample in samples} == {8, 16, 32}
        assert not [sample for sample in samples if "values" in vars(sample)]

    @given(drawn=product_families(), data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_table_entries_and_columns_equal_the_outer_table(self, drawn, data):
        # the table kept as its axis tables gives each entry and each block of atoms'
        # columns with the bits of the outer product of the axis tables, the table the
        # sample once kept whole
        fam, space, n, _ = drawn
        sample = ContourSample(fam, space, n)
        table = sample.taylor_table(max(n // 2 - 1, 2))
        assert isinstance(table, family.FactoredTable) and len(table.axes) == fam.d
        outer = family._outer(table.axes).reshape(table.shape)
        for alpha in data.draw(st.lists(st.tuples(*[st.integers(0, len(axis) - 1)
                                                    for axis in table.axes]), max_size=12)):
            assert table[alpha].tobytes() == outer[alpha].tobytes()
        start = data.draw(st.integers(0, space.natoms - 1))
        stop = data.draw(st.integers(start + 1, space.natoms))
        assert table.columns(start, stop).tobytes() == outer[..., start:stop].tobytes()
        assert "values" not in vars(sample)

    @given(drawn=product_families())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_off_centre_readers_match_its_node_values(self, drawn):
        # an off-centre derivative functional keeps its nodes' axis samples: its slice
        # vector, its values on each stack and its nodes' norms come from them, within
        # BOUND of its node values' roundoff scale, the norms bit for bit, and none of
        # them builds its node values
        fam, space, n, phi = drawn
        duals = {p: np.stack(random_duals(space, 3, seed))
                 for seed, p in enumerate((1.0, 2.0, np.inf))}
        sample = ContourSample(fam, space, n, [phi], duals=duals)
        assert not sample.on_contour(phi) and sample._node_factors(phi) is not None
        got = {"slices": sample.slice_vector(phi),
               "pairings": np.stack([sample.dual_values(phi, h) for h in duals.values()])}
        sups = sample.grid_sups(list(duals), phi)
        assert phi not in sample._node_values and "values" not in vars(sample)
        values = sample.node_values(phi)
        mags, hw = np.abs(values), [(h * space.weights).T for h in duals.values()]
        assert sups == space.max_lp_norms(values, list(duals))
        oracles = {
            "slices": (phi.weights @ values, np.abs(phi.weights) @ mags),
            "pairings": (np.stack([phi.weights @ (values @ w) for w in hw]),
                         np.stack([np.abs(phi.weights) @ (mags @ np.abs(w)) for w in hw]))}
        for name, (oracle, scale) in oracles.items():
            assert np.all(np.abs(got[name] - oracle) <= self.BOUND * scale), name



def shuffled_space(k=15, seed=4):
    """A JSON space of k atoms symmetric about 0 bit for bit, in shuffled order, with
    distinct weights."""
    rng = np.random.default_rng(seed)
    params = space_preset(f"uniform-{k}").params.real[rng.permutation(k)]
    return space_from_json({"atoms": [{"param": [t, 0.0], "weight": w}
                                      for t, w in zip(params.tolist(), rng.random(k))]})


def reflective_families():
    """The reflective kinds at d = 1 and 2: real and complex geometric rates, exponential,
    and the constant 2 + 1j, which is not real."""
    d2 = unit_polydisc(2)
    return [family_preset("geometric"), family_preset("exponential"), family_preset("constant"),
            GeometricFamily([0.4 + 0.2j], unit_polydisc(1), "geometric-complex-rate"),
            family_from_json(BENCH_DOCS[0]), family_from_json(BENCH_DOCS[1]),
            ConstantFamily(2 + 1j, d2, "constant-d2"),
            GeometricFamily([0.4 + 0.2j, 0.3 - 0.1j], d2, "geometric-d2-complex-rates")]


def counted_rows(monkeypatch, read):
    """The points that ``read()`` evaluates, or that building a sample's values does."""
    evaluated = []
    evaluate = family.HoloFamily.eval

    def counting(self, z, t):
        evaluated.append(np.size(z) // self.d)
        return evaluate(self, z, t)

    monkeypatch.setattr(family.HoloFamily, "eval", counting)
    read() if callable(read) else read.values
    monkeypatch.setattr(family.HoloFamily, "eval", evaluate)
    return sum(evaluated)


class TestReflection:
    """f(-z, t) = f(z, -t): a reflective family about the center 0 on symmetric atoms
    copies the row at -w from the row at w with its atoms mirrored."""

    @pytest.mark.parametrize("n", [8, 34])
    @pytest.mark.parametrize("space", ["uniform-16", "uniform-15", "shuffled"])
    def test_copies_equal_direct_evaluation(self, monkeypatch, n, space):
        # bit for bit at d <= 2, at n = 8 and at n = 34, where 4 does not divide n, on an
        # even and an odd k (whose atom t = 0 is its own mirror) and on a JSON space whose
        # symmetric atoms come in shuffled order; one row is evaluated per orbit
        space = shuffled_space() if space == "shuffled" else space_preset(space)
        assert space.mirror is not None
        assert np.array_equal(space.params[space.mirror], -space.params)
        assert np.array_equal(space.mirror[space.mirror], np.arange(space.natoms))
        for fam in reflective_families():
            sample = ContourSample(fam, space, n)
            assert sample.reflective, fam.label
            assert sample.conjugate_symmetric == (fam.label in ("geometric", "exponential",
                                                                "geometric-d2",
                                                                "exponential-d2"))
            rows = counted_rows(monkeypatch, sample)
            grid = torus_nodes(Polydisc(sample.center, sample.radii), n).grid()
            assert np.array_equal(sample.values, fam.eval(grid[:, None, :], space.params)), \
                fam.label
            assert rows == assert_orbit_fill(sample), fam.label

    def test_complex_rate_is_reflected_not_conjugated(self, monkeypatch, space16):
        # a complex rate needs neither real atoms nor real parameters: 32 of 64 rows
        fam = GeometricFamily([0.4 + 0.2j], unit_polydisc(1))
        sample = ContourSample(fam, space16, 64)
        assert sample.reflective and not sample.conjugate_symmetric
        assert counted_rows(monkeypatch, sample) == 32

    @staticmethod
    def off_by_one_ulp():
        params = space_preset("uniform-16").params.real.copy()
        params[3] = np.nextafter(params[3], 0.0)
        return FiniteMeasureSpace(params, np.full(16, 1 / 16))

    @pytest.mark.parametrize("case, n, rows", [
        ("odd-n", 33, 17),         # conjugation alone: (33 + 1) / 2
        ("centre", 8, 5),          # center 0.1: conjugation alone, (8 + 2) / 2
        ("ulp", 8, 5),             # atom 3 one ulp off the mirror of atom 12
        ("linspace", 8, 5),        # np.linspace(-1, 1, 16), off the symmetry by 1.1e-16
        ("polynomial", 8, 5),      # t z^2: f(-z, t) = f(z, t), not f(z, -t)
        ("conjugate-witness", 8, 8),
        ("bump-witness", 8, 64),
        ("sqrt-witness", 8, 8),
    ])
    def test_not_reflected(self, monkeypatch, case, n, rows):
        # an odd n, a nonzero center, atoms that are symmetric only up to an ulp, a kind
        # that does not declare the reflection and any subclass with an _evaluate of its
        # own evaluate the rows they did without it
        space = {"ulp": self.off_by_one_ulp(),
                 "linspace": FiniteMeasureSpace(np.linspace(-1.0, 1.0, 16), np.full(16, 1 / 16))
                 }.get(case, space_preset("uniform-16"))
        fam = {"centre": GeometricFamily([0.5], Polydisc([0.1], [1.0])),
               "polynomial": family_preset("polynomial"),
               "conjugate-witness": ConjugatePerturbedGeometric(1e-3),
               "bump-witness": ContourVanishingGeometric(1e-3),
               "sqrt-witness": SqrtPerturbedGeometric(1e-3)}.get(case, family_preset("geometric"))
        sample = ContourSample(fam, space, n)
        assert not sample.symmetries(sample.center, sample.radii, n)[1]
        assert sample.reflective == (case == "odd-n")
        assert counted_rows(monkeypatch, sample) == rows == assert_orbit_fill(sample)

    def test_off_derivative_family_is_reflected(self, monkeypatch, space16):
        # OffDerivativeFamily overrides only _derivative, so its values are the kind's,
        # filled from each axis's reflected contour
        sample = ContourSample(OffDerivativeFamily([0.5, 0.4], 1e-3), space16, 8)
        assert sample.reflective and sample.conjugate_symmetric
        assert counted_rows(monkeypatch, sample) == 2 * (8 + 2 + 0 + 2) // 4

    @pytest.mark.parametrize("n", [8, 34])
    def test_reflection_is_asked_only_at_d1(self, monkeypatch, space16, n):
        # a reflective geometric family at d = 2 that is no product of its axes: its
        # kind's _evaluate certifies both moves, but only conjugation is asked, and the
        # sample equals evaluation of the whole grid
        fam = UnfactoredGeometric([0.5, 0.4], unit_polydisc(2))
        sample = ContourSample(fam, space16, n)
        assert family._certified(fam) and fam._axis_families() is None
        assert sample.reflective and sample.conjugate_symmetric
        assert sample.symmetries(sample.center, sample.radii, n) == (True, False)
        conjugated = int(np.sum(orbit_least(n, 2, True) == np.arange(n ** 2)))
        assert counted_rows(monkeypatch, sample) == conjugated == assert_orbit_fill(sample)

    def test_mirror_is_computed_on_first_read(self):
        # the space's mirror is not computed when it is built, then kept
        space = space_preset("uniform-16")
        assert "mirror" not in vars(space)
        assert space.mirror is space.mirror
        assert space.mirror.tolist() == list(range(15, -1, -1))

    def test_repeated_and_complex_atoms(self, monkeypatch):
        # repeated atoms pair by rank, so the mirror is its own inverse, and complex atoms
        # pair with their negations; the copies still equal direct evaluation
        params = [0.5, -0.5j, 0.5, 0.0, 0.5j, -0.5, 0.0, -0.5, 0.25 + 0.5j, -0.25 - 0.5j]
        space = FiniteMeasureSpace(params, np.arange(1, 11) / 55)
        assert np.array_equal(space.params[space.mirror], -space.params)
        assert np.array_equal(space.mirror[space.mirror], np.arange(10))
        fam = family_preset("geometric")
        sample = ContourSample(fam, space, 16)
        assert sample.reflective and not sample.conjugate_symmetric
        assert counted_rows(monkeypatch, sample) == 8
        grid = torus_nodes(Polydisc(sample.center, sample.radii), 16).grid()
        assert np.array_equal(sample.values, fam.eval(grid[:, None, :], space.params))
        assert FiniteMeasureSpace([0.5, -0.5, 0.25], np.ones(3)).mirror is None

    def test_off_centre_derivative_functional_reads_orbits(self, monkeypatch, space16):
        # a derivative functional about 0.5 (real, not 0) is conjugated but not reflected:
        # 33 of its 64 nodes; about 0 its 16 nodes are 5 orbits of both moves, and its
        # values equal direct evaluation bit for bit
        sample = ContourSample(family_preset("geometric"), space16, 64)
        for phi, rows in ((derivative_functional([0.5], (1,), [0.475], n=64), 33),
                          (derivative_functional([0.0], (1,), [0.95], n=16), 5)):
            assert counted_rows(monkeypatch, lambda: sample.node_values(phi)) == rows
            assert np.array_equal(sample.node_values(phi),
                                  sample.fam.eval(phi.nodes[:, None, :], space16.params))


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


#: a family of each kind with a coefficient tensor, at d = 2 with non-real entries
TENSOR_FAMILIES = [
    PolynomialFamily([[[1.0, 0.5j], [2 - 1j, 0.0]], [[0.25, 0.0], [0.0, 1j]]],
                     unit_polydisc(2)),
    SeparableFamily([[1.0, 0.5 - 0.5j], [0.25j, 0.0]], [1.0, 0.5j], unit_polydisc(2)),
    TabulatedTaylorFamily([[[0.3, 0.1j]], [[0.7 - 0.2j, 0.0]]], unit_polydisc(2)),
]


def rewrite_entries(value, form):
    """Nested ``[re, im]`` pairs with each pair written as ``form`` of its complex number."""
    if isinstance(value[0], list):
        return [rewrite_entries(entry, form) for entry in value]
    return form(complex(*value))


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

    @pytest.mark.parametrize("doc", BENCH_DOCS, ids=lambda doc: doc["label"])
    def test_bench_documents_round_trip(self, doc):
        # the benchmark writes each document after this check, byte for byte
        assert json.dumps(family_from_json(json.dumps(doc)).to_json()) == json.dumps(doc)

    @pytest.mark.parametrize("fam", TENSOR_FAMILIES, ids=lambda fam: fam.kind)
    @pytest.mark.parametrize("form", [str, lambda c: c.real if c.imag == 0 else str(c)],
                             ids=["strings", "numbers"])
    def test_coefficient_entries_take_every_complex_form(self, fam, form):
        doc = fam.to_json()
        written = dict(doc, params={name: rewrite_entries(value, form)
                                    for name, value in doc["params"].items()})
        clone = family_from_json(json.dumps(written))
        for name in fam.parameters:
            np.testing.assert_array_equal(getattr(clone, name), getattr(fam, name))
        assert clone.to_json() == doc


def test_one_non_real_parameter_entry_is_not_mirrored(space16):
    # one entry of one declared parameter makes each kind's family not real: its sample
    # evaluates every conjugate image itself and equals direct evaluation bit for bit
    real = np.array([[[1.0, 0.5], [2.0, 0.0]], [[0.25, 0.0], [0.0, 1.0]]])
    tilted = real.astype(complex)
    tilted[1, 1, 1] = 1j
    families = [ConstantFamily(1 + 0.5j, unit_polydisc(2)),
                PolynomialFamily(tilted, unit_polydisc(2)),
                GeometricFamily([0.5, 0.4j], unit_polydisc(2)),
                ExponentialFamily(1 + 0.5j, unit_polydisc(2)),
                SeparableFamily(real[0], [1.0, 0.5j], unit_polydisc(2)),
                TabulatedTaylorFamily(tilted, unit_polydisc(2))]
    assert sorted(fam.kind for fam in families) == sorted(family._KINDS)
    for fam in families:
        sample = ContourSample(fam, space16, 9)
        assert not sample.conjugate_symmetric, fam.kind
        grid = torus_nodes(Polydisc(sample.center, sample.radii), 9).grid()
        direct = fam.eval(grid[:, None, :], space16.params)
        assert np.array_equal(sample.values, direct), fam.kind


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

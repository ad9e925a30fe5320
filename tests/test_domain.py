import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holofubini import Polydisc, torus_nodes, unit_polydisc
from holofubini.domain import as_multi_index, multi_factorial, parse_complex


class TestContains:
    def test_interior_point(self):
        disc = unit_polydisc()
        assert disc.contains_all([0.5])

    def test_boundary_excluded(self):
        assert not unit_polydisc().contains_all([1.0])

    def test_shrink_scaling(self):
        assert not unit_polydisc().contains_all([0.5], shrink=0.4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            unit_polydisc(2).contains_all([0.5])

    def test_shrink_validation(self):
        with pytest.raises(ValueError):
            unit_polydisc().contains_all([0.5], shrink=0.0)
        with pytest.raises(ValueError):
            unit_polydisc().contains_all([0.5], shrink=1.5)

    @given(
        re=st.floats(-2, 2), im=st.floats(-2, 2),
        s1=st.floats(0.05, 1.0), s2=st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_shrink(self, re, im, s1, s2):
        lo, hi = sorted((s1, s2))
        disc = unit_polydisc()
        z = [complex(re, im)]
        if disc.contains_all(z, lo):
            assert disc.contains_all(z, hi)


class TestPolydiscValidation:
    def test_needs_positive_radius(self):
        with pytest.raises(ValueError):
            Polydisc([0.0], [0.0])

    def test_center_radius_length_match(self):
        with pytest.raises(ValueError):
            Polydisc([0.0, 0.0], [1.0])

    def test_shrunk_scales_radii(self):
        disc = Polydisc([1.0, 2.0], [2.0, 4.0]).shrunk(0.5)
        np.testing.assert_allclose(disc.radius, [1.0, 2.0])


class TestTorusNodes:
    def test_fourth_roots_of_unity(self):
        quad = torus_nodes(unit_polydisc(), 4)
        np.testing.assert_allclose(quad.nodes[0], [1, 1j, -1, -1j], atol=1e-15)

    def test_tensor_count_d2(self):
        quad = torus_nodes(unit_polydisc(2), 8)
        assert quad.grid().shape == (64, 2)

    def test_mean_of_identity_is_zero(self):
        # rule applied to w -> w on the unit circle: the mean of roots of unity
        quad = torus_nodes(unit_polydisc(), 16)
        assert abs(np.mean(quad.nodes[0])) < 1e-15

    def test_rejects_small_node_count(self):
        with pytest.raises(ValueError):
            torus_nodes(unit_polydisc(), 3)

    @given(
        re=st.floats(-3, 3), im=st.floats(-3, 3),
        r=st.floats(0.1, 5.0), n=st.sampled_from([4, 8, 16, 37]),
    )
    @settings(max_examples=40, deadline=None)
    def test_nodes_on_boundary(self, re, im, r, n):
        disc = Polydisc([complex(re, im)], [r])
        quad = torus_nodes(disc, n)
        gap = np.abs(np.abs(quad.nodes[0] - disc.center[0]) - r)
        assert np.max(gap) < 1e-14 * r

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_monomial_exactness(self, n):
        # under the Cauchy-normalized rule, (w - a)^m averages to zero for
        # 1 <= m <= n - 1 within 1e-14 relative to the radius scale
        disc = Polydisc([0.3 - 0.1j], [1.7])
        quad = torus_nodes(disc, n)
        w = quad.nodes[0] - disc.center[0]
        for m in range(1, n):
            assert abs(np.mean(w ** m)) < 1e-14 * 1.7 ** m

    def test_aliasing_starts_at_n(self):
        n = 16
        quad = torus_nodes(unit_polydisc(), n)
        w = quad.nodes[0]
        assert abs(np.mean(w ** n) - 1.0) < 1e-13

    def test_dw_reproduces_contour_integrals(self):
        # (2 pi i)^-1 integral of dw/(w - a) = 1 and integral of dw = 0
        disc = Polydisc([0.2 + 0.4j], [1.3])
        quad = torus_nodes(disc, 32)
        dw = (2j * np.pi / 32) * (quad.nodes[0] - disc.center[0])
        winding = np.sum(dw / (quad.nodes[0] - disc.center[0])) / (2j * np.pi)
        assert abs(winding - 1.0) < 1e-14
        assert abs(np.sum(dw)) < 1e-13


class TestMultiIndex:
    def test_validation(self):
        assert as_multi_index((1, 2), 2) == (1, 2)
        assert as_multi_index(3) == (3,)
        with pytest.raises(ValueError):
            as_multi_index((-1,))
        with pytest.raises(ValueError):
            as_multi_index((1.5,))
        with pytest.raises(ValueError):
            as_multi_index((1, 2), 3)

    def test_factorial(self):
        assert multi_factorial((3, 2)) == 12.0
        assert multi_factorial((0,)) == 1.0


class TestParseComplex:
    @pytest.mark.parametrize("value", [[0.5, -2.0], (0.5, -2.0), 0.5 - 2j, "0.5-2j"])
    def test_accepted_forms(self, value):
        assert parse_complex(value) == 0.5 - 2j

    @pytest.mark.parametrize("value", [[], [0.5], [0.5, -2.0, 1.0], "half", None])
    def test_rejects_other_forms(self, value):
        with pytest.raises(ValueError, match="cannot parse complex number"):
            parse_complex(value)

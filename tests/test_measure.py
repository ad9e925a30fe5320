import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holofubini import FiniteMeasureSpace, measure, space_from_json, space_preset

INF = math.inf


class TestLpNorm:
    def test_normalized_constant(self):
        space = FiniteMeasureSpace([0.0, 1.0], [0.5, 0.5])
        assert space.lp_norm([1, 1], 2) == pytest.approx(1.0)

    def test_essential_sup_ignores_zero_weight(self):
        space = FiniteMeasureSpace([0.0, 1.0], [1.0, 0.0])
        assert space.lp_norm([3, 7], INF) == pytest.approx(3.0)

    def test_weighted_sum(self):
        space = FiniteMeasureSpace([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        assert space.lp_norm([1, 2, 3], 1) == pytest.approx(6.0)

    def test_rejects_p_below_one(self):
        space = space_preset("uniform-4")
        with pytest.raises(ValueError):
            space.lp_norm(np.ones(4), 0.5)

    def test_rejects_length_mismatch(self):
        space = space_preset("uniform-4")
        with pytest.raises(ValueError):
            space.lp_norm(np.ones(5), 2)
        with pytest.raises(ValueError):
            space.lp_norm(np.ones((3, 5)), 2)


class TestPairing:
    def test_constant(self):
        space = FiniteMeasureSpace([0.0, 1.0], [0.5, 0.5])
        assert space.pairing([1, 1], [1, 1]) == pytest.approx(1.0)

    def test_bilinear_not_sesquilinear(self):
        space = FiniteMeasureSpace([0.0, 1.0], [1.0, 1.0])
        assert space.pairing([1j, 0], [1j, 5]) == pytest.approx(-1.0)

    def test_holder_p3(self):
        rng = np.random.default_rng(7)
        space = FiniteMeasureSpace(rng.standard_normal(10), rng.random(10))
        g = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        h = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        assert abs(space.pairing(g, h)) <= space.lp_norm(g, 3) * space.lp_norm(h, 1.5) + 1e-12

    def test_rejects_length_mismatch(self):
        space = space_preset("uniform-4")
        with pytest.raises(ValueError):
            space.pairing(np.ones(4), np.ones(3))
        with pytest.raises(ValueError):
            space.pairing(np.ones((3, 4)), np.ones((3, 5)))


class TestStacks:
    SPACES = {
        "random": FiniteMeasureSpace(np.linspace(-1, 1, 9), np.random.default_rng(1).random(9)),
        "zero-weight-atoms": FiniteMeasureSpace(np.linspace(-1, 1, 9),
                                                [0.5, 0.0, 1.0, 0.0, 0.0, 2.0, 0.25, 0.0, 1.0]),
        "all-zero-weights": FiniteMeasureSpace(np.linspace(-1, 1, 9), np.zeros(9)),
    }

    @staticmethod
    def stack(rows, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((rows, 9)) + 1j * rng.standard_normal((rows, 9))

    @pytest.mark.parametrize("name", SPACES)
    @pytest.mark.parametrize("p", [1, 2, 3.5, INF])
    def test_lp_norm_row_by_row(self, name, p):
        space, g = self.SPACES[name], self.stack(7)
        norms = space.lp_norm(g, p)
        assert norms.shape == (7,)
        assert norms.tolist() == [space.lp_norm(row, p) for row in g]

    @pytest.mark.parametrize("name", SPACES)
    @pytest.mark.parametrize("p", [1, 1.5, 2, 3.5, INF])
    def test_max_lp_norm_is_the_largest_row_norm(self, name, p):
        # one root of the largest row sum equals the largest root, also among rows
        # that tie or differ in their last bits
        space = self.SPACES[name]
        for seed in range(40):
            g = self.stack(6, seed)
            scales = 1.0 + np.arange(6) * np.finfo(float).eps
            near = g[seed % 6] * scales[:, None]
            g = np.concatenate([g, near, near[::-1]])
            assert space.max_lp_norms(g, [p]) == [np.max(space.lp_norm(g, p))]
            assert space.max_lp_norms(g[3], [p]) == [space.lp_norm(g[3], p)]

    @pytest.mark.parametrize("name", SPACES)
    @pytest.mark.parametrize("p", [1, 1.5, 2, 2.5, 3, 3.5, 4, 7.25])
    def test_row_powers_in_scratch_equal_the_power_operator(self, name, p):
        # max_lp_norms takes each p's powers into one scratch (np.square at p = 2, else
        # np.power) and weights them in place: the sums of mags ** p * weights, as the
        # operator takes them, bit for bit, over magnitudes from 1e-30 to 1e30
        space, rng = self.SPACES[name], np.random.default_rng(7)
        mags = np.abs(self.stack(400, seed=2)) * 10.0 ** rng.uniform(-30, 30, (400, 9))
        mags[0] = 0.0
        expected = np.sum(mags ** float(p) * space.weights, axis=-1)
        got = space._row_powers(mags, float(p), np.empty_like(mags))
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", SPACES)
    def test_pairing_row_by_row(self, name):
        space, g, h = self.SPACES[name], self.stack(7), self.stack(7, seed=1)
        assert space.pairing(g, h).tolist() == [space.pairing(a, b) for a, b in zip(g, h)]
        # one vector against a stack, as linearization and fubini pair them
        assert space.pairing(g[0], h).tolist() == [space.pairing(g[0], b) for b in h]


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_blocked_sups_equal_the_largest_row_norms(data):
    # max_lp_norms reads blocks of ROW_BLOCK values (whole rows, at least one); on
    # stacks of several blocks its sups equal max(lp_norm) bit for bit at every p
    k = data.draw(st.integers(1, 6))
    weights = data.draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]),
                                 min_size=k, max_size=k))
    rows_per_block = data.draw(st.integers(1, 3))
    block = rows_per_block * k + data.draw(st.integers(0, k - 1))
    rows = data.draw(st.integers(rows_per_block + 1, 4 * rows_per_block + 1))
    entries = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
    g = np.array(data.draw(st.lists(entries, min_size=rows * k, max_size=rows * k)),
                 dtype=complex).reshape(rows, k)
    space = FiniteMeasureSpace(np.linspace(-1, 1, k), weights)
    ps = [1.0, 2.0, 3.5, INF]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measure, "ROW_BLOCK", block)
        sups = space.max_lp_norms(g, ps)
    assert sups == [float(np.max(space.lp_norm(g, p))) for p in ps]


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_holder_inequality_all_dual_pairs(data):
    k = data.draw(st.integers(1, 8))
    draw_vec = lambda: np.array(
        [complex(data.draw(st.floats(-5, 5)), data.draw(st.floats(-5, 5)))
         for _ in range(k)]
    )
    weights = [data.draw(st.floats(0, 3)) for _ in range(k)]
    space = FiniteMeasureSpace(np.zeros(k), weights)
    g, h = draw_vec(), draw_vec()
    for p, q in ((1, INF), (2, 2), (3, 1.5), (INF, 1)):
        assert abs(space.pairing(g, h)) <= space.lp_norm(g, p) * space.lp_norm(h, q) + 1e-12


def dual_witness(space, g, p):
    """An h with ||h||_q <= 1 and pairing(g, h) = ||g||_p, built atom by atom."""
    h = np.zeros_like(g)
    if math.isinf(p):
        i = int(np.argmax(np.where(space.weights > 0, np.abs(g), -1.0)))
        h[i] = np.conj(g[i]) / (np.abs(g[i]) * space.weights[i])
        return h
    nz = (space.weights > 0) & (g != 0)
    h[nz] = np.abs(g[nz]) ** (p - 2.0) * np.conj(g[nz]) / space.lp_norm(g, p) ** (p - 1.0)
    return h


@pytest.mark.parametrize("p", [1, 2, INF])
def test_norm_attained_by_dual_witness(p):
    rng = np.random.default_rng(3)
    space = FiniteMeasureSpace(rng.standard_normal(12), rng.random(12))
    g = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    h = dual_witness(space, g, p)
    q = {1: INF, 2: 2.0, INF: 1.0}[p]
    assert space.lp_norm(h, q) <= 1.0 + 1e-12
    assert abs(space.pairing(g, h)) == pytest.approx(space.lp_norm(g, p), rel=1e-12)


def test_almost_everywhere_semantics():
    # modifying a zero-weight atom changes no norm and no pairing
    space = FiniteMeasureSpace([0.0, 1.0, 2.0], [0.4, 0.0, 0.6])
    g = np.array([1.0, 5.0, 2.0], dtype=complex)
    g2 = g.copy()
    g2[1] = 1e6
    h = np.array([2.0, -1.0, 0.5], dtype=complex)
    for p in (1, 2, INF):
        assert space.lp_norm(g, p) == space.lp_norm(g2, p)
    assert space.pairing(g, h) == space.pairing(g2, h)


def test_dual_exponent():
    # Hoelder: |<g, h>| <= ||g||_p ||h||_q at the conjugate q = p / (p - 1), which maps
    # 1 <-> inf and fixes 2; exponents below 1 are refused
    rng = np.random.default_rng(5)
    space = FiniteMeasureSpace(rng.standard_normal(9), rng.random(9))
    g, h = rng.standard_normal((2, 9)) + 1j * rng.standard_normal((2, 9))
    for p, q in ((1, INF), (INF, 1), (2, 2), (3, 1.5)):
        bound = space.lp_norm(g, p) * space.lp_norm(h, q)
        assert abs(space.pairing(g, h)) <= bound * (1 + 1e-12)
    with pytest.raises(ValueError):
        space.lp_norm(g, 0.5)


class TestConstruction:
    def test_needs_an_atom(self):
        with pytest.raises(ValueError):
            FiniteMeasureSpace([], [])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            FiniteMeasureSpace([0.0], [-1.0])


class TestJson:
    def test_round_trip(self):
        doc = {"atoms": [{"param": [0.5, -0.25], "weight": 2.0},
                         {"param": [0.0, 0.0], "weight": 0.5}]}
        space = space_from_json(json.dumps(doc))
        assert space.natoms == 2
        assert space.params[0] == 0.5 - 0.25j
        assert space.weights.sum() == pytest.approx(2.5)

    def test_scalar_param_accepted(self):
        space = space_from_json({"atoms": [{"param": 0.7, "weight": 1.0}]})
        assert space.params[0] == 0.7


class TestPresets:
    def test_uniform(self):
        space = space_preset("uniform-16")
        assert space.natoms == 16
        assert space.weights.sum() == pytest.approx(1.0)
        assert space.params[0] == -1.0 and space.params[-1] == 1.0

    @pytest.mark.parametrize("kind", ["uniform", "geometric"])
    @pytest.mark.parametrize("k", [1, 2, 4, 7, 15, 16, 64, 255, 256])
    def test_atoms_are_antisymmetric(self, kind, k):
        # atom k - 1 - i is -(atom i) bit for bit, an odd k's middle atom 0, and each
        # atom within one ulp of 1 of np.linspace, which misses the symmetry by up to
        # 2.2e-16 (at k = 7, 15 and 64)
        params = space_preset(f"{kind}-{k}").params
        assert np.array_equal(params, -params[::-1])
        assert not np.any(params.imag)
        spaced = np.linspace(-1.0, 1.0, k) if k > 1 else np.zeros(1)
        assert np.all(np.abs(params.real - spaced) <= np.finfo(float).eps)

    def test_geometric_weights(self):
        space = space_preset("geometric-8")
        np.testing.assert_allclose(space.weights, 0.5 ** np.arange(1, 9))

    def test_unknown(self):
        with pytest.raises(ValueError):
            space_preset("lebesgue-3")

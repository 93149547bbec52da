import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stgcvae import graph


def frame(positions):
    """normalized_adjacency of one frame of (N, 2) positions."""
    return graph.normalized_adjacency(np.asarray(positions, float)[None])[0]


def raw_weights(normed):
    """The raw inverse-distance weights behind one normalized frame. Its
    diagonal is 1 / d_i, so a_ij = m_ij / sqrt(m_ii * m_jj) off the
    diagonal; the diagonal itself reads 0."""
    d = np.sqrt(np.diag(normed))
    raw = normed / np.outer(d, d)
    np.fill_diagonal(raw, 0.0)
    return raw


class TestKernelAdjacency:
    def test_two_agents_two_meters(self):
        a = frame([[0.0, 0.0], [2.0, 0.0]])
        # A + I = [[1, .5], [.5, 1]], degrees 1.5
        np.testing.assert_allclose(a, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
        np.testing.assert_allclose(raw_weights(a), [[0, 0.5], [0.5, 0]])

    def test_single_agent(self):
        a = frame([[1.0, 1.0]])
        assert a.shape == (1, 1)
        assert a[0, 0] == 1.0

    def test_three_agent_hand_distances(self):
        a = raw_weights(frame([[0, 0], [1, 0], [0, 1]]))
        assert a[0, 1] == pytest.approx(1.0)
        assert a[0, 2] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(1 / np.sqrt(2))

    def test_colocated_guard(self):
        # weight 0 between co-located agents: only the self-loops remain
        a = frame([[0, 0], [0, 0]])
        assert np.all(np.isfinite(a))
        np.testing.assert_array_equal(a, np.eye(2))

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(-3, 3, (5, 2))
        a1 = raw_weights(frame(p))
        a2 = raw_weights(frame(2.5 * p))
        np.testing.assert_allclose(a2, a1 / 2.5, atol=1e-12)


class TestNormalize:
    def test_single_agent_is_one(self):
        out = graph.normalized_adjacency(np.zeros((3, 1, 2)))
        np.testing.assert_array_equal(out, np.ones((3, 1, 1)))

    def test_two_agent_hand_case(self):
        # a12 = 1: A+I = [[1,1],[1,1]], degrees 2 -> all entries 0.5
        np.testing.assert_allclose(frame([[0.0, 0.0], [0.0, 1.0]]), 0.5)

    def test_spectral_radius_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = rng.integers(1, 8)
            pos = rng.uniform(-5, 5, (3, n, 2))
            normed = graph.normalized_adjacency(pos)
            for m in normed:
                eig = np.linalg.eigvalsh(m)
                assert eig.min() >= -1 - 1e-10
                assert eig.max() <= 1 + 1e-10

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(2)
        pos = rng.uniform(-5, 5, (4, 6, 2))
        normed = graph.normalized_adjacency(pos)
        np.testing.assert_allclose(normed, np.swapaxes(normed, 1, 2),
                                   atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(-5, 5, (2, 5, 2))
        perm = rng.permutation(5)
        direct = graph.normalized_adjacency(pos[:, perm, :])
        permuted = graph.normalized_adjacency(pos)[:, perm][:, :, perm]
        np.testing.assert_allclose(direct, permuted, atol=1e-12)


def per_frame_reference(positions):
    """The per-frame construction normalized_adjacency replaced: the raw
    inverse-distance frame, then its normalization, one frame at a time."""
    mats = []
    for p in positions:
        dist = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)
        with np.errstate(divide="ignore"):
            a = np.where(dist > graph.CO_LOCATION_EPS, 1.0 / dist, 0.0)
        np.fill_diagonal(a, 0.0)
        a_hat = a + np.eye(len(a))
        inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=-1))
        mats.append(a_hat * inv_sqrt[:, None] * inv_sqrt[None, :])
    return np.stack(mats)


class TestAdjacencySeries:
    def test_bit_identical_to_per_frame_loop(self):
        rng = np.random.default_rng(4)
        for trial in range(200):
            pos = rng.uniform(-5, 5, (rng.integers(1, 21),
                                      rng.integers(1, 13), 2))
            if trial % 2:  # co-located pairs and exact integer distances
                pos[:, 0] = pos[:, -1]
                pos = np.round(pos)
            got = graph.normalized_adjacency(pos)
            assert got.tobytes() == per_frame_reference(pos).tobytes()

    @pytest.mark.parametrize("t", [8, 20])
    def test_bit_identical_to_per_frame_loop_in_crowds(self, t):
        rng = np.random.default_rng(t)
        for trial in range(40):
            pos = rng.uniform(-5, 5, (t, rng.integers(1, 49), 2))
            if trial % 2:  # co-located pairs and exact integer distances
                pos[:, 0] = pos[:, -1]
                pos = np.round(pos)
            got = graph.normalized_adjacency(pos)
            assert got.tobytes() == per_frame_reference(pos).tobytes()


def test_distance_has_the_bits_of_linalg_norm():
    """distance(dx, dy) against np.linalg.norm over the stacked axis, on
    signed zeros, subnormals, overflowing squares, inf and NaN."""
    rng = np.random.default_rng(7)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-200, 1e200, -1e300,
                        np.inf, -np.inf, np.nan, 3.0, -4.0])
    dx, dy = np.meshgrid(special, special)
    scaled = rng.standard_normal((2, 500)) * 10.0 ** rng.uniform(-30, 30,
                                                                 (2, 500))
    for ax, ay in ((dx, dy), tuple(scaled)):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got = graph.distance(ax, ay)
            want = np.linalg.norm(np.stack([ax, ay], axis=-1), axis=-1)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 8),
                                    st.just(2)),
              elements=st.floats(-50, 50)))
def test_normalized_adjacency_symmetric_and_contracting(pos):
    """Any positions, co-located or not: every normalized frame is
    symmetric with spectral radius at most 1."""
    normed = graph.normalized_adjacency(pos)
    np.testing.assert_allclose(normed, np.swapaxes(normed, 1, 2), rtol=0,
                               atol=1e-12)
    for m in normed:
        assert np.max(np.abs(np.linalg.eigvalsh(m))) <= 1 + 1e-12

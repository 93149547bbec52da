"""The per-frame adjacency that the GCN layers mix agents against:
inverse-distance edge weights, symmetrically normalized with self-loops."""

from __future__ import annotations

import numpy as np

CO_LOCATION_EPS = 1e-6  # meters


def distance(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sqrt(dx*dx + dy*dy) of per-axis differences: the bits of
    np.linalg.norm over a trailing length-2 axis of the same differences,
    which adds the two squares to 0, without building that axis."""
    return np.sqrt(dx * dx + dy * dy)


def normalized_adjacency(positions: np.ndarray) -> np.ndarray:
    """Normalized per-frame adjacency of a (T, N, 2) position block, as a
    (T, N, N) stack built for all frames in one broadcast.

    The raw weight of a pair is 1 / ||p_i - p_j||, or 0 for pairs closer
    than CO_LOCATION_EPS (the diagonal included). Each raw frame A becomes
    D^{-1/2} (A + I) D^{-1/2}; the self-loop makes every degree >= 1, so no
    division guard is needed. The result is symmetric with spectral radius
    <= 1.
    """
    positions = np.asarray(positions, dtype=np.float64)
    # per-axis (T, N, N) differences, not a (T, N, N, 2) tensor
    dx = positions[:, :, None, 0] - positions[:, None, :, 0]
    dy = positions[:, :, None, 1] - positions[:, None, :, 1]
    dist = distance(dx, dy)
    with np.errstate(divide="ignore"):  # the diagonal's distance is 0
        raw = np.where(dist > CO_LOCATION_EPS, 1.0 / dist, 0.0)
    a_hat = raw + np.eye(raw.shape[-1])
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=-1))
    return a_hat * inv_sqrt[:, :, None] * inv_sqrt[:, None, :]

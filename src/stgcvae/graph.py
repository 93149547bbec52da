"""Per-frame weighted adjacency construction and symmetric normalization.

Edge weights are inverse Euclidean distance between agents; co-located
pairs (closer than 1e-6 m) get weight 0. Normalization is the symmetric
form D^{-1/2} (A + I) D^{-1/2} where D is the degree matrix of A + I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CO_LOCATION_EPS = 1e-6  # meters


@dataclass
class AdjacencySeries:
    """A stack of per-frame N x N adjacency matrices (T, N, N)."""
    matrices: np.ndarray
    normalized: bool = False


def kernel_adjacency(positions: np.ndarray) -> np.ndarray:
    """Raw adjacency for one frame: a_ij = 1 / ||p_i - p_j|| off-diagonal.

    positions: (N, 2). Pairs closer than CO_LOCATION_EPS (including the
    diagonal) get weight 0.
    """
    return adjacency_series(np.asarray(positions)[None]).matrices[0]


def adjacency_series(positions: np.ndarray) -> AdjacencySeries:
    """Raw per-frame adjacency (see kernel_adjacency) for a (T, N, 2)
    position block, all frames in one broadcast."""
    positions = np.asarray(positions, dtype=np.float64)
    diff = positions[:, :, None, :] - positions[:, None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    with np.errstate(divide="ignore"):  # the diagonal's distance is 0
        mats = np.where(dist > CO_LOCATION_EPS, 1.0 / dist, 0.0)
    return AdjacencySeries(mats, normalized=False)


def normalize(raw: AdjacencySeries) -> AdjacencySeries:
    """Symmetrically normalized adjacency with self-loops, per frame.

    Each frame A becomes D^{-1/2} (A + I) D^{-1/2}; the self-loop makes
    every degree >= 1, so no division guard is needed. The result is
    symmetric with spectral radius <= 1.
    """
    mats = raw.matrices
    n = mats.shape[-1]
    a_hat = mats + np.eye(n)
    deg = a_hat.sum(axis=-1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    normed = a_hat * inv_sqrt[:, :, None] * inv_sqrt[:, None, :]
    return AdjacencySeries(normed, normalized=True)


def normalized_adjacency(positions: np.ndarray) -> np.ndarray:
    """Convenience: (T, N, 2) positions -> normalized (T, N, N) stack."""
    return normalize(adjacency_series(positions)).matrices

"""The training objective, window_losses: bivariate Gaussian NLL + annealed
KL divergence + the best prior sample's NLL, from the per-cell ops nll_cells
and kl_cells."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DimensionError, ParameterError
from .model import (BivariateGaussianSeq, LatentGaussian, LOGVAR_MAX,
                    OUT_CHANNELS, RHO_R_MAX, SIGMA_S_MIN)

RHO_FLOOR = 1e-9  # lower bound on 1 - rho^2

ANNEAL_SLOPE = 2e-5      # KL weight gained per epoch
ANNEAL_CAP_EPOCHS = 250  # epoch at which the weight stops growing

# The training objective weights each cell's NLL by the constant
# sigma_x * sigma_y / NLL_REF_VAR (beta-NLL with beta = 1, Seitzer et al.
# 2022). The gradient for a predicted mean is then residual / NLL_REF_VAR
# instead of residual / sigma^2: a cell predicted at sigma^2 = NLL_REF_VAR
# keeps its plain-NLL gradient, broad cells (early in training) take larger
# steps and sharp ones smaller. Under the plain NLL the steps grow as the
# fit sharpens, and fixed-rate batch-1 SGD never settles. Reported loss
# values are the plain NLL.
NLL_REF_VAR = 0.1


@dataclass
class LossReport:
    """Loss components for one window; total = rec + weight * kl exactly.
    The traced objective that trains it is window_losses'."""
    total: float
    rec: float
    kl: float
    weight: float


def nll_cells(pred: BivariateGaussianSeq,
              target: np.ndarray) -> tuple[ad.Value, np.ndarray]:
    """Negative log-likelihood (1, T, N) of each target displacement under
    its predicted bivariate Gaussian, as one op of the raw channels, and the
    objective's weight sigma_x * sigma_y / NLL_REF_VAR per cell as a plain
    array.

    pred.raw: (5, T, N) raw channels (mu_x, mu_y, s_x, s_y, r); target:
    (2, T, N). sigma = exp(s) with s clamped, rho = tanh(r), and 1 - rho^2
    is floored at RHO_FLOOR before the log and the division.

    It has the bits of the elementwise-op chain it replaced (the reference
    in tests/test_losses.py): the same numpy expressions, and each fan-out
    summed in backward's order: dx * dy's term, then dx * dx's two for dx
    (and dy), rho * dx * dy's, then rho * rho's two for rho. raw's gradient
    adds each channel's to zeros, so -0 becomes +0."""
    r = pred.raw.data
    target = np.asarray(target, dtype=np.float64)
    if target.shape[:1] != (2,) or \
            r.shape != (OUT_CHANNELS,) + target.shape[1:]:
        raise DimensionError(
            f"nll_cells: pred {r.shape} vs target {target.shape}")
    s_x = np.clip(r[2:3], SIGMA_S_MIN, LOGVAR_MAX)
    s_y = np.clip(r[3:4], SIGMA_S_MIN, LOGVAR_MAX)
    r_c = np.clip(r[4:5], -RHO_R_MAX, RHO_R_MAX)
    rho = np.tanh(r_c)
    e_x, e_y = target[0:1] - r[0:1], target[1:2] - r[1:2]
    inv_sx, inv_sy = np.exp(s_x * -1.0), np.exp(s_y * -1.0)
    dx, dy = e_x * inv_sx, e_y * inv_sy
    one_m_r2 = 1.0 - rho * rho
    floored = np.clip(one_m_r2, RHO_FLOOR, None)
    quad = (dx * dx + dy * dy) - (rho * (dx * dy)) * 2.0
    inv = 1.0 / floored
    nll = ((s_x + s_y) + np.log(floored) * 0.5) + quad * (inv * 0.5)
    nll += math.log(2 * math.pi)

    def vjp(g):
        g_quad = g * (inv * 0.5)
        g_cross = -g_quad * 2.0  # of rho * (dx * dy)
        g_dx = (g_cross * rho) * dy + g_quad * dx + g_quad * dx
        g_dy = (g_cross * rho) * dx + g_quad * dy + g_quad * dy
        g_floored = -((g * quad) * 0.5) * inv * inv + (g * 0.5) / floored
        # np.clip passes the gradient where it kept its input
        g_rr = -(g_floored * (floored == one_m_r2))  # of rho * rho
        g_rho = g_cross * (dx * dy) + g_rr * rho + g_rr * rho
        gr = np.zeros_like(r)
        gr[0:1] += -(g_dx * inv_sx)
        gr[1:2] += -(g_dy * inv_sy)
        gr[2:3] += ((g_dx * e_x) * inv_sx * -1.0 + g) * (s_x == r[2:3])
        gr[3:4] += ((g_dy * e_y) * inv_sy * -1.0 + g) * (s_y == r[3:4])
        gr[4:5] += g_rho * one_m_r2 * (r_c == r[4:5])
        return (gr,)

    return ad.Value(nll, (pred.raw,), vjp), np.exp(s_x + s_y) / NLL_REF_VAR


def kl_cells(q: LatentGaussian, p: LatentGaussian) -> ad.Value:
    """KL(q || p) of diagonal Gaussians per latent entry (L, T, N), as one op
    with the bits of the chain it replaced (see nll_cells): p.logvar's
    gradient sums the Mahalanobis, then the variance-ratio, then the
    log-ratio term."""
    shapes = [v.data.shape for v in (q.mu, q.logvar, p.mu, p.logvar)]
    if len(set(shapes)) != 1:
        raise DimensionError(f"kl_cells: q mu, logvar and p mu, "
                             f"logvar have shapes {shapes}")
    q_lv, p_lv = q.logvar.data, p.logvar.data
    var_ratio = np.exp(q_lv - p_lv)
    dmu = q.mu.data - p.mu.data
    sq, inv_pv = dmu * dmu, np.exp(p_lv * -1.0)
    out = (((p_lv - q_lv) + (var_ratio + sq * inv_pv)) - 1.0) * 0.5

    def vjp(g):
        g = g * 0.5
        g_dmu = (g * inv_pv) * dmu + (g * inv_pv) * dmu
        g_ratio = g * var_ratio
        g_plv = ((g * sq) * inv_pv * -1.0 + -g_ratio) + g
        return g_dmu, g_ratio + -g, -g_dmu, g_plv

    return ad.Value(out, (q.mu, q.logvar, p.mu, p.logvar), vjp)


def anneal_weight(epoch: int) -> float:
    """Linear KL annealing: ANNEAL_SLOPE per epoch to ANNEAL_CAP_EPOCHS."""
    if epoch < 0:
        raise ParameterError(f"epoch must be >= 0, got {epoch}")
    return ANNEAL_SLOPE * min(epoch, ANNEAL_CAP_EPOCHS)


def window_losses(pred: BivariateGaussianSeq, target: np.ndarray,
                  q: LatentGaussian, p: LatentGaussian, epoch: int,
                  agents: list[int]) -> tuple[ad.Value, list[LossReport]]:
    """Training loss of windows stacked along the agent axis: per window,
    rec + w_kl(epoch) * kl over all output frames.

    Window w has agents[w] latent columns in q and p. In pred and target it
    has agents[w] columns, one per agent, then one column that decodes its
    best prior sample, whose target column repeats its agent's. The sample
    is chosen beforehand (training.best_prior_samples holds the rule). Each
    window's columns follow the previous window's.

    rec covers the agent columns only, and each reported total is exactly
    rec + w_kl * kl. The traced objective, returned with the reports, is
    the sum of the windows' objectives; its gradient is the sum of their
    gradients, since the columns of different windows do not interact. A
    window's objective differs from its reported total in two ways. Its
    NLL is weighted by the predicted variance (NLL_REF_VAR). And the
    weighted NLL of its prior column, averaged over frames, is added
    (best-of-many, Bhattacharyya et al. 2018). Otherwise the prior's only
    training signal is the KL at weight w_kl <= 0.005, so under plain SGD it
    stays near its initialization, and best-of-K evaluation samples an
    untrained distribution.
    """
    if sum(agents) != q.mu.data.shape[2] or \
            sum(agents) + len(agents) != pred.data.shape[2]:
        raise DimensionError(
            f"window_losses: {agents} agents and one prior sample per "
            f"window vs {q.mu.data.shape[2]} latent and "
            f"{pred.data.shape[2]} decoded columns")
    cells, weight = nll_cells(pred, target)
    kl = kl_cells(q, p)
    t = cells.data.shape[1]
    w = anneal_weight(epoch)
    mask = np.zeros(cells.data.shape)
    kl_mask = np.zeros(kl.data.shape)
    reports = []
    col = row = 0  # first column of the window in pred and in q
    for n in agents:
        rec = float(np.sum(cells.data[:, :, col:col + n])) * (1.0 / (t * n))
        kl_w = float(np.sum(kl.data[:, :, row:row + n])) * (1.0 / n)
        mask[:, :, col:col + n] = 1.0 / (t * n)
        kl_mask[:, :, row:row + n] = w * (1.0 / n)
        mask[:, :, col + n] = 1.0 / t
        reports.append(LossReport(total=rec + w * kl_w, rec=rec, kl=kl_w,
                                  weight=w))
        col += n + 1
        row += n
    objective = ad.add(ad.sum_all(ad.mul(cells, ad.Value(mask * weight))),
                       ad.sum_all(ad.mul(kl, ad.Value(kl_mask))))
    return objective, reports


class MetricsLog:
    """Plain-text CSV loss log: epoch,step,total,rec,kl,w_kl, written to an
    open text file (the CLI opens it with data.replacing)."""

    HEADER = "epoch,step,total,rec,kl,w_kl"

    def __init__(self, fh):
        self.fh = fh
        fh.write(self.HEADER + "\n")

    def append(self, epoch: int, step: int, report: LossReport):
        self.fh.write(f"{epoch},{step},{report.total!r},{report.rec!r},"
                      f"{report.kl!r},{report.weight!r}\n")

"""Training objective: bivariate Gaussian NLL + annealed KL divergence."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DimensionError, ParameterError
from .model import (BivariateGaussianSeq, LatentGaussian, LOGVAR_MAX,
                    RHO_R_MAX, SIGMA_S_MIN)

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
    epoch: int


def bivariate_nll(pred: BivariateGaussianSeq, target: np.ndarray) -> ad.Value:
    """Mean negative log-likelihood of target displacements under the
    predicted per-(agent, frame) bivariate Gaussians.

    pred.raw: (5, T, N) raw channels (mu_x, mu_y, s_x, s_y, r); target:
    (2, T, N). sigma = exp(s) with s clamped, rho = tanh(r), and 1 - rho^2
    is floored at 1e-9 before the log and the division.
    """
    return ad.mean_all(nll_cells(pred, target)[0])


def nll_cells(pred: BivariateGaussianSeq,
              target: np.ndarray) -> tuple[ad.Value, np.ndarray]:
    """Per-cell NLL (1, T, N) of bivariate_nll, and the objective's weight
    sigma_x * sigma_y / NLL_REF_VAR per cell as a plain array."""
    raw = pred.raw
    target = np.asarray(target, dtype=np.float64)
    if raw.data.shape[1:] != target.shape[1:] or target.shape[0] != 2:
        raise DimensionError(
            f"bivariate_nll: pred {raw.data.shape} vs target {target.shape}")

    mu_x, mu_y = _channel(raw, 0), _channel(raw, 1)
    s_x = ad.clamp(_channel(raw, 2), SIGMA_S_MIN, LOGVAR_MAX)
    s_y = ad.clamp(_channel(raw, 3), SIGMA_S_MIN, LOGVAR_MAX)
    rho = ad.tanh(ad.clamp(_channel(raw, 4), -RHO_R_MAX, RHO_R_MAX))

    tx = ad.Value(target[0:1])
    ty = ad.Value(target[1:2])

    inv_sx = ad.exp(ad.neg(s_x))
    inv_sy = ad.exp(ad.neg(s_y))
    dx = ad.mul(ad.sub(tx, mu_x), inv_sx)
    dy = ad.mul(ad.sub(ty, mu_y), inv_sy)

    one_m_r2 = ad.clamp(ad.sub(ad.Value(np.ones_like(rho.data)),
                               ad.mul(rho, rho)), lo=RHO_FLOOR)
    quad = ad.sub(ad.add(ad.mul(dx, dx), ad.mul(dy, dy)),
                  ad.scale(ad.mul(rho, ad.mul(dx, dy)), 2.0))
    nll = ad.add(
        ad.add(ad.add(s_x, s_y), ad.scale(ad.log(one_m_r2), 0.5)),
        ad.mul(quad, ad.scale(ad.reciprocal(one_m_r2), 0.5)))
    nll = ad.add(nll, ad.Value(np.full_like(rho.data, math.log(2 * math.pi))))
    return nll, np.exp(s_x.data + s_y.data) / NLL_REF_VAR


def _channel(x: ad.Value, i: int) -> ad.Value:
    # keep the channel axis so elementwise shapes line up: (1, T, N)
    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[i:i + 1] = g
        return (gx,)
    return ad.Value(x.data[i:i + 1], (x,), vjp)


def kl_diag_gaussians(q: LatentGaussian, p: LatentGaussian) -> ad.Value:
    """KL(q || p) for diagonal Gaussians, summed over latent channels and
    time, then averaged over agents."""
    return ad.scale(ad.sum_all(kl_cells(q, p)), 1.0 / q.mu.data.shape[-1])


def kl_cells(q: LatentGaussian, p: LatentGaussian) -> ad.Value:
    """KL(q || p) of each latent entry (L, T, N), for kl_diag_gaussians."""
    if q.mu.data.shape != p.mu.data.shape:
        raise DimensionError(
            f"kl_diag_gaussians: q {q.mu.data.shape} vs p {p.mu.data.shape}")
    var_ratio = ad.exp(ad.sub(q.logvar, p.logvar))
    dmu = ad.sub(q.mu, p.mu)
    mahal = ad.mul(ad.mul(dmu, dmu), ad.exp(ad.neg(p.logvar)))
    return ad.scale(
        ad.sub(ad.add(ad.sub(p.logvar, q.logvar), ad.add(var_ratio, mahal)),
               ad.Value(np.ones_like(q.mu.data))), 0.5)


def anneal_weight(epoch: int) -> float:
    """Linear KL annealing: ANNEAL_SLOPE per epoch to ANNEAL_CAP_EPOCHS."""
    if epoch < 0:
        raise ParameterError(f"epoch must be >= 0, got {epoch}")
    return ANNEAL_SLOPE * min(epoch, ANNEAL_CAP_EPOCHS)


def window_losses(pred: BivariateGaussianSeq, target: np.ndarray,
                  q: LatentGaussian, p: LatentGaussian, epoch: int,
                  agents: list[int], prior_samples: int = 0
                  ) -> tuple[ad.Value, list[LossReport]]:
    """Training loss of windows stacked along the agent axis: per window,
    rec + w_kl(epoch) * kl over all output frames.

    Window w has agents[w] latent columns in q and p. In pred and target it
    has agents[w] columns, one per agent, then prior_samples columns that
    decode latents drawn from the conditional prior for one agent, whose
    target columns repeat that agent's. Each window's columns follow the
    previous window's.

    rec covers the agent columns only, and each reported total is exactly
    rec + w_kl * kl. The traced objective, returned with the reports, is
    the sum of the windows' objectives; its gradient is the sum of their
    gradients, since the columns of different windows do not interact. A
    window's objective differs from its reported total in two ways. Its
    NLL is weighted by the predicted variance (NLL_REF_VAR). And the
    weighted NLL of the prior sample with the lowest mean NLL over frames
    is added (best-of-many, Bhattacharyya et al. 2018; the other samples
    carry no gradient). Otherwise the prior's only training signal is the
    KL at weight w_kl <= 0.005, so under plain SGD it stays near its
    initialization, and best-of-K evaluation samples an untrained
    distribution. Since only the best sample counts, training picks it
    beforehand without a record and passes that one (prior_samples=1; see
    training.chunk_gradients): the same objective, summed in another
    order.
    """
    if sum(agents) != q.mu.data.shape[2] or \
            sum(agents) + len(agents) * prior_samples != pred.data.shape[2]:
        raise DimensionError(
            f"window_losses: {agents} agents and {prior_samples} prior "
            f"samples per window vs {q.mu.data.shape[2]} latent and "
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
        if prior_samples:
            samples = cells.data[0, :, col + n:col + n + prior_samples]
            best = col + n + int(np.argmin(samples.mean(axis=0)))
            mask[:, :, best] = 1.0 / t
        reports.append(LossReport(total=rec + w * kl_w, rec=rec, kl=kl_w,
                                  weight=w, epoch=epoch))
        col += n + prior_samples
        row += n
    objective = ad.add(ad.sum_all(ad.mul(cells, ad.Value(mask * weight))),
                       ad.sum_all(ad.mul(kl, ad.Value(kl_mask))))
    return objective, reports


class MetricsLog:
    """Plain-text CSV loss log: epoch,step,total,rec,kl,w_kl."""

    HEADER = "epoch,step,total,rec,kl,w_kl"

    def __init__(self, path):
        self.path = path
        with open(path, "w") as fh:
            fh.write(self.HEADER + "\n")

    def append(self, epoch: int, step: int, report: LossReport):
        with open(self.path, "a") as fh:
            fh.write(f"{epoch},{step},{report.total!r},{report.rec!r},"
                     f"{report.kl!r},{report.weight!r}\n")

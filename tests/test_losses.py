import math

import numpy as np
import pytest

from stgcvae import autodiff as ad
from stgcvae import losses
from stgcvae.errors import DimensionError, ParameterError
from stgcvae.model import BivariateGaussianSeq, LatentGaussian


def raw_from(mu_x, mu_y, s_x, s_y, r, t=1, n=1):
    raw = np.zeros((5, t, n))
    raw[0], raw[1], raw[2], raw[3], raw[4] = mu_x, mu_y, s_x, s_y, r
    return BivariateGaussianSeq(ad.leaf(raw))


def dense_nll_oracle(raw, target):
    """Direct 2x2 covariance-matrix density evaluation (explicit inverse
    and determinant), averaged over all (agent, frame) cells."""
    mu = raw[0:2]
    sx, sy = np.exp(raw[2]), np.exp(raw[3])
    rho = np.tanh(raw[4])
    total = 0.0
    _, t, n = raw.shape
    for ti in range(t):
        for ni in range(n):
            cov = np.array([
                [sx[ti, ni] ** 2, rho[ti, ni] * sx[ti, ni] * sy[ti, ni]],
                [rho[ti, ni] * sx[ti, ni] * sy[ti, ni], sy[ti, ni] ** 2]])
            d = target[:, ti, ni] - mu[:, ti, ni]
            det = np.linalg.det(cov)
            total += 0.5 * (d @ np.linalg.inv(cov) @ d) \
                + 0.5 * math.log(det) + math.log(2 * math.pi)
    return total / (t * n)


class TestBivariateNll:
    def test_at_mean_unit_sigma(self):
        pred = raw_from(0.0, 0.0, 0.0, 0.0, 0.0)
        nll = losses.bivariate_nll(pred, np.zeros((2, 1, 1)))
        assert float(nll.data) == pytest.approx(math.log(2 * math.pi), abs=1e-9)

    def test_unit_offset(self):
        pred = raw_from(0.0, 0.0, 0.0, 0.0, 0.0)
        target = np.zeros((2, 1, 1))
        target[0] = 1.0
        nll = losses.bivariate_nll(pred, target)
        assert float(nll.data) == pytest.approx(math.log(2 * math.pi) + 0.5,
                                                abs=1e-9)

    def test_matches_matrix_form_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            raw = rng.uniform(-1, 1, (5, 4, 3))
            target = rng.uniform(-1, 1, (2, 4, 3))
            ours = float(losses.bivariate_nll(
                BivariateGaussianSeq(ad.leaf(raw)), target).data)
            assert ours == pytest.approx(dense_nll_oracle(raw, target),
                                         abs=1e-10)

    def test_degenerate_channels_are_clamped(self):
        # raw s far below the floor / raw r far past the cap should behave
        # exactly like the clamped values: the oracle sees the clipped raw
        rng = np.random.default_rng(7)
        raw = rng.uniform(-1, 1, (5, 3, 2))
        raw[2, 0, 0] = -40.0   # would give sigma ~ e^-40, exploding 1/sigma^2
        raw[3, 1, 1] = -12.0
        raw[4, 2, 0] = 30.0    # would give rho ~ 1, exploding 1/(1-rho^2)
        raw[4, 0, 1] = -30.0
        target = rng.uniform(-1, 1, (2, 3, 2))
        clipped = raw.copy()
        clipped[2:4] = np.clip(clipped[2:4], losses.SIGMA_S_MIN,
                               losses.LOGVAR_MAX)
        clipped[4] = np.clip(clipped[4], -losses.RHO_R_MAX, losses.RHO_R_MAX)
        ours = float(losses.bivariate_nll(
            BivariateGaussianSeq(ad.leaf(raw)), target).data)
        assert np.isfinite(ours)
        assert ours == pytest.approx(dense_nll_oracle(clipped, target),
                                     abs=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            losses.bivariate_nll(raw_from(0, 0, 0, 0, 0, t=3),
                                 np.zeros((2, 4, 1)))

    def test_minimized_at_target_mean(self):
        # gradient w.r.t. the mu channels vanishes when mu == target
        rng = np.random.default_rng(2)
        raw = rng.uniform(-0.5, 0.5, (5, 3, 2))
        target = raw[0:2].copy()
        val = BivariateGaussianSeq(ad.leaf(raw))
        grads = ad.backward(losses.bivariate_nll(val, target))
        g = grads.get(val.raw)
        assert np.max(np.abs(g[0:2])) < 1e-12

    def test_gradient_vs_finite_diff(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(-1, 1, (5, 3, 2))
        target = rng.uniform(-1, 1, (2, 3, 2))
        leaf = ad.leaf(raw)
        grads = ad.backward(losses.bivariate_nll(
            BivariateGaussianSeq(leaf), target))
        g = grads.get(leaf)
        h = 1e-6
        for idx in [(0, 0, 0), (2, 1, 1), (4, 2, 0), (3, 0, 1)]:
            rp, rm = raw.copy(), raw.copy()
            rp[idx] += h
            rm[idx] -= h
            num = (dense_nll_oracle(rp, target)
                   - dense_nll_oracle(rm, target)) / (2 * h)
            assert g[idx] == pytest.approx(num, rel=1e-5, abs=1e-8)


def latent(mu, logvar):
    return LatentGaussian(ad.leaf(np.asarray(mu, float)),
                          ad.leaf(np.asarray(logvar, float)))


class TestKl:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(0)
        mu = rng.uniform(-1, 1, (4, 8, 3))
        lv = rng.uniform(-1, 1, (4, 8, 3))
        kl = losses.kl_diag_gaussians(latent(mu, lv), latent(mu, lv))
        assert float(kl.data) == 0.0

    def test_unit_shift_half(self):
        kl = losses.kl_diag_gaussians(latent([[[1.0]]], [[[0.0]]]),
                                      latent([[[0.0]]], [[[0.0]]]))
        assert float(kl.data) == pytest.approx(0.5, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            q = latent(rng.uniform(-2, 2, (3, 4, 2)),
                       rng.uniform(-2, 2, (3, 4, 2)))
            p = latent(rng.uniform(-2, 2, (3, 4, 2)),
                       rng.uniform(-2, 2, (3, 4, 2)))
            assert float(losses.kl_diag_gaussians(q, p).data) >= 0.0

    def test_monte_carlo_oracle(self):
        # KL(q || p) = E_q[log q - log p], estimated over 1e6 samples
        rng = np.random.default_rng(2)
        mu_q, lv_q = 0.4, np.log(0.8)
        mu_p, lv_p = -0.3, np.log(1.7)
        kl = float(losses.kl_diag_gaussians(
            latent([[[mu_q]]], [[[lv_q]]]), latent([[[mu_p]]], [[[lv_p]]])).data)
        n = 1_000_000
        x = mu_q + np.sqrt(np.exp(lv_q)) * rng.standard_normal(n)
        logq = -0.5 * (np.log(2 * np.pi) + lv_q + (x - mu_q) ** 2 / np.exp(lv_q))
        logp = -0.5 * (np.log(2 * np.pi) + lv_p + (x - mu_p) ** 2 / np.exp(lv_p))
        diffs = logq - logp
        se = diffs.std(ddof=1) / np.sqrt(n)
        assert abs(kl - diffs.mean()) < 3 * se

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            losses.kl_diag_gaussians(latent(np.zeros((2, 1, 1)),
                                            np.zeros((2, 1, 1))),
                                     latent(np.zeros((3, 1, 1)),
                                            np.zeros((3, 1, 1))))

    def test_gradient_vs_finite_diff(self):
        rng = np.random.default_rng(3)
        arrs = [rng.uniform(-1, 1, (2, 3, 2)) for _ in range(4)]
        leaves = [ad.leaf(a) for a in arrs]
        loss = losses.kl_diag_gaussians(
            LatentGaussian(leaves[0], leaves[1]),
            LatentGaussian(leaves[2], leaves[3]))
        grads = ad.backward(loss)

        def value(vals):
            return float(losses.kl_diag_gaussians(
                LatentGaussian(ad.leaf(vals[0]), ad.leaf(vals[1])),
                LatentGaussian(ad.leaf(vals[2]), ad.leaf(vals[3]))).data)

        h = 1e-6
        for i in range(4):
            idx = (1, 2, 0)
            vp = [a.copy() for a in arrs]
            vm = [a.copy() for a in arrs]
            vp[i][idx] += h
            vm[i][idx] -= h
            num = (value(vp) - value(vm)) / (2 * h)
            assert grads.get(leaves[i])[idx] == pytest.approx(num, rel=1e-4,
                                                              abs=1e-8)


class TestAnnealing:
    def test_epoch_zero(self):
        assert losses.anneal_weight(0) == 0.0

    def test_linear_value(self):
        assert losses.anneal_weight(100) == pytest.approx(2e-3)

    def test_cap(self):
        assert losses.anneal_weight(300) == pytest.approx(5e-3)
        assert losses.anneal_weight(250) == losses.anneal_weight(300)

    def test_negative_epoch(self):
        with pytest.raises(ParameterError):
            losses.anneal_weight(-1)

    def test_nondecreasing(self):
        ws = [losses.anneal_weight(e) for e in range(0, 400, 7)]
        assert all(b >= a for a, b in zip(ws, ws[1:]))


class TestTotalLoss:
    def _parts(self, epoch, same_latents=False):
        rng = np.random.default_rng(4)
        pred = BivariateGaussianSeq(ad.leaf(rng.uniform(-1, 1, (5, 20, 2))))
        target = rng.uniform(-1, 1, (2, 20, 2))
        q = latent(rng.uniform(-1, 1, (3, 8, 2)), rng.uniform(-1, 1, (3, 8, 2)))
        if same_latents:
            p = latent(q.mu.data.copy(), q.logvar.data.copy())
        else:
            p = latent(rng.uniform(-1, 1, (3, 8, 2)),
                       rng.uniform(-1, 1, (3, 8, 2)))
        return losses.window_losses(pred, target, q, p, epoch, [2])[1][0]

    def test_epoch_zero_total_is_rec(self):
        r = self._parts(0)
        assert r.total == r.rec

    def test_equal_latents_total_is_rec(self):
        r = self._parts(100, same_latents=True)
        assert r.kl == 0.0
        assert r.total == r.rec

    def test_identity_exact(self):
        r = self._parts(37)
        assert r.total == r.rec + r.weight * r.kl


class TestMetricsLog:
    def test_csv_lines(self, tmp_path):
        path = tmp_path / "metrics.csv"
        log = losses.MetricsLog(path)
        report = losses.LossReport(total=1.5, rec=1.0, kl=25.0,
                                   weight=0.02, epoch=3)
        log.append(3, 11, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,step,total,rec,kl,w_kl"
        assert lines[1].startswith("3,11,1.5,1.0,25.0,0.02")

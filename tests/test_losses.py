import math

import numpy as np
import pytest

from stgcvae import autodiff as ad
from stgcvae import evaluation, losses, model, synthetic, training
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


def mean_nll(pred, target):
    """The mean of nll_cells over every (agent, frame) cell."""
    cells, _ = losses.nll_cells(pred, target)
    return ad.scale(ad.sum_all(cells), 1.0 / cells.data.size)


def mean_kl(q, p):
    """kl_cells summed over latent channels and time, averaged over agents."""
    return ad.scale(ad.sum_all(losses.kl_cells(q, p)),
                    1.0 / q.mu.data.shape[-1])


class TestBivariateNll:
    def test_at_mean_unit_sigma(self):
        pred = raw_from(0.0, 0.0, 0.0, 0.0, 0.0)
        nll = mean_nll(pred, np.zeros((2, 1, 1)))
        assert float(nll.data) == pytest.approx(math.log(2 * math.pi), abs=1e-9)

    def test_unit_offset(self):
        pred = raw_from(0.0, 0.0, 0.0, 0.0, 0.0)
        target = np.zeros((2, 1, 1))
        target[0] = 1.0
        nll = mean_nll(pred, target)
        assert float(nll.data) == pytest.approx(math.log(2 * math.pi) + 0.5,
                                                abs=1e-9)

    def test_matches_matrix_form_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            raw = rng.uniform(-1, 1, (5, 4, 3))
            target = rng.uniform(-1, 1, (2, 4, 3))
            ours = float(mean_nll(
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
        ours = float(mean_nll(
            BivariateGaussianSeq(ad.leaf(raw)), target).data)
        assert np.isfinite(ours)
        assert ours == pytest.approx(dense_nll_oracle(clipped, target),
                                     abs=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mean_nll(raw_from(0, 0, 0, 0, 0, t=3),
                                 np.zeros((2, 4, 1)))

    def test_minimized_at_target_mean(self):
        # gradient w.r.t. the mu channels vanishes when mu == target
        rng = np.random.default_rng(2)
        raw = rng.uniform(-0.5, 0.5, (5, 3, 2))
        target = raw[0:2].copy()
        val = BivariateGaussianSeq(ad.leaf(raw))
        grads = ad.backward(mean_nll(val, target))
        g = grads.get(val.raw)
        assert np.max(np.abs(g[0:2])) < 1e-12

    def test_gradient_vs_finite_diff(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(-1, 1, (5, 3, 2))
        target = rng.uniform(-1, 1, (2, 3, 2))
        leaf = ad.leaf(raw)
        grads = ad.backward(mean_nll(
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
        kl = mean_kl(latent(mu, lv), latent(mu, lv))
        assert float(kl.data) == 0.0

    def test_unit_shift_half(self):
        kl = mean_kl(latent([[[1.0]]], [[[0.0]]]),
                                      latent([[[0.0]]], [[[0.0]]]))
        assert float(kl.data) == pytest.approx(0.5, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            q = latent(rng.uniform(-2, 2, (3, 4, 2)),
                       rng.uniform(-2, 2, (3, 4, 2)))
            p = latent(rng.uniform(-2, 2, (3, 4, 2)),
                       rng.uniform(-2, 2, (3, 4, 2)))
            assert float(mean_kl(q, p).data) >= 0.0

    def test_monte_carlo_oracle(self):
        # KL(q || p) = E_q[log q - log p], estimated over 1e6 samples
        rng = np.random.default_rng(2)
        mu_q, lv_q = 0.4, np.log(0.8)
        mu_p, lv_p = -0.3, np.log(1.7)
        kl = float(mean_kl(
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
            mean_kl(latent(np.zeros((2, 1, 1)),
                                            np.zeros((2, 1, 1))),
                                     latent(np.zeros((3, 1, 1)),
                                            np.zeros((3, 1, 1))))

    def test_gradient_vs_finite_diff(self):
        rng = np.random.default_rng(3)
        arrs = [rng.uniform(-1, 1, (2, 3, 2)) for _ in range(4)]
        leaves = [ad.leaf(a) for a in arrs]
        loss = mean_kl(
            LatentGaussian(leaves[0], leaves[1]),
            LatentGaussian(leaves[2], leaves[3]))
        grads = ad.backward(loss)

        def value(vals):
            return float(mean_kl(
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


# ---------------------------------------------------------------------------
# the elementwise chain that nll_cells and kl_cells replaced, with its ops,
# as the reference


def chain_sub(a, b):
    return ad.Value(a.data - b.data, (a, b), lambda g: (g, -g))


def chain_neg(x):
    return ad.scale(x, -1.0)


def chain_log(x):
    return ad.Value(np.log(x.data), (x,), lambda g: (g / x.data,))


def chain_tanh(x):
    out = np.tanh(x.data)
    return ad.Value(out, (x,), lambda g: (g * (1.0 - out * out),))


def chain_reciprocal(x):
    out = 1.0 / x.data
    return ad.Value(out, (x,), lambda g: (-g * out * out,))


def chain_channel(x, i):
    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[i:i + 1] = g
        return (gx,)
    return ad.Value(x.data[i:i + 1], (x,), vjp)


def chain_nll_cells(pred, target):
    raw = pred.raw
    target = np.asarray(target, dtype=np.float64)
    mu_x, mu_y = chain_channel(raw, 0), chain_channel(raw, 1)
    s_x = ad.clamp(chain_channel(raw, 2), losses.SIGMA_S_MIN,
                   losses.LOGVAR_MAX)
    s_y = ad.clamp(chain_channel(raw, 3), losses.SIGMA_S_MIN,
                   losses.LOGVAR_MAX)
    rho = chain_tanh(ad.clamp(chain_channel(raw, 4), -losses.RHO_R_MAX,
                              losses.RHO_R_MAX))
    tx = ad.Value(target[0:1])
    ty = ad.Value(target[1:2])
    inv_sx = ad.exp(chain_neg(s_x))
    inv_sy = ad.exp(chain_neg(s_y))
    dx = ad.mul(chain_sub(tx, mu_x), inv_sx)
    dy = ad.mul(chain_sub(ty, mu_y), inv_sy)
    one_m_r2 = ad.clamp(chain_sub(ad.Value(np.ones_like(rho.data)),
                                  ad.mul(rho, rho)), lo=losses.RHO_FLOOR)
    quad = chain_sub(ad.add(ad.mul(dx, dx), ad.mul(dy, dy)),
                     ad.scale(ad.mul(rho, ad.mul(dx, dy)), 2.0))
    nll = ad.add(
        ad.add(ad.add(s_x, s_y), ad.scale(chain_log(one_m_r2), 0.5)),
        ad.mul(quad, ad.scale(chain_reciprocal(one_m_r2), 0.5)))
    nll = ad.add(nll, ad.Value(np.full_like(rho.data, math.log(2 * math.pi))))
    return nll, np.exp(s_x.data + s_y.data) / losses.NLL_REF_VAR


def chain_kl_cells(q, p):
    var_ratio = ad.exp(chain_sub(q.logvar, p.logvar))
    dmu = chain_sub(q.mu, p.mu)
    mahal = ad.mul(ad.mul(dmu, dmu), ad.exp(chain_neg(p.logvar)))
    return ad.scale(
        chain_sub(ad.add(chain_sub(p.logvar, q.logvar),
                         ad.add(var_ratio, mahal)),
                  ad.Value(np.ones_like(q.mu.data))), 0.5)


def assert_bytes(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), \
        np.max(np.abs(got - want))


def clamp_grid(values, shape, gen):
    """An array of `shape` with every entry of `values` at least once, the
    rest drawn from them."""
    flat = np.resize(values, int(np.prod(shape)))
    flat[len(values):] = gen.choice(values, flat.size - len(values))
    return gen.permutation(flat).reshape(shape)


def on_and_around(*bounds):
    """Each bound, its neighbouring floats, values beyond and between the
    bounds, and +-0."""
    out = [0.0, -0.0, 0.5, -0.5]
    for b in bounds:
        out += [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                b - 2.0, b + 2.0]
    return np.array(out)


def signed_gradient(shape, gen):
    """Incoming gradients of both signs, with +-0 among them."""
    g = gen.standard_normal(shape)
    g.reshape(-1)[:4] = [0.0, -0.0, 0.0, -0.0]
    return gen.permutation(g.reshape(-1)).reshape(shape)


class TestFusedLossOps:
    """nll_cells and kl_cells, byte for byte the elementwise chain they
    replaced: forward cells, weights and every leaf's gradient."""

    def nll_both(self, raw, target, g):
        out = []
        for cells_fn in (losses.nll_cells, chain_nll_cells):
            leaf = ad.leaf(raw)
            cells, weight = cells_fn(BivariateGaussianSeq(leaf), target)
            grads = ad.backward(ad.sum_all(ad.mul(cells, ad.Value(g))))
            out.append((cells.data, weight, grads.get(leaf)))
        return out

    @pytest.mark.parametrize("seed", range(4))
    def test_nll_grid_around_every_clamp_bound(self, seed):
        gen = np.random.default_rng(seed)
        t, n = 7, 40
        raw = np.empty((5, t, n))
        raw[0:2] = clamp_grid([0.0, -0.0, 0.3, -1.7, 2.5], (2, t, n), gen)
        raw[2:4] = clamp_grid(on_and_around(losses.SIGMA_S_MIN,
                                            losses.LOGVAR_MAX),
                              (2, t, n), gen)
        raw[4] = clamp_grid(on_and_around(-losses.RHO_R_MAX,
                                          losses.RHO_R_MAX), (t, n), gen)
        target = raw[0:2] + clamp_grid([0.0, -0.0, 0.4, -0.9], (2, t, n), gen)
        got, want = self.nll_both(raw, target,
                                  signed_gradient((1, t, n), gen))
        for a, b in zip(got, want):
            assert_bytes(a, b)

    def test_nll_rho_floor(self, monkeypatch):
        """With the rho cap lifted, 1 - rho^2 lies above, on and below
        RHO_FLOOR (above 0 from r = 11.5 to 15, 0 where tanh gives 1)."""
        monkeypatch.setattr(losses, "RHO_R_MAX", 40.0)
        gen = np.random.default_rng(5)
        raw = gen.uniform(-1, 1, (5, 4, 6))
        raw[4] = clamp_grid([0.0, -0.0, 10.3, -10.3, 11.5, -12.0, 13.0, 15.0,
                             30.0, -30.0, 40.0, 50.0,
                             np.arctanh(math.sqrt(1 - losses.RHO_FLOOR))],
                            (4, 6), gen)
        got, want = self.nll_both(raw, gen.uniform(-1, 1, (2, 4, 6)),
                                  signed_gradient((1, 4, 6), gen))
        for a, b in zip(got, want):
            assert_bytes(a, b)

    @pytest.mark.parametrize("seed", range(4))
    def test_kl_grid(self, seed):
        gen = np.random.default_rng(seed)
        shape = (3, 8, 5)
        logvars = on_and_around(model.LOGVAR_MIN, model.LOGVAR_MAX)
        arrays = [clamp_grid([0.0, -0.0, 0.7, -1.3], shape, gen),
                  clamp_grid(logvars, shape, gen),
                  clamp_grid([0.0, -0.0, 0.7, -1.3], shape, gen),
                  clamp_grid(logvars, shape, gen)]
        arrays[2].reshape(-1)[:10] = arrays[0].reshape(-1)[:10]  # dmu = 0
        arrays[3].reshape(-1)[:10] = arrays[1].reshape(-1)[:10]
        g = signed_gradient(shape, gen)
        out = []
        for cells_fn in (losses.kl_cells, chain_kl_cells):
            leaves = [ad.leaf(a) for a in arrays]
            cells = cells_fn(LatentGaussian(*leaves[:2]),
                             LatentGaussian(*leaves[2:]))
            grads = ad.backward(ad.sum_all(ad.mul(cells, ad.Value(g))))
            out.append([cells.data] + [grads.get(v) for v in leaves])
        for a, b in zip(*out):
            assert_bytes(a, b)

    @pytest.mark.parametrize("agents", [1, 4, 12])
    def test_training_and_sampling_match_the_chain(self, monkeypatch,
                                                   agents):
        """In a training pass the posterior and prior feed the decoder too,
        so their gradients add the loss terms' to others; every parameter
        gradient, loss and best-of-20 sample keeps its bits."""
        m = model.TrajCvae(model.ModelConfig(feature_scale=4.0),
                           rng=np.random.default_rng(3))
        window = synthetic.make_window("turn", agents,
                                       np.random.default_rng(agents))

        def outputs():
            grads, report = training.window_gradients(
                m, window, 40, np.random.default_rng(7))
            samples = evaluation.sample_futures(
                m, window, np.random.default_rng(11), 20, "full")
            return [np.array([report.total, report.rec, report.kl]),
                    samples, *(grads[name] for name in sorted(grads))]

        got = outputs()
        monkeypatch.setattr(losses, "nll_cells", chain_nll_cells)
        monkeypatch.setattr(losses, "kl_cells", chain_kl_cells)
        for a, b in zip(got, outputs()):
            assert_bytes(a, b)

    def test_vjps_vs_finite_diff(self):
        gen = np.random.default_rng(9)
        raw = gen.uniform(-1, 1, (5, 3, 2))
        target = gen.uniform(-1, 1, (2, 3, 2))
        latents = [gen.uniform(-1, 1, (2, 3, 2)) for _ in range(4)]

        def nll(arrays):
            return losses.nll_cells(BivariateGaussianSeq(arrays[0]),
                                    target)[0]

        def kl(arrays):
            return losses.kl_cells(LatentGaussian(*arrays[:2]),
                                   LatentGaussian(*arrays[2:]))

        h = 1e-6
        for cells_fn, inputs in ((nll, [raw]), (kl, latents)):
            g = gen.standard_normal(cells_fn([ad.Value(a)
                                              for a in inputs]).shape)

            def value(arrays):
                return float(np.sum(cells_fn([ad.Value(a)
                                              for a in arrays]).data * g))

            leaves = [ad.leaf(a) for a in inputs]
            grads = ad.backward(ad.sum_all(ad.mul(cells_fn(leaves),
                                                  ad.Value(g))))
            for i, x in enumerate(inputs):
                num = np.zeros_like(x)
                for idx in np.ndindex(x.shape):
                    plus = [a.copy() for a in inputs]
                    minus = [a.copy() for a in inputs]
                    plus[i][idx] += h
                    minus[i][idx] -= h
                    num[idx] = (value(plus) - value(minus)) / (2 * h)
                np.testing.assert_allclose(grads.get(leaves[i]), num,
                                           rtol=1e-6, atol=1e-8)

    def test_nll_needs_five_channels(self):
        # a 4-channel raw would otherwise give an empty NLL
        with pytest.raises(DimensionError):
            losses.nll_cells(BivariateGaussianSeq(ad.leaf(np.zeros((4, 3, 2)))),
                             np.zeros((2, 3, 2)))

    @pytest.mark.parametrize("which", range(4))
    def test_kl_needs_equal_shapes(self, which):
        # a (L, T, 1) operand would otherwise broadcast
        arrays = [np.zeros((2, 3, 4)) for _ in range(4)]
        arrays[which] = np.zeros((2, 3, 1))
        with pytest.raises(DimensionError):
            losses.kl_cells(latent(*arrays[:2]), latent(*arrays[2:]))


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
        # two agent columns, then the window's prior sample
        rng = np.random.default_rng(4)
        pred = BivariateGaussianSeq(ad.leaf(rng.uniform(-1, 1, (5, 20, 3))))
        target = rng.uniform(-1, 1, (2, 20, 3))
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
        report = losses.LossReport(total=1.5, rec=1.0, kl=25.0,
                                   weight=0.02)
        with open(path, "w") as fh:
            losses.MetricsLog(fh).append(3, 11, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,step,total,rec,kl,w_kl"
        assert lines[1].startswith("3,11,1.5,1.0,25.0,0.02")

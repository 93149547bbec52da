import numpy as np
import pytest

from stgcvae import autodiff as ad
from stgcvae import evaluation, graph, model, synthetic
from stgcvae.data import OBS_LEN, PRED_LEN, SequenceWindow, to_displacements
from stgcvae.errors import (DimensionError, DivergenceError,
                            MissingTruthError, ParameterError)

SMALL = model.ModelConfig(embed_channels=6, latent_len=4)


def loop_ade(pred, truth):
    total = 0.0
    t, n, _ = pred.shape
    for ti in range(t):
        for ni in range(n):
            total += np.sqrt((pred[ti, ni, 0] - truth[ti, ni, 0]) ** 2
                             + (pred[ti, ni, 1] - truth[ti, ni, 1]) ** 2)
    return total / (t * n)


def loop_fde(pred, truth):
    n = pred.shape[1]
    total = 0.0
    for ni in range(n):
        total += np.sqrt((pred[-1, ni, 0] - truth[-1, ni, 0]) ** 2
                         + (pred[-1, ni, 1] - truth[-1, ni, 1]) ** 2)
    return total / n


class TestMetrics:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(-5, 5, (12, 3, 2))
        assert evaluation.ade(p, p) == 0.0
        assert evaluation.fde(p, p) == 0.0

    def test_constant_offset_345(self):
        rng = np.random.default_rng(1)
        truth = rng.uniform(-5, 5, (12, 4, 2))
        pred = truth + np.array([0.3, 0.4])
        assert evaluation.ade(pred, truth) == pytest.approx(0.5, abs=1e-12)
        assert evaluation.fde(pred, truth) == pytest.approx(0.5, abs=1e-12)

    def test_final_frame_only_offset(self):
        truth = np.zeros((12, 1, 2))
        pred = truth.copy()
        pred[-1, 0] = [0.3, 0.4]
        assert evaluation.fde(pred, truth) == pytest.approx(0.5)
        assert evaluation.ade(pred, truth) == pytest.approx(0.5 / 12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            pred = rng.uniform(-5, 5, (12, 3, 2))
            truth = rng.uniform(-5, 5, (12, 3, 2))
            assert abs(evaluation.ade(pred, truth)
                       - loop_ade(pred, truth)) < 1e-12
            assert abs(evaluation.fde(pred, truth)
                       - loop_fde(pred, truth)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            evaluation.ade(np.zeros((12, 2, 2)), np.zeros((12, 3, 2)))

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(3)
        pred = rng.uniform(-5, 5, (12, 3, 2))
        truth = rng.uniform(-5, 5, (12, 3, 2))
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        shift = np.array([10.0, -4.0])
        a0 = evaluation.ade(pred, truth)
        a1 = evaluation.ade(pred @ rot.T + shift, truth @ rot.T + shift)
        assert a1 == pytest.approx(a0, abs=1e-9)


class TestBaseline:
    def test_constant_velocity_exact(self):
        w = synthetic.make_window("const-velocity", 2,
                                  np.random.default_rng(0))
        # rebuild without jitter for the exactness check
        pos = np.zeros((20, 1, 2))
        pos[:, 0, 0] = 0.25 * np.arange(20)
        a, f = evaluation.constant_velocity_baseline(
            SequenceWindow([1], pos))
        assert a == pytest.approx(0.0, abs=1e-12)
        assert f == pytest.approx(0.0, abs=1e-12)

    def test_stopping_agent_hand_case(self):
        # walks 1 m/frame through frame 7, then freezes; baseline keeps going
        pos = np.zeros((20, 1, 2))
        pos[:8, 0, 0] = np.arange(8.0)
        pos[8:, 0, 0] = 7.0
        a, f = evaluation.constant_velocity_baseline(SequenceWindow([1], pos))
        assert f == pytest.approx(12.0, abs=1e-12)
        assert a == pytest.approx(np.mean(np.arange(1, 13.0)), abs=1e-12)

    def test_curved_fixture_hand_extrapolation(self):
        # constant velocity (1, 0) observed; truth turns to (0, 1) after obs
        pos = np.zeros((20, 1, 2))
        pos[:8, 0, 0] = np.arange(8.0)
        pos[8:, 0, 0] = 7.0
        pos[8:, 0, 1] = np.arange(1, 13.0)
        a, f = evaluation.constant_velocity_baseline(SequenceWindow([1], pos))
        # hand: baseline frame t is (7+t, 0), truth (7, t) -> dist t*sqrt(2)
        dists = np.arange(1, 13.0) * np.sqrt(2)
        assert a == pytest.approx(dists.mean(), abs=1e-12)
        assert f == pytest.approx(dists[-1], abs=1e-12)


def make_model_and_window(seed=0, n=2):
    m = model.TrajCvae(SMALL, rng=np.random.default_rng(seed))
    w = synthetic.make_window("const-velocity", n, np.random.default_rng(3))
    return m, w


def reference_futures(m, window, rng, k, sample_mode):
    """k single samples, each through its own recorded prior_forward,
    reparameterize and decode on one rng: the sampling path that
    sample_futures replaced."""
    obs_len = OBS_LEN
    obs_pos = window.positions[:obs_len]
    scale = m.config.feature_scale
    futures = []
    for _ in range(k):
        adj = graph.normalized_adjacency(obs_pos)
        p = m.traced_params()
        v_obs = ad.leaf(to_displacements(obs_pos) * scale)
        prior = m.prior_forward(p, v_obs, adj)
        z = ad.reparameterize(prior.mu, prior.logvar,
                              rng.standard_normal(prior.mu.data.shape))
        out = m.decode(p, z, m.observe(p, v_obs, adj)).constrained()
        steps = out[0:2, obs_len:, :].copy()
        if sample_mode == "full":
            sx, sy, rho = out[2, obs_len:], out[3, obs_len:], out[4, obs_len:]
            e1 = rng.standard_normal(sx.shape)
            e2 = rng.standard_normal(sx.shape)
            steps[0] += sx * e1
            steps[1] += sy * (rho * e1
                              + np.sqrt(np.maximum(1 - rho ** 2, 0)) * e2)
        steps = np.transpose(steps, (1, 2, 0)) / scale
        futures.append(obs_pos[-1][None] + np.cumsum(steps, axis=0))
    return np.stack(futures)


def replaced_sample_futures(m, window, rng, k, sample_mode):
    """sample_futures before it drew latent-mode noise in one call, decoded
    one-sample passes without a gather and copied only the mean channels
    in latent mode: per-sample draws into column slices, an np.tile gather
    at every pass and constrained() in both modes."""
    cfg = m.config
    obs_len, pred_len = OBS_LEN, PRED_LEN
    obs_pos = window.positions[:obs_len]
    n = obs_pos.shape[1]
    adj = graph.normalized_adjacency(obs_pos)
    scale = cfg.feature_scale
    eps = np.empty((cfg.latent_len, obs_len, k * n))
    e1, e2 = np.empty((2, pred_len, k * n))
    for s in range(k):
        sample = slice(s * n, (s + 1) * n)
        eps[:, :, sample] = rng.standard_normal((cfg.latent_len, obs_len, n))
        if sample_mode == "full":
            e1[:, sample] = rng.standard_normal((pred_len, n))
            e2[:, sample] = rng.standard_normal((pred_len, n))
    pred = np.empty((model.OUT_CHANNELS, pred_len, k * n))
    per_pass = max(1, evaluation.DECODE_COLUMNS // n)
    p = {name: ad.Value(v) for name, v in m.params.items()}
    v_obs = ad.Value(to_displacements(obs_pos) * scale)
    prior = m.prior_forward(p, v_obs, adj)
    obs = m.observe(p, v_obs, adj)
    sigma = np.exp(np.clip(prior.logvar.data, model.LOGVAR_MIN,
                           model.LOGVAR_MAX) * 0.5)
    z = (prior.mu.data[:, :, None] + sigma[:, :, None]
         * eps.reshape(cfg.latent_len, obs_len, k, n)).reshape(eps.shape)
    for start in range(0, k, per_pass):
        c = min(per_pass, k - start)
        cols = slice(start * n, (start + c) * n)
        out = m.decode(p, ad.Value(z[:, :, cols]), obs,
                       np.tile(np.arange(n), c))
        pred[:, :, cols] = out.constrained()[:, obs_len:]
    steps = pred[0:2]
    if sample_mode == "full":
        sx, sy, rho = pred[2:5]
        steps[0] += sx * e1
        steps[1] += sy * (rho * e1 + np.sqrt(np.maximum(1 - rho ** 2, 0)) * e2)
    steps = np.transpose(steps.reshape(2, pred_len, k, n), (2, 1, 3, 0)) \
        / scale
    return obs_pos[-1] + np.cumsum(steps, axis=1)


PAPER = model.TrajCvae(model.ModelConfig(feature_scale=4.0),
                       rng=np.random.default_rng(0))


class TestSampleFutures:
    # N and k cross the DECODE_COLUMNS pass boundaries: one pass (N = 1),
    # several full passes and a partial one, one sample per pass (N >= 40)
    @pytest.mark.parametrize("mode", ["latent", "full"])
    @pytest.mark.parametrize("k", [1, 7, 20])
    @pytest.mark.parametrize("n", [1, 5, 12, 40, 70])
    def test_matches_recorded_single_samples(self, n, k, mode):
        w = synthetic.make_window("turn", n, np.random.default_rng(n))
        got = evaluation.sample_futures(PAPER, w, np.random.default_rng(3),
                                        k, mode)
        want = reference_futures(PAPER, w, np.random.default_rng(3), k, mode)
        assert got.shape == (k, 12, n, 2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["latent", "full"])
    @pytest.mark.parametrize("k", [1, 7, 20])
    @pytest.mark.parametrize("n", [1, 5, 12, 40, 70])
    def test_bytes_of_replaced_function(self, n, k, mode):
        w = synthetic.make_window("stop", n, np.random.default_rng(n + 1))
        got = evaluation.sample_futures(PAPER, w, np.random.default_rng(4),
                                        k, mode)
        want = replaced_sample_futures(PAPER, w, np.random.default_rng(4), k,
                                       mode)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_one_adjacency_and_prior_pass(self, monkeypatch):
        calls = []
        for owner, name in ((graph, "normalized_adjacency"),
                            (model.TrajCvae, "prior_forward")):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, fn=fn, name=name:
                                calls.append(name) or fn(*a))
        w = synthetic.make_window("turn", 40, np.random.default_rng(0))
        evaluation.sample_futures(PAPER, w, np.random.default_rng(0), 20)
        assert sorted(calls) == ["normalized_adjacency", "prior_forward"]

    # 1e300 is finite, but twelve steps of it and the square of that are not
    @pytest.mark.parametrize("mode", ["latent", "full"])
    @pytest.mark.parametrize("bias", [1e300, 1e308])
    def test_diverged_future_raises(self, bias, mode):
        m, w = make_model_and_window(n=3)
        m.params["dec.out.b"][0] = bias
        with pytest.raises(DivergenceError, match="^window of scene "
                           "'const-velocity' with 3 agents: a sampled future "
                           "diverged"):
            evaluation.sample_futures(m, w, np.random.default_rng(0), 4,
                                      mode)

    def test_bad_arguments(self):
        m, w = make_model_and_window()
        with pytest.raises(ParameterError):
            evaluation.sample_futures(m, w, np.random.default_rng(0), 0)
        with pytest.raises(ParameterError):
            evaluation.sample_futures(m, w, np.random.default_rng(0), 2,
                                      "mean")


class TestBestOfK:
    def test_k_must_be_positive(self):
        m, w = make_model_and_window()
        with pytest.raises(ParameterError):
            evaluation.best_of_k(m, w, k=0)

    def test_k1_zero_variance_deterministic(self):
        m, w = make_model_and_window()
        # collapse the prior variance via the logvar head bias
        m.params["prior.head.logvar.w"] = np.zeros_like(
            m.params["prior.head.logvar.w"])
        m.params["prior.head.logvar.b"] = np.full(
            m.params["prior.head.logvar.b"].shape, -30.0)
        r1 = evaluation.best_of_k(m, w, k=1, rng=np.random.default_rng(0))
        r2 = evaluation.best_of_k(m, w, k=1, rng=np.random.default_rng(99))
        # the logvar clamp floors sigma at e^-5, so "zero variance" is
        # deterministic only up to that residual scale
        assert r1[0] == pytest.approx(r2[0], abs=0.05)
        assert r1[1] == pytest.approx(r2[1], abs=0.05)

    def test_best_of_20_not_worse_than_best_of_1(self):
        m, _ = make_model_and_window()
        rng = np.random.default_rng(7)
        a1s, a20s = [], []
        for i in range(30):
            w = synthetic.make_window("const-velocity", 2,
                                      np.random.default_rng(100 + i))
            a1, _ = evaluation.best_of_k(m, w, k=1,
                                         rng=np.random.default_rng(i))
            a20, _ = evaluation.best_of_k(m, w, k=20,
                                          rng=np.random.default_rng(i))
            a1s.append(a1)
            a20s.append(a20)
        assert np.mean(a20s) <= np.mean(a1s)

    def test_oracle_per_metric_not_worse(self):
        m, w = make_model_and_window()
        a, f = evaluation.best_of_k(m, w, k=5, rng=np.random.default_rng(0))
        ao, fo = evaluation.best_of_k(m, w, k=5, rng=np.random.default_rng(0),
                                      oracle_per_metric=True)
        assert ao == pytest.approx(a)
        assert fo <= f + 1e-12

    @pytest.mark.parametrize("oracle", [False, True])
    def test_scores_equal_per_candidate_metrics(self, oracle):
        w = synthetic.make_window("turn", 12, np.random.default_rng(4))
        preds = reference_futures(PAPER, w, np.random.default_rng(5), 20,
                                  "latent")
        truth = w.positions[8:]
        ades = [evaluation.ade(p, truth) for p in preds]
        fdes = [evaluation.fde(p, truth) for p in preds]
        want = (min(ades), min(fdes)) if oracle \
            else (min(ades), fdes[int(np.argmin(ades))])
        got = evaluation.best_of_k(PAPER, w, 20, np.random.default_rng(5),
                                   oracle_per_metric=oracle)
        assert got == want

    def test_full_mode_runs(self):
        m, w = make_model_and_window()
        a, f = evaluation.best_of_k(m, w, k=3, rng=np.random.default_rng(0),
                                    sample_mode="full")
        assert np.isfinite(a) and np.isfinite(f)


class TestBenchmark:
    def test_latency_finite_positive(self):
        m, w = make_model_and_window()
        stats = evaluation.benchmark_inference(m, w, repetitions=20, warmup=3)
        assert stats.repetitions == 20
        assert 0 < stats.mean < 10
        assert stats.p95 >= stats.mean * 0.2


class TestEvaluateDataset:
    def test_single_window_report(self):
        m, w = make_model_and_window()
        report = evaluation.evaluate_dataset(m, [w], k=3, seed=5)
        a, f = evaluation.best_of_k(
            m, w, k=3,
            rng=np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0]))
        assert report.ade == pytest.approx(a)
        assert report.fde == pytest.approx(f)
        assert report.windows == 1
        assert report.param_count == m.params.count_params()

    def test_mean_matches_scalar_accumulation(self):
        m, _ = make_model_and_window()
        windows = synthetic.make_corpus("const-velocity", 2, 6, seed=8)
        report = evaluation.evaluate_dataset(m, windows, k=2, seed=1)
        streams = np.random.SeedSequence(1).spawn(len(windows))
        total_a = total_f = 0.0
        for w, ss in zip(windows, streams):
            a, f = evaluation.best_of_k(m, w, k=2, rng=np.random.default_rng(ss))
            total_a += a
            total_f += f
        assert report.ade == pytest.approx(total_a / 6, abs=1e-12)
        assert report.fde == pytest.approx(total_f / 6, abs=1e-12)

    def test_reproducible(self):
        m, _ = make_model_and_window()
        windows = synthetic.make_corpus("turn", 2, 4, seed=3)
        r1 = evaluation.evaluate_dataset(m, windows, k=3, seed=9)
        r2 = evaluation.evaluate_dataset(m, windows, k=3, seed=9)
        assert r1.ade == r2.ade and r1.fde == r2.fde

    def test_infer_mode_window_rejected(self):
        m, _ = make_model_and_window()
        windows = synthetic.make_corpus("turn", 2, 3, seed=3)
        windows[1].positions[15, 0] = np.nan  # an unobserved future frame
        with pytest.raises(MissingTruthError, match=r"window 1\b"):
            evaluation.evaluate_dataset(m, windows, k=2)

    def test_per_scene_breakdown_and_render(self):
        m, _ = make_model_and_window()
        windows = (synthetic.make_corpus("const-velocity", 2, 2, 1, scene="a")
                   + synthetic.make_corpus("turn", 2, 2, 1, scene="b"))
        report = evaluation.evaluate_dataset(m, windows, k=2, seed=0)
        assert set(report.per_scene) == {"a", "b"}
        text = report.render()
        assert "[scene a]" in text and "param_count" in text


class TestExport:
    def test_csv_schema(self, tmp_path):
        m, w = make_model_and_window()
        path = tmp_path / "preds.csv"
        evaluation.export_predictions(path, m, [w], k=3, seed=0)
        lines = path.read_text().splitlines()
        assert lines[0] == "window_id,agent_id,frame,sample_id,x,y"
        sample_ids = {int(l.split(",")[3]) for l in lines[1:]}
        assert sample_ids == {-1, 0, 1, 2}
        # 12 truth frames + 3*12 sampled frames, times 2 agents
        assert len(lines) - 1 == (12 + 3 * 12) * 2

    @pytest.mark.parametrize("k, mode", [(0, "latent"), (2, "bogus")])
    def test_bad_arguments_leave_previous_file(self, tmp_path, k, mode):
        m, w = make_model_and_window()
        path = tmp_path / "preds.csv"
        path.write_text("previous\n")
        with pytest.raises(ParameterError):
            evaluation.export_predictions(path, m, [w], k=k, seed=0,
                                          sample_mode=mode)
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["preds.csv"]

    def test_failed_write_leaves_previous_file(self, tmp_path, monkeypatch):
        m, w = make_model_and_window()
        path = tmp_path / "preds.csv"
        path.write_text("previous\n")

        def fail(*args):
            raise RuntimeError("sampling failed")

        monkeypatch.setattr(evaluation, "sample_futures", fail)
        with pytest.raises(RuntimeError):
            evaluation.export_predictions(path, m, [w], k=2, seed=0)
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["preds.csv"]

    def test_rows_match_recorded_samples(self, tmp_path):
        windows = [synthetic.make_window("turn", n, np.random.default_rng(n))
                   for n in (3, 7)]
        path = tmp_path / "preds.csv"
        evaluation.export_predictions(path, PAPER, windows, k=4, seed=2,
                                      sample_mode="full")
        rows = [l.split(",") for l in path.read_text().splitlines()[1:]]
        streams = np.random.SeedSequence(2).spawn(2)
        for wi, (w, ss) in enumerate(zip(windows, streams)):
            preds = reference_futures(PAPER, w, np.random.default_rng(ss), 4,
                                      "full")
            want = [[str(wi), str(agent), str(8 + t), str(s),
                     f"{block[t, n, 0]:.6f}", f"{block[t, n, 1]:.6f}"]
                    for s, block in enumerate([w.positions[8:]] + list(preds),
                                              start=-1)
                    for t in range(12)
                    for n, agent in enumerate(w.agent_ids)]
            assert [r for r in rows if r[0] == str(wi)] == want

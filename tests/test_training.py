import hashlib
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgcvae import autodiff as ad
from stgcvae import losses, model, synthetic, training
from stgcvae.errors import (ConfigError, DivergenceError, FormatError,
                            MissingTruthError, ParameterError)

SMALL = model.ModelConfig(embed_channels=6, latent_len=4)


def small_setup(seed=0, n_windows=2):
    windows = synthetic.make_corpus("const-velocity", 2, n_windows, seed=42)
    m = model.TrajCvae(SMALL, rng=np.random.default_rng(seed))
    state = training.TrainState(params=m.params,
                                rng=np.random.default_rng(seed))
    return m, state, windows


def digest(store):
    h = hashlib.sha256()
    for name in sorted(store.names()):
        h.update(name.encode())
        h.update(store[name].tobytes())
    return h.hexdigest()


class TestSchedule:
    CFG = training.TrainConfig()

    def test_initial(self):
        assert training.lr_schedule(0, self.CFG) == 0.01

    def test_boundary(self):
        assert training.lr_schedule(149, self.CFG) == 0.01
        assert training.lr_schedule(150, self.CFG) == 0.002

    def test_custom_switch(self):
        cfg = training.TrainConfig(lr_switch_epoch=10, epochs=20)
        assert training.lr_schedule(9, cfg) == 0.01
        assert training.lr_schedule(10, cfg) == 0.002

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            training.lr_schedule(-1, self.CFG)
        with pytest.raises(ParameterError):
            training.lr_schedule(250, self.CFG)


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "train.cfg"
        p.write_text("epochs=50\nbatch_size=4\nlr_switch_epoch=30\n"
                     "seed=7\n")
        _, cfg = training.read_config(p)
        assert cfg.epochs == 50 and cfg.batch_size == 4
        assert cfg.seed == 7

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("nonsense=1\n")
        with pytest.raises(ConfigError, match="nonsense"):
            training.read_config(p)

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            training.TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            training.TrainConfig(lr_switch_epoch=250, epochs=250)

    def test_model_and_train_keys_in_one_file(self, tmp_path):
        p = tmp_path / "train.cfg"
        p.write_text("feature_scale = 4\nlatent_len = 8\nepochs = 10\n")
        mcfg, cfg = training.read_config(p)
        assert mcfg == model.ModelConfig(feature_scale=4.0, latent_len=8)
        assert cfg == training.TrainConfig(epochs=10)

    def test_field_names_disjoint(self):
        names = [{f.name for f in fields(c)}
                 for c in (model.ModelConfig, training.TrainConfig)]
        assert not names[0] & names[1]
        assert len(names[0]) + len(names[1]) == 17

    @pytest.mark.parametrize("line, named", [
        ("epochs=2.5", "epochs: expected a finite int"),
        ("lr_initial=abc", "lr_initial: expected a finite float"),
        ("lr_initial=nan", "lr_initial: expected a finite float"),
        ("latent_len=abc", "latent_len: expected a finite int"),
        ("epochs", "expected key=value"),
    ])
    def test_malformed_value_names_file_and_line(self, tmp_path, line,
                                                 named):
        p = tmp_path / "bad.cfg"
        p.write_text(f"# comment\nbatch_size=4\n{line}\n")
        with pytest.raises(ConfigError, match=f"bad.cfg:3: {named}"):
            training.read_config(p)

    def test_repeated_key(self, tmp_path):
        p = tmp_path / "twice.cfg"
        p.write_text("seed=1\nepochs=20\nseed=2\n")
        with pytest.raises(ConfigError, match="twice.cfg:3: seed is set "
                                              "twice"):
            training.read_config(p)

    @pytest.mark.parametrize("field", ["epochs", "val_every"])
    def test_counts_below_one_rejected(self, field):
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            training.TrainConfig(**{field: 0})

    @pytest.mark.parametrize("field, value, named", [
        ("lr_initial", -0.01, "lr_initial must be positive"),
        ("lr_initial", float("nan"), "lr_initial must be positive"),
        ("lr_after", 0.0, "lr_after must be positive"),
        ("lr_switch_epoch", -3, r"lr_switch_epoch must be in \[0, epochs\)"),
    ])
    def test_learning_rate_schedule_out_of_range(self, field, value, named):
        with pytest.raises(ConfigError, match=named):
            training.TrainConfig(**{field: value})

    def test_lr_switch_default_is_three_fifths_of_epochs(self):
        assert training.TrainConfig().lr_switch_epoch == 150
        assert training.TrainConfig(epochs=10).lr_switch_epoch == 6
        assert training.TrainConfig(epochs=1).lr_switch_epoch == 0
        assert training.TrainConfig(epochs=10,
                                    lr_switch_epoch=9).lr_switch_epoch == 9


class TestTrainEpoch:
    def test_one_window_one_step(self):
        m, state, windows = small_setup(n_windows=1)
        cfg = training.TrainConfig(batch_size=1, epochs=10, lr_switch_epoch=5)
        state = training.train_epoch(state, m, windows[:1], cfg)
        assert state.step == 1
        assert state.epoch == 1

    def test_loss_decreases_on_toy_window(self):
        m, state, windows = small_setup(n_windows=1)
        cfg = training.TrainConfig(batch_size=1, epochs=60, lr_switch_epoch=55)
        first = None
        for _ in range(50):
            _, report = training.window_gradients(
                m, windows[0], state.epoch, np.random.default_rng(0))
            if first is None:
                first = report.total
            training.train_epoch(state, m, windows[:1], cfg)
        _, report = training.window_gradients(
            m, windows[0], 0, np.random.default_rng(0))
        assert report.total < first

    def test_seeded_determinism(self):
        results = []
        for _ in range(2):
            m, state, windows = small_setup(seed=5)
            cfg = training.TrainConfig(batch_size=2, epochs=10,
                                       lr_switch_epoch=5)
            for _ in range(3):
                training.train_epoch(state, m, windows, cfg)
            results.append(digest(m.params))
        assert results[0] == results[1]

    def test_gradient_accumulation_equivalence(self):
        # a batch of B windows must equal the average of B per-window grads
        m, state, windows = small_setup(n_windows=3)
        cfg = training.TrainConfig(batch_size=3, epochs=10, lr_switch_epoch=5)
        before = m.params.copy()

        # per-window gradients with the same rng sequence as the batch run
        probe_rng = np.random.default_rng(0)
        state.rng = np.random.default_rng(0)
        order = np.random.default_rng(0).permutation(3)
        _ = probe_rng.permutation(3)
        expected = {}
        for idx in order:
            grads, _ = training.window_gradients(m, windows[idx], 0, probe_rng)
            for name, g in grads.items():
                expected[name] = expected.get(name, 0.0) + g / 3

        state.rng = np.random.default_rng(0)
        training.train_epoch(state, m, windows, cfg)
        lr = 0.01
        for name in before.names():
            manual = before[name] - lr * expected[name]
            np.testing.assert_allclose(m.params[name], manual, atol=1e-10)

    def test_divergence_names_window_and_parameter(self):
        m, state, windows = small_setup(n_windows=2)
        cfg = training.TrainConfig(batch_size=1, epochs=10, lr_switch_epoch=5)
        bad = m.params["dec.out.b"].copy()
        bad[1] = np.inf
        m.params["dec.out.b"] = bad
        first = int(np.random.default_rng(0).permutation(2)[0])
        with pytest.raises(DivergenceError,
                           match=rf"window {first}\b.*dec\.out\.b"), \
                np.errstate(invalid="ignore", over="ignore"):
            training.train_epoch(state, m, windows, cfg)

    def test_window_gradients_names_non_finite_parameter(self):
        m, _, windows = small_setup(n_windows=1)
        bad = m.params["recog.head.mu.b"].copy()
        bad[0] = np.nan
        m.params["recog.head.mu.b"] = bad
        with pytest.raises(DivergenceError, match=r"recog\.head\.mu\.b"), \
                np.errstate(invalid="ignore", over="ignore"):
            training.window_gradients(m, windows[0], 0,
                                      np.random.default_rng(0))

    @pytest.mark.parametrize("agents", [1, 3])
    def test_gradients_are_c_contiguous(self, agents):
        # the next VJP's BLAS bits depend on the layout of its gradient
        m, _, _ = small_setup()
        window = synthetic.make_window("turn", agents,
                                       np.random.default_rng(agents))
        grads, _ = training.window_gradients(m, window, 0,
                                             np.random.default_rng(1))
        norm = np.sqrt(sum(np.sum(g * g) for g in grads.values()))
        assert norm < training.CLIP_NORM  # as backward returned them
        assert all(g.flags.c_contiguous for g in grads.values())

    def test_gradient_norm_is_clipped(self, monkeypatch):
        monkeypatch.setattr(training, "CLIP_NORM", 1e-3)
        m, _, windows = small_setup(n_windows=1)
        grads, _ = training.window_gradients(
            m, windows[0], 0, np.random.default_rng(0))
        norm = np.sqrt(sum(np.sum(g * g) for g in grads.values()))
        assert norm == pytest.approx(1e-3, rel=1e-9)

    def test_empty_windows_rejected(self):
        m, state, _ = small_setup()
        with pytest.raises(ConfigError):
            training.train_epoch(state, m, [],
                                 training.TrainConfig(epochs=2,
                                                      lr_switch_epoch=1))


def unstacked_pass(m, window, rng):
    """The random arrays of a training pass over one window, drawn in the
    order the forward pass used to draw them before windows were stacked,
    and its unsegmented forward pass: (n, scaled features, traced
    parameters, prior, posterior, the decoder's observed branch, picked
    agent, latent noise (L, obs_len, n + PRIOR_SAMPLES))."""
    cfg = m.config
    disp = training.to_displacements(window.positions)
    adj = training.graph.normalized_adjacency(window.positions)
    obs = cfg.obs_len
    scaled = disp.values * cfg.feature_scale
    n = window.n_agents
    p = m.traced_params()
    v_obs = ad.Value(scaled[:, :obs, :])
    prior = m.prior_forward(p, v_obs, adj[:obs])
    # each recognition block's dropout on its output: every block keeps
    # the seq_len frames but the last, which reduces them to obs_len; then
    # the posterior-mean noise
    frames = [cfg.seq_len] * (cfg.recog_blocks - 1) + [obs]
    factors = [ad.dropout_factor((cfg.embed_channels, t, n), cfg.dropout, rng)
               for t in frames]
    mu_noise = rng.standard_normal((cfg.latent_len, obs, n)) * cfg.noise_std
    post = m.recog_forward(p, ad.Value(scaled), adj,
                           model.RecogNoise(factors, mu_noise))
    pick = int(rng.integers(n))
    eps = rng.standard_normal((cfg.latent_len, obs,
                               n + training.PRIOR_SAMPLES))
    seen = m.observe(p, v_obs, adj[:obs])
    return n, scaled, p, prior, post, seen, pick, eps


def clipped_gradients(p, objective):
    traced = ad.backward(objective)
    grads = {name: traced.get(leaf) for name, leaf in p.items()}
    norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if norm > training.CLIP_NORM:
        grads = {k: g * (training.CLIP_NORM / norm) for k, g in grads.items()}
    return grads


def reference_window_gradients(m, window, epoch, rng):
    """A training pass over one window as written before windows were
    stacked: unsegmented ops, the latents gathered as concat(posterior,
    picked prior). The prior samples are decoded and scored without a
    record, and the best is decoded again in the record."""
    n, scaled, p, prior, post, seen, pick, eps = unstacked_pass(m, window,
                                                                rng)
    copies = np.full(training.PRIOR_SAMPLES, pick)
    with ad.no_record():
        z = ad.reparameterize(ad.Value(prior.mu.data[:, :, copies]),
                              ad.Value(prior.logvar.data[:, :, copies]),
                              eps[:, :, n:])
        cells, _ = losses.nll_cells(m.decode(p, z, seen, copies),
                                    scaled[:, :, copies])
    best = int(np.argmin(cells.data[0].mean(axis=0)))
    mu = ad.concat_agents(post.mu, ad.take_agents(prior.mu, [pick]))
    logvar = ad.concat_agents(post.logvar, ad.take_agents(prior.logvar,
                                                          [pick]))
    z = ad.reparameterize(mu, logvar, eps[:, :, [*range(n), n + best]])
    columns = [*range(n), pick]
    pred = m.decode(p, z, seen, columns)
    objective, (report,) = losses.window_losses(
        pred, scaled[:, :, columns], post, prior, epoch, [n], 1)
    return clipped_gradients(p, objective), report


def all_samples_window_gradients(m, window, epoch, rng):
    """The pass that recorded all PRIOR_SAMPLES prior decodes, the 7 that
    lose the best-of-many comparison included: (gradients, report, index
    of the best prior sample)."""
    n, scaled, p, prior, post, seen, pick, eps = unstacked_pass(m, window,
                                                                rng)
    copies = np.full(training.PRIOR_SAMPLES, pick)
    mu = ad.concat_agents(post.mu, ad.take_agents(prior.mu, copies))
    logvar = ad.concat_agents(post.logvar, ad.take_agents(prior.logvar,
                                                          copies))
    z = ad.reparameterize(mu, logvar, eps)
    columns = np.concatenate([np.arange(n), copies])
    pred = m.decode(p, z, seen, columns)
    objective, (report,) = losses.window_losses(
        pred, scaled[:, :, columns], post, prior, epoch, [n],
        training.PRIOR_SAMPLES)
    cells, _ = losses.nll_cells(pred, scaled[:, :, columns])
    best = int(np.argmin(cells.data[0, :, n:].mean(axis=0)))
    return clipped_gradients(p, objective), report, best


def mixed_windows(count, seed):
    """Windows of 1-6 agents, patterns cycled, as in train-small."""
    rng = np.random.default_rng(seed)
    return [synthetic.make_window(synthetic.PATTERNS[i % 3], 1 + i % 6, rng)
            for i in range(count)]


class TestChunks:
    """Windows stacked in one record train as they do one at a time: with
    the same bits for a one-window chunk, to rtol 1e-10 for larger ones."""

    @pytest.mark.parametrize("agents", [1, 3, 6, 12])
    @pytest.mark.parametrize("epoch", [0, 50])
    def test_one_window_chunk_is_byte_equal_to_unstacked_pass(self, agents,
                                                              epoch):
        m = model.TrajCvae(model.ModelConfig(feature_scale=4.0),
                           rng=np.random.default_rng(3))
        window = synthetic.make_window("turn", agents,
                                       np.random.default_rng(agents))
        got, got_report = training.window_gradients(
            m, window, epoch, np.random.default_rng(7))
        want, want_report = reference_window_gradients(
            m, window, epoch, np.random.default_rng(7))
        for field in ("total", "rec", "kl", "weight"):
            assert getattr(got_report, field) == getattr(want_report, field)
        assert list(got) == list(want)
        for name in want:
            assert got[name].shape == want[name].shape
            assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("agents", [1, 3, 6, 12])
    @pytest.mark.parametrize("epoch", [0, 50])
    def test_recording_the_best_prior_sample_matches_recording_all(
            self, agents, epoch, monkeypatch):
        # only the order of the sums changes: the same sample is chosen,
        # each report field agrees to 1 ulp and each gradient norm-wise
        m = model.TrajCvae(model.ModelConfig(feature_scale=4.0),
                           rng=np.random.default_rng(3))
        window = synthetic.make_window("turn", agents,
                                       np.random.default_rng(agents))
        chosen, inner = [], training.best_prior_samples
        monkeypatch.setattr(training, "best_prior_samples", lambda *a:
                            chosen.append(inner(*a)) or chosen[-1])
        got, got_report = training.window_gradients(
            m, window, epoch, np.random.default_rng(7))
        want, want_report, best = all_samples_window_gradients(
            m, window, epoch, np.random.default_rng(7))
        assert chosen == [[best]]
        for field in ("total", "rec", "kl", "weight"):
            a, b = getattr(got_report, field), getattr(want_report, field)
            assert abs(a - b) <= np.spacing(abs(b)), field
        assert list(got) == list(want)
        for name in want:
            assert np.linalg.norm(got[name] - want[name]) \
                <= 1e-14 * np.linalg.norm(want[name]), name

    def test_chunked_epochs_match_sequential_steps(self, tmp_path,
                                                   monkeypatch):
        windows = mixed_windows(32, seed=4)
        cfg = training.TrainConfig(batch_size=16, epochs=2,
                                   lr_switch_epoch=1)

        def fresh():
            m = model.TrajCvae(model.ModelConfig(feature_scale=4.0),
                               rng=np.random.default_rng(1))
            return m, training.TrainState(params=m.params,
                                          rng=np.random.default_rng(2))

        # test-local loop: window_gradients, summed in order, one step per
        # batch; the same rng stream as train_epoch
        m_seq, state = fresh()
        rows = []
        for epoch in range(cfg.epochs):
            order = state.rng.permutation(len(windows))
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                acc, parts = {}, []
                for idx in batch:
                    grads, report = training.window_gradients(
                        m_seq, windows[idx], epoch, state.rng)
                    for name, g in grads.items():
                        acc[name] = acc.get(name, 0.0) + g
                    parts.append((report.rec, report.kl))
                lr = training.lr_schedule(epoch, cfg)
                for name in acc:
                    m_seq.params[name] = m_seq.params[name] \
                        - lr * acc[name] / len(batch)
                rec, kl = np.mean(parts, axis=0)
                w = losses.anneal_weight(epoch)
                rows.append([epoch, len(rows) + 1, rec + w * kl, rec, kl, w])

        sizes = []
        inner = training.chunk_gradients

        def counted(m_, ws, *args, **kwargs):
            sizes.append(len(ws))
            return inner(m_, ws, *args, **kwargs)

        monkeypatch.setattr(training, "chunk_gradients", counted)
        m_chunk, state = fresh()
        log = losses.MetricsLog(tmp_path / "metrics.csv")
        for _ in range(cfg.epochs):
            training.train_epoch(state, m_chunk, windows, cfg, log=log)

        assert sum(sizes) == 64 and max(sizes) > 1  # windows did stack
        for name, want in m_seq.params.items():
            np.testing.assert_allclose(m_chunk.params[name], want,
                                       rtol=1e-10, err_msg=name)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        got_rows = [[float(v) for v in line.split(",")] for line in lines]
        assert len(got_rows) == len(rows) == 4
        np.testing.assert_allclose(got_rows, rows, rtol=1e-10)

    def test_chunks_respect_the_column_budget(self):
        windows = mixed_windows(12, seed=0)  # 1, 2, ..., 6, 1, ... agents
        chunks = list(training._chunks(list(range(12)), windows))
        assert [i for c in chunks for i in c] == list(range(12))
        for chunk in chunks:
            width = sum(windows[i].n_agents + 1 for i in chunk)
            assert width <= training.TRAIN_COLUMNS
        # each chunk stopped because the next window did not fit
        for chunk, nxt in zip(chunks, chunks[1:]):
            width = sum(windows[i].n_agents + 1 for i in chunk + nxt[:1])
            assert width > training.TRAIN_COLUMNS
        wide = [synthetic.make_window("turn", 30, np.random.default_rng(0))]
        assert list(training._chunks([0], wide)) == [[0]]

    def test_divergence_names_the_window_inside_a_chunk(self, monkeypatch):
        # a finite position whose displacements overflow, in the second
        # window of a chunk, stays in that window's own adjacency block and
        # columns, so one pass finds it: the window named is the second
        windows = mixed_windows(2, seed=1)
        windows[1].positions[9, 0, 0] = 1e300
        m = model.TrajCvae(SMALL, rng=np.random.default_rng(0))
        passes = []
        inner = ad.backward
        monkeypatch.setattr(ad, "backward",
                            lambda loss: passes.append(1) or inner(loss))
        with pytest.raises(DivergenceError, match=r"^window b: "), \
                np.errstate(invalid="ignore", over="ignore"):
            training.chunk_gradients(m, windows, 0, np.random.default_rng(0),
                                     labels=["a", "b"])
        assert len(passes) == 1

    def test_non_finite_position_is_named_as_bad_input(self):
        # the NaN reaches the prior's parameter gradients through the KL
        # term, but the error names the window's input, not a parameter
        windows = mixed_windows(3, seed=1)
        windows[1].positions[9, 0, 0] = np.nan
        m, state, _ = small_setup()
        cfg = training.TrainConfig(epochs=2, batch_size=3)
        with pytest.raises(MissingTruthError,
                           match=r"^window 1 \(scene '\w+'\) has non-finite "
                                 r"positions"), \
                np.errstate(invalid="ignore"):
            training.train_epoch(state, m, windows, cfg)


def per_name_gradients(leaves, traced):
    """Each window's clipped gradients, and the norms, as the per-name code
    computed them before a window's gradient was one row: np.sum of each
    parameter's squares, summed over the parameters by Python's sum, then
    each window's dict scaled down to CLIP_NORM."""
    grads = {name: traced.get(leaf) for name, leaf in leaves.items()}
    norms = np.sqrt(sum(np.sum(g * g, axis=tuple(range(1, g.ndim)))
                        for g in grads.values()))
    out = []
    for i, norm in enumerate(norms):
        window = {name: g[i] for name, g in grads.items()}
        if norm > training.CLIP_NORM:
            window = {name: g * (training.CLIP_NORM / norm)
                      for name, g in window.items()}
        out.append(window)
    return out, norms


class TestGradientRows:
    """The norm, clip and SGD step on gradient rows give the bits of the
    per-name code they replaced, with clipping in force."""

    @staticmethod
    def recorded(m, monkeypatch):
        """[(traced leaves, GradientMap)] of every pass m makes from now."""
        passes = []
        traced_params, backward = m.traced_params, ad.backward
        monkeypatch.setattr(m, "traced_params", lambda: passes.append(
            [traced_params()]) or passes[-1][0])
        monkeypatch.setattr(ad, "backward", lambda loss: passes[-1].append(
            backward(loss)) or passes[-1][1])
        return passes

    @staticmethod
    def assert_rows_equal(m, rows, want):
        for row, window in zip(rows, want):
            got = m.params.views(row)
            assert list(got) == list(window)
            for name, g in window.items():
                assert got[name].shape == g.shape
                assert got[name].tobytes() == g.tobytes(), name

    def test_chunk_of_1_3_and_6_agents_and_its_step(self, monkeypatch):
        m = model.TrajCvae(model.ModelConfig(feature_scale=4.0),
                           rng=np.random.default_rng(3))
        windows = [synthetic.make_window(pattern, n, np.random.default_rng(n))
                   for pattern, n in zip(synthetic.PATTERNS, (1, 3, 6))]
        assert len(list(training._chunks([0, 1, 2], windows))) == 1
        passes = self.recorded(m, monkeypatch)

        # the epoch's pass without a cap: same order, same draws
        rng = np.random.default_rng(9)
        probe = np.random.default_rng(9)
        order = probe.permutation(3)
        monkeypatch.setattr(training, "CLIP_NORM", 1e300)
        training.chunk_gradients(m, [windows[i] for i in order], 0, probe)
        _, norms = per_name_gradients(*passes[-1])
        # one window above the cap, one exactly at it, one below
        cap = float(np.sort(norms)[1])
        monkeypatch.setattr(training, "CLIP_NORM", cap)

        results, inner = [], training.chunk_gradients
        monkeypatch.setattr(training, "chunk_gradients", lambda *a, **k:
                            results.append(inner(*a, **k)) or results[-1])
        before = m.params.copy()
        cfg = training.TrainConfig(batch_size=3, epochs=10)
        training.train_epoch(training.TrainState(params=m.params, rng=rng),
                             m, windows, cfg)

        (result,) = results
        want, again = per_name_gradients(*passes[-1])
        assert again.tobytes() == norms.tobytes()
        assert sorted(norms > cap) == [False, False, True]
        self.assert_rows_equal(m, [row for row, _ in result], want)
        lr = training.lr_schedule(0, cfg)
        for name in before.names():
            acc = 0.0
            for window in want:
                acc = acc + window[name]
            step = before[name] - lr * acc / 3
            assert m.params[name].tobytes() == step.tobytes(), name

    def test_gradient_map_holds_the_parameters_only(self, monkeypatch):
        # constants (inputs, noise, masks, targets) get no gradient
        m = model.TrajCvae(model.ModelConfig(), rng=np.random.default_rng(3))
        passes = self.recorded(m, monkeypatch)
        training.chunk_gradients(m, mixed_windows(2, seed=1), 0,
                                 np.random.default_rng(0))
        ((leaves, traced),) = passes
        assert len(traced) == len(leaves) == 55
        assert all(leaf in traced for leaf in leaves.values())

    @pytest.mark.parametrize("agents", [1, 3, 6])
    def test_one_window_chunk(self, agents, monkeypatch):
        monkeypatch.setattr(training, "CLIP_NORM", 1e-3)
        m = model.TrajCvae(model.ModelConfig(feature_scale=4.0),
                           rng=np.random.default_rng(3))
        window = synthetic.make_window("turn", agents,
                                       np.random.default_rng(agents))
        passes = self.recorded(m, monkeypatch)
        ((row, _),) = training.chunk_gradients(m, [window], 50,
                                               np.random.default_rng(7))
        want, norms = per_name_gradients(*passes[-1])
        assert norms[0] > 1e-3
        self.assert_rows_equal(m, [row], want)


class TestSplit:
    def make_windows(self):
        out = []
        for scene in ("eth", "hotel", "zara1", "zara2", "univ"):
            out += synthetic.make_corpus("const-velocity", 1, 2, seed=1,
                                         scene=scene)
        return out

    def test_holdout_partition(self):
        windows = self.make_windows()
        train, test = training.make_split(windows, "eth")
        assert {w.scene for w in train} == {"hotel", "zara1", "zara2", "univ"}
        assert {w.scene for w in test} == {"eth"}
        assert len(train) + len(test) == len(windows)
        assert not (set(map(id, train)) & set(map(id, test)))

    def test_unknown_scene(self):
        with pytest.raises(ConfigError):
            training.make_split(self.make_windows(), "nowhere")


class TestCheckpointResume:
    def test_bit_identical_resume(self, tmp_path):
        m, state, windows = small_setup(seed=9)
        cfg = training.TrainConfig(batch_size=2, epochs=10, lr_switch_epoch=5)
        training.train_epoch(state, m, windows, cfg)
        path = tmp_path / "ckpt.stgc"
        training.checkpoint(state, m, path, cfg)

        # continue directly
        training.train_epoch(state, m, windows, cfg)
        direct = digest(m.params)

        # restore and continue
        state2, m2 = restore_with_cfg(path)
        training.train_epoch(state2, m2, windows, cfg)
        assert digest(m2.params) == direct

    def test_restored_lr_after_switch(self, tmp_path):
        m, state, _ = small_setup()
        cfg = training.TrainConfig(epochs=250, lr_switch_epoch=150)
        state.epoch = 150
        path = tmp_path / "ckpt.stgc"
        training.checkpoint(state, m, path, cfg)
        state2, _ = training.restore(path)
        assert training.lr_schedule(state2.epoch, cfg) == 0.002

    def test_truncated_rejected(self, tmp_path):
        m, state, _ = small_setup()
        path = tmp_path / "ckpt.stgc"
        training.checkpoint(state, m, path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(FormatError):
            training.restore(path)

    def test_sidecar_config_must_match_parameters(self, tmp_path):
        m, state, _ = small_setup()
        path = tmp_path / "ckpt.stgc"
        training.checkpoint(state, m, path)
        meta = Path(f"{path}.meta")
        meta.write_text(meta.read_text().replace("latent_len=4",
                                                 "latent_len=5"))
        with pytest.raises(FormatError,
                           match=r"ckpt\.stgc: parameter prior\.head\.mu\.w"):
            training.restore(path)

    def test_sidecar_with_removed_channel_keys_loads(self, tmp_path):
        # sidecars written while in_channels and out_channels were config
        # fields still load; keys that are not fields are ignored
        m, state, _ = small_setup()
        path = tmp_path / "ckpt.stgc"
        training.checkpoint(state, m, path)
        meta = Path(f"{path}.meta")
        meta.write_text(meta.read_text() + "in_channels=2\nout_channels=5\n")
        _, restored = training.restore(path)
        assert restored.config == m.config

    @pytest.mark.parametrize("field, bad", [
        ("epoch", "abc"), ("step", "1.5"), ("skipped_windows", "-1"),
        ("best_val_metric", "abc"), ("best_val_metric", "nan"),
        ("rng_state", "{"),
    ])
    def test_corrupt_progress_field_names_sidecar(self, tmp_path, field, bad):
        m, state, _ = small_setup()
        path = tmp_path / "ckpt.stgc"
        training.checkpoint(state, m, path)
        meta = Path(f"{path}.meta")
        lines = [f"{field}={bad}" if line.startswith(f"{field}=") else line
                 for line in meta.read_text().splitlines()]
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=rf"ckpt\.stgc\.meta: {field}"):
            training.restore(path)

    def test_infinite_best_val_metric_restores(self, tmp_path):
        m, state, _ = small_setup()
        path = tmp_path / "ckpt.stgc"
        training.checkpoint(state, m, path)
        assert "best_val_metric=inf" in Path(f"{path}.meta").read_text()
        assert training.restore(path)[0].best_val_metric == float("inf")


def restore_with_cfg(path):
    return training.restore(path)


class TestPriorTraining:
    """The best-of-k prior term is what trains the conditional prior: the
    KL, its only other signal, is weighted 0 at epoch 0 and <= 0.005 later."""

    def test_prior_gets_gradient_at_epoch_zero(self):
        m, _, windows = small_setup(n_windows=1)
        grads, report = training.window_gradients(
            m, windows[0], 0, np.random.default_rng(0))
        assert report.weight == 0.0  # so the KL gives the prior nothing
        norm = np.sqrt(sum(np.sum(g * g) for name, g in grads.items()
                           if name.startswith("prior.")))
        assert norm > 1e-3

    def test_best_of_k_reconstruction_improves(self):
        # a few SGD steps on a 2-window corpus pull the best of 8 prior
        # samples towards the futures
        m, state, windows = small_setup(n_windows=2)
        cfg = training.TrainConfig(batch_size=1, epochs=40, lr_switch_epoch=30)

        def best_nll():
            rng = np.random.default_rng(11)
            total = 0.0
            for w in windows:
                d = training.to_displacements(w.positions).values
                a = training.graph.normalized_adjacency(w.positions)
                p = m.traced_params()
                prior = m.prior_forward(p, ad.leaf(d[:, :8]), a[:8])
                for i in range(d.shape[2]):
                    pick = np.full(8, i)
                    z = ad.reparameterize(
                        ad.take_agents(prior.mu, pick),
                        ad.take_agents(prior.logvar, pick),
                        rng.standard_normal(prior.mu.data.shape[:2] + (8,)))
                    obs = m.observe(p, ad.leaf(d[:, :8]), a[:8])
                    pred = m.decode(p, z, obs, pick)
                    cells, _ = losses.nll_cells(pred, d[:, :, pick])
                    total += cells.data[0].mean(axis=0).min()
            return total

        before = best_nll()
        for _ in range(20):
            training.train_epoch(state, m, windows, cfg)
        assert best_nll() < before - 0.5

    def test_best_of_k_picks_the_closest_sample(self):
        # one agent column, then 4 prior samples of it; the third is exact
        rng = np.random.default_rng(2)
        target = np.tile(rng.normal(size=(2, 20, 1)), (1, 1, 5))
        raw = rng.normal(size=(5, 20, 5))
        raw[0:2, :, 3] = target[:, :, 0]
        raw[2:5, :, 3] = 0.0
        leaf = ad.leaf(raw)
        q = model.LatentGaussian(ad.leaf(np.zeros((3, 8, 1))),
                                 ad.leaf(np.zeros((3, 8, 1))))
        objective, (report,) = losses.window_losses(
            model.BivariateGaussianSeq(leaf), target, q, q, 0, [1], 4)
        cells, weight = losses.nll_cells(model.BivariateGaussianSeq(leaf),
                                         target)
        per_column = (cells.data * weight)[0].mean(axis=0)
        assert float(objective.data) == pytest.approx(
            per_column[0] + per_column[3], abs=1e-12)
        assert report.rec == pytest.approx(cells.data[0, :, 0].mean(),
                                           abs=1e-12)
        g = ad.backward(objective).get(leaf)
        assert np.all(g[:, :, [1, 2, 4]] == 0)
        assert np.any(g[:, :, 0] != 0) and np.any(g[:, :, 3] != 0)


class TestVarianceWeightedObjective:
    """The objective's gradient for a predicted mean is residual /
    NLL_REF_VAR whatever sigma is predicted, so fixed-rate SGD steps do not
    grow as the fit sharpens; the reported loss stays the plain NLL."""

    def mean_gradient(self, s):
        rng = np.random.default_rng(5)
        target = rng.normal(size=(2, 20, 2))
        raw = np.zeros((5, 20, 2))
        raw[0:2] = target + 0.3
        raw[2:4] = s
        leaf = ad.leaf(raw)
        q = model.LatentGaussian(ad.leaf(np.zeros((3, 8, 2))),
                                 ad.leaf(np.zeros((3, 8, 2))))
        objective, _ = losses.window_losses(model.BivariateGaussianSeq(leaf),
                                            target, q, q, 0, [2])
        plain = ad.backward(losses.bivariate_nll(
            model.BivariateGaussianSeq(leaf), target)).get(leaf)
        return ad.backward(objective).get(leaf)[0:2], plain[0:2]

    def test_mean_gradient_independent_of_sigma(self):
        broad, plain_broad = self.mean_gradient(0.0)
        sharp, plain_sharp = self.mean_gradient(-2.0)
        cells = 20 * 2
        np.testing.assert_allclose(broad, 0.3 / losses.NLL_REF_VAR / cells,
                                   rtol=1e-12)
        np.testing.assert_allclose(sharp, broad, rtol=1e-12)
        # the plain NLL's gradient is e^4 times larger at the sharper sigma
        np.testing.assert_allclose(plain_sharp, plain_broad * np.exp(4.0),
                                   rtol=1e-12)


# ---------------------------------------------------------------------------
# property tests: the config file and the checkpoint sidecar


@st.composite
def model_configs(draw):
    obs_len = draw(st.integers(1, 8))
    recog_blocks = draw(st.integers(1, 2))
    return model.ModelConfig(
        embed_channels=draw(st.integers(1, 6)),
        latent_len=draw(st.integers(1, 6)),
        obs_len=obs_len,
        seq_len=obs_len + draw(st.integers(1, 6)),
        recog_blocks=recog_blocks,
        prior_blocks=recog_blocks + draw(st.integers(1, 2)),
        tcn_kernel=draw(st.sampled_from([1, 3, 5])),
        dropout=draw(st.floats(0.0, 0.9)),
        noise_std=draw(st.floats(0.0, 1.0)),
        feature_scale=draw(st.floats(1e-3, 1e3)))


@st.composite
def train_configs(draw):
    epochs = draw(st.integers(1, 10 ** 6))
    return training.TrainConfig(
        epochs=epochs,
        batch_size=draw(st.integers(1, 10 ** 4)),
        lr_initial=draw(st.floats(0.0, 1e3, exclude_min=True)),
        lr_after=draw(st.floats(0.0, 1e3, exclude_min=True)),
        lr_switch_epoch=draw(st.integers(0, epochs - 1)),
        seed=draw(st.integers(0, 2 ** 63)),
        val_every=draw(st.integers(1, 10 ** 4)))


@settings(max_examples=60, deadline=None)
@given(mcfg=model_configs(), cfg=train_configs(), data=st.data())
def test_read_config_roundtrip_any_order(mcfg, cfg, data):
    """Any subset of the fields, in any order, with blank and comment lines
    and spaces around `=`, reads back as the configs it was written from
    (unset fields keep their defaults)."""
    # a field whose valid values depend on another's is set with it
    linked = {"seq_len": "obs_len", "prior_blocks": "recog_blocks",
              "lr_switch_epoch": "epochs"}
    values = {f.name: getattr(c, f.name) for c in (mcfg, cfg)
              for f in fields(c)}
    keys = {k for k in values if data.draw(st.booleans())}
    keys |= {linked[k] for k in keys if k in linked}
    lines = []
    for key in data.draw(st.permutations(sorted(keys))):
        lines += data.draw(st.lists(st.sampled_from(["", "# note", "  "]),
                                    max_size=2))
        pad = data.draw(st.sampled_from(["", " ", "  "]))
        lines.append(f"{key}{pad}={pad}{values[key]!r}")
    want = tuple(type(c)(**{f.name: values[f.name] for f in fields(c)
                            if f.name in keys}) for c in (mcfg, cfg))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "train.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert training.read_config(path) == want


@settings(max_examples=25, deadline=None)
@given(mcfg=model_configs())
def test_checkpoint_sidecar_roundtrips_model_config(mcfg):
    m = model.TrajCvae(mcfg, rng=np.random.default_rng(0))
    state = training.TrainState(params=m.params, rng=np.random.default_rng(0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.stgc"
        training.checkpoint(state, m, path)
        meta = model.load_params(path)[1]
    assert model.config_from_metadata(meta) == mcfg

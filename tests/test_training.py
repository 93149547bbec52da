import hashlib
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stgcvae import autodiff as ad
from stgcvae import evaluation, losses, model, synthetic, training
from stgcvae.data import OBS_LEN, PRED_LEN, SEQ_LEN
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
        assert len(names[0]) + len(names[1]) == 14

    def test_readme_lists_every_key(self):
        """README's Configuration section names each config's fields, in
        order."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("\n## Configuration\n")[1].split("\n## ")[0]
        for cls in (model.ModelConfig, training.TrainConfig):
            listed = re.search(rf"`\w+\.{cls.__name__}` \(([^)]*)\)",
                               section).group(1)
            assert re.findall(r"`(\w+)`", listed) == \
                [f.name for f in fields(cls)]

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

    def test_negative_seed_rejected(self):
        # numpy takes no negative seed
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            training.TrainConfig(seed=-1)
        assert training.TrainConfig(seed=0).seed == 0

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
        # at batch size 1 the step clips the window's own gradient
        monkeypatch.setattr(training, "CLIP_NORM", 1e-3)
        m, state, windows = small_setup(n_windows=1)
        grads, _ = training.window_gradients(
            m, windows[0], 0, np.random.default_rng(0))
        norm = np.sqrt(sum(np.sum(g * g) for g in grads.values()))
        assert norm > 1e-3  # window_gradients does not clip
        before = m.params.vector.copy()
        cfg = training.TrainConfig(batch_size=1, epochs=10)
        training.train_epoch(state, m, windows[:1], cfg)
        step = (before - m.params.vector) / training.lr_schedule(0, cfg)
        assert np.linalg.norm(step) == pytest.approx(1e-3, rel=1e-9)

    def test_empty_windows_rejected(self):
        m, state, _ = small_setup()
        with pytest.raises(ParameterError, match="^no windows$"):
            training.train_epoch(state, m, [],
                                 training.TrainConfig(epochs=2,
                                                      lr_switch_epoch=1))


def unstacked_pass(m, window, rng):
    """The random arrays of a training pass over one window, drawn in the
    order the forward pass used to draw them before windows were stacked,
    and its unsegmented forward pass: (n, scaled features, traced
    parameters, prior, posterior, the decoder's observed branch, picked
    agent, latent noise (L, OBS_LEN, n + PRIOR_SAMPLES))."""
    cfg = m.config
    disp = training.to_displacements(window.positions)
    adj = training.graph.normalized_adjacency(window.positions)
    obs = OBS_LEN
    scaled = disp * cfg.feature_scale
    n = window.n_agents
    p = m.traced_params()
    v_obs = ad.Value(scaled[:, :obs, :])
    prior = m.prior_forward(p, v_obs, adj[:obs])
    # each recognition block's dropout on its output: every block keeps
    # the SEQ_LEN frames but the last, which reduces them to OBS_LEN; then
    # the posterior-mean noise
    frames = [SEQ_LEN] * (cfg.recog_blocks - 1) + [obs]
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


def leaf_gradients(p, objective):
    traced = ad.backward(objective)
    return {name: traced.get(leaf) for name, leaf in p.items()}


def reference_window_gradients(m, window, epoch, rng):
    """A training pass over one window as written before windows were
    stacked: unsegmented ops, the latents gathered as concat(posterior,
    picked prior). The prior samples are decoded and scored on constants,
    without a record, and the best is decoded again in the record."""
    n, scaled, p, prior, post, seen, pick, eps = unstacked_pass(m, window,
                                                                rng)
    copies = np.full(training.PRIOR_SAMPLES, pick)
    z = ad.reparameterize(ad.Value(prior.mu.data[:, :, copies]),
                          ad.Value(prior.logvar.data[:, :, copies]),
                          eps[:, :, n:])
    cells, _ = losses.nll_cells(
        m.decode(m.params.constants(), z, ad.Value(seen.data), copies),
        scaled[:, :, copies])
    best = int(np.argmin(cells.data[0].mean(axis=0)))
    mu = ad.concat_agents(post.mu, ad.take_agents(prior.mu, [pick]))
    logvar = ad.concat_agents(post.logvar, ad.take_agents(prior.logvar,
                                                          [pick]))
    z = ad.reparameterize(mu, logvar, eps[:, :, [*range(n), n + best]])
    columns = [*range(n), pick]
    pred = m.decode(p, z, seen, columns)
    objective, (report,) = losses.window_losses(
        pred, scaled[:, :, columns], post, prior, epoch, [n])
    return leaf_gradients(p, objective), report


def all_samples_window_gradients(m, window, epoch, rng):
    """The pass that recorded all PRIOR_SAMPLES prior decodes, the 7 that
    lose the best-of-many comparison included: (gradients, report, index
    of the best prior sample). Its objective is window_losses' as it was
    written for k recorded prior samples: the agents' weighted mean NLL,
    the best sample's weighted NLL averaged over frames, and the annealed
    KL averaged over agents."""
    n, scaled, p, prior, post, seen, pick, eps = unstacked_pass(m, window,
                                                                rng)
    copies = np.full(training.PRIOR_SAMPLES, pick)
    mu = ad.concat_agents(post.mu, ad.take_agents(prior.mu, copies))
    logvar = ad.concat_agents(post.logvar, ad.take_agents(prior.logvar,
                                                          copies))
    z = ad.reparameterize(mu, logvar, eps)
    columns = np.concatenate([np.arange(n), copies])
    pred = m.decode(p, z, seen, columns)
    cells, weight = losses.nll_cells(pred, scaled[:, :, columns])
    kl = losses.kl_cells(post, prior)
    t, w = cells.data.shape[1], losses.anneal_weight(epoch)
    best = int(np.argmin(cells.data[0, :, n:].mean(axis=0)))
    mask = np.zeros(cells.data.shape)
    mask[:, :, :n] = 1.0 / (t * n)
    mask[:, :, n + best] = 1.0 / t
    objective = ad.add(
        ad.sum_all(ad.mul(cells, ad.Value(mask * weight))),
        ad.sum_all(ad.mul(kl, ad.Value(np.full(kl.data.shape,
                                               w * (1.0 / n))))))
    rec = float(np.sum(cells.data[:, :, :n])) * (1.0 / (t * n))
    kl_w = float(np.sum(kl.data)) * (1.0 / n)
    report = losses.LossReport(total=rec + w * kl_w, rec=rec, kl=kl_w,
                               weight=w)
    return leaf_gradients(p, objective), report, best


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
        # batch of the mean clipped to CLIP_NORM; the same rng stream as
        # train_epoch
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
                norm = np.sqrt(sum(np.sum((g / len(batch)) ** 2)
                                   for g in acc.values()))
                clip = min(1.0, training.CLIP_NORM / norm)
                for name in acc:
                    m_seq.params[name] = m_seq.params[name] \
                        - lr * clip * acc[name] / len(batch)
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
        with open(tmp_path / "metrics.csv", "w") as fh:
            log = losses.MetricsLog(fh)
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
        wide = [synthetic.make_window("turn", 50, np.random.default_rng(0))]
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

    def test_non_finite_position_passed_straight_in_diverges(self):
        # chunk_gradients does not check its windows; train_epoch does
        windows = mixed_windows(3, seed=1)
        windows[1].positions[9, 0, 0] = np.nan
        m, _, _ = small_setup()
        with pytest.raises(DivergenceError, match=r"^window 1: non-finite"), \
                np.errstate(invalid="ignore"):
            training.chunk_gradients(m, windows, 0, np.random.default_rng(0),
                                     labels=[0, 1, 2])

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
    """The gradients backward gave the leaves, by name."""
    return {name: traced.get(leaf) for name, leaf in leaves.items()}


class TestGradientRows:
    """A chunk's gradient is one vector holding the bits of backward's leaf
    gradients, and the step clips the mean of its chunks' vectors."""

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
    def assert_vector_equal(m, vector, want):
        got = m.params.views(vector)
        assert list(got) == list(want)
        for name, g in want.items():
            assert got[name].shape == g.shape
            assert got[name].tobytes() == g.tobytes(), name

    def test_chunk_of_1_3_and_6_agents_and_its_step(self, monkeypatch):
        m = model.TrajCvae(model.ModelConfig(feature_scale=4.0),
                           rng=np.random.default_rng(3))
        windows = [synthetic.make_window(pattern, n, np.random.default_rng(n))
                   for pattern, n in zip(synthetic.PATTERNS, (1, 3, 6))]
        assert len(list(training._chunks([0, 1, 2], windows))) == 1
        passes = self.recorded(m, monkeypatch)

        # the epoch's pass, without a step: same order, same draws
        probe = np.random.default_rng(9)
        order = probe.permutation(3)
        grad, _ = training.chunk_gradients(
            m, [windows[i] for i in order], 0, probe)
        mean = grad / 3
        norm = np.sqrt(np.sum(mean * mean))
        cap = norm / 2  # the step's mean is clipped
        monkeypatch.setattr(training, "CLIP_NORM", cap)

        results, inner = [], training.chunk_gradients
        monkeypatch.setattr(training, "chunk_gradients", lambda *a, **k:
                            results.append(inner(*a, **k)) or results[-1])
        before = m.params.vector.copy()
        cfg = training.TrainConfig(batch_size=3, epochs=10)
        training.train_epoch(training.TrainState(
            params=m.params, rng=np.random.default_rng(9)), m, windows, cfg)

        ((got, _),) = results
        self.assert_vector_equal(m, got, per_name_gradients(*passes[-1]))
        assert got.tobytes() == grad.tobytes()
        acc = (0.0 + got) / 3
        want_norm = training.gradient_norm(acc, m.params.offsets)
        assert want_norm == pytest.approx(norm, rel=1e-12)
        step = before - training.lr_schedule(0, cfg) * (
            acc * (cap / want_norm))
        assert m.params.vector.tobytes() == step.tobytes()

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
        # not clipped, however small CLIP_NORM is
        monkeypatch.setattr(training, "CLIP_NORM", 1e-3)
        m = model.TrajCvae(model.ModelConfig(feature_scale=4.0),
                           rng=np.random.default_rng(3))
        window = synthetic.make_window("turn", agents,
                                       np.random.default_rng(agents))
        passes = self.recorded(m, monkeypatch)
        grad, (_,) = training.chunk_gradients(m, [window], 50,
                                              np.random.default_rng(7))
        assert np.linalg.norm(grad) > 1e-3
        self.assert_vector_equal(m, grad, per_name_gradients(*passes[-1]))


class TestStepClip:
    """One gradient vector per chunk, and one clip per step."""

    def test_batch_step_above_clip_norm_is_scaled_to_it(self, monkeypatch):
        grads, inner = [], training.chunk_gradients

        def scaled_up(*args, **kwargs):
            # far above CLIP_NORM, whatever the windows' own norms
            grad, reports = inner(*args, **kwargs)
            grads.append(grad * 1e6)
            return grads[-1], reports

        monkeypatch.setattr(training, "chunk_gradients", scaled_up)
        windows = mixed_windows(12, seed=2)
        m = model.TrajCvae(SMALL, rng=np.random.default_rng(0))
        state = training.TrainState(params=m.params,
                                    rng=np.random.default_rng(1))
        cfg = training.TrainConfig(batch_size=12, epochs=10)
        before = m.params.vector.copy()
        training.train_epoch(state, m, windows, cfg)
        assert len(grads) > 1  # the step summed several chunks
        mean = sum(grads) / len(windows)
        assert np.linalg.norm(mean) > 100 * training.CLIP_NORM
        step = (before - m.params.vector) / training.lr_schedule(0, cfg)
        assert np.linalg.norm(step) == pytest.approx(training.CLIP_NORM,
                                                     rel=1e-9)
        np.testing.assert_allclose(
            step, mean * (training.CLIP_NORM / np.linalg.norm(mean)),
            rtol=1e-6, atol=1e-9 * training.CLIP_NORM)

    def test_non_finite_gradient_with_finite_losses_names_its_window(
            self, monkeypatch):
        # only the 5-agent window "b" gets an infinite dec.out.b gradient,
        # in the chunk and when it runs alone
        windows = [synthetic.make_window(pattern, n, np.random.default_rng(n))
                   for pattern, n in zip(synthetic.PATTERNS, (2, 5, 3))]
        m = model.TrajCvae(SMALL, rng=np.random.default_rng(0))
        leaves, sizes, reports = [], [], []
        traced, window_losses, backward = (m.traced_params,
                                           losses.window_losses, ad.backward)
        monkeypatch.setattr(m, "traced_params", lambda: leaves.append(
            traced()) or leaves[-1])

        def recorded(pred, target, post, prior, epoch, n):
            sizes.append(n)
            out = window_losses(pred, target, post, prior, epoch, n)
            reports.append(out[1])
            return out

        def poisoned(loss):
            grads = backward(loss)
            if 5 in sizes[-1]:
                bias = leaves[-1]["dec.out.b"]
                grads._grads[bias.nid] = np.full(bias.shape, np.inf)
            return grads

        monkeypatch.setattr(losses, "window_losses", recorded)
        monkeypatch.setattr(ad, "backward", poisoned)
        with pytest.raises(DivergenceError,
                           match=r"^window b: non-finite loss \(-?\d.*\) "
                                 r"or gradient; first non-finite parameter: "
                                 r"dec\.out\.b$"):
            training.chunk_gradients(m, windows, 0, np.random.default_rng(4),
                                     labels=["a", "b", "c"])
        # the chunk, then "a" and "b" alone, with the chunk's draws
        assert sizes == [[2, 5, 3], [2], [5]]
        for alone, stacked in zip(reports[1:], reports[0]):
            (alone,) = alone
            assert np.isfinite(stacked.total)
            assert alone.total == pytest.approx(stacked.total, rel=1e-10)

    def test_finite_gradients_summing_to_non_finite_name_the_chunk(
            self, monkeypatch):
        # the chunk's gradient is not finite, each window's alone is
        windows = mixed_windows(3, seed=1)
        m = model.TrajCvae(SMALL, rng=np.random.default_rng(0))
        leaves, sizes = [], []
        traced, window_losses, backward = (m.traced_params,
                                           losses.window_losses, ad.backward)
        monkeypatch.setattr(m, "traced_params", lambda: leaves.append(
            traced()) or leaves[-1])
        monkeypatch.setattr(losses, "window_losses", lambda *a: sizes.append(
            a[-1]) or window_losses(*a))

        def huge(loss):
            grads = backward(loss)
            bias = leaves[-1]["dec.out.b"]
            grads._grads[bias.nid] = np.full(
                bias.shape, np.inf if len(sizes[-1]) > 1 else 1e308)
            return grads

        monkeypatch.setattr(ad, "backward", huge)
        with pytest.raises(DivergenceError,
                           match=r"^windows \[4, 5, 6\]: finite gradients "
                                 r"sum to a non-finite one$"):
            training.chunk_gradients(m, windows, 0, np.random.default_rng(0),
                                     labels=[4, 5, 6])
        assert len(sizes) == 4  # the chunk, then each window alone

    def test_step_whose_mean_gradient_norm_overflows_diverges(
            self, monkeypatch):
        # finite entries whose squares overflow: the clip would scale the
        # step to 0, so the step raises instead
        inner = training.chunk_gradients
        monkeypatch.setattr(training, "chunk_gradients", lambda *a, **k: (
            lambda grad, reports: (grad * 1e200, reports))(*inner(*a, **k)))
        m, state, windows = small_setup(n_windows=2)
        cfg = training.TrainConfig(batch_size=2, epochs=10)
        with pytest.raises(DivergenceError,
                           match=r"^windows \[\d, \d\]: the mean "
                                 r"gradient's norm is inf$"), \
                np.errstate(over="ignore"):
            training.train_epoch(state, m, windows, cfg)
        assert state.step == 0

    def test_chunk_gradient_is_the_sum_of_its_one_window_gradients(self):
        m = model.TrajCvae(model.ModelConfig(feature_scale=4.0),
                           rng=np.random.default_rng(3))
        windows = mixed_windows(6, seed=5)  # 1 to 6 agents
        grad, reports = training.chunk_gradients(m, windows, 20,
                                                 np.random.default_rng(8))
        rng, total = np.random.default_rng(8), 0.0
        for window, report in zip(windows, reports, strict=True):
            alone, (alone_report,) = training.chunk_gradients(m, [window],
                                                              20, rng)
            total = total + alone
            assert alone_report.total == pytest.approx(report.total,
                                                       rel=1e-10)
        np.testing.assert_allclose(grad, total, rtol=1e-10)

    def test_a_40_column_chunk_of_one_agent_windows_trains(self, monkeypatch):
        assert training.TRAIN_COLUMNS == 40
        rng = np.random.default_rng(6)
        windows = [synthetic.make_window(synthetic.PATTERNS[i % 3], 1, rng)
                   for i in range(20)]  # 2 decoded columns each
        sizes, inner = [], training.chunk_gradients
        monkeypatch.setattr(training, "chunk_gradients", lambda m_, ws, *a,
                            **k: sizes.append(len(ws)) or inner(m_, ws, *a,
                                                                **k))
        m = model.TrajCvae(model.ModelConfig(feature_scale=4.0),
                           rng=np.random.default_rng(3))
        state = training.TrainState(params=m.params,
                                    rng=np.random.default_rng(7))
        cfg = training.TrainConfig(batch_size=20, epochs=2)
        before = m.params.vector.copy()
        for _ in range(cfg.epochs):
            training.train_epoch(state, m, windows, cfg)
        assert sizes == [20, 20] and state.step == 2
        assert np.isfinite(m.params.vector).all()
        assert not np.array_equal(m.params.vector, before)
        assert np.isfinite(state.epoch_report.total)


def insert_reference_norms(rows, offsets):
    """The gradient norm gradient_norm replaced: a 0 inserted before each
    parameter's squares, then np.add.reduceat and np.add.accumulate."""
    starts = offsets[:-1]
    squares = np.insert(rows, starts, 0.0, axis=1)
    squares *= squares
    starts = starts + np.arange(len(starts))
    return np.sqrt(np.add.accumulate(np.add.reduceat(squares, starts, axis=1),
                                     axis=1)[:, -1])


class TestGradientNorms:
    @pytest.mark.parametrize("windows", [1, 2, 3, 4, 5, 6])
    def test_bits_of_insert_reference(self, windows):
        offsets = model.init_params(model.ModelConfig(),
                                    np.random.default_rng(0)).offsets
        rng = np.random.default_rng(windows)
        for _ in range(20):
            shape = (windows, offsets[-1])
            # entries from 1e-12 to 1e13 in size, both signs, with zeros
            rows = rng.standard_normal(shape) * 10.0 ** rng.uniform(-12, 13,
                                                                    shape)
            rows[rng.random(shape) < 0.05] = 0.0
            got = [training.gradient_norm(row, offsets) for row in rows]
            assert all(type(norm) is float for norm in got)
            assert np.array(got).tobytes() == \
                insert_reference_norms(rows, offsets).tobytes()


class TestParamStoreConstants:
    def test_constants_follow_the_sgd_step(self):
        m, state, windows = small_setup()
        constants = m.params.constants()
        before = m.params.copy()
        training.train_epoch(state, m, windows,
                             training.TrainConfig(epochs=1, batch_size=2))
        assert m.params.vector.tobytes() != before.vector.tobytes()
        assert m.params.constants() is constants
        twin = model.TrajCvae(m.config, params=m.params.copy())
        for n in (1, 3):
            w = synthetic.make_window("turn", n, np.random.default_rng(n))
            got = evaluation.sample_futures(m, w, np.random.default_rng(2), 3)
            want = evaluation.sample_futures(twin, w,
                                             np.random.default_rng(2), 3)
            assert got.tobytes() == want.tobytes()

    def test_copy_gets_its_own_constants(self):
        store = model.init_params(SMALL, np.random.default_rng(0))
        twin = store.copy()
        assert list(twin.constants()) == store.names()
        for name, v in twin.constants().items():
            assert not v.needs_grad
            assert v.data.tobytes() == store[name].tobytes()
            assert np.shares_memory(v.data, twin.vector)
            assert not np.shares_memory(v.data, store.vector)
        twin["dec.out.b"] = np.ones_like(twin["dec.out.b"])
        assert twin.constants()["dec.out.b"].data.tolist() == [1.0] * 5
        assert not store.constants()["dec.out.b"].data.any()


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

    def test_sidecar_with_removed_keys_restores(self, tmp_path):
        # sidecars written while tcn_kernel, obs_len and seq_len were
        # config fields and skipped_windows a progress field still restore
        # and load
        m, state, _ = small_setup()
        state.step = 3
        path = tmp_path / "ckpt.stgc"
        training.checkpoint(state, m, path)
        meta = Path(f"{path}.meta")
        text = meta.read_text()
        old = "tcn_kernel=3\nskipped_windows=2\nobs_len=8\nseq_len=20\n"
        assert not any(line.split("=")[0] in text
                       for line in old.splitlines())
        meta.write_text(text + old)
        restored_state, restored = training.restore(path)
        assert restored.config == m.config and restored_state.step == 3
        assert restored_state.rng.bit_generator.state == \
            state.rng.bit_generator.state
        np.testing.assert_array_equal(restored.params.vector,
                                      m.params.vector)
        assert model.load_model(path)[0].config == m.config

    @pytest.mark.parametrize("field, bad", [
        ("epoch", "abc"), ("step", "1.5"),
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
                d = training.to_displacements(w.positions)
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

    def test_best_of_k_picks_the_closest_sample(self, monkeypatch):
        # two windows of 1 and 2 agents; each decodes PRIOR_SAMPLES prior
        # samples of its picked agent, all at sigma 1 and rho 0, and one of
        # them (the third, then the sixth) has the future as its mean
        k = training.PRIOR_SAMPLES
        rng = np.random.default_rng(2)
        scaled = rng.normal(size=(2, 20, 3))
        picks, exact = [0, 2], [2, 5]
        raw = np.zeros((5, 20, 2 * k))
        for w, (pick, e) in enumerate(zip(picks, exact)):
            raw[0:2, :, w * k:(w + 1) * k] = scaled[:, :, [pick]] \
                + rng.normal(size=(2, 20, k))
            raw[0:2, :, w * k + e] = scaled[:, :, pick]
        m = model.TrajCvae(SMALL, rng=np.random.default_rng(0))
        decoded = []
        monkeypatch.setattr(m, "decode", lambda p, z, seen, columns:
                            decoded.append(list(columns))
                            or model.BivariateGaussianSeq(ad.Value(raw)))
        zeros = np.zeros((SMALL.latent_len, OBS_LEN, 3))
        prior = model.LatentGaussian(ad.Value(zeros), ad.Value(zeros))
        eps = [rng.standard_normal((SMALL.latent_len, OBS_LEN, k))
               for _ in picks]
        assert training.best_prior_samples(m, ad.Value(np.zeros(1)), prior,
                                           picks, eps, scaled) == exact
        assert decoded == [[0] * k + [2] * k]

    def test_window_losses_adds_the_given_prior_column(self):
        # one agent column, then its chosen prior sample's
        rng = np.random.default_rng(2)
        target = np.tile(rng.normal(size=(2, 20, 1)), (1, 1, 2))
        leaf = ad.leaf(rng.normal(size=(5, 20, 2)))
        q = model.LatentGaussian(ad.leaf(np.zeros((3, 8, 1))),
                                 ad.leaf(np.zeros((3, 8, 1))))
        objective, (report,) = losses.window_losses(
            model.BivariateGaussianSeq(leaf), target, q, q, 0, [1])
        cells, weight = losses.nll_cells(model.BivariateGaussianSeq(leaf),
                                         target)
        per_column = (cells.data * weight)[0].mean(axis=0)
        assert float(objective.data) == pytest.approx(
            per_column[0] + per_column[1], abs=1e-12)
        assert report.rec == pytest.approx(cells.data[0, :, 0].mean(),
                                           abs=1e-12)
        g = ad.backward(objective).get(leaf)
        assert np.any(g[:, :, 0] != 0) and np.any(g[:, :, 1] != 0)


class TestVarianceWeightedObjective:
    """The objective's gradient for a predicted mean is residual /
    NLL_REF_VAR whatever sigma is predicted, so fixed-rate SGD steps do not
    grow as the fit sharpens; the reported loss stays the plain NLL."""

    def mean_gradient(self, s):
        # two agent columns, then a prior sample of the first agent
        rng = np.random.default_rng(5)
        target = rng.normal(size=(2, 20, 2))
        target = np.concatenate([target, target[:, :, :1]], axis=2)
        raw = np.zeros((5, 20, 3))
        raw[0:2] = target + 0.3
        raw[2:4] = s
        leaf = ad.leaf(raw)
        q = model.LatentGaussian(ad.leaf(np.zeros((3, 8, 2))),
                                 ad.leaf(np.zeros((3, 8, 2))))
        objective, _ = losses.window_losses(model.BivariateGaussianSeq(leaf),
                                            target, q, q, 0, [2])
        cells, _ = losses.nll_cells(model.BivariateGaussianSeq(leaf), target)
        plain = ad.backward(ad.scale(ad.sum_all(cells),
                                     1.0 / cells.data.size)).get(leaf)
        return ad.backward(objective).get(leaf)[0:2], plain[0:2]

    def test_mean_gradient_independent_of_sigma(self):
        broad, plain_broad = self.mean_gradient(0.0)
        sharp, plain_sharp = self.mean_gradient(-2.0)
        cells = 20 * 2
        np.testing.assert_allclose(broad[:, :, :2],
                                   0.3 / losses.NLL_REF_VAR / cells,
                                   rtol=1e-12)
        # the prior sample's NLL is averaged over its 20 frames only
        np.testing.assert_allclose(broad[:, :, 2],
                                   0.3 / losses.NLL_REF_VAR / 20, rtol=1e-12)
        np.testing.assert_allclose(sharp, broad, rtol=1e-12)
        # the plain NLL's gradient is e^4 times larger at the sharper sigma
        np.testing.assert_allclose(plain_sharp, plain_broad * np.exp(4.0),
                                   rtol=1e-12)


# ---------------------------------------------------------------------------
# property tests: the config file and the checkpoint sidecar


@st.composite
def model_configs(draw):
    recog_blocks = draw(st.integers(1, 2))
    return model.ModelConfig(
        embed_channels=draw(st.integers(1, 6)),
        latent_len=draw(st.integers(1, 6)),
        recog_blocks=recog_blocks,
        prior_blocks=recog_blocks + draw(st.integers(1, 2)),
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
    linked = {"prior_blocks": "recog_blocks",
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


@settings(max_examples=30, deadline=None)
@given(mcfg=model_configs(), sizes=st.lists(st.integers(1, 3), min_size=1,
                                            max_size=3))
def test_every_accepted_config_trains_and_samples(mcfg, sizes):
    """Every ModelConfig that __post_init__ accepts runs a training pass
    over a chunk of windows and samples futures."""
    rng = np.random.default_rng(0)
    windows = [training.SequenceWindow(list(range(n)), np.cumsum(
        rng.normal(0.0, 0.2, (SEQ_LEN, n, 2)), axis=0))
        for n in sizes]
    m = model.TrajCvae(mcfg, rng=rng)
    grad, reports = training.chunk_gradients(m, windows, 0, rng)
    assert grad.shape == m.params.vector.shape and np.isfinite(grad).all()
    assert len(reports) == len(windows)
    assert all(np.isfinite(report.total) for report in reports)
    futures = evaluation.sample_futures(m, windows[0], rng, 2, "full")
    assert futures.shape == (2, PRED_LEN, sizes[0], 2)
    assert np.isfinite(futures).all()

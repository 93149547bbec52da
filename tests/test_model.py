import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stgcvae import autodiff as ad
from stgcvae import graph, model
from stgcvae.errors import ConfigError, DimensionError, FormatError

CFG = model.ModelConfig()
SMALL = model.ModelConfig(embed_channels=4, latent_len=3)


def make_inputs(n_agents, rng, cfg=CFG):
    pos = np.cumsum(rng.uniform(-0.3, 0.3, (cfg.seq_len, n_agents, 2)), axis=0)
    v = np.zeros((2, cfg.seq_len, n_agents))
    v[:, 1:, :] = np.transpose(pos[1:] - pos[:-1], (2, 0, 1))
    a = graph.normalized_adjacency(pos)
    return v, a


class TestInit:
    def test_same_seed_identical(self):
        a = model.init_params(CFG, np.random.default_rng(3))
        b = model.init_params(CFG, np.random.default_rng(3))
        for name in a.names():
            np.testing.assert_array_equal(a[name], b[name])

    def test_different_seeds_differ(self):
        a = model.init_params(CFG, np.random.default_rng(3))
        b = model.init_params(CFG, np.random.default_rng(4))
        assert any(not np.array_equal(a[n], b[n]) for n in a.names())

    def test_fan_in_bound(self):
        store = model.init_params(CFG, np.random.default_rng(0))
        for name, arr in store.items():
            if name.endswith(".w"):
                c_in, width = arr.shape[1], arr.shape[2]
                bound = np.sqrt(1.0 / (c_in * width))
                assert np.all(np.abs(arr) < bound)
            elif name.endswith(".b"):
                assert np.all(arr == 0)
            elif name.endswith(".slope"):
                assert np.all(arr == 0.25)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            model.ModelConfig(embed_channels=0)
        with pytest.raises(ConfigError):
            model.ModelConfig(prior_blocks=2, recog_blocks=2)

    @pytest.mark.parametrize("field, value", [
        ("dropout", -0.5), ("dropout", 1.0), ("noise_std", -0.01)])
    def test_out_of_range_noise_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            model.ModelConfig(**{field: value})


class TestCount:
    def test_empty_store(self):
        assert model.ParamStore({}).count_params() == 0

    def test_small_arithmetic(self):
        store = model.ParamStore({"w": np.zeros((3, 4)), "b": np.zeros(4)})
        assert store.count_params() == 16

    def test_default_config_corridor(self):
        total = model.init_params(CFG, np.random.default_rng(0)).count_params()
        assert 15_000 <= total <= 35_000


class TestParamStore:
    def store(self):
        return model.ParamStore({"w": np.arange(6.0).reshape(2, 3),
                                 "b": np.array([6.0, 7.0]),
                                 "s": np.array(8.0)})

    def test_views_of_one_vector_in_order(self):
        store = self.store()
        assert store.names() == ["w", "b", "s"]
        assert store.vector.tolist() == list(range(9))
        assert store["s"].shape == () and store["w"].flags.c_contiguous
        row = np.arange(10.0, 19.0)
        assert model.ParamStore(store.views(row))["b"].tolist() == [16, 17]

    def test_set_writes_through_to_vector(self):
        store = self.store()
        store["b"] = np.array([-1.0, -2.0])
        assert store.vector[6:8].tolist() == [-1.0, -2.0]
        store.vector[0] = 5.0
        assert store["w"][0, 0] == 5.0

    def test_set_wrong_shape_raises(self):
        store = self.store()
        with pytest.raises(DimensionError, match=r"parameter 'b': shape "
                                                 r"\(3,\) != \(2,\)"):
            store["b"] = np.zeros(3)
        with pytest.raises(KeyError):
            store["absent"] = np.zeros(2)
        assert store.vector.tolist() == list(range(9))

    def test_copy_does_not_alias(self):
        store = self.store()
        twin = store.copy()
        assert twin.names() == store.names()
        assert not np.shares_memory(twin.vector, store.vector)
        twin["w"] = np.zeros((2, 3))
        twin.vector[-1] = -1.0
        assert store.vector.tolist() == list(range(9))


class TestEncoders:
    def test_embed_output_shape(self):
        rng = np.random.default_rng(0)
        v, a = make_inputs(3, rng)
        m = model.TrajCvae(CFG, rng=rng)
        p = m.traced_params()
        embed = model.stgcnn_embed(
            ad.leaf(v[:, :8, :]), a[:8], p, "prior",
            CFG.prior_blocks, CFG.tcn_kernel, CFG.tcn_kernel)
        assert embed.data.shape == (CFG.embed_channels, 8, 3)

    def test_prior_shapes_and_determinism(self):
        rng = np.random.default_rng(1)
        v, a = make_inputs(4, rng)
        m = model.TrajCvae(CFG, rng=rng)
        p = m.traced_params()
        out1 = m.prior_forward(p, ad.leaf(v[:, :8, :]), a[:8])
        out2 = m.prior_forward(p, ad.leaf(v[:, :8, :]), a[:8])
        assert out1.shape == (CFG.latent_len, 8, 4)
        np.testing.assert_array_equal(out1.mu.data, out2.mu.data)

    def test_prior_wrong_frames(self):
        rng = np.random.default_rng(1)
        v, a = make_inputs(2, rng)
        m = model.TrajCvae(CFG, rng=rng)
        with pytest.raises(DimensionError):
            m.prior_forward(m.traced_params(), ad.leaf(v), a)

    def test_recog_eval_deterministic_train_stochastic(self):
        rng = np.random.default_rng(2)
        v, a = make_inputs(3, rng)
        m = model.TrajCvae(CFG, rng=rng)
        p = m.traced_params()
        e1 = m.recog_forward(p, ad.leaf(v), a)
        e2 = m.recog_forward(p, ad.leaf(v), a)
        np.testing.assert_array_equal(e1.mu.data, e2.mu.data)
        t1 = m.recog_forward(p, ad.leaf(v), a,
                             m.recog_noise(3, np.random.default_rng(10)))
        t2 = m.recog_forward(p, ad.leaf(v), a,
                             m.recog_noise(3, np.random.default_rng(11)))
        assert not np.array_equal(t1.mu.data, t2.mu.data)

    def test_recog_matches_prior_grid(self):
        rng = np.random.default_rng(3)
        v, a = make_inputs(5, rng)
        m = model.TrajCvae(CFG, rng=rng)
        p = m.traced_params()
        post = m.recog_forward(p, ad.leaf(v), a)
        prior = m.prior_forward(p, ad.leaf(v[:, :8, :]), a[:8])
        assert post.shape == prior.shape == (CFG.latent_len, 8, 5)


class TestDecoder:
    def test_output_shape_always_20_frames(self):
        rng = np.random.default_rng(4)
        v, a = make_inputs(3, rng)
        m = model.TrajCvae(CFG, rng=rng)
        p = m.traced_params()
        prior = m.prior_forward(p, ad.leaf(v[:, :8, :]), a[:8])
        z = ad.reparameterize(prior.mu, prior.logvar,
                              np.random.default_rng(0).standard_normal(
                                  prior.mu.data.shape))
        out = m.decode(p, z, m.observe(p, ad.leaf(v[:, :8, :]), a[:8]))
        assert out.data.shape == (5, 20, 3)

    def test_constrained_sigmas_positive(self):
        rng = np.random.default_rng(5)
        v, a = make_inputs(2, rng)
        m = model.TrajCvae(CFG, rng=rng)
        p = m.traced_params()
        prior = m.prior_forward(p, ad.leaf(v[:, :8, :]), a[:8])
        obs = m.observe(p, ad.leaf(v[:, :8, :]), a[:8])
        out = m.decode(p, prior.mu, obs)
        c = out.constrained()
        assert np.all(c[2] > 0) and np.all(c[3] > 0)
        assert np.all(np.abs(c[4]) < 1)

    def test_agent_count_mismatch(self):
        rng = np.random.default_rng(6)
        v, a = make_inputs(3, rng)
        m = model.TrajCvae(CFG, rng=rng)
        p = m.traced_params()
        z = ad.leaf(np.zeros((CFG.latent_len, 8, 2)))
        with pytest.raises(DimensionError):
            m.decode(p, z, m.observe(p, ad.leaf(v[:, :8, :]), a[:8]))

    @pytest.mark.parametrize("agents", [[0, 3], [0, -1]])
    def test_agent_index_out_of_range(self, agents):
        rng = np.random.default_rng(6)
        v, a = make_inputs(3, rng)
        m = model.TrajCvae(CFG, rng=rng)
        z = ad.leaf(np.zeros((CFG.latent_len, 8, 2)))
        p = m.traced_params()
        obs = m.observe(p, ad.leaf(v[:, :8, :]), a[:8])
        with pytest.raises(DimensionError):
            m.decode(p, z, obs, agents)

    def test_stacked_latents_decode_as_alone(self):
        # latent columns of other samples must not leak into a column
        rng = np.random.default_rng(8)
        v, a = make_inputs(3, rng)
        m = model.TrajCvae(CFG, rng=rng)
        p = m.traced_params()
        v_obs = ad.leaf(v[:, :8, :])
        zs = [rng.normal(size=(CFG.latent_len, 8, 3)) for _ in range(2)]
        obs = m.observe(p, v_obs, a[:8])
        alone = [m.decode(p, ad.leaf(z), obs).data for z in zs]
        agents = [0, 1, 2, 1, 1]
        stacked = np.concatenate([zs[0], zs[1][:, :, [1, 1]]], axis=2)
        out = m.decode(p, ad.leaf(stacked), obs, agents).data
        np.testing.assert_allclose(out[:, :, :3], alone[0], atol=1e-12)
        np.testing.assert_allclose(out[:, :, 3], alone[1][:, :, 1], atol=1e-12)
        np.testing.assert_allclose(out[:, :, 4], alone[1][:, :, 1], atol=1e-12)


def full_pass(m, p, v, a, z_rng):
    prior = m.prior_forward(p, ad.leaf(v[:, :8, :]), a[:8])
    post = m.recog_forward(p, ad.leaf(v), a)
    z = ad.reparameterize(post.mu, post.logvar,
                          z_rng.standard_normal(post.mu.data.shape))
    return prior, post, m.decode(p, z, m.observe(p, ad.leaf(v[:, :8, :]),
                                                 a[:8]))


class TestStructuralInvariants:
    def test_variable_agent_counts(self):
        # one ParamStore, N in {1, 2, 5, 12}, no reconfiguration
        rng = np.random.default_rng(7)
        m = model.TrajCvae(CFG, rng=rng)
        p = m.traced_params()
        for n in (1, 2, 5, 12):
            v, a = make_inputs(n, rng)
            _, _, out = full_pass(m, p, v, a, np.random.default_rng(0))
            assert out.data.shape == (5, 20, n)

    def test_permutation_equivariance_all_networks(self):
        rng = np.random.default_rng(8)
        n = 5
        v, a = make_inputs(n, rng)
        perm = rng.permutation(n)
        vp = v[:, :, perm]
        ap = a[:, perm][:, :, perm]
        m = model.TrajCvae(CFG, rng=rng)
        p = m.traced_params()

        prior = m.prior_forward(p, ad.leaf(v[:, :8, :]), a[:8])
        prior_p = m.prior_forward(p, ad.leaf(vp[:, :8, :]), ap[:8])
        np.testing.assert_allclose(prior_p.mu.data, prior.mu.data[:, :, perm],
                                   atol=1e-9)

        post = m.recog_forward(p, ad.leaf(v), a)
        post_p = m.recog_forward(p, ad.leaf(vp), ap)
        np.testing.assert_allclose(post_p.mu.data, post.mu.data[:, :, perm],
                                   atol=1e-9)

        z = prior.mu
        zp = ad.leaf(z.data[:, :, perm])
        dec = m.decode(p, z, m.observe(p, ad.leaf(v[:, :8, :]), a[:8]))
        dec_p = m.decode(p, zp,
                         m.observe(p, ad.leaf(vp[:, :8, :]), ap[:8]))
        np.testing.assert_allclose(dec_p.data, dec.data[:, :, perm], atol=1e-9)

    def test_latent_length_sweep_strictly_increasing(self):
        counts = []
        for latent in (10, 20, 30):
            cfg = model.ModelConfig(latent_len=latent)
            counts.append(model.init_params(
                cfg, np.random.default_rng(0)).count_params())
        assert counts[0] < counts[1] < counts[2]


def write_version1(path, store):
    """A version-1 checkpoint: the STGC layout with float32 data, which
    save_params no longer writes but load_params still reads."""
    with open(path, "wb") as fh:
        fh.write(b"STGC" + struct.pack("<BI", 1, len(store.names())))
        for name, arr in store.items():
            enc = name.encode("utf-8")
            fh.write(struct.pack(f"<H{len(enc)}sB{arr.ndim}I", len(enc), enc,
                                 arr.ndim, *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


class TestCheckpoint:
    def test_roundtrip_float32(self, tmp_path):
        store = model.init_params(SMALL, np.random.default_rng(0))
        path = tmp_path / "model.stgc"
        write_version1(path, store)
        Path(f"{path}.meta").write_text(
            "latent_len=3\nembed_channels=4\nepoch=7\nseed=1\n")
        loaded, meta = model.load_params(path)
        assert loaded.names() == store.names()
        for n in store.names():
            np.testing.assert_allclose(loaded[n], store[n], atol=1e-6)
        assert meta["epoch"] == "7"
        cfg = model.config_from_metadata(meta)
        assert cfg.latent_len == 3 and cfg.embed_channels == 4

    def test_roundtrip_float64_exact(self, tmp_path):
        store = model.init_params(SMALL, np.random.default_rng(0))
        path = tmp_path / "model.stgc"
        model.save_params(path, store)
        assert path.read_bytes()[4] == 2  # the version byte
        loaded, _ = model.load_params(path)
        for n in store.names():
            np.testing.assert_array_equal(loaded[n], store[n])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.stgc"
        p.write_bytes(b"JUNK" + bytes(32))
        with pytest.raises(FormatError):
            model.load_params(p)

    def test_truncated(self, tmp_path):
        store = model.init_params(SMALL, np.random.default_rng(0))
        p = tmp_path / "x.stgc"
        model.save_params(p, store)
        p.write_bytes(p.read_bytes()[:-17])
        with pytest.raises(FormatError):
            model.load_params(p)

    @staticmethod
    def tiny_checkpoint(path):
        store = model.ParamStore({"a": np.arange(6.0).reshape(2, 3),
                                  "scalar": np.array(1.5),
                                  "ünï": np.ones(1)})
        model.save_params(path, store)
        return path.read_bytes()

    def test_truncated_at_every_byte(self, tmp_path):
        p = tmp_path / "x.stgc"
        blob = self.tiny_checkpoint(p)
        model.load_params(p)
        for cut in range(len(blob)):
            p.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                model.load_params(p)

    def test_trailing_byte(self, tmp_path):
        p = tmp_path / "x.stgc"
        p.write_bytes(self.tiny_checkpoint(p) + b"\0")
        with pytest.raises(FormatError, match="x.stgc: 1 bytes after"):
            model.load_params(p)

    def test_repeated_name(self, tmp_path):
        store = model.ParamStore({"a": np.zeros(2), "b": np.ones(2)})
        p = tmp_path / "x.stgc"
        model.save_params(p, store)
        # rename entry b to a: name length (u16) then the name
        p.write_bytes(p.read_bytes().replace(b"\x01\x00b", b"\x01\x00a"))
        with pytest.raises(FormatError, match="x.stgc: parameter a appears"):
            model.load_params(p)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path,
                                                    monkeypatch):
        old = model.init_params(SMALL, np.random.default_rng(0))
        path = tmp_path / "model.stgc"
        model.save_params(path, old, metadata={"epoch": 1})
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        entries = model.ParamStore.items

        def failing_items(store):
            it = iter(entries(store))
            yield next(it)
            raise OSError("disk full")

        monkeypatch.setattr(model.ParamStore, "items", failing_items)
        new = model.init_params(SMALL, np.random.default_rng(1))
        with pytest.raises(OSError, match="disk full"):
            model.save_params(path, new, metadata={"epoch": 2})
        monkeypatch.undo()

        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        loaded, meta = model.load_params(path)
        assert meta["epoch"] == "1"
        for n in old.names():
            np.testing.assert_array_equal(loaded[n], old[n])


class TestLoadModel:
    META = {"latent_len": 3, "embed_channels": 4, "epoch": 7}

    def save(self, tmp_path, store=None, **meta):
        store = store or model.init_params(SMALL, np.random.default_rng(0))
        path = tmp_path / "model.stgc"
        model.save_params(path, store, metadata={**self.META, **meta})
        return path, store

    def test_roundtrip(self, tmp_path):
        path, store = self.save(tmp_path)
        m, meta = model.load_model(path)
        assert m.config == SMALL and meta["epoch"] == "7"
        assert m.params.names() == store.names()
        for n in store.names():
            np.testing.assert_array_equal(m.params[n], store[n])

    def test_entry_count_one_short(self, tmp_path):
        path, _ = self.save(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[5] -= 1  # little-endian entry count
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="model.stgc: .*after the last"):
            model.load_model(path)

    def test_missing_parameter_named(self, tmp_path):
        full = model.init_params(SMALL, np.random.default_rng(0))
        store = model.ParamStore(dict(list(full.items())[:-1]))
        path, _ = self.save(tmp_path, store)
        with pytest.raises(FormatError,
                           match=r"model\.stgc: parameter dec\.out\.b: absent"):
            model.load_model(path)

    def test_extra_parameter_named(self, tmp_path):
        full = model.init_params(SMALL, np.random.default_rng(0))
        store = model.ParamStore({**dict(full.items()), "stray": np.zeros(2)})
        path, _ = self.save(tmp_path, store)
        with pytest.raises(FormatError, match="parameter stray: "):
            model.load_model(path)

    def test_missing_sidecar_named(self, tmp_path):
        path, _ = self.save(tmp_path)
        Path(f"{path}.meta").unlink()
        assert model.load_params(path)[1] == {}
        with pytest.raises(FormatError, match=r"model\.stgc\.meta: missing"):
            model.load_model(path)

    def test_sidecar_latent_len_mismatch(self, tmp_path):
        path, _ = self.save(tmp_path, latent_len=5)
        with pytest.raises(FormatError,
                           match=r"parameter prior\.head\.mu\.w: \(3, 4, 1\) "
                                 r"in the file, \(5, 4, 1\)"):
            model.load_model(path)


# ---------------------------------------------------------------------------
# property test: the STGC checkpoint


@st.composite
def param_stores(draw):
    names = draw(st.lists(st.text(min_size=1, max_size=20), max_size=5,
                          unique=True))
    entries = {}
    for name in names:
        shape = draw(st.lists(st.integers(0, 4), max_size=3))
        entries[name] = draw(arrays(np.float64, tuple(shape),
                                    elements=st.floats(allow_nan=True)))
    return model.ParamStore(entries)


@settings(max_examples=60, deadline=None)
@given(store=param_stores(), dtype=st.sampled_from(["f4", "f8"]))
def test_checkpoint_roundtrip(store, dtype):
    """Any parameters read back with their names, order and shapes; float64
    files hold the exact values, float32 files the float32-rounded ones."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.stgc"
        if dtype == "f8":
            model.save_params(path, store)
        else:
            with np.errstate(over="ignore"):  # f4 holds large values as inf
                write_version1(path, store)
        back, meta = model.load_params(path)
    assert meta == {} and back.names() == store.names()
    for name, want in store.items():
        if dtype == "f4":
            with np.errstate(over="ignore"):
                want = want.astype(np.float32).astype(np.float64)
        assert back[name].shape == want.shape
        np.testing.assert_array_equal(back[name], want)

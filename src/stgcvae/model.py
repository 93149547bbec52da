"""The three networks: conditional prior, recognition, and decoder.

All three are built from GCN layers (per-frame channel mix followed by
agent mixing against the normalized adjacency), temporal convolutions,
1x1 latent heads, and time-extrapolating convolutions that treat the
time axis as channels. Everything is per-agent or adjacency-mediated,
so the networks are agent-permutation equivariant and accept any N.

Parameters live in a ParamStore (named, shaped views of one float64
vector). A forward pass wraps them in autodiff leaves via `traced_params`,
so gradients come back keyed by parameter name.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError, FormatError

LOGVAR_MIN, LOGVAR_MAX = ad.LOGVAR_MIN, ad.LOGVAR_MAX

IN_CHANNELS = 2   # per-frame displacement (dx, dy)
OUT_CHANNELS = 5  # (mu_x, mu_y, s_x, s_y, r)

# Guards for the output distribution channels. The latent clamp above bounds
# the loss value, but near-degenerate output Gaussians also blow up the NLL
# gradient (1/sigma^2 and 1/(1-rho^2) factors), which diverges under
# fixed-rate SGD. Flooring sigma at exp(-3) ~ 0.05 m and capping |rho| at
# tanh(1.2) ~ 0.83 keeps that curvature below the stability threshold of the
# 0.01 step size while leaving the predicted means unconstrained.
SIGMA_S_MIN = -3.0
RHO_R_MAX = 1.2


@dataclass
class ModelConfig:
    embed_channels: int = 24
    latent_len: int = 20
    obs_len: int = 8
    seq_len: int = 20
    prior_blocks: int = 3    # GCN+TCN pairs in the prior encoder
    recog_blocks: int = 2    # GCN+TCN pairs in the recognition encoder
    tcn_kernel: int = 3
    dropout: float = 0.1
    noise_std: float = 0.01
    # Multiplier applied to displacement features on the way into the
    # networks (and divided back out of the predicted means). Typical
    # per-frame steps are ~0.1-0.4 m, well below the unit scale of the
    # latent noise; scaling up raises the signal-to-noise ratio of the
    # latent means without touching the pinned weight init.
    feature_scale: float = 1.0

    def __post_init__(self):
        if self.feature_scale <= 0:
            raise ConfigError("feature_scale must be positive")
        for name in ("embed_channels", "latent_len", "obs_len", "seq_len",
                     "prior_blocks", "recog_blocks", "tcn_kernel"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.prior_blocks <= self.recog_blocks:
            # asymmetry: the prior is the more expressive encoder
            raise ConfigError("prior_blocks must exceed recog_blocks")
        if self.seq_len <= self.obs_len:
            raise ConfigError("seq_len must exceed obs_len")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be non-negative")

    @property
    def reduce_kernel(self) -> int:
        # stride-free reduction of the recognition embedding: seq -> obs frames
        return self.seq_len - self.obs_len + 1


class ParamStore:
    """Named, shaped views of one float64 `vector`, in the order given."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.shapes = {name: np.shape(a) for name, a in arrays.items()}
        # each parameter's start in `vector`, then the vector's size
        self.offsets = np.cumsum([0, *map(math.prod, self.shapes.values())])
        self.vector = np.concatenate([np.zeros(0),
                                      *map(np.ravel, arrays.values())])
        self._views = self.views(self.vector)

    def views(self, row: np.ndarray) -> dict[str, np.ndarray]:
        """{name: shaped view} of a vector laid out like `vector`."""
        return {name: row[a:b].reshape(shape) for (name, shape), a, b
                in zip(self.shapes.items(), self.offsets, self.offsets[1:])}

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, array: np.ndarray):
        view = self._views[name]
        if view.shape != array.shape:
            raise DimensionError(
                f"parameter {name!r}: shape {array.shape} != {view.shape}")
        view[...] = array

    def names(self):
        return list(self._views)

    def items(self):
        return self._views.items()

    def count_params(self) -> int:
        return self.vector.size

    def copy(self) -> "ParamStore":
        return ParamStore(self._views)

    def traced(self) -> dict[str, ad.Value]:
        return {k: ad.leaf(v) for k, v in self._views.items()}


@dataclass
class LatentGaussian:
    """Diagonal-Gaussian latent aligned to the graph embedding.

    mu and logvar both have shape (L, T_obs, N); logvar is already clamped
    to the safe exponentiation range.
    """
    mu: ad.Value
    logvar: ad.Value

    @property
    def shape(self):
        return self.mu.data.shape


@dataclass
class BivariateGaussianSeq:
    """Raw decoder output (5, T_out, N) and its constrained view."""
    raw: ad.Value

    @property
    def data(self) -> np.ndarray:
        return self.raw.data

    def constrained(self) -> np.ndarray:
        """(5, T, N) numpy with sigma = exp(clamped s) and rho = tanh(r)."""
        out = self.raw.data.copy()
        out[2:4] = np.exp(np.clip(out[2:4], SIGMA_S_MIN, LOGVAR_MAX))
        out[4] = np.tanh(np.clip(out[4], -RHO_R_MAX, RHO_R_MAX))
        return out


# ---------------------------------------------------------------------------
# initialization


def init_params(config: ModelConfig, rng: np.random.Generator) -> ParamStore:
    """Uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) weights, zero biases,
    prelu slopes 0.25. Deterministic under the generator's state."""
    arrays = {}
    c, p = IN_CHANNELS, config.embed_channels
    k, l = config.tcn_kernel, config.latent_len

    def conv(name, c_out, c_in, width):
        bound = np.sqrt(1.0 / (c_in * width))
        arrays[name + ".w"] = rng.uniform(-bound, bound, (c_out, c_in, width))
        arrays[name + ".b"] = np.zeros(c_out)

    def slope(name, channels):
        arrays[name] = np.full(channels, 0.25)

    def encoder(prefix, blocks, last_tcn_kernel):
        for i in range(blocks):
            c_in = c if i == 0 else p
            conv(f"{prefix}.block{i}.gcn", p, c_in, 1)
            slope(f"{prefix}.block{i}.gcn.slope", p)
            width = last_tcn_kernel if i == blocks - 1 else k
            conv(f"{prefix}.block{i}.tcn", p, p, width)
            slope(f"{prefix}.block{i}.tcn.slope", p)
        conv(f"{prefix}.head.mu", l, p, 1)
        conv(f"{prefix}.head.logvar", l, p, 1)

    encoder("prior", config.prior_blocks, k)
    encoder("recog", config.recog_blocks, config.reduce_kernel)

    # decoder
    conv("dec.obs_embed", p, c, 1)
    slope("dec.obs_embed.slope", p)
    conv("dec.z_embed", p, l, k)
    slope("dec.z_embed.slope", p)
    conv("dec.fuse", p, 2 * p, 1)
    slope("dec.fuse.slope", p)
    conv("dec.txp1", config.seq_len, config.obs_len, k)
    slope("dec.txp1.slope", p)
    conv("dec.txp2", config.seq_len, config.seq_len, k)
    slope("dec.txp2.slope", p)
    conv("dec.out", OUT_CHANNELS, p, 1)
    return ParamStore(arrays)


# ---------------------------------------------------------------------------
# building blocks


# `segments`, where a function takes it, gives the bounds of each window's
# agent columns when several windows are stacked along the agent axis: the
# adjacency is then a list of per-window blocks, and every parameter
# gradient comes out per window (see autodiff's segments).


def _layer(v, params, name, padding=0, segments=None):
    """Convolution plus bias, with the parameters `name`.w and `name`.b."""
    return ad.conv_time(v, params[name + ".w"], params[name + ".b"], padding,
                        segments)


def _gcn(v, adj, params, name, segments=None):
    """Per-frame graph convolution: channel mix, agent mix, prelu."""
    h = ad.mix_agents(_layer(v, params, name, segments=segments), adj,
                      segments)
    return ad.prelu(h, params[name + ".slope"], segments)


def _tcn(v, params, name, padding, segments=None):
    h = _layer(v, params, name, padding, segments)
    return ad.prelu(h, params[name + ".slope"], segments)


def _txp(v, params, name, segments=None):
    """Time-extrapolating convolution: time treated as the channel axis."""
    h = ad.transpose_ct(_layer(ad.transpose_ct(v), params, name, 1, segments))
    return ad.prelu(h, params[name + ".slope"], segments)


def _block_kernels(blocks: int, tcn_kernel: int,
                   last_tcn_kernel: int) -> list[tuple[int, int]]:
    """(width, padding) of each block's TCN in stgcnn_embed. A TCN of width
    tcn_kernel is padded to keep the frame count (for an odd width)."""
    widths = [tcn_kernel] * (blocks - 1) + [last_tcn_kernel]
    return [(w, (tcn_kernel - 1) // 2 if w == tcn_kernel else 0)
            for w in widths]


def stgcnn_embed(v: ad.Value, adj: np.ndarray, params: dict, prefix: str,
                 blocks: int, tcn_kernel: int, last_tcn_kernel: int,
                 dropout=(), segments=None) -> ad.Value:
    """Alternating GCN / TCN blocks with identity residuals.

    A residual connects block input to block output whenever shapes match
    (i.e. from the second block on, when the time length is preserved).
    `dropout` holds each block's dropout factors (see
    autodiff.dropout_factor), or is empty for no dropout.
    """
    h = v
    kernels = _block_kernels(blocks, tcn_kernel, last_tcn_kernel)
    for i, (_, padding) in enumerate(kernels):
        block_in = h
        h = _gcn(h, adj, params, f"{prefix}.block{i}.gcn", segments)
        h = _tcn(h, params, f"{prefix}.block{i}.tcn", padding, segments)
        if h.data.shape == block_in.data.shape:
            h = ad.add(h, block_in)
        if dropout:
            h = ad.dropout(h, dropout[i])
    return h


def _heads(embed, params, prefix, segments=None):
    mu = _layer(embed, params, prefix + ".head.mu", segments=segments)
    logvar = _layer(embed, params, prefix + ".head.logvar", segments=segments)
    return mu, ad.clamp(logvar, LOGVAR_MIN, LOGVAR_MAX)


@dataclass
class RecogNoise:
    """The random arrays of a training-mode recognition pass, drawn before
    it runs: each embedding block's dropout factors (none at dropout 0),
    then the noise added to the posterior mean. Agent columns last."""
    dropout: list[np.ndarray]
    mu: np.ndarray

    @staticmethod
    def stack(parts: list["RecogNoise"]) -> "RecogNoise":
        """The noise of windows stacked along the agent axis, in order."""
        return RecogNoise(
            [np.concatenate(f, axis=2) for f in zip(*(p.dropout
                                                      for p in parts))],
            np.concatenate([p.mu for p in parts], axis=2))


# ---------------------------------------------------------------------------
# the model


class TrajCvae:
    """Conditional prior + recognition encoder + decoder over one ParamStore."""

    def __init__(self, config: ModelConfig, params: ParamStore | None = None,
                 rng: np.random.Generator | None = None):
        self.config = config
        if params is None:
            params = init_params(config, rng or np.random.default_rng(0))
        self.params = params

    def traced_params(self) -> dict[str, ad.Value]:
        return self.params.traced()

    def recog_noise(self, n: int, rng: np.random.Generator) -> RecogNoise:
        """Draw the noise of a training-mode recognition pass over n agents,
        in the order the pass applies it."""
        cfg = self.config
        t = cfg.seq_len
        factors = []
        for width, padding in _block_kernels(
                cfg.recog_blocks, cfg.tcn_kernel, cfg.reduce_kernel):
            t += 2 * padding - width + 1
            if cfg.dropout > 0.0:
                factors.append(ad.dropout_factor(
                    (cfg.embed_channels, t, n), cfg.dropout, rng))
        mu = rng.standard_normal((cfg.latent_len, t, n)) * cfg.noise_std
        return RecogNoise(factors, mu)

    def prior_forward(self, p: dict, v_obs: ad.Value,
                      a_obs: np.ndarray, segments=None) -> LatentGaussian:
        """Latent Gaussian over z given the 8 observed frames.

        v_obs: (2, obs_len, N) displacement features, a_obs: (obs_len, N, N).
        """
        cfg = self.config
        if v_obs.data.shape[1] != cfg.obs_len:
            raise DimensionError(
                f"prior_forward: expected {cfg.obs_len} frames, got "
                f"{v_obs.data.shape[1]}")
        embed = stgcnn_embed(v_obs, a_obs, p, "prior", cfg.prior_blocks,
                             cfg.tcn_kernel, cfg.tcn_kernel,
                             segments=segments)
        return LatentGaussian(*_heads(embed, p, "prior", segments))

    def recog_forward(self, p: dict, v_full: ad.Value, a_full: np.ndarray,
                      noise: RecogNoise | None = None,
                      segments=None) -> LatentGaussian:
        """Approximate posterior over z from all 20 frames.

        The final TCN uses a stride-free kernel of length seq-obs+1, so
        the latent lands on the same 8-frame grid as the prior. Given
        `noise` (train mode, see recog_noise), dropout acts inside the
        embedding and small Gaussian noise is added to mu.
        """
        cfg = self.config
        if v_full.data.shape[1] != cfg.seq_len:
            raise DimensionError(
                f"recog_forward: expected {cfg.seq_len} frames, got "
                f"{v_full.data.shape[1]}")
        embed = stgcnn_embed(v_full, a_full, p, "recog", cfg.recog_blocks,
                             cfg.tcn_kernel, cfg.reduce_kernel,
                             dropout=() if noise is None else noise.dropout,
                             segments=segments)
        mu, logvar = _heads(embed, p, "recog", segments)
        if noise is not None:
            mu = ad.add(mu, ad.Value(noise.mu))
        return LatentGaussian(mu, logvar)

    def observe(self, p: dict, v_obs: ad.Value, a_obs: np.ndarray,
                segments=None) -> ad.Value:
        """The decoder's observed branch, (embed_channels, obs_len, N): the
        only part of the decoder that mixes agents. Computed once per
        observation, it serves every decode of latents of its agents."""
        return _gcn(v_obs, a_obs, p, "dec.obs_embed", segments)

    def decode(self, p: dict, z: ad.Value, obs: ad.Value, agents=None,
               segments=None) -> BivariateGaussianSeq:
        """Cascade-fuse the observed graph `obs` (see observe) with the
        latent transition and extrapolate to the full 20-frame bivariate
        Gaussian sequence.

        The re-embedded latent is also pushed through the first
        time-extrapolation kernel and added back between the two TXP
        blocks (latent skip connection).

        By default z has one column per agent. With `agents`, latent column
        j belongs to agent agents[j] and the output has one column per
        latent column, so several latent samples of the same agents decode
        in one pass, each exactly as it would alone. `segments`, if given,
        are z's.
        """
        cfg = self.config
        n = obs.data.shape[2]
        cols = slice(None) if agents is None \
            else np.asarray(agents, dtype=np.intp)
        if z.data.shape[2] != (n if agents is None else cols.size) \
                or (agents is not None and np.any((cols < 0) | (cols >= n))):
            raise DimensionError(
                f"decode: z has {z.data.shape[2]} agents, observation has "
                f"{n}")
        if z.data.shape[:2] != (cfg.latent_len, cfg.obs_len):
            raise DimensionError(
                f"decode: z shape {z.data.shape} != "
                f"({cfg.latent_len}, {cfg.obs_len}, N)")

        if agents is not None:
            obs = ad.take_agents(obs, cols)
        zre = _tcn(z, p, "dec.z_embed", 1, segments)
        fused = _tcn(ad.concat_channels(obs, zre), p, "dec.fuse", 0, segments)

        h = _txp(fused, p, "dec.txp1", segments)     # time obs_len -> seq_len
        z_skip = _txp(zre, p, "dec.txp1", segments)  # same kernel
        h = ad.add(h, z_skip)

        h2 = _txp(h, p, "dec.txp2", segments)        # refine at seq_len
        h = ad.add(h2, h)

        raw = _layer(h, p, "dec.out", segments=segments)
        return BivariateGaussianSeq(raw)

    def count_params(self) -> int:
        return self.params.count_params()


# ---------------------------------------------------------------------------
# checkpoint file: magic STGC, version byte, entries
# version 2 stores float64 data (bit-exact resume); version 1 files
# (float32 data) still load

_MAGIC = b"STGC"


@contextlib.contextmanager
def replacing(path, mode: str = "w"):
    """Open a temporary file beside `path` (`.<name>.<pid>.tmp`) and rename
    it over `path` when the block ends; if the block raises, the temporary
    file is removed and `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_params(path, store: ParamStore, metadata: dict | None = None) -> None:
    """Write a version-2 checkpoint. A sidecar `<path>.meta` records config
    metadata as plain `key=value` lines.

    Both files are written through `replacing`, the sidecar renamed first,
    so a failed write leaves the previous checkpoint as it was.
    """
    with replacing(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<BI", 2, len(store.names())))
        for name, arr in store.items():
            enc = name.encode("utf-8")
            fh.write(struct.pack("<H", len(enc)))
            fh.write(enc)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        if metadata is not None:
            with replacing(f"{path}.meta") as meta:
                meta.write("\n".join(f"{k}={v}" for k, v in metadata.items())
                           + "\n")


def load_params(path) -> tuple[ParamStore, dict]:
    """Read a checkpoint and its sidecar metadata (empty dict if absent)."""
    blob = Path(path).read_bytes()
    if blob[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    try:
        version, count = struct.unpack_from("<BI", blob, 4)
        if version not in (1, 2):
            raise FormatError(f"{path}: unsupported version {version}")
        np_dtype = np.dtype("<f4" if version == 1 else "<f8")
        arrays = {}
        off = 9
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off:off + nlen].decode("utf-8")
            off += nlen
            (ndim,) = struct.unpack_from("<B", blob, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, off)
            off += 4 * ndim
            size = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(blob, dtype=np_dtype, count=size,
                                offset=off).reshape(shape).astype(np.float64)
            off += size * np_dtype.itemsize
            if name in arrays:
                raise FormatError(f"{path}: parameter {name} appears twice")
            arrays[name] = arr
    except (struct.error, ValueError) as exc:
        raise FormatError(f"{path}: truncated ({exc})") from exc
    if off != len(blob):
        raise FormatError(
            f"{path}: {len(blob) - off} bytes after the last entry")

    meta_path = Path(f"{path}.meta")
    metadata = {k: v for k, (_, v) in read_key_values(meta_path).items()} \
        if meta_path.exists() else {}
    return ParamStore(arrays), metadata


def load_model(path) -> tuple[TrajCvae, dict]:
    """The model a checkpoint holds, and its sidecar metadata. The
    parameters must have the names and shapes that the sidecar's config
    gives; the first that does not, or a missing sidecar, raises
    FormatError naming the file."""
    store, meta = load_params(path)
    if not Path(f"{path}.meta").exists():
        raise FormatError(f"{path}.meta: missing, so the config is unknown")
    config = config_from_metadata(meta, f"{path}.meta")
    want = init_params(config, np.random.default_rng(0)).shapes
    got = store.shapes
    for name in dict.fromkeys([*want, *got]):
        if got.get(name) != want.get(name):
            raise FormatError(
                f"{path}: parameter {name}: {got.get(name, 'absent')} in the "
                f"file, {want.get(name, 'absent')} for its config")
    return TrajCvae(config, params=store), meta


def read_key_values(path, error=FormatError) -> dict[str, tuple[str, str]]:
    """{key: ("file:line", value)} of a flat `key = value` text file. Blank
    lines and lines starting with `#` are skipped; a line without `=` or a
    repeated key raises `error` naming the file and line."""
    entries = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            key, eq, value = (s.strip() for s in line.partition("="))
            if not (key or eq) or key.startswith("#"):
                continue
            if not eq or key in entries:
                raise error(f"{path}:{lineno}: " + (
                    f"{key} is set twice" if eq else "expected key=value"))
            entries[key] = f"{path}:{lineno}", value
    return entries


def build_config(config_cls, texts: dict[str, tuple[str, str]], error):
    """config_cls from {field name: (where, text)}, each text cast to its
    field's declared type (int or float, or an optional of either); a text
    that is not a finite value of it raises `error` naming where and field."""
    kwargs = {}
    for name, (where, text) in texts.items():
        hint = typing.get_type_hints(config_cls)[name]
        kind = (typing.get_args(hint) or (hint,))[0]  # int | None -> int
        try:
            kwargs[name] = kind(text)
            if not math.isfinite(kwargs[name]):
                raise ValueError
        except (ValueError, OverflowError):
            raise error(f"{where}: {name}: expected a finite "
                        f"{kind.__name__}, got {text!r}") from None
    return config_cls(**kwargs)


def config_from_metadata(metadata: dict, source="sidecar") -> ModelConfig:
    """Rebuild a ModelConfig from sidecar metadata, using defaults for
    missing keys; a bad value raises FormatError naming `source`."""
    return build_config(ModelConfig, {f.name: (source, metadata[f.name])
                                      for f in fields(ModelConfig)
                                      if f.name in metadata}, FormatError)

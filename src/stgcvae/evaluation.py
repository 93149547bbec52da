"""Best-of-K sampling evaluation: ADE/FDE, a constant-velocity baseline,
and single-inference latency benchmarking."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import graph
from .data import SequenceWindow, to_displacements
from .errors import (DimensionError, EmptyWindowError, MissingTruthError,
                     ParameterError)
from .model import OUT_CHANNELS, TrajCvae, replacing


@dataclass
class LatencyStats:
    mean: float
    p95: float
    repetitions: int


@dataclass
class EvalReport:
    ade: float
    fde: float
    k: int
    windows: int
    per_scene: dict = field(default_factory=dict)
    param_count: int = 0

    def render(self) -> str:
        """Structured plain-text document with nested per-scene sections."""
        lines = [
            f"ade = {self.ade:.6f}",
            f"fde = {self.fde:.6f}",
            f"k = {self.k}",
            f"windows = {self.windows}",
            f"param_count = {self.param_count}",
        ]
        for scene in sorted(self.per_scene):
            s = self.per_scene[scene]
            lines.append(f"[scene {scene}]")
            lines.append(f"  ade = {s['ade']:.6f}")
            lines.append(f"  fde = {s['fde']:.6f}")
            lines.append(f"  windows = {s['windows']}")
        return "\n".join(lines) + "\n"


def ade(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean Euclidean distance over all agents and prediction frames."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape != truth.shape:
        raise DimensionError(f"ade: {pred.shape} vs {truth.shape}")
    return float(np.mean(np.linalg.norm(pred - truth, axis=-1)))


def fde(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean Euclidean distance over agents at the final frame only."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.shape != truth.shape:
        raise DimensionError(f"fde: {pred.shape} vs {truth.shape}")
    return float(np.mean(np.linalg.norm(pred[-1] - truth[-1], axis=-1)))


# Latent columns per decoder pass. A pass of c samples decodes c * N
# columns, whose transient arrays take about 37 KB per column; throughput is
# flat from about 50 columns up, so 64 keeps nearly all of the speed of one
# pass for all K samples at a fraction of its peak memory.
DECODE_COLUMNS = 64


def _check_sampling(k: int, sample_mode: str) -> None:
    if sample_mode not in ("latent", "full"):
        raise ParameterError(f"unknown sample mode {sample_mode!r}")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")


def sample_futures(model: TrajCvae, window: SequenceWindow,
                   rng: np.random.Generator, k: int,
                   sample_mode: str = "latent") -> np.ndarray:
    """k candidate futures: absolute positions (k, pred_len, N, 2).

    Each candidate decodes a latent z drawn from the conditional prior
    over the observed frames. In `latent` mode the trajectory is the
    per-frame predicted means; in `full` mode each step is additionally
    sampled from its bivariate Gaussian.

    The adjacency, the prior and the decoder's observed branch are
    computed once, without a computation record, and the k latents are
    decoded max(1, DECODE_COLUMNS // N) at a time as stacked agent columns
    (see TrajCvae.decode). The rng draws follow the order of k single
    samples: eps of sample s, then its two step noises in `full` mode.
    """
    _check_sampling(k, sample_mode)
    if window.n_agents == 0:
        raise EmptyWindowError("sample_futures: the window has no agents")
    cfg = model.config
    obs_len, pred_len = cfg.obs_len, cfg.seq_len - cfg.obs_len
    obs_pos = window.positions[:obs_len]
    n = obs_pos.shape[1]
    disp = to_displacements(obs_pos)
    adj = graph.normalized_adjacency(obs_pos)
    scale = cfg.feature_scale

    # column s * N + i of every array below is agent i of sample s
    eps = np.empty((cfg.latent_len, obs_len, k * n))
    e1, e2 = np.empty((2, pred_len, k * n))
    for s in range(k):
        sample = slice(s * n, (s + 1) * n)
        eps[:, :, sample] = rng.standard_normal((cfg.latent_len, obs_len, n))
        if sample_mode == "full":
            e1[:, sample] = rng.standard_normal((pred_len, n))
            e2[:, sample] = rng.standard_normal((pred_len, n))

    pred = np.empty((OUT_CHANNELS, pred_len, k * n))
    per_pass = max(1, DECODE_COLUMNS // n)
    with ad.no_record():
        p = model.traced_params()
        v_obs = ad.leaf(disp.values * scale)
        prior = model.prior_forward(p, v_obs, adj)
        obs = model.observe(p, v_obs, adj)
        sigma = np.exp(np.clip(prior.logvar.data, ad.LOGVAR_MIN,
                               ad.LOGVAR_MAX) * 0.5)
        z = np.tile(prior.mu.data, k) + np.tile(sigma, k) * eps
        for start in range(0, k, per_pass):
            c = min(per_pass, k - start)
            cols = slice(start * n, (start + c) * n)
            out = model.decode(p, ad.Value(z[:, :, cols]), obs,
                               np.tile(np.arange(n), c))
            pred[:, :, cols] = out.constrained()[:, obs_len:]

    steps = pred[0:2]  # displacement means (2, pred_len, k * N)
    if sample_mode == "full":
        sx, sy, rho = pred[2:5]
        steps[0] += sx * e1
        steps[1] += sy * (rho * e1 + np.sqrt(np.maximum(1 - rho ** 2, 0)) * e2)

    # anchor at the last observed position and accumulate (back in metres)
    steps = np.transpose(steps.reshape(2, pred_len, k, n), (2, 1, 3, 0)) \
        / scale  # (k, pred_len, N, 2)
    return obs_pos[-1] + np.cumsum(steps, axis=1)


def sample_trajectory(model: TrajCvae, window: SequenceWindow,
                      rng: np.random.Generator,
                      sample_mode: str = "latent") -> np.ndarray:
    """One candidate future: absolute positions (pred_len, N, 2); the
    k = 1 case of sample_futures."""
    return sample_futures(model, window, rng, 1, sample_mode)[0]


def best_of_k(model: TrajCvae, window: SequenceWindow, k: int = 20,
              rng: np.random.Generator | None = None,
              sample_mode: str = "latent",
              oracle_per_metric: bool = False) -> tuple[float, float]:
    """Draw k candidate futures and score the one closest to ground truth.

    "Closest" is resolved by minimum ADE and that sample's FDE is
    reported; with oracle_per_metric the two minima are taken
    independently.
    """
    rng = rng or np.random.default_rng(0)
    preds = sample_futures(model, window, rng, k, sample_mode)
    truth = window.positions[model.config.obs_len:]
    dist = np.linalg.norm(preds - truth, axis=-1)  # (k, pred_len, N)
    ades = np.mean(dist.reshape(k, -1), axis=1)
    fdes = np.mean(dist[:, -1], axis=1)
    if oracle_per_metric:
        return float(ades.min()), float(fdes.min())
    best = int(np.argmin(ades))
    return float(ades[best]), float(fdes[best])


def constant_velocity_baseline(window: SequenceWindow,
                               obs_len: int = 8) -> tuple[float, float]:
    """Linear extrapolation from the last observed step; sanity oracle."""
    pos = window.positions
    if obs_len < 2:
        raise ParameterError("need >= 2 observed frames")
    v = pos[obs_len - 1] - pos[obs_len - 2]  # (N, 2) per-frame velocity
    horizon = pos.shape[0] - obs_len
    steps = np.arange(1, horizon + 1).reshape(-1, 1, 1)
    pred = pos[obs_len - 1][None, :, :] + steps * v[None, :, :]
    truth = pos[obs_len:]
    return ade(pred, truth), fde(pred, truth)


def benchmark_inference(model: TrajCvae, window: SequenceWindow,
                        repetitions: int = 100,
                        warmup: int = 10) -> LatencyStats:
    """Wall-clock per single forward (prior sample + decode)."""
    rng = np.random.default_rng(0)
    for _ in range(warmup):
        sample_trajectory(model, window, rng)
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        sample_trajectory(model, window, rng)
        times.append(time.perf_counter() - t0)
    times = np.array(times)
    return LatencyStats(mean=float(times.mean()),
                        p95=float(np.percentile(times, 95)),
                        repetitions=repetitions)


def evaluate_dataset(model: TrajCvae, windows: list[SequenceWindow],
                     k: int = 20, seed: int = 0,
                     sample_mode: str = "latent",
                     oracle_per_metric: bool = False) -> EvalReport:
    """Mean per-window best-of-k ADE/FDE with a per-scene breakdown.

    Every window must hold at least one agent, or EmptyWindowError names
    the first that does not, and finite positions at all its frames, or
    MissingTruthError names the first that does not. Each window gets its
    own rng stream derived from (seed, index), so the report is
    reproducible regardless of evaluation order.
    """
    if not windows:
        raise ParameterError("evaluate_dataset: empty window list")
    _require_agents(windows)
    require_truth(windows)
    streams = np.random.SeedSequence(seed).spawn(len(windows))
    rows = []
    for window, ss in zip(windows, streams):
        a, f = best_of_k(model, window, k, np.random.default_rng(ss),
                         sample_mode, oracle_per_metric)
        rows.append((window.scene, a, f))

    per_scene = {}
    for scene in sorted({r[0] for r in rows}):
        sub = [r for r in rows if r[0] == scene]
        per_scene[scene] = {
            "ade": float(np.mean([r[1] for r in sub])),
            "fde": float(np.mean([r[2] for r in sub])),
            "windows": len(sub),
        }
    return EvalReport(
        ade=float(np.mean([r[1] for r in rows])),
        fde=float(np.mean([r[2] for r in rows])),
        k=k, windows=len(windows), per_scene=per_scene,
        param_count=model.count_params())


def require_truth(windows: list[SequenceWindow], labels=None) -> None:
    """MissingTruthError naming the first window with a non-finite position
    by its label (default: its index)."""
    for i, w in enumerate(windows):
        if not np.all(np.isfinite(w.positions)):
            raise MissingTruthError(
                f"window {i if labels is None else labels[i]} "
                f"(scene {w.scene!r}) has non-finite positions; "
                "only windows with all frames observed can be trained or "
                "scored (an infer-mode cache has NaN future frames)")


def _require_agents(windows: list[SequenceWindow]) -> None:
    empty = next((i for i, w in enumerate(windows) if w.n_agents == 0), None)
    if empty is not None:
        raise EmptyWindowError(
            f"window {empty} (scene {windows[empty].scene!r}) has no agents, "
            "so there is nothing to sample")


def export_predictions(path, model: TrajCvae, windows: list[SequenceWindow],
                       k: int = 20, seed: int = 0,
                       sample_mode: str = "latent") -> None:
    """CSV of sampled futures plus ground truth (sample_id = -1), one block
    per window: window_id,agent_id,frame,sample_id,x,y. A window without
    agents, k < 1 or an unknown sample mode raises before anything is
    written. The CSV is written through `model.replacing`, so a failure
    leaves a previous file as it was."""
    _require_agents(windows)
    _check_sampling(k, sample_mode)
    obs_len = model.config.obs_len
    streams = np.random.SeedSequence(seed).spawn(len(windows))
    with replacing(path) as fh:
        fh.write("window_id,agent_id,frame,sample_id,x,y\n")
        for wi, (window, ss) in enumerate(zip(windows, streams)):
            preds = sample_futures(model, window, np.random.default_rng(ss),
                                   k, sample_mode)
            blocks = [window.positions[obs_len:]] + list(preds)
            for sample_id, block in enumerate(blocks, start=-1):
                for t in range(block.shape[0]):
                    for n, agent in enumerate(window.agent_ids):
                        fh.write(f"{wi},{agent},{obs_len + t},{sample_id},"
                                 f"{block[t, n, 0]:.6f},"
                                 f"{block[t, n, 1]:.6f}\n")

"""SGD training loop: schedule, gradient accumulation over variable-size
sequence graphs, deterministic shuffling, splits, and resumable state."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from . import graph, losses
from .data import SequenceWindow, to_displacements
from .evaluation import require_truth
from .errors import ConfigError, DivergenceError, FormatError, ParameterError
from .model import (ModelConfig, ParamStore, RecogNoise, TrajCvae,
                    build_config, load_model, read_key_values, save_params)


@dataclass
class TrainConfig:
    epochs: int = 250
    batch_size: int = 128          # sequences accumulated per SGD step
    lr_initial: float = 0.01
    lr_after: float = 0.002
    lr_switch_epoch: int | None = None  # default: 3/5 of epochs
    seed: int = 0
    val_every: int = 10            # best-checkpoint cadence (epochs)

    def __post_init__(self):
        for name in ("epochs", "batch_size", "val_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("lr_initial", "lr_after"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if self.lr_switch_epoch is None:
            self.lr_switch_epoch = self.epochs * 3 // 5
        elif not 0 <= self.lr_switch_epoch < self.epochs:
            raise ConfigError("lr_switch_epoch must be in [0, epochs)")


def read_config(path) -> tuple[ModelConfig, TrainConfig]:
    """Both configs from one `key = value` file (see read_key_values) whose
    keys are field names of either (no name is in both); unset fields keep
    their defaults. A bad key or value raises ConfigError naming file:line.
    """
    texts = {ModelConfig: {}, TrainConfig: {}}
    owner = {f.name: cls for cls in texts for f in fields(cls)}
    for key, (where, value) in read_key_values(path, ConfigError).items():
        if key not in owner:
            raise ConfigError(f"{where}: unknown key {key!r}")
        texts[owner[key]][key] = where, value
    return tuple(build_config(cls, t, ConfigError) for cls, t in texts.items())


@dataclass
class TrainState:
    params: ParamStore
    rng: np.random.Generator
    epoch: int = 0
    step: int = 0
    best_val_metric: float = float("inf")
    skipped_windows: int = 0
    # mean loss report over the windows of the last epoch run (not saved)
    epoch_report: losses.LossReport | None = None


def lr_schedule(epoch: int, config: TrainConfig) -> float:
    """Initial rate, then the reduced rate from lr_switch_epoch onward."""
    if not 0 <= epoch < config.epochs:
        raise ParameterError(
            f"epoch {epoch} outside [0, {config.epochs})")
    return config.lr_initial if epoch < config.lr_switch_epoch \
        else config.lr_after


PRIOR_SAMPLES = 8   # best-of-k prior decodes per window
CLIP_NORM = 100.0   # per-window cap on the gradient's global norm
# Decoded columns per training pass: windows share one computation record
# while their sum of n + PRIOR_SAMPLES stays within this (see train_epoch).
# The record takes about 0.2 MiB per column. A pass costs about the same
# for 1 to 6 agents, so wider chunks train faster, but the record sets the
# train job's peak memory: over 8 rounds of the benchmark's train-small
# jobs (1-6 agents) in one process, 32, 36 and 40 columns reached 46.7,
# 47.2 and 48.1 MiB of peak RSS, and one window per pass 48.1 MiB (numpy
# 2.4.6). Every window adds at least 9 columns, so a window of 20 or more
# agents always runs alone.
TRAIN_COLUMNS = 36


def window_gradients(model: TrajCvae, window: SequenceWindow, epoch: int,
                     rng: np.random.Generator
                     ) -> tuple[dict, losses.LossReport]:
    """One forward/backward pass over a single training window: the
    one-window chunk of chunk_gradients.

    Returns (gradients by parameter name, loss report).
    """
    row, report = chunk_gradients(model, [window], epoch, rng)[0]
    return model.params.views(row), report


def chunk_gradients(model: TrajCvae, windows: list[SequenceWindow],
                    epoch: int, rng: np.random.Generator, labels=None
                    ) -> list[tuple[np.ndarray, losses.LossReport]]:
    """One forward/backward pass over windows stacked along the agent axis;
    (gradient row, loss report) of each window, in order. The rows, laid
    out as model.params.vector, are those of one (windows, P) array.

    The posterior sample of every agent and PRIOR_SAMPLES prior samples of
    one randomly chosen agent are decoded in a single pass (see
    TrajCvae.decode) and scored together by losses.window_losses, whose
    best-of-k term trains the prior. Every window is one of autodiff's
    segments: its agents mix only through its own adjacency block, so no
    value, finite or not, reaches another window, and every parameter
    gradient is taken per window. A one-window chunk gives the bits of the
    model's single-window API.

    Each window draws its random arrays before the pass, in the order of
    passes over one window at a time: recognition dropout and noise
    (TrajCvae.recog_noise), the picked agent, then the latent noise. So a
    chunk gives each window's gradient as its own pass would, up to
    rounding.

    A window whose gradient has a global norm above CLIP_NORM is scaled
    down to it. A non-finite loss or norm raises MissingTruthError if a
    window of the chunk has a non-finite position (see
    evaluation.require_truth), else DivergenceError naming the window (as
    `window {labels[i]}: `, given labels) and the first parameter whose
    value is not finite (or, if every value is, the first whose gradient
    is not).
    """
    obs = model.config.obs_len
    sizes = [w.n_agents for w in windows]
    # window bounds of the agent columns, and of the decoded columns
    agents = tuple(np.cumsum([0] + sizes).tolist())
    decoded = tuple(a + i * PRIOR_SAMPLES for i, a in enumerate(agents))
    # per window, the decoded columns are its agents, then PRIOR_SAMPLES
    # copies of its picked agent; their latents are the agents' posterior,
    # then the picked agent's prior (past the posterior columns)
    noises, eps, columns, latents = [], [], [], []
    for a, n in zip(agents, sizes):
        noises.append(model.recog_noise(n, rng))
        copies = np.full(PRIOR_SAMPLES, a + int(rng.integers(n)))
        eps.append(rng.standard_normal(noises[-1].mu.shape[:2]
                                       + (n + PRIOR_SAMPLES,)))
        columns += [np.arange(a, a + n), copies]
        latents += [np.arange(a, a + n), agents[-1] + copies]
    columns, latents = np.concatenate(columns), np.concatenate(latents)
    scaled = model.config.feature_scale * np.concatenate(
        [to_displacements(w.positions).values for w in windows], axis=2)
    adj = [graph.normalized_adjacency(w.positions) for w in windows]
    adj_obs = [a[:obs] for a in adj]

    p = model.traced_params()
    v_obs = ad.leaf(scaled[:, :obs, :])
    prior = model.prior_forward(p, v_obs, adj_obs, agents)
    post = model.recog_forward(p, ad.leaf(scaled), adj,
                               RecogNoise.stack(noises), agents)
    mu = ad.take_agents(ad.concat_agents(post.mu, prior.mu), latents)
    logvar = ad.take_agents(ad.concat_agents(post.logvar, prior.logvar),
                            latents)
    z = ad.reparameterize(mu, logvar, np.concatenate(eps, axis=2))
    pred = model.decode(p, z, v_obs, adj_obs, columns, (agents, decoded))
    objective, reports = losses.window_losses(
        pred, scaled[:, :, columns], post, prior, epoch, sizes,
        PRIOR_SAMPLES)
    traced = ad.backward(objective)
    grads = [traced.get(leaf).reshape(len(windows), -1) for leaf in p.values()]
    # free the record and the other nodes' gradients before the copies below
    del objective, pred, z, mu, logvar, prior, post, traced
    rows = np.concatenate(grads, axis=1)
    # per window, np.sum of each parameter's squares, summed in order; np.sum
    # adds a pairwise sum to 0, reduceat that of all but the first entry to
    # the first, so a 0 goes before each parameter
    zero = np.zeros((len(windows), 1))
    squares = np.concatenate([x for g in grads for x in (zero, g)], axis=1)
    squares *= squares
    starts = model.params.offsets[:-1] + np.arange(len(grads))
    norms = np.sqrt(np.add.accumulate(np.add.reduceat(squares, starts, axis=1),
                                      axis=1)[:, -1])
    finite = np.isfinite(norms) & np.isfinite([r.total for r in reports])
    if not finite.all():
        i = int(np.argmin(finite))
        require_truth(windows, labels)
        bad = next((name for row in (model.params.vector, rows[i])
                    for name, v in model.params.views(row).items()
                    if not np.all(np.isfinite(v))), None)
        raise DivergenceError(
            ("" if labels is None else f"window {labels[i]}: ")
            + f"non-finite loss ({reports[i].total!r}) or gradient norm; "
            f"first non-finite parameter: {bad}")
    rows *= (CLIP_NORM / np.maximum(norms, CLIP_NORM))[:, None]
    return list(zip(rows, reports))


def train_epoch(state: TrainState, model: TrajCvae,
                windows: list[SequenceWindow], config: TrainConfig,
                log: losses.MetricsLog | None = None) -> TrainState:
    """One epoch of accumulated SGD over a shuffled window order.

    Every batch_size windows (and at the epoch tail) one step
    param <- param - lr * mean(grad) is applied, and `log` gets the mean
    loss report of the step's windows. Windows with zero agents are
    skipped and counted. A step's windows go through chunk_gradients in
    chunks of consecutive windows whose n + PRIOR_SAMPLES sum to at most
    TRAIN_COLUMNS (a wider window alone); their clipped gradients are
    summed in window order. state.epoch_report is set to the mean report
    over the epoch's windows. A diverged window raises DivergenceError
    naming its index (see chunk_gradients).
    """
    if not windows:
        raise ConfigError("train_epoch: empty window list")
    lr = lr_schedule(state.epoch, config)
    order = state.rng.permutation(len(windows))
    live = [int(i) for i in order if windows[i].n_agents > 0]
    state.skipped_windows += len(order) - len(live)

    # (rec, kl) of every window this epoch; floats only, since keeping the
    # reports would keep every window's computation record alive
    parts: list[tuple[float, float]] = []
    weight = losses.anneal_weight(state.epoch)
    for start in range(0, len(live), config.batch_size):
        step = live[start:start + config.batch_size]
        acc = 0.0
        for chunk in _chunks(step, windows):
            for row, report in chunk_gradients(
                    model, [windows[i] for i in chunk], state.epoch,
                    state.rng, labels=chunk):
                acc = acc + row
                parts.append((report.rec, report.kl))
        model.params.vector -= lr * acc / len(step)
        state.step += 1
        if log is not None:
            log.append(state.epoch, state.step,
                       _mean_report(parts[-len(step):], weight, state.epoch))

    state.epoch_report = _mean_report(parts, weight, state.epoch) \
        if parts else None
    state.epoch += 1
    return state


def _chunks(indices: list[int], windows: list[SequenceWindow]):
    """Consecutive runs of `indices` whose windows' n + PRIOR_SAMPLES sum to
    at most TRAIN_COLUMNS; a window wider than that on its own is a run of
    its own."""
    chunk, width = [], 0
    for i in indices:
        columns = windows[i].n_agents + PRIOR_SAMPLES
        if chunk and width + columns > TRAIN_COLUMNS:
            yield chunk
            chunk, width = [], 0
        chunk.append(i)
        width += columns
    if chunk:
        yield chunk


def _mean_report(parts, weight: float, epoch: int) -> losses.LossReport:
    """Mean of window reports given as (rec, kl) pairs; as in every report,
    total = rec + weight * kl exactly."""
    rec, kl = (float(v) for v in np.mean(parts, axis=0))
    return losses.LossReport(total=rec + weight * kl, rec=rec, kl=kl,
                             weight=weight, epoch=epoch)


def make_split(windows: list[SequenceWindow],
               held_out: str) -> tuple[list[SequenceWindow],
                                       list[SequenceWindow]]:
    """Leave-one-scene-out: held-out scene's windows are the test set."""
    scenes = {w.scene for w in windows}
    if held_out not in scenes:
        raise ConfigError(
            f"unknown held-out scene {held_out!r}; have {sorted(scenes)}")
    train = [w for w in windows if w.scene != held_out]
    test = [w for w in windows if w.scene == held_out]
    return train, test


# ---------------------------------------------------------------------------
# resumable checkpoints (STGC params + rng/progress metadata)


def checkpoint(state: TrainState, model: TrajCvae, path,
               config: TrainConfig | None = None) -> None:
    """Full-precision snapshot that resumes bit-identically."""
    meta = asdict(model.config)
    meta.update(epoch=state.epoch, step=state.step,
                best_val_metric=state.best_val_metric,
                skipped_windows=state.skipped_windows,
                rng_state=json.dumps(state.rng.bit_generator.state))
    if config is not None:
        meta["seed"] = config.seed
    save_params(path, model.params, metadata=meta)


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _metric(text: str) -> float:
    value = float(text)  # inf until a validation has run
    if np.isnan(value):
        raise ValueError(text)
    return value


def _generator(text: str) -> np.random.Generator:
    rng = np.random.default_rng(0)
    rng.bit_generator.state = json.loads(text)
    return rng


def restore(path) -> tuple[TrainState, TrajCvae]:
    model, meta = load_model(path)
    if "rng_state" not in meta:
        raise FormatError(f"{path}: missing training metadata sidecar")

    def field(name, cast, default=None):
        text = meta.get(name, default)
        try:
            return cast(text)
        except (ValueError, TypeError, KeyError):
            raise FormatError(f"{path}.meta: {name}: bad value {text!r}") \
                from None

    state = TrainState(params=model.params,
                       rng=field("rng_state", _generator),
                       epoch=field("epoch", _count, "0"),
                       step=field("step", _count, "0"),
                       best_val_metric=field("best_val_metric", _metric,
                                             "inf"),
                       skipped_windows=field("skipped_windows", _count, "0"))
    return state, model

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
from .model import (LatentGaussian, ModelConfig, ParamStore, RecogNoise,
                    TrajCvae, build_config, load_model, read_key_values,
                    save_params)


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
# Recorded decoded columns per training pass: windows share one computation
# record while their sum of n + 1 (the agents and the best prior sample)
# stays within this (see train_epoch). A pass costs about the same for 1 to
# 6 agents, so wider chunks train faster, but the record sets the train
# job's peak memory. In the benchmark's train-small job (1-6 agents, numpy
# 2.4.6), 16, 20 and 24 columns reached a peak RSS of 47.4, 48.2 and 49.6
# MiB, against 47.75 MiB for the earlier rule (n + PRIOR_SAMPLES within 36,
# all 8 prior samples recorded); over 10 runs, 20 columns read 48.4 MiB
# (+1.4 %) and trained 1.14 times as many windows per second. A window of
# 20 or more agents always runs alone.
TRAIN_COLUMNS = 20


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

    The objective is losses.window_losses': the posterior sample of every
    agent, plus the best of PRIOR_SAMPLES prior samples of one randomly
    chosen agent, whose term trains the prior. The prior samples are
    decoded and scored without a record (see best_prior_samples), and only
    the best one is decoded again in the record, beside the agents'
    columns: the others would carry zero gradients. Every window is one of
    autodiff's segments: its agents mix only through its own adjacency
    block, so no value, finite or not, reaches another window, and every
    parameter gradient is taken per window. A one-window chunk gives the
    bits of the model's single-window API.

    Each window draws its random arrays before the pass, in the order of
    passes over one window at a time: recognition dropout and noise
    (TrajCvae.recog_noise), the picked agent, then the latent noise of its
    agents and of the prior samples. So a chunk gives each window's
    gradient as its own pass would, up to rounding.

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
    # window bounds of the agent columns, and of the decoded columns: its
    # agents, then its best prior sample
    agents = tuple(np.cumsum([0] + sizes).tolist())
    decoded = tuple(a + i for i, a in enumerate(agents))
    # per window, the decoded columns' agents and latents (the prior's past
    # the posterior's); the prior sample's are its picked agent's
    noises, picks, eps, columns, latents = [], [], [], [], []
    for a, n in zip(agents, sizes):
        noises.append(model.recog_noise(n, rng))
        picks.append(a + int(rng.integers(n)))
        eps.append(rng.standard_normal(noises[-1].mu.shape[:2]
                                       + (n + PRIOR_SAMPLES,)))
        columns += [*range(a, a + n), picks[-1]]
        latents += [*range(a, a + n), agents[-1] + picks[-1]]
    scaled = model.config.feature_scale * np.concatenate(
        [to_displacements(w.positions).values for w in windows], axis=2)
    adj = [graph.normalized_adjacency(w.positions) for w in windows]
    adj_obs = [a[:obs] for a in adj]

    p = model.traced_params()
    v_obs = ad.Value(scaled[:, :obs, :])
    prior = model.prior_forward(p, v_obs, adj_obs, agents)
    post = model.recog_forward(p, ad.Value(scaled), adj,
                               RecogNoise.stack(noises), agents)
    seen = model.observe(p, v_obs, adj_obs, agents)
    best = best_prior_samples(model, p, seen, prior, picks,
                              [e[:, :, n:] for e, n in zip(eps, sizes)],
                              scaled)
    mu = ad.take_agents(ad.concat_agents(post.mu, prior.mu), latents)
    logvar = ad.take_agents(ad.concat_agents(post.logvar, prior.logvar),
                            latents)
    z = ad.reparameterize(mu, logvar, np.concatenate(
        [e[:, :, [*range(n), n + b]] for e, n, b in zip(eps, sizes, best)],
        axis=2))
    pred = model.decode(p, z, seen, columns, decoded)
    objective, reports = losses.window_losses(
        pred, scaled[:, :, columns], post, prior, epoch, sizes, 1)
    traced = ad.backward(objective)
    # free the record, then the gradients, before the copies below
    del objective, pred, z, mu, logvar, prior, post, seen
    rows = np.concatenate([traced.get(leaf).reshape(len(windows), -1)
                           for leaf in p.values()], axis=1)
    del traced
    # per window, np.sum of each parameter's squares, summed in order; np.sum
    # adds a pairwise sum to 0, reduceat that of all but the first entry to
    # the first, so a 0 goes before each parameter
    starts = model.params.offsets[:-1]
    squares = np.insert(rows, starts, 0.0, axis=1)
    squares *= squares
    starts = starts + np.arange(len(starts))
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


def best_prior_samples(model: TrajCvae, p: dict, seen: ad.Value,
                       prior: LatentGaussian, picks: list[int],
                       eps: list[np.ndarray], scaled: np.ndarray) -> list[int]:
    """Per window, the index of its prior sample with the lowest mean NLL
    over frames: window_losses' best-of-many rule, without a record.

    Window w's PRIOR_SAMPLES latents are drawn from the prior of agent
    column picks[w] with the noise eps[w] (L, obs_len, PRIOR_SAMPLES), and
    decoded against the observed branch `seen` (TrajCvae.observe) of the
    stacked windows, whose displacement features are `scaled`."""
    copies = np.repeat(picks, PRIOR_SAMPLES)
    with ad.no_record():
        z = ad.reparameterize(ad.Value(prior.mu.data[:, :, copies]),
                              ad.Value(prior.logvar.data[:, :, copies]),
                              np.concatenate(eps, axis=2))
        cells, _ = losses.nll_cells(model.decode(p, z, seen, copies),
                                    scaled[:, :, copies])
    means = cells.data[0].mean(axis=0).reshape(-1, PRIOR_SAMPLES)
    return np.argmin(means, axis=1).tolist()


def train_epoch(state: TrainState, model: TrajCvae,
                windows: list[SequenceWindow], config: TrainConfig,
                log: losses.MetricsLog | None = None) -> TrainState:
    """One epoch of accumulated SGD over a shuffled window order.

    Every batch_size windows (and at the epoch tail) one step
    param <- param - lr * mean(grad) is applied, and `log` gets the mean
    loss report of the step's windows. Windows with zero agents are
    skipped and counted. A step's windows go through chunk_gradients in
    chunks of consecutive windows whose n + 1 sum to at most TRAIN_COLUMNS
    (a wider window alone); their clipped gradients are summed in window
    order. state.epoch_report is set to the mean report over the epoch's
    windows. A diverged window raises DivergenceError naming its index (see
    chunk_gradients).
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
    """Consecutive runs of `indices` whose windows' recorded columns, n + 1
    each, sum to at most TRAIN_COLUMNS; a window wider than that on its own
    is a run of its own."""
    chunk, width = [], 0
    for i in indices:
        columns = windows[i].n_agents + 1
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

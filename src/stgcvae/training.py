"""SGD training loop: schedule, gradient accumulation over variable-size
sequence graphs, deterministic shuffling, splits, and resumable state."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from . import graph, losses
from .data import OBS_LEN, SequenceWindow, check_windows, to_displacements
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
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
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
# Cap on the global norm of a step's mean gradient (global-norm clipping,
# Pascanu, Mikolov & Bengio 2013); at batch size 1, of the window's gradient.
CLIP_NORM = 100.0
# Recorded decoded columns per training pass: windows share one computation
# record while their sum of n + 1 (the agents and the best prior sample)
# stays within this (see train_epoch). A pass costs about the same for 1 to
# 6 agents, so wider chunks train faster, but the record sets the train
# job's peak memory, and the width sets the heap's trim thresholds that the
# next job in the process inherits (README "Memory" and
# scripts/heap_faults.py). A window of 39 or more agents fills a chunk alone.
TRAIN_COLUMNS = 40


def window_gradients(model: TrajCvae, window: SequenceWindow, epoch: int,
                     rng: np.random.Generator
                     ) -> tuple[dict, losses.LossReport]:
    """One forward/backward pass over a single training window: the
    one-window chunk of chunk_gradients, so its gradient is not clipped
    (train_epoch clips each step's mean gradient).

    Returns (gradients by parameter name, loss report).
    """
    grad, (report,) = chunk_gradients(model, [window], epoch, rng)
    return model.params.views(grad), report


def chunk_gradients(model: TrajCvae, windows: list[SequenceWindow],
                    epoch: int, rng: np.random.Generator, labels=None
                    ) -> tuple[np.ndarray, list[losses.LossReport]]:
    """One forward/backward pass over windows stacked along the agent axis:
    the gradient of the sum of their objectives, laid out as
    model.params.vector and not clipped, and each window's loss report, in
    order.

    The objective is losses.window_losses': the posterior sample of every
    agent, plus the best of PRIOR_SAMPLES prior samples of one randomly
    chosen agent, whose term trains the prior. The prior samples are
    decoded and scored without a record (see best_prior_samples), and only
    the best one is decoded again in the record, beside the agents'
    columns: the others would carry zero gradients. Every window's agents
    mix only through its own adjacency block (autodiff.mix_agents), so no
    value, finite or not, reaches another window, and the chunk's gradient
    is the sum of its windows' own, up to rounding. A one-window chunk
    gives the bits of the model's single-window API.

    Each window draws its random arrays before the pass, in the order of
    passes over one window at a time: recognition dropout and noise
    (TrajCvae.recog_noise), the picked agent, then the latent noise of its
    agents and of the prior samples.

    A non-finite loss raises DivergenceError naming the window (as
    `window {labels[i]}: `, by default its index in `windows`) and the
    first parameter whose value is not finite (or, if every value is, the
    first whose gradient is not). A non-finite gradient with finite losses re-runs the windows
    one at a time, with the same draws, to name the window. The windows are
    not checked here (train_epoch checks its list with data.check_windows):
    a window with a non-finite position passed straight to chunk_gradients
    or window_gradients raises DivergenceError.
    """
    drawn = rng.bit_generator.state  # for the failure path's re-runs
    sizes = [w.n_agents for w in windows]
    # window bounds of the agent columns
    agents = tuple(np.cumsum([0] + sizes).tolist())
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
        [to_displacements(w.positions) for w in windows], axis=2)
    adj = [graph.normalized_adjacency(w.positions) for w in windows]
    adj_obs = [a[:OBS_LEN] for a in adj]

    p = model.traced_params()
    v_obs = ad.Value(scaled[:, :OBS_LEN, :])
    prior = model.prior_forward(p, v_obs, adj_obs)
    post = model.recog_forward(p, ad.Value(scaled), adj,
                               RecogNoise.stack(noises))
    seen = model.observe(p, v_obs, adj_obs)
    best = best_prior_samples(model, seen, prior, picks,
                              [e[:, :, n:] for e, n in zip(eps, sizes)],
                              scaled)
    mu = ad.take_agents(ad.concat_agents(post.mu, prior.mu), latents)
    logvar = ad.take_agents(ad.concat_agents(post.logvar, prior.logvar),
                            latents)
    z = ad.reparameterize(mu, logvar, np.concatenate(
        [e[:, :, [*range(n), n + b]] for e, n, b in zip(eps, sizes, best)],
        axis=2))
    pred = model.decode(p, z, seen, columns)
    objective, reports = losses.window_losses(
        pred, scaled[:, :, columns], post, prior, epoch, sizes)
    # hand backward the only reference to the record, so that it frees each
    # node as it walks past it (see ad.backward)
    box = [objective]
    del objective, pred, z, mu, logvar, prior, post, seen
    traced = ad.backward(box.pop())
    grad = np.concatenate([traced.get(leaf).ravel() for leaf in p.values()])
    del traced  # grad holds a copy of every gradient
    if not (np.isfinite([r.total for r in reports]).all()
            and np.isfinite(grad).all()):
        _diverged(model, windows, epoch, drawn, labels, reports, grad)
    return grad, reports


def _diverged(model: TrajCvae, windows: list[SequenceWindow], epoch: int,
              drawn: dict, labels, reports: list[losses.LossReport],
              grad: np.ndarray):
    """Raise the DivergenceError of a chunk whose loss or gradient is not
    finite (see chunk_gradients); `drawn` is the rng state its random
    arrays were drawn from."""
    names = range(len(windows)) if labels is None else labels
    i = next((i for i, r in enumerate(reports)
              if not np.isfinite(r.total)), None)
    if i is None and len(windows) > 1:
        # finite losses: the windows again one at a time, with the chunk's
        # draws, so that the one whose gradient is not finite raises
        replay = np.random.Generator(
            getattr(np.random, drawn["bit_generator"])())
        replay.bit_generator.state = drawn
        for window, name in zip(windows, names):
            chunk_gradients(model, [window], epoch, replay, [name])
        raise DivergenceError(f"windows {list(names)}: finite gradients "
                              "sum to a non-finite one")
    i = i or 0
    bad = next((name for v in (model.params.vector, grad)
                for name, a in model.params.views(v).items()
                if not np.all(np.isfinite(a))), None)
    raise DivergenceError(
        f"window {names[i]}: non-finite loss ({reports[i].total!r}) or "
        f"gradient; first non-finite parameter: {bad}")


def gradient_norm(grad: np.ndarray, offsets) -> float:
    """The global norm of a gradient vector whose parameters start at
    `offsets` (ParamStore.offsets): np.sum of each parameter's squares
    (np.add.reduce of its slice adds the pairwise sum to 0, as np.sum
    does), summed in parameter order, then the root. The per-parameter
    sums fix the bits; a network's norm is a partial sum of them."""
    sums = np.empty(len(offsets) - 1)
    for j, (a, b) in enumerate(zip(offsets, offsets[1:])):
        block = grad[a:b]
        sums[j] = np.add.reduce(block * block)
    return float(np.sqrt(np.add.accumulate(sums)[-1]))


def best_prior_samples(model: TrajCvae, seen: ad.Value,
                       prior: LatentGaussian, picks: list[int],
                       eps: list[np.ndarray], scaled: np.ndarray) -> list[int]:
    """Per window, the index of its prior sample with the lowest mean NLL
    over frames, on constants (no record): the best-of-many rule, decided
    here only. window_losses adds the chosen sample's weighted NLL.

    Window w's PRIOR_SAMPLES latents are drawn from the prior of agent
    column picks[w] with the noise eps[w] (L, OBS_LEN, PRIOR_SAMPLES), and
    decoded against the observed branch `seen` (TrajCvae.observe) of the
    stacked windows, whose displacement features are `scaled`."""
    copies = np.repeat(picks, PRIOR_SAMPLES)
    z = ad.reparameterize(ad.Value(prior.mu.data[:, :, copies]),
                          ad.Value(prior.logvar.data[:, :, copies]),
                          np.concatenate(eps, axis=2))
    cells, _ = losses.nll_cells(
        model.decode(model.params.constants(), z, ad.Value(seen.data), copies),
        scaled[:, :, copies])
    means = cells.data[0].mean(axis=0).reshape(-1, PRIOR_SAMPLES)
    return np.argmin(means, axis=1).tolist()


def train_epoch(state: TrainState, model: TrajCvae,
                windows: list[SequenceWindow], config: TrainConfig,
                log: losses.MetricsLog | None = None) -> TrainState:
    """One epoch of accumulated SGD over a shuffled window order.

    Every batch_size windows (and at the epoch tail) one step
    param <- param - lr * clip(mean(grad)) is applied, and `log` gets the
    mean loss report of the step's windows. The windows must keep
    data.check_windows' contract; the first that does not raises its typed
    error, naming its index, before any step. A step's windows go through
    chunk_gradients in chunks of consecutive windows whose n + 1 sum to at
    most TRAIN_COLUMNS (a wider window alone); the chunks' gradients are
    summed in window order, and their mean is scaled down to a global norm
    of CLIP_NORM if it is above it (at batch size 1, the window's own
    gradient is clipped). state.epoch_report is set to the mean report
    over the epoch's windows. A diverged window raises DivergenceError
    naming its index (see chunk_gradients), and so does a step whose mean
    gradient's norm is not finite, naming the step's windows.
    """
    check_windows(windows)
    lr = lr_schedule(state.epoch, config)
    order = state.rng.permutation(len(windows)).tolist()

    # (rec, kl) of every window this epoch; floats only, since keeping the
    # reports would keep every window's computation record alive
    parts: list[tuple[float, float]] = []
    weight = losses.anneal_weight(state.epoch)
    for start in range(0, len(order), config.batch_size):
        step = order[start:start + config.batch_size]
        # the bits of 0.0 + grad + ..., without a new array per chunk
        acc = np.zeros_like(model.params.vector)
        for chunk in _chunks(step, windows):
            grad, reports = chunk_gradients(
                model, [windows[i] for i in chunk], state.epoch, state.rng,
                labels=chunk)
            acc += grad
            parts += [(r.rec, r.kl) for r in reports]
        acc /= len(step)
        norm = gradient_norm(acc, model.params.offsets)
        if not np.isfinite(norm):
            raise DivergenceError(
                f"windows {step}: the mean gradient's norm is {norm}")
        acc *= CLIP_NORM / max(norm, CLIP_NORM)
        model.params.vector -= lr * acc
        state.step += 1
        if log is not None:
            log.append(state.epoch, state.step,
                       _mean_report(parts[-len(step):], weight))

    state.epoch_report = _mean_report(parts, weight)
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


def _mean_report(parts, weight: float) -> losses.LossReport:
    """Mean of window reports given as (rec, kl) pairs; as in every report,
    total = rec + weight * kl exactly."""
    rec, kl = (float(v) for v in np.mean(parts, axis=0))
    return losses.LossReport(total=rec + weight * kl, rec=rec, kl=kl,
                             weight=weight)


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
                                             "inf"))
    return state, model

"""SGD training loop: schedule, gradient accumulation over variable-size
sequence graphs, deterministic shuffling, splits, and resumable state."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from . import graph, losses
from .data import SequenceWindow, to_displacements
from .errors import ConfigError, DivergenceError, FormatError, ParameterError
from .model import (ModelConfig, ParamStore, TrajCvae, build_config,
                    load_model, read_key_values, save_params)


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
        if self.lr_switch_epoch is None:
            self.lr_switch_epoch = self.epochs * 3 // 5
        elif self.lr_switch_epoch >= self.epochs:
            raise ConfigError("lr_switch_epoch must be < epochs")


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


def window_gradients(model: TrajCvae, window: SequenceWindow, epoch: int,
                     rng: np.random.Generator
                     ) -> tuple[dict, losses.LossReport]:
    """One forward/backward pass over a single training window.

    The posterior sample of every agent and PRIOR_SAMPLES prior samples of
    one randomly chosen agent are decoded in a single pass (see
    TrajCvae.decode) and scored together by losses.total_loss, whose
    best-of-k term trains the prior. Decoded columns do not interact, so
    one agent's samples cost the same at any crowd size. If the gradient's
    global norm exceeds CLIP_NORM it is scaled down to it. A non-finite loss
    or norm raises DivergenceError naming the first parameter whose value is
    not finite (or, if every value is, the first whose gradient is not).

    Returns (gradients by parameter name, loss report).
    """
    disp = to_displacements(window.positions)
    adj = graph.normalized_adjacency(window.positions)
    obs = model.config.obs_len
    scaled = disp.values * model.config.feature_scale
    n = window.n_agents

    p = model.traced_params()
    v_full = ad.leaf(scaled)
    v_obs = ad.leaf(scaled[:, :obs, :])
    prior = model.prior_forward(p, v_obs, adj[:obs])
    post = model.recog_forward(p, v_full, adj, train=True, rng=rng)
    pick = np.full(PRIOR_SAMPLES, int(rng.integers(n)))
    mu = ad.concat_agents(post.mu, ad.take_agents(prior.mu, pick))
    logvar = ad.concat_agents(post.logvar, ad.take_agents(prior.logvar, pick))
    z = ad.reparameterize(mu, logvar, rng)
    columns = np.concatenate([np.arange(n), pick])
    pred = model.decode(p, z, v_obs, adj[:obs], columns)
    report = losses.total_loss(pred, scaled[:, :, columns], post, prior,
                               epoch, prior_samples=PRIOR_SAMPLES)
    traced = ad.backward(report.total_value)
    grads = {name: traced.get(leaf) for name, leaf in p.items()}
    norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if not (np.isfinite(norm) and np.isfinite(report.total)):
        bad = next((name for name, v in model.params.items()
                    if not np.all(np.isfinite(v))), None) \
            or next((name for name, g in grads.items()
                     if not np.all(np.isfinite(g))), None)
        raise DivergenceError(
            f"non-finite loss ({report.total!r}) or gradient norm; "
            f"first non-finite parameter: {bad}")
    if norm > CLIP_NORM:
        grads = {name: g * (CLIP_NORM / norm) for name, g in grads.items()}
    return grads, report


def train_epoch(state: TrainState, model: TrajCvae,
                windows: list[SequenceWindow], config: TrainConfig,
                log: losses.MetricsLog | None = None) -> TrainState:
    """One epoch of accumulated SGD over a shuffled window order.

    Every batch_size windows (and at the epoch tail) one step
    param <- param - lr * mean(grad) is applied, and `log` gets the mean
    loss report of the step's windows. Windows with zero agents are
    skipped and counted. state.epoch_report is set to the mean report over
    the epoch's windows. A diverged window raises DivergenceError naming its
    index (see window_gradients).
    """
    if not windows:
        raise ConfigError("train_epoch: empty window list")
    lr = lr_schedule(state.epoch, config)
    order = state.rng.permutation(len(windows))

    acc: dict[str, np.ndarray] = {}
    in_batch = 0
    # (rec, kl) of every window this epoch; floats only, since keeping the
    # reports would keep every window's computation record alive
    parts: list[tuple[float, float]] = []
    weight = losses.anneal_weight(state.epoch)

    def apply_step():
        nonlocal acc, in_batch
        for name in acc:
            model.params[name] = model.params[name] - lr * acc[name] / in_batch
        state.step += 1
        if log is not None:
            log.append(state.epoch, state.step,
                       _mean_report(parts[-in_batch:], weight, state.epoch))
        acc = {}
        in_batch = 0

    for idx in order:
        window = windows[idx]
        if window.n_agents == 0:
            state.skipped_windows += 1
            continue
        try:
            grads, report = window_gradients(model, window, state.epoch,
                                             state.rng)
        except DivergenceError as exc:
            raise DivergenceError(f"window {idx}: {exc}") from None
        for name, g in grads.items():
            acc[name] = acc.get(name, 0.0) + g
        parts.append((report.rec, report.kl))
        in_batch += 1
        if in_batch == config.batch_size:
            apply_step()
    if in_batch:
        apply_step()

    state.epoch_report = _mean_report(parts, weight, state.epoch) \
        if parts else None
    state.epoch += 1
    return state


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
    save_params(path, model.params, metadata=meta, dtype="f8")


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

#!/usr/bin/env python3
"""Byte-for-byte comparison of two trees' numerics.

    PYTHONPATH=<tree>/src python3 scripts/bitexact.py dump OUT.npz
    python3 scripts/bitexact.py compare A.npz B.npz

`dump` runs the `stgcvae` package found on PYTHONPATH over a fixed grid and
writes every resulting array to OUT.npz:

- `window_gradients` gradients and loss components for N agents in
  {1, 2, 3, 5, 12, 40}, every synthetic pattern, feature_scale {1, 4} and
  epoch {0, 50};
- best-of-20 `sample_futures` in `latent` and `full` mode at the same N,
  and `best_of_k`'s (ade, fde) of such a draw;
- one-sample `sample_futures` (`sample1/`) in both modes for N in
  {1, 12, 48};
- `normalized_adjacency` (`adjacency/`) for N in {1, 2, 12, 48} and T in
  {8, 20}, of random positions and of rounded ones with co-located pairs;
- `chunk_gradients` gradients and per-window losses (`chunk/`) of
  multi-window chunks of the agent counts in CHUNKS;
- the parameters after 4 epochs of `train_epoch` on 6 windows, at batch
  sizes 1 (`train/b1/`) and 2 (`train/b2/`);
- `preprocess/`: annotation files written to a temporary directory (25 Hz
  frame ids sampled every 10 frames with jitter and gaps, and a 10 Hz robot
  log with a `#robot_id=` header), run through `parse_annotations`,
  `resample` and `build_windows` in train and infer mode at strides 1 and
  3; per run, every window's positions and agent ids (concatenated along
  the agent axis), agent counts and robot indices;
- `loss/`: `nll_cells` (cells, weight, raw gradient) and `kl_cells` (cells,
  the four latent gradients) on inputs on, next to and beyond every clamp
  bound and +-0, backpropagated from signed gradients with +-0 among them.

`compare` prints how many arrays differ in shape, dtype or bytes, each
one's maximum element-wise and its norm-wise relative difference (and the
largest of each), and which names only one side has; it exits 1 if any
array differs. Dump the parent and the change with the same numpy build;
across builds the bits may differ. Norm-wise is the measure to read then:
entries near zero can differ by a large share of their own size.
Needs numpy only; a dump takes a few seconds.
"""

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

AGENTS = (1, 2, 3, 5, 12, 40)
SCALES = (1.0, 4.0)
EPOCHS = (0, 50)
CHUNKS = ((1, 2, 3), (6, 5, 4, 3), (4,) * 5)


def grid() -> dict:
    from stgcvae import evaluation, model, synthetic, training

    out = {}
    for scale in SCALES:
        m = model.TrajCvae(model.ModelConfig(feature_scale=scale),
                           rng=np.random.default_rng(3))
        for n in AGENTS:
            for pattern in synthetic.PATTERNS:
                window = synthetic.make_window(pattern, n,
                                               np.random.default_rng(n))
                for epoch in EPOCHS:
                    key = f"grad/s{scale:g}/n{n}/{pattern}/e{epoch}"
                    grads, report = training.window_gradients(
                        m, window, epoch, np.random.default_rng(7))
                    out[f"{key}/loss"] = np.array(
                        [report.total, report.rec, report.kl])
                    for name, g in grads.items():
                        out[f"{key}/{name}"] = g
            window = synthetic.make_window("turn", n, np.random.default_rng(n))
            for mode in ("latent", "full"):
                out[f"sample/s{scale:g}/n{n}/{mode}"] = \
                    evaluation.sample_futures(m, window,
                                              np.random.default_rng(11), 20,
                                              mode)
                out[f"best/s{scale:g}/n{n}/{mode}"] = np.array(
                    evaluation.best_of_k(m, window, 20,
                                         np.random.default_rng(11), mode))
        for n in (1, 12, 48):
            window = synthetic.make_window("turn", n, np.random.default_rng(n))
            for mode in ("latent", "full"):
                out[f"sample1/s{scale:g}/n{n}/{mode}"] = \
                    evaluation.sample_futures(m, window,
                                              np.random.default_rng(13), 1,
                                              mode)
        for sizes in CHUNKS:
            windows = [synthetic.make_window(
                synthetic.PATTERNS[i % len(synthetic.PATTERNS)], n,
                np.random.default_rng(i)) for i, n in enumerate(sizes)]
            key = f"chunk/s{scale:g}/{'-'.join(map(str, sizes))}"
            out[f"{key}/grad"], reports = training.chunk_gradients(
                m, windows, 0, np.random.default_rng(17))
            for i, report in enumerate(reports):
                out[f"{key}/w{i}/loss"] = np.array(
                    [report.total, report.rec, report.kl])

    windows = synthetic.make_corpus("turn", 3, 6, seed=2)
    for batch in (1, 2):
        m = model.TrajCvae(model.ModelConfig(feature_scale=4.0),
                           rng=np.random.default_rng(5))
        cfg = training.TrainConfig(epochs=4, batch_size=batch)
        state = training.TrainState(params=m.params,
                                    rng=np.random.default_rng(5))
        for _ in range(cfg.epochs):
            state = training.train_epoch(state, m, windows, cfg)
        for name, v in m.params.items():
            out[f"train/b{batch}/{name}"] = v
    out.update(adjacency())
    out.update(preprocess())
    out.update(loss_terms())
    return out


def adjacency() -> dict:
    """`normalized_adjacency` of random positions, and of the same rounded
    to whole metres with the first agent moved onto the last."""
    from stgcvae import graph

    gen = np.random.default_rng(29)
    out = {}
    for t in (8, 20):
        for n in (1, 2, 12, 48):
            pos = gen.uniform(-5, 5, (t, n, 2))
            out[f"adjacency/t{t}/n{n}"] = graph.normalized_adjacency(pos)
            pos = np.round(pos)
            pos[:, 0] = pos[:, -1]
            out[f"adjacency/t{t}/n{n}/colocated"] = \
                graph.normalized_adjacency(pos)
    return out


def around(*bounds) -> np.ndarray:
    """+-0, 0.5, -0.5, and each bound with its neighbouring floats and a
    value 2 beyond it on either side."""
    out = [0.0, -0.0, 0.5, -0.5]
    for b in bounds:
        out += [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                b - 2.0, b + 2.0]
    return np.array(out)


def loss_terms() -> dict:
    """The loss ops' arrays on inputs drawn from `around` their clamp
    bounds."""
    from stgcvae import autodiff as ad
    from stgcvae import losses, model

    gen = np.random.default_rng(31)

    def signed(shape):
        g = gen.standard_normal(shape)
        g[gen.random(shape) < 0.1] = 0.0
        g[gen.random(shape) < 0.1] = -0.0
        return g

    def backward(cells, leaves):
        grads = ad.backward(ad.sum_all(ad.mul(cells, ad.Value(
            signed(cells.data.shape)))))
        return [grads.get(v) for v in leaves]

    out, means = {}, [0.0, -0.0, 0.3, -1.7]
    for t, n in ((8, 1), (8, 5), (12, 40)):
        key = f"loss/t{t}/n{n}"
        raw = np.concatenate([
            gen.choice(means, (2, t, n)),
            gen.choice(around(model.SIGMA_S_MIN, model.LOGVAR_MAX),
                       (2, t, n)),
            gen.choice(around(-model.RHO_R_MAX, model.RHO_R_MAX), (1, t, n))])
        target = raw[0:2] + gen.choice(means, (2, t, n))
        leaf = ad.leaf(raw)
        cells, out[f"{key}/weight"] = losses.nll_cells(
            model.BivariateGaussianSeq(leaf), target)
        out[f"{key}/nll"] = cells.data
        out[f"{key}/nll_raw_grad"], = backward(cells, [leaf])

        shape = (3, t, n)
        mu_q, mu_p = gen.choice(means, shape), gen.choice(means, shape)
        logvars = around(model.LOGVAR_MIN, model.LOGVAR_MAX)
        lv_q, lv_p = gen.choice(logvars, shape), gen.choice(logvars, shape)
        same = gen.random(shape) < 0.2
        mu_p[same], lv_p[same] = mu_q[same], lv_q[same]
        leaves = [ad.leaf(a) for a in (mu_q, lv_q, mu_p, lv_p)]
        cells = losses.kl_cells(model.LatentGaussian(*leaves[:2]),
                                model.LatentGaussian(*leaves[2:]))
        out[f"{key}/kl"] = cells.data
        for name, g in zip(("q_mu", "q_logvar", "p_mu", "p_logvar"),
                           backward(cells, leaves)):
            out[f"{key}/kl_{name}_grad"] = g
    return out


def annotation_files(directory: Path) -> dict:
    """{path: frame period} of two scenes: pedestrians labelled at 25 Hz
    frame ids every 10 frames, some ids off by one frame and some runs
    missing, and a 10 Hz robot log with pedestrians every 3 frames."""
    def lines(agent, frames, xy):
        return [f"{f} {agent} {x!r} {y!r}"
                for f, (x, y) in zip(frames.tolist(), xy.tolist())]

    rng = np.random.default_rng(23)
    peds, robot = [], ["#robot_id=7"]
    for agent in range(12):
        frames = rng.integers(0, 200) + 10 * np.arange(rng.integers(5, 60))
        frames += (rng.random(len(frames)) < 0.15) * rng.choice([-1, 1])
        frames = np.delete(frames, np.s_[8:8 + rng.integers(0, 6)])
        xy = np.cumsum(rng.normal(0.0, 0.4, (len(frames), 2)), axis=0)
        peds += lines(agent, frames, xy)
    for agent, step in ((7, 1), (3, 3), (4, 3)):
        frames = np.arange(rng.integers(0, 20), 240, step)
        frames = np.delete(frames, np.s_[30:30 + rng.integers(0, 12)])
        xy = np.cumsum(rng.normal(0.0, 0.1 * step, (len(frames), 2)), axis=0)
        robot += lines(agent, frames, xy)
    (directory / "peds.txt").write_text("\n".join(peds) + "\n")
    (directory / "robot.txt").write_text("\n".join(robot) + "\n")
    return {directory / "peds.txt": 0.04, directory / "robot.txt": 0.1}


def preprocess() -> dict:
    from stgcvae import data

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path, period in annotation_files(Path(tmp)).items():
            scene = data.resample(
                data.parse_annotations(path, frame_period=period), 0.4)
            for mode in ("train", "infer"):
                for stride in (1, 3):
                    ws = data.build_windows(scene, stride=stride, mode=mode)
                    key = f"preprocess/{path.stem}/{mode}/s{stride}"
                    out[f"{key}/positions"] = np.concatenate(
                        [w.positions for w in ws], axis=1)
                    out[f"{key}/agent_ids"] = np.array(
                        [a for w in ws for a in w.agent_ids], dtype=np.int64)
                    out[f"{key}/n_agents"] = np.array(
                        [w.n_agents for w in ws])
                    out[f"{key}/robot_index"] = np.array(
                        [w.robot_index for w in ws])
    return out


def compare(a_path, b_path) -> int:
    # read each file once: an NpzFile reads an array again at every lookup
    a, b = dict(np.load(a_path)), dict(np.load(b_path))
    only = sorted(set(a) ^ set(b))
    differ = [k for k in sorted(set(a) & set(b))
              if a[k].shape != b[k].shape or a[k].dtype != b[k].dtype
              or a[k].tobytes() != b[k].tobytes()]
    rel = {k: relative_differences(a[k], b[k]) for k in differ}
    for k in differ[:20]:
        print(f"differs: {k} (max relative difference {rel[k][0]:.3g}, "
              f"norm-wise {rel[k][1]:.3g})")
    for k in only[:20]:
        print(f"only in one file: {k}")
    worst = "; max relative difference {:.3g}, norm-wise {:.3g}".format(
        *np.max(list(rel.values()), axis=0)) if rel else ""
    print(f"{len(differ)} of {len(set(a) & set(b))} arrays "
          f"differ{worst}; {len(only)} names in only one file")
    return 1 if differ or only else 0


def relative_differences(a: np.ndarray,
                         b: np.ndarray) -> tuple[float, float]:
    """(max |a - b| / max(|a|, |b|) over the entries, and the norm-wise
    ||a - b|| / max(||a||, ||b||) in the 2-norm), where entries that are
    equal or both NaN count as equal; inf for arrays of different shapes."""
    if a.shape != b.shape:
        return float("inf"), float("inf")
    a, b = a.astype(np.float64), b.astype(np.float64)
    both_nan = np.isnan(a) & np.isnan(b)
    a, b = np.where(both_nan, 0.0, a), np.where(both_nan, 0.0, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = np.where(a == b, 0.0, np.abs(a - b))
        rel = np.where(a == b, 0.0, diff / np.maximum(np.abs(a), np.abs(b)))
        scale = max(np.linalg.norm(a), np.linalg.norm(b))
        norm = np.linalg.norm(diff) / scale if scale else 0.0
    return float(np.max(rel, initial=0.0)), float(norm)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="write the grid's arrays to an .npz")
    p.add_argument("out")
    p = sub.add_parser("compare", help="compare two dumps byte for byte")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.a, args.b)
    arrays = grid()
    np.savez(args.out, **arrays)
    print(f"{len(arrays)} arrays -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

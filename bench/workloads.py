"""Workload definitions and seeded input generation.

Every workload runs the three things a user of stgcvae pays for -- a
`train` job, an `evaluate --k 20` job and single `sample_trajectory`
calls -- and sizes the jobs so that the command it is named after takes the
largest share of each round. The
pattern mix and the agent counts of the generated windows are fixed per
workload; the seed draws everything else (starts, headings, speeds, turn
directions, jitter). So a different seed changes the data but not the
amount of work, which keeps throughput comparable across seeds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stgcvae import data, synthetic


# Single samples are always taken at N = 12, the `stgcvae bench` and
# criterion-8 setting, on one window loaded once.
SAMPLE_AGENTS = 12
SAMPLES_PER_ROUND = 300
# epochs of one `train` job; the config needs lr_switch_epoch < epochs
EPOCHS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    agents: tuple[int, ...]   # agent counts cycled over train and holdout
    train_windows: int        # windows in the `train` job's cache
    batch_size: int           # windows per SGD step in the `train` job
    eval_agents: tuple[int, ...]  # agent counts of the `evaluate` cache
    eval_windows: int         # windows in the `evaluate` job's cache
    holdout_windows: int      # held-out windows scored by train_loss_final


WORKLOADS = {w.name: w for w in (
    # the evaluate job here only has to carry eval_ade_m / eval_fde_m:
    # N = 12 windows average more agents per window than 1-6 agent ones, so
    # 36 of them vary less across seeds than 72 small ones, at less cost
    Workload("train-small", agents=(1, 2, 3, 4, 5, 6), train_windows=160,
             batch_size=16, eval_agents=(SAMPLE_AGENTS,), eval_windows=36,
             holdout_windows=48),
    Workload("eval-crowd", agents=(24, 28, 32, 36, 40, 44, 48),
             train_windows=12, batch_size=3,
             eval_agents=(24, 28, 32, 36, 40, 44, 48), eval_windows=20,
             holdout_windows=14),
)}


@dataclass(frozen=True)
class Inputs:
    train: Path      # STGW cache for the `train` job
    config: Path     # flat key=value config for the `train` job
    eval: Path       # STGW cache for the `evaluate` job
    sample: Path     # STGW cache holding the one single-sample window
    holdout: Path    # STGW cache scored by train_loss_final

    def digest(self) -> str:
        """sha256 over every generated file, in a fixed order."""
        h = hashlib.sha256()
        for path in (self.train, self.config, self.eval, self.sample,
                     self.holdout):
            h.update(path.read_bytes())
        return h.hexdigest()


def _windows(count: int, agents: tuple[int, ...], rng: np.random.Generator):
    # patterns cycle fastest, agent counts next, so every (pattern, N) pair
    # appears as evenly as the count allows; scene = pattern name
    patterns = synthetic.PATTERNS
    return [synthetic.make_window(patterns[i % len(patterns)],
                                  agents[(i // len(patterns)) % len(agents)],
                                  rng)
            for i in range(count)]


def make_inputs(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write the workload's input files for `seed` into out_dir."""
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(4)]
    inputs = Inputs(train=out_dir / "train.stgw",
                    config=out_dir / "train.cfg",
                    eval=out_dir / "eval.stgw",
                    sample=out_dir / "sample.stgw",
                    holdout=out_dir / "holdout.stgw")
    data.save_windows(inputs.train, _windows(workload.train_windows,
                                             workload.agents, rngs[0]))
    data.save_windows(inputs.eval, _windows(workload.eval_windows,
                                            workload.eval_agents, rngs[1]))
    data.save_windows(inputs.sample, _windows(1, (SAMPLE_AGENTS,), rngs[2]))
    data.save_windows(inputs.holdout, _windows(workload.holdout_windows,
                                               workload.agents, rngs[3]))
    inputs.config.write_text(
        f"epochs={EPOCHS}\n"
        f"lr_switch_epoch={EPOCHS - 1}\n"
        f"batch_size={workload.batch_size}\n")
    return inputs

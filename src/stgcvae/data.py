"""Trajectory data ingestion: parsing, resampling, windowing, caches.

Annotation files are plain text, one observation per line:
    frame_id agent_id x y
with coordinates in meters. Robot logs use the same layout plus an
optional header line `#robot_id=<id>`.

The preprocessed window cache is a single binary file (magic `STGW`).
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, IntegrityError, ParameterError, ParseError

log = logging.getLogger(__name__)

OBS_LEN = 8
PRED_LEN = 12
SEQ_LEN = OBS_LEN + PRED_LEN
TARGET_PERIOD = 0.4  # seconds, 2.5 Hz


@dataclass(eq=False)
class Scene:
    """Observations on a common frame clock, one row per (frame, agent)
    pair, sorted by (frame, agent): frames and agents (integral numbers, as
    int64; else ParameterError) and xy (R, 2) in meters. frame_period is the
    seconds per frame-id unit (0.4 after resampling to 2.5 Hz)."""
    name: str
    frames: np.ndarray
    agents: np.ndarray
    xy: np.ndarray
    frame_period: float = TARGET_PERIOD
    robot_id: int | None = None

    def __post_init__(self):
        _check_period(self.frame_period, "frame_period")
        for name in ("frames", "agents"):
            ids = np.asarray(getattr(self, name))
            v = ids.astype(np.float64)
            if not np.all((v == np.trunc(v)) & (np.abs(v) < 2 ** 63)):
                raise ParameterError(f"Scene {name} must be integral numbers")
            setattr(self, name, ids.astype(np.int64))
        order = np.lexsort((self.agents, self.frames))
        self.frames, self.agents = self.frames[order], self.agents[order]
        self.xy = np.asarray(self.xy, dtype=np.float64).reshape(-1, 2)[order]


@dataclass
class SequenceWindow:
    """One 20-frame multi-pedestrian segment: 8 observed + 12 future frames.

    positions has shape (T=20, N, 2) in meters. Inference windows may hold
    NaN at future frames where an agent was unobserved.
    """
    agent_ids: list
    positions: np.ndarray
    scene: str = ""
    robot_index: int = -1
    obs_len: int = OBS_LEN
    pred_len: int = PRED_LEN

    @property
    def n_agents(self) -> int:
        return len(self.agent_ids)

    @property
    def includes_robot(self) -> bool:
        return self.robot_index >= 0


@dataclass
class DisplacementTensor:
    """Per-frame displacements (2, T, N) plus the absolute first-frame origin."""
    values: np.ndarray  # (2, T, N)
    origin: np.ndarray  # (N, 2)


# ---------------------------------------------------------------------------
# parsing


def _check_period(period, name: str) -> None:
    if not (math.isfinite(period) and period > 0):
        raise ParameterError(
            f"{name} must be a finite number of seconds > 0, got {period!r}")


def _integral(text: str) -> int:
    value = float(text)
    if not (value.is_integer() and abs(value) < 2 ** 63):
        raise ValueError(f"{text!r} is not an integral number")
    return int(value)


def parse_annotations(path, name: str | None = None,
                      frame_period: float = TARGET_PERIOD) -> Scene:
    """Parse an annotation file into a Scene. Frame ids, agent ids and the
    `#robot_id=` header must be integral numbers ("780" or "780.0").

    Raises ParseError (with file:line) on malformed lines, nan and infinite
    values included, IntegrityError on duplicate (frame, agent) pairs and
    ParameterError on a frame_period that is not a finite number > 0.
    """
    path = Path(path)
    robot_id = None
    rows = {}  # (frame, agent) -> (x, y)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("#robot_id="):
                    try:
                        robot_id = _integral(line.split("=", 1)[1])
                    except ValueError:
                        raise ParseError(f"{path}:{lineno}: bad robot_id "
                                         f"header {line!r}")
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(
                    f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                key = _integral(parts[0]), _integral(parts[1])
                x, y = float(parts[2]), float(parts[3])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: ids must be integral "
                                 f"numbers and x, y numbers in {line!r}")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError(
                    f"{path}:{lineno}: non-finite coordinate in {line!r}")
            if key in rows:
                raise IntegrityError(
                    f"{path}:{lineno}: duplicate (frame, agent) {key}")
            rows[key] = x, y
    keys = np.array(list(rows), dtype=np.int64).reshape(-1, 2)
    return Scene(name or path.stem, keys[:, 0], keys[:, 1],
                 list(rows.values()), frame_period=frame_period,
                 robot_id=robot_id)


# ---------------------------------------------------------------------------
# resampling


def resample(scene: Scene, target_period: float = TARGET_PERIOD) -> Scene:
    """Linearly interpolate every agent onto a uniform target-period grid.

    The grid is anchored at the scene's earliest observation. Grid frames
    falling inside a trajectory gap wider than ~1.5 source intervals are
    omitted for that agent; agents with fewer than 2 samples are dropped
    (counted in a warning). Each agent's slice of the grid is built from
    its own first and last sample, so the cost follows the rows, not the
    scene's frame span. A target_period that is not a finite number > 0
    raises ParameterError.
    """
    _check_period(target_period, "target_period")
    by_agent = np.argsort(scene.agents, kind="stable")  # frames ascending
    ids, first, counts = np.unique(scene.agents[by_agent], return_index=True,
                                   return_counts=True)
    if len(ids):
        t0 = scene.frames[0] * scene.frame_period
        t_end = scene.frames[-1] * scene.frame_period
        n_frames = int(np.floor((t_end - t0) / target_period + 1e-9)) + 1

    parts = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, 2)))]
    for agent, rows in zip(ids, np.split(by_agent, first[1:])):
        if len(rows) < 2:
            continue
        times = scene.frames[rows].astype(np.float64) * scene.frame_period
        xy = scene.xy[rows]
        nominal = np.median(np.diff(times))
        # the grid frames t0 + target_period * k (the bits of a whole-span
        # grid) around the samples, with a margin past the 1e-9 s tolerance
        k0, k1 = (int(np.floor((v - t0) / target_period))
                  for v in (times[0], times[-1]))
        pad = 2 + int(1e-9 / target_period)
        frames = np.arange(max(k0 - pad, 0), min(k1 + pad + 2, n_frames))
        grid = t0 + target_period * frames
        lo = np.searchsorted(grid, times[0] - 1e-9)
        hi = np.searchsorted(grid, times[-1] + 1e-9, side="right")
        t = grid[lo:hi]
        j = np.clip(np.searchsorted(times, t + 1e-9) - 1, 0, len(times) - 2)
        near = np.where(np.abs(times[j] - t) <= np.abs(times[j + 1] - t),
                        j, j + 1)
        exact = np.abs(times[near] - t) < 1e-9
        span = times[j + 1] - times[j]
        w = ((t - times[j]) / span)[:, None]
        keep = exact | (span <= 1.5 * nominal + 1e-9)  # gaps omit frames
        parts.append((frames[lo:hi][keep], np.full(keep.sum(), agent),
                      np.where(exact[:, None], xy[near],
                               xy[j] + w * (xy[j + 1] - xy[j]))[keep]))
    if (counts < 2).any():
        log.warning("resample(%s): dropped %d agents with < 2 samples",
                    scene.name, np.count_nonzero(counts < 2))
    return Scene(scene.name, *map(np.concatenate, zip(*parts)),
                 frame_period=target_period, robot_id=scene.robot_id)


# ---------------------------------------------------------------------------
# windowing


def build_windows(scene: Scene, stride: int = 1,
                  mode: str = "train") -> list[SequenceWindow]:
    """Slide a 20-frame window over a uniformly resampled scene.

    train mode keeps agents present at all 20 frames; infer mode keeps
    agents present at all 8 observed frames (future positions may be NaN).
    Windows with zero qualifying agents are dropped. A stride below 1
    raises ParameterError.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    if not len(scene.frames):
        return []

    span = SEQ_LEN if mode == "train" else OBS_LEN
    windows = []
    # the starts on the stride grid whose window holds a row
    first, stop = scene.frames[0], scene.frames[-1] - SEQ_LEN + 2
    starts = np.unique(np.unique(scene.frames)[:, None] - np.arange(SEQ_LEN))
    for start in starts[(starts >= first) & (starts < stop)
                        & ((starts - first) % stride == 0)].tolist():
        rows = slice(*np.searchsorted(scene.frames, [start, start + SEQ_LEN]))
        ids, column = np.unique(scene.agents[rows], return_inverse=True)
        pos = np.full((SEQ_LEN, len(ids), 2), np.nan)
        pos[scene.frames[rows] - start, column] = scene.xy[rows]
        keep = np.isfinite(pos[:span, :, 0]).all(axis=0)
        if not keep.any():
            continue
        agent_ids = ids[keep].tolist()
        robot_index = agent_ids.index(scene.robot_id) \
            if scene.robot_id in agent_ids else -1
        windows.append(SequenceWindow(agent_ids, pos[:, keep], scene.name,
                                      robot_index))
    return windows


# ---------------------------------------------------------------------------
# displacement <-> absolute


def to_displacements(positions: np.ndarray) -> DisplacementTensor:
    """Convert absolute positions (T, N, 2) to per-frame displacements.

    values[:, 0, :] is zero; values[:, t, :] = pos[t] - pos[t-1] for t >= 1.
    """
    positions = np.asarray(positions, dtype=np.float64)
    t, n, _ = positions.shape
    values = np.zeros((2, t, n))
    values[:, 1:, :] = np.transpose(positions[1:] - positions[:-1], (2, 0, 1))
    return DisplacementTensor(values, positions[0].copy())


def to_absolute(disp: DisplacementTensor) -> np.ndarray:
    """Inverse of to_displacements, up to the rounding of the cumulative
    sum from the origin."""
    steps = np.transpose(disp.values, (1, 2, 0))  # (T, N, 2)
    return disp.origin[None, :, :] + np.cumsum(steps, axis=0)


# ---------------------------------------------------------------------------
# STGW window cache

_MAGIC = b"STGW"
_VERSION = 1


def save_windows(path, windows: list[SequenceWindow]) -> None:
    """Write a window cache: per window N, T, agent ids, robot index,
    float32 positions (T, N, 2) row-major little-endian, then the scene
    name (length-prefixed UTF-8)."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<BI", _VERSION, len(windows)))
        for w in windows:
            n, t = w.n_agents, w.positions.shape[0]
            fh.write(struct.pack("<II", n, t))
            fh.write(struct.pack(f"<{n}q", *(int(a) for a in w.agent_ids)))
            fh.write(struct.pack("<i", w.robot_index))
            fh.write(np.ascontiguousarray(
                w.positions, dtype="<f4").tobytes())
            name = w.scene.encode("utf-8")
            fh.write(struct.pack("<H", len(name)))
            fh.write(name)


def load_windows(path) -> list[SequenceWindow]:
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    try:
        version, count = struct.unpack_from("<BI", data, 4)
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        off = 9
        windows = []
        for _ in range(count):
            n, t = struct.unpack_from("<II", data, off)
            off += 8
            agents = list(struct.unpack_from(f"<{n}q", data, off))
            off += 8 * n
            (robot_index,) = struct.unpack_from("<i", data, off)
            off += 4
            nbytes = t * n * 2 * 4
            pos = np.frombuffer(data, dtype="<f4", count=t * n * 2,
                                offset=off).reshape(t, n, 2).astype(np.float64)
            off += nbytes
            (name_len,) = struct.unpack_from("<H", data, off)
            off += 2
            scene = data[off:off + name_len].decode("utf-8")
            if off + name_len > len(data):
                raise FormatError(f"{path}: truncated")
            off += name_len
            windows.append(SequenceWindow(agents, pos, scene=scene,
                                          robot_index=robot_index))
    except (struct.error, ValueError) as exc:
        raise FormatError(f"{path}: truncated ({exc})") from exc
    if off != len(data):
        raise FormatError(
            f"{path}: {len(data) - off} bytes after the last window")
    return windows

"""Trajectory data ingestion: parsing, resampling, windowing, caches.

Annotation files are plain text, one observation per line:
    frame_id agent_id x y
with coordinates in meters. Robot logs use the same layout plus an
optional header line `#robot_id=<id>`.

The preprocessed window cache is a single binary file (magic `STGW`).
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (DimensionError, EmptyWindowError, FormatError,
                     IntegrityError, MissingTruthError, ParameterError,
                     ParseError)

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
    seconds per frame-id unit (0.4 after resampling to 2.5 Hz). The window
    cache stores the name as UTF-8, so one it cannot encode raises
    ParameterError."""
    name: str
    frames: np.ndarray
    agents: np.ndarray
    xy: np.ndarray
    frame_period: float = TARGET_PERIOD
    robot_id: int | None = None

    def __post_init__(self):
        try:
            self.name.encode("utf-8")
        except UnicodeEncodeError:
            raise ParameterError(f"Scene name {self.name!r} cannot be "
                                 "encoded as UTF-8") from None
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

    @property
    def pred_len(self) -> int:
        """The predicted frames, PRED_LEN: the horizon is not per window."""
        return PRED_LEN

    @property
    def n_agents(self) -> int:
        return len(self.agent_ids)

    @property
    def includes_robot(self) -> bool:
        return self.robot_index >= 0


def check_windows(windows: list[SequenceWindow],
                  frames: int | None = None) -> None:
    """The window contract of training, scoring and prediction, checked in
    one pass: ParameterError for an empty list; then, for the first window
    that breaks it, named `window i (scene s)` by its index in the list,
    EmptyWindowError if it has no agents, DimensionError if its frame count
    is not SEQ_LEN, and MissingTruthError if a position in its first
    `frames` frames (default: all) is not finite."""
    if not windows:
        raise ParameterError("no windows")
    for i, w in enumerate(windows):
        name = f"window {i} (scene {w.scene!r})"
        if w.n_agents == 0:
            raise EmptyWindowError(
                f"{name} has no agents, so there is nothing to sample")
        if w.positions.shape[0] != SEQ_LEN:
            raise DimensionError(
                f"{name} has {w.positions.shape[0]} frames; the model reads "
                f"seq_len = {SEQ_LEN}")
        if not np.all(np.isfinite(w.positions[:frames])):
            raise MissingTruthError(
                f"{name} has non-finite positions"
                + ("" if frames is None else f" in its first {frames} frames")
                + "; only the future frames may be unobserved (NaN, as in "
                "an infer-mode cache), and only to predict, not to train "
                "or score")


# ---------------------------------------------------------------------------
# parsing


def _check_period(period, name: str) -> None:
    if not (math.isfinite(period) and period > 0):
        raise ParameterError(
            f"{name} must be a finite number of seconds > 0, got {period!r}")


def read_lines(path, error=ParseError):
    """(line number, line) of each line of a UTF-8 text file, numbered from
    1; a line that is not UTF-8 raises `error` naming file:line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:  # undecodable bytes were escaped to lone surrogates
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise error(f"{path}:{lineno}: not UTF-8 text") from None
            yield lineno, line


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
    values and bytes that are not UTF-8 included, IntegrityError on
    duplicate (frame, agent) pairs and ParameterError on a frame_period
    that is not a finite number > 0.
    """
    path = Path(path)
    robot_id = None
    rows = {}  # (frame, agent) -> (x, y)
    for lineno, line in read_lines(path):
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
# displacements


def to_displacements(positions: np.ndarray) -> np.ndarray:
    """Convert absolute positions (T, N, 2) to per-frame displacements
    (2, T, N).

    values[:, 0, :] is zero; values[:, t, :] = pos[t] - pos[t-1] for t >= 1.
    """
    positions = np.asarray(positions, dtype=np.float64)
    t, n, _ = positions.shape
    values = np.zeros((2, t, n))
    values[:, 1:, :] = np.transpose(positions[1:] - positions[:-1], (2, 0, 1))
    return values


# ---------------------------------------------------------------------------
# file writes, the reader of both binary formats, and the STGW window cache


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


class BinaryReader:
    """The fields of a STGW cache or STGC checkpoint, read in order after its
    magic, version byte and u32 record `count`. Each misread raises
    FormatError naming the file: bad magic, unsupported version, truncated,
    a name that is not UTF-8, or bytes after the last record."""

    def __init__(self, path, magic: bytes, versions: tuple[int, ...]):
        self.path, self.data, self.off = path, Path(path).read_bytes(), 4
        if self.data[:4] != magic:
            raise FormatError(f"{path}: bad magic {self.data[:4]!r}")
        self.version, self.count = self.take("<BI")
        if self.version not in versions:
            raise FormatError(f"{path}: unsupported version {self.version}")

    def take(self, fmt: str) -> tuple:
        """The next fields, as struct.unpack_from reads `fmt`."""
        try:
            fields = struct.unpack_from(fmt, self.data, self.off)
        except struct.error as exc:
            raise FormatError(f"{self.path}: truncated ({exc})") from exc
        self.off += struct.calcsize(fmt)
        return fields

    def array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        """The next array of `dtype`, row-major, as float64 of `shape`."""
        try:
            arr = np.frombuffer(self.data, dtype, math.prod(shape), self.off)
            self.off += arr.nbytes
            return arr.reshape(shape).astype(np.float64)
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"{self.path}: truncated ({exc})") from exc

    def text(self, what: str) -> str:
        """The next length-prefixed name; `what` names it in the error."""
        (size,) = self.take("<H")
        try:
            return self.take(f"<{size}s")[0].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.path}: {what} is not UTF-8") from None

    def end(self, what: str) -> None:
        """Check that the file ends after its last `what`."""
        if self.off != len(self.data):
            raise FormatError(f"{self.path}: {len(self.data) - self.off} "
                              f"bytes after the last {what}")


def write_text(fh, text: str) -> None:
    """`text` as a u16 byte length and UTF-8, as BinaryReader.text reads."""
    raw = text.encode("utf-8")
    fh.write(struct.pack(f"<H{len(raw)}s", len(raw), raw))


_MAGIC = b"STGW"
_VERSION = 1


def save_windows(path, windows: list[SequenceWindow]) -> None:
    """Write a window cache: per window N, T, agent ids, robot index,
    float32 positions (T, N, 2) row-major little-endian, then the scene
    name (length-prefixed UTF-8). The file is written through `replacing`,
    so a failure leaves a previous cache at `path` as it was."""
    with replacing(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<BI", _VERSION, len(windows)))
        for w in windows:
            n, t = w.n_agents, w.positions.shape[0]
            fh.write(struct.pack("<II", n, t))
            fh.write(struct.pack(f"<{n}q", *(int(a) for a in w.agent_ids)))
            fh.write(struct.pack("<i", w.robot_index))
            fh.write(np.ascontiguousarray(
                w.positions, dtype="<f4").tobytes())
            write_text(fh, w.scene)


def load_windows(path) -> list[SequenceWindow]:
    """The windows of a cache. Besides BinaryReader's FormatErrors, a robot
    index that is neither -1 nor one of its window's agents raises one."""
    r = BinaryReader(path, _MAGIC, (_VERSION,))
    windows = []
    for i in range(r.count):
        n, t = r.take("<II")
        agents = list(r.take(f"<{n}q"))
        (robot_index,) = r.take("<i")
        if not -1 <= robot_index < n:
            raise FormatError(f"{path}: window {i}: robot index "
                              f"{robot_index} outside [-1, {n})")
        positions = r.array("<f4", (t, n, 2))
        scene = r.text(f"window {i}: scene name")
        windows.append(SequenceWindow(agents, positions, scene, robot_index))
    r.end("window")
    return windows

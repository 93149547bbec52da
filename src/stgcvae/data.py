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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, IntegrityError, ParseError

log = logging.getLogger(__name__)

OBS_LEN = 8
PRED_LEN = 12
SEQ_LEN = OBS_LEN + PRED_LEN
TARGET_PERIOD = 0.4  # seconds, 2.5 Hz


@dataclass(frozen=True)
class RawAnnotation:
    frame: int
    agent: int
    x: float
    y: float


@dataclass
class Scene:
    """A named set of annotations on a common frame clock.

    frame_period is the duration in seconds of one frame-id unit
    (0.4 after resampling to 2.5 Hz).
    """
    name: str
    annotations: list
    frame_period: float = TARGET_PERIOD
    robot_id: int | None = None


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


def parse_annotations(path, name: str | None = None,
                      frame_period: float = TARGET_PERIOD) -> Scene:
    """Parse an annotation file into a time-ordered Scene.

    Raises ParseError (with file:line) on malformed lines, nan and infinite
    values included, and IntegrityError on duplicate (frame, agent) pairs.
    """
    path = Path(path)
    robot_id = None
    rows = []
    seen = set()
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("#robot_id="):
                    try:
                        robot_id = int(line.split("=", 1)[1])
                    except ValueError:
                        raise ParseError(
                            f"{path}:{lineno}: bad robot_id header {line!r}")
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(
                    f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                frame, agent = int(float(parts[0])), int(float(parts[1]))
                x, y = float(parts[2]), float(parts[3])
            except (ValueError, OverflowError):
                raise ParseError(f"{path}:{lineno}: non-numeric field in {line!r}")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError(
                    f"{path}:{lineno}: non-finite coordinate in {line!r}")
            key = (frame, agent)
            if key in seen:
                raise IntegrityError(
                    f"{path}:{lineno}: duplicate (frame={frame}, agent={agent})")
            seen.add(key)
            rows.append(RawAnnotation(frame, agent, x, y))
    rows.sort(key=lambda a: (a.frame, a.agent))
    return Scene(name or path.stem, rows, frame_period=frame_period,
                 robot_id=robot_id)


# ---------------------------------------------------------------------------
# resampling


def resample(scene: Scene, target_period: float = TARGET_PERIOD) -> Scene:
    """Linearly interpolate every agent onto a uniform target-period grid.

    The grid is anchored at the scene's earliest observation. Grid frames
    falling inside a trajectory gap wider than ~1.5 source intervals are
    omitted for that agent; agents with fewer than 2 samples are dropped
    (counted in a warning).
    """
    if not scene.annotations:
        return Scene(scene.name, [], frame_period=target_period,
                     robot_id=scene.robot_id)

    by_agent: dict[int, list[RawAnnotation]] = {}
    for a in scene.annotations:
        by_agent.setdefault(a.agent, []).append(a)

    t0 = min(a.frame for a in scene.annotations) * scene.frame_period
    t_end = max(a.frame for a in scene.annotations) * scene.frame_period
    n_frames = int(np.floor((t_end - t0) / target_period + 1e-9)) + 1
    grid = t0 + target_period * np.arange(n_frames)

    out = []
    dropped = 0
    for agent, rows in by_agent.items():
        if len(rows) < 2:
            dropped += 1
            continue
        times = np.array([r.frame for r in rows], dtype=np.float64) \
            * scene.frame_period
        xs = np.array([r.x for r in rows])
        ys = np.array([r.y for r in rows])
        intervals = np.diff(times)
        nominal = np.median(intervals)
        for gi, t in enumerate(grid):
            if t < times[0] - 1e-9 or t > times[-1] + 1e-9:
                continue
            j = int(np.searchsorted(times, t + 1e-9)) - 1
            j = max(0, min(j, len(times) - 2))
            near = j if abs(times[j] - t) <= abs(times[j + 1] - t) else j + 1
            if abs(times[near] - t) < 1e-9:
                out.append(RawAnnotation(gi, agent, float(xs[near]),
                                         float(ys[near])))
                continue
            span = times[j + 1] - times[j]
            if span > 1.5 * nominal + 1e-9:
                continue  # trajectory gap: omit this grid frame
            w = (t - times[j]) / span
            out.append(RawAnnotation(gi, agent,
                                     float(xs[j] + w * (xs[j + 1] - xs[j])),
                                     float(ys[j] + w * (ys[j + 1] - ys[j]))))
    if dropped:
        log.warning("resample(%s): dropped %d agents with < 2 samples",
                    scene.name, dropped)
    out.sort(key=lambda a: (a.frame, a.agent))
    return Scene(scene.name, out, frame_period=target_period,
                 robot_id=scene.robot_id)


# ---------------------------------------------------------------------------
# windowing


def build_windows(scene: Scene, stride: int = 1,
                  mode: str = "train") -> list[SequenceWindow]:
    """Slide a 20-frame window over a uniformly resampled scene.

    train mode keeps agents present at all 20 frames; infer mode keeps
    agents present at all 8 observed frames (future positions may be NaN).
    Windows with zero qualifying agents are dropped.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    if not scene.annotations:
        return []

    frames: dict[int, dict[int, tuple[float, float]]] = {}
    for a in scene.annotations:
        frames.setdefault(a.frame, {})[a.agent] = (a.x, a.y)
    f_lo, f_hi = min(frames), max(frames)
    n_frames = f_hi - f_lo + 1

    span = SEQ_LEN if mode == "train" else OBS_LEN
    windows = []
    for start in range(f_lo, f_lo + n_frames - SEQ_LEN + 1, stride):
        required = range(start, start + span)
        agents = sorted(
            ag for ag in {a for f in range(start, start + SEQ_LEN)
                          for a in frames.get(f, {})}
            if all(ag in frames.get(f, {}) for f in required))
        if not agents:
            continue
        pos = np.full((SEQ_LEN, len(agents), 2), np.nan)
        for t in range(SEQ_LEN):
            fr = frames.get(start + t, {})
            for i, ag in enumerate(agents):
                if ag in fr:
                    pos[t, i] = fr[ag]
        robot_index = agents.index(scene.robot_id) \
            if scene.robot_id in agents else -1
        windows.append(SequenceWindow(agents, pos, scene=scene.name,
                                      robot_index=robot_index))
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

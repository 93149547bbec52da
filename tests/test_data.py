import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stgcvae import data
from stgcvae.errors import (DimensionError, EmptyWindowError, FormatError,
                            IntegrityError, MissingTruthError,
                            ParameterError, ParseError)


def write(tmp_path, text, name="scene.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


def make_scene(rows, name="s", frame_period=0.4, robot_id=None):
    """A Scene of (frame, agent, x, y) rows."""
    return data.Scene(name, [r[0] for r in rows], [r[1] for r in rows],
                      [r[2:] for r in rows], frame_period=frame_period,
                      robot_id=robot_id)


def rows_of(scene):
    """The scene's (frame, agent, x, y) rows, in its order."""
    return list(zip(scene.frames.tolist(), scene.agents.tolist(),
                    *scene.xy.T.tolist()))


class TestScene:
    def test_rows_sorted_by_frame_then_agent(self):
        scene = make_scene([(5, 2, 0.0, 1.0), (1, 9, 2.0, 3.0),
                            (1, 3, 4.0, 5.0)])
        assert rows_of(scene) == [(1, 3, 4.0, 5.0), (1, 9, 2.0, 3.0),
                                  (5, 2, 0.0, 1.0)]
        assert scene.frames.dtype == scene.agents.dtype == np.int64
        assert scene.xy.shape == (3, 2)

    @pytest.mark.parametrize("period", [0.0, -0.4, float("nan"),
                                        float("inf")])
    def test_bad_frame_period(self, period):
        with pytest.raises(ParameterError, match="frame_period"):
            make_scene([], frame_period=period)

    @pytest.mark.parametrize("field, frames, agents", [
        ("frames", [10.5, 11.0], [1, 1]),
        ("agents", [10, 11], [1.7, 1]),
        ("frames", [10, float("nan")], [1, 1]),
        ("agents", [10, 11], [1, 1e19])])
    def test_non_integral_id_names_field(self, field, frames, agents):
        with pytest.raises(ParameterError, match=rf"^Scene {field} must be integral"):
            data.Scene("s", frames, agents, [[0.0, 0.0], [1.0, 1.0]])

    def test_name_utf8_cannot_encode_rejected(self):
        with pytest.raises(ParameterError, match=r"Scene name '\\udcff'"):
            make_scene([], name="\udcff")

    def test_integral_float_ids_read_as_integers(self):
        scene = data.Scene("s", [11.0, 10.0], [1.0, 2.0], [[0, 0], [1, 1]])
        assert scene.frames.tolist() == [10, 11]
        assert scene.agents.tolist() == [2, 1]


class TestParse:
    def test_direct_field_mapping(self, tmp_path):
        scene = data.parse_annotations(write(tmp_path, "10 1 2.5 3.0\n"))
        assert rows_of(scene) == [(10, 1, 2.5, 3.0)]
        assert scene.name == "scene"

    def test_empty_file(self, tmp_path):
        scene = data.parse_annotations(write(tmp_path, ""))
        assert scene.frames.shape == scene.agents.shape == (0,)
        assert scene.xy.shape == (0, 2)

    def test_toy_three_frames(self, tmp_path):
        scene = data.parse_annotations(
            write(tmp_path, "0 7 0.0 0.0\n1 7 0.5 0.0\n2 7 1.0 0.0\n"))
        assert len(scene.frames) == 3
        assert set(scene.agents.tolist()) == {7}

    def test_malformed_line_names_position(self, tmp_path):
        p = write(tmp_path, "0 1 0.0 0.0\n0 2 oops\n")
        with pytest.raises(ParseError, match=r":2"):
            data.parse_annotations(p)

    @pytest.mark.parametrize("line", ["0 2 nan 0.0", "0 2 0.0 inf",
                                      "0 2 -inf 1.0", "inf 2 0.0 0.0"])
    def test_non_finite_value_names_position(self, tmp_path, line):
        p = write(tmp_path, f"0 1 0.0 0.0\n{line}\n")
        with pytest.raises(ParseError, match=r"scene\.txt:2"):
            data.parse_annotations(p)

    def test_duplicate_pair_rejected(self, tmp_path):
        p = write(tmp_path, "0 1 0.0 0.0\n0 1 1.0 1.0\n")
        with pytest.raises(IntegrityError):
            data.parse_annotations(p)

    def test_robot_header(self, tmp_path):
        p = write(tmp_path, "#robot_id=99\n0 99 0 0\n0 1 1 1\n")
        scene = data.parse_annotations(p)
        assert scene.robot_id == 99

    def test_integral_float_ids_read_as_integers(self, tmp_path):
        p = write(tmp_path, "#robot_id=99.0\n780.0 99.0 1.0 0.0\n")
        scene = data.parse_annotations(p)
        assert rows_of(scene) == [(780, 99, 1.0, 0.0)]
        assert scene.robot_id == 99 and type(scene.robot_id) is int

    @pytest.mark.parametrize("line", ["10.5 1 1.0 0.0", "10 1.5 1.0 0.0",
                                      "1e19 1 1.0 0.0", "#robot_id=99.5",
                                      "#robot_id=abc", "0x10 1 1.0 0.0"])
    def test_non_integral_id_names_position(self, tmp_path, line):
        p = write(tmp_path, f"0 1 0.0 0.0\n{line}\n")
        with pytest.raises(ParseError, match=r"scene\.txt:2: "):
            data.parse_annotations(p)

    @pytest.mark.parametrize("period", [0, -2.5, float("nan"), float("inf")])
    def test_bad_frame_period(self, tmp_path, period):
        p = write(tmp_path, "0 1 0.0 0.0\n")
        with pytest.raises(ParameterError, match="frame_period must be"):
            data.parse_annotations(p, frame_period=period)

    def test_sorted_by_frame_then_agent(self, tmp_path):
        p = write(tmp_path, "5 2 0 0\n1 9 0 0\n1 3 0 0\n")
        scene = data.parse_annotations(p)
        assert list(zip(scene.frames.tolist(), scene.agents.tolist())) == \
            [(1, 3), (1, 9), (5, 2)]


class TestResample:
    def test_already_on_grid_identity(self):
        rows = [(f, 1, 0.1 * f, -0.2 * f) for f in range(10)]
        out = data.resample(make_scene(rows, frame_period=0.4), 0.4)
        assert len(out.frames) == 10
        np.testing.assert_allclose(out.xy, np.array(rows)[:, 2:], atol=1e-12)

    def test_midpoint_interpolation(self):
        # agent at t=0 (0,0) and t=0.8 (0.8,0) -> midpoint (0.4, 0)
        rows = [(0, 1, 0.0, 0.0), (2, 1, 0.8, 0.0)]
        out = data.resample(make_scene(rows, frame_period=0.4), 0.4)
        mid = out.xy[out.frames == 1]
        assert len(mid) == 1
        assert mid[0, 0] == pytest.approx(0.4)
        assert mid[0, 1] == pytest.approx(0.0)

    def test_robot_log_10hz_8s_gives_21_frames(self):
        # 10 Hz for 8 s: frames 0..80 at 0.1 s -> floor(8/0.4)+1 = 21
        rows = [(f, 1, 0.05 * f, 0.0) for f in range(81)]
        out = data.resample(make_scene(rows, frame_period=0.1), 0.4)
        assert len(set(out.frames.tolist())) == 21

    def test_single_sample_agent_dropped(self):
        rows = [(0, 1, 0.0, 0.0), (0, 2, 1.0, 1.0), (4, 2, 2.0, 1.0)]
        out = data.resample(make_scene(rows, frame_period=0.4), 0.4)
        assert set(out.agents.tolist()) == {2}

    def test_gap_omits_grid_frames(self):
        # samples at t=0, 0.4, then 2.0: the 0.8..1.6 grid frames fall in a gap
        rows = [(0, 1, 0.0, 0.0), (1, 1, 0.4, 0.0), (5, 1, 2.0, 0.0)]
        out = data.resample(make_scene(rows, frame_period=0.4), 0.4)
        present = set(out.frames.tolist())
        assert 0 in present and 1 in present
        assert not {2, 3, 4} & present

    def test_empty_and_all_dropped_scenes(self):
        for rows in ([], [(0, 1, 0.0, 0.0), (3, 2, 1.0, 1.0)]):
            out = data.resample(make_scene(rows, robot_id=2), 0.4)
            assert out.frames.shape == (0,) and out.xy.shape == (0, 2)
            assert (out.frame_period, out.robot_id) == (0.4, 2)

    def test_stray_agent_costs_rows_not_frame_span(self):
        # 25 Hz frame ids: a whole-span 2.5 Hz grid up to an agent at frame
        # 10^7 would hold 10^6 times (8 MB); each agent's slice is built
        # from its own samples, with the whole grid's bits
        rows = [(10 * f + a, a, 0.5 * f, float(a)) for f in range(40)
                for a in (1, 2)]
        rows += [(10 ** 7 + 10 * f, 7, 0.1 * f, 3.0) for f in range(3)]
        scene = make_scene(rows, frame_period=0.04)
        tracemalloc.start()
        try:
            out = data.resample(scene, 0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        want = reference_resample(rows, 0.04, 0.4)
        assert 7 in out.agents
        assert np.array(rows_of(out)).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("period", [0, -2.5, float("nan"), float("inf")])
    def test_bad_target_period(self, period):
        scene = make_scene([(0, 1, 0.0, 0.0), (1, 1, 1.0, 0.0)])
        with pytest.raises(ParameterError, match="target_period must be"):
            data.resample(scene, period)


def uniform_scene(n_frames, agents, name="s", robot_id=None):
    rows = [(f, ag, 0.5 * f + i, float(i))
            for f in range(n_frames) for i, ag in enumerate(agents)]
    return make_scene(rows, name, robot_id=robot_id)


class TestWindows:
    def test_exact_fit_single_window(self):
        ws = data.build_windows(uniform_scene(20, [1]), stride=1)
        assert len(ws) == 1
        assert ws[0].n_agents == 1
        assert ws[0].positions.shape == (20, 1, 2)

    def test_21_frames_two_windows(self):
        assert len(data.build_windows(uniform_scene(21, [1]), stride=1)) == 2

    def test_window_count_formula(self):
        for f, s in [(20, 1), (45, 1), (45, 5), (60, 20), (19, 1)]:
            ws = data.build_windows(uniform_scene(f, [1, 2]), stride=s)
            assert len(ws) == max(0, (f - 20) // s + 1)

    def test_partially_present_agent_dropped_in_train(self):
        rows = [(f, 1, float(f), 0.0) for f in range(20)]
        rows += [(f, 2, 0.0, float(f)) for f in range(11)]
        ws = data.build_windows(make_scene(rows), stride=1, mode="train")
        assert len(ws) == 1
        assert ws[0].agent_ids == [1]

    def test_infer_mode_keeps_obs_present_agent(self):
        rows = [(f, 1, float(f), 0.0) for f in range(20)]
        rows += [(f, 2, 0.0, float(f)) for f in range(11)]
        ws = data.build_windows(make_scene(rows), stride=1, mode="infer")
        assert ws[0].agent_ids == [1, 2]
        assert np.isnan(ws[0].positions[15, 1]).all()

    def test_robot_index_flagged(self):
        ws = data.build_windows(uniform_scene(20, [3, 9], robot_id=9), stride=1)
        assert ws[0].robot_index == ws[0].agent_ids.index(9)
        assert ws[0].includes_robot

    def test_empty_scene(self):
        assert data.build_windows(make_scene([])) == []

    def test_stray_frame_costs_rows_not_frame_span(self, monkeypatch):
        # an agent seen once more 10^7 frames later: the windows in between
        # are empty, and build_windows jumps over them on the stride grid,
        # so its searchsorted calls (one per window visited) stay few
        def scene(stray):
            rows = [(f, a, 0.5 * f, float(a)) for f in range(25)
                    for a in (1, 2)]
            return rows + [(stray + f, 7, 0.1 * f, 3.0) for f in range(22)]

        near, far = scene(302), scene(10 ** 7 + 1)  # both 2 mod the stride
        searchsorted, calls = np.searchsorted, []

        def counted(*args, **kwargs):
            calls.append(1)
            assert len(calls) <= 50, "build_windows visited empty windows"
            return searchsorted(*args, **kwargs)

        for mode in ("train", "infer"):
            want = reference_windows(near, None, 3, mode)
            monkeypatch.setattr(np, "searchsorted", counted)
            got = data.build_windows(make_scene(far), stride=3, mode=mode)
            monkeypatch.undo()
            calls.clear()
            assert [w.agent_ids for w in got] == [w[0] for w in want]
            assert [7] in [w.agent_ids for w in got]
            for w, (_, pos, _) in zip(got, want):
                assert w.positions.tobytes() == pos.tobytes()

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one(self, stride):
        with pytest.raises(ParameterError, match=f"stride must be >= 1, "
                                                 f"got {stride}"):
            data.build_windows(uniform_scene(20, [1]), stride=stride)


# ---------------------------------------------------------------------------
# the per-row resample and build_windows that the array code replaced, on
# plain (frame, agent, x, y) tuples: the reference it must match bit for bit


def reference_resample(rows, frame_period, target_period):
    if not rows:
        return []
    by_agent = {}
    for row in sorted(rows):
        by_agent.setdefault(row[1], []).append(row)
    t0 = min(r[0] for r in rows) * frame_period
    t_end = max(r[0] for r in rows) * frame_period
    n_frames = int(np.floor((t_end - t0) / target_period + 1e-9)) + 1
    grid = t0 + target_period * np.arange(n_frames)
    out = []
    for agent, agent_rows in by_agent.items():
        if len(agent_rows) < 2:
            continue
        times = np.array([r[0] for r in agent_rows],
                         dtype=np.float64) * frame_period
        xs = np.array([r[2] for r in agent_rows])
        ys = np.array([r[3] for r in agent_rows])
        nominal = np.median(np.diff(times))
        for gi, t in enumerate(grid):
            if t < times[0] - 1e-9 or t > times[-1] + 1e-9:
                continue
            j = int(np.searchsorted(times, t + 1e-9)) - 1
            j = max(0, min(j, len(times) - 2))
            near = j if abs(times[j] - t) <= abs(times[j + 1] - t) else j + 1
            if abs(times[near] - t) < 1e-9:
                out.append((gi, agent, float(xs[near]), float(ys[near])))
                continue
            span = times[j + 1] - times[j]
            if span > 1.5 * nominal + 1e-9:
                continue
            w = (t - times[j]) / span
            out.append((gi, agent, float(xs[j] + w * (xs[j + 1] - xs[j])),
                        float(ys[j] + w * (ys[j + 1] - ys[j]))))
    return sorted(out, key=lambda r: r[:2])


def reference_windows(rows, robot_id, stride, mode):
    """[(agent_ids, positions, robot_index)] of each window."""
    if not rows:
        return []
    frames = {}
    for f, agent, x, y in rows:
        frames.setdefault(f, {})[agent] = (x, y)
    f_lo, f_hi = min(frames), max(frames)
    span = data.SEQ_LEN if mode == "train" else data.OBS_LEN
    windows = []
    for start in range(f_lo, f_hi - data.SEQ_LEN + 2, stride):
        agents = sorted(
            ag for ag in {a for f in range(start, start + data.SEQ_LEN)
                          for a in frames.get(f, {})}
            if all(ag in frames.get(f, {})
                   for f in range(start, start + span)))
        if not agents:
            continue
        pos = np.full((data.SEQ_LEN, len(agents), 2), np.nan)
        for t in range(data.SEQ_LEN):
            fr = frames.get(start + t, {})
            for i, ag in enumerate(agents):
                if ag in fr:
                    pos[t, i] = fr[ag]
        windows.append((agents, pos, agents.index(robot_id)
                        if robot_id in agents else -1))
    return windows


def random_rows(rng):
    """A scene's rows: 1-6 agents sampled every 1-3 frame ids with jitter,
    some with a gap, on an input period of 0.04 to 0.4 s; and the period."""
    period = float(rng.choice([0.04, 0.1, 0.2, 0.4, rng.uniform(0.04, 0.4)]))
    rows = []
    for agent in rng.choice(50, size=rng.integers(1, 7), replace=False):
        n = int(rng.integers(1, 40))
        frames = rng.integers(0, 60) + rng.integers(1, 4) * np.arange(n)
        frames += (rng.random(n) < 0.2) * rng.integers(-1, 2, n)
        frames = np.unique(frames)
        if rng.random() < 0.3 and len(frames) > 4:
            cut = int(rng.integers(1, len(frames) - 2))
            frames = np.delete(frames, np.s_[cut:cut + rng.integers(1, 8)])
        xy = np.cumsum(rng.normal(0, 0.3, (len(frames), 2)), axis=0)
        rows += [(int(f), int(agent), float(x), float(y))
                 for f, (x, y) in zip(frames, xy)]
    return rows, period


def test_array_preprocessing_matches_per_row_reference():
    """resample and build_windows give the per-row code's bits on 240
    seeded random scenes, in both modes at strides 1 and 3."""
    n_windows = 0
    for seed in range(240):
        rng = np.random.default_rng(seed)
        rows, period = random_rows(rng)
        robot_id = rows[0][1] if rng.random() < 0.5 else None
        scene = data.resample(make_scene(rows, frame_period=period,
                                         robot_id=robot_id), 0.4)
        want = reference_resample(rows, period, 0.4)
        assert np.array(rows_of(scene)).reshape(-1, 4).tobytes() == \
            np.array(want).reshape(-1, 4).tobytes(), seed
        for mode in ("train", "infer"):
            for stride in (1, 3):
                got = data.build_windows(scene, stride, mode)
                ref = reference_windows(want, robot_id, stride, mode)
                assert len(got) == len(ref), (seed, mode, stride)
                for w, (ids, pos, robot_index) in zip(got, ref):
                    assert (w.agent_ids, w.robot_index) == (ids, robot_index)
                    assert w.positions.tobytes() == pos.tobytes(), seed
                n_windows += len(got)
    assert n_windows > 10_000


def window(n=2, frames=20, scene="s"):
    return data.SequenceWindow(list(range(n)), np.zeros((frames, n, 2)),
                               scene=scene)


class TestCheckWindows:
    def test_empty_list(self):
        with pytest.raises(ParameterError, match="^no windows$"):
            data.check_windows([])

    def test_valid_windows_pass(self):
        data.check_windows([window(1), window(3)])

    def test_each_check_names_the_window_by_index(self):
        gap = window(scene="gap")
        gap.positions[15, 1] = np.nan
        cases = [(window(0, scene="void"), EmptyWindowError,
                  "window 1 (scene 'void') has no agents"),
                 (window(frames=12, scene="short"), DimensionError,
                  "window 1 (scene 'short') has 12 frames; the model reads "
                  "seq_len = 20"),
                 (gap, MissingTruthError,
                  "window 1 (scene 'gap') has non-finite positions;")]
        for bad, error, message in cases:
            with pytest.raises(error) as info:
                data.check_windows([window(), bad])
            assert str(info.value).startswith(message)

    def test_first_bad_window_wins(self):
        gap = window(scene="gap")
        gap.positions[3, 0] = np.inf
        with pytest.raises(MissingTruthError, match=r"^window 1 "):
            data.check_windows([window(), gap, window(0)])
        with pytest.raises(EmptyWindowError, match=r"^window 1 "):
            data.check_windows([window(), window(0), gap])
        # in one window: agents, then frames, then positions
        with pytest.raises(EmptyWindowError):
            data.check_windows([window(0, frames=12)])
        gap.positions = np.full((12, 2, 2), np.nan)
        with pytest.raises(DimensionError):
            data.check_windows([gap])

    def test_frames_limits_the_finite_check(self):
        gap = window()
        gap.positions[8:, 0] = np.nan  # unobserved future frames
        data.check_windows([gap], frames=8)
        with pytest.raises(MissingTruthError, match="in its first 9 frames"):
            data.check_windows([window(), gap], frames=9)


class TestDisplacements:
    def test_stationary_agent_all_zero(self):
        pos = np.tile([[2.0, 3.0]], (20, 1)).reshape(20, 1, 2)
        assert np.all(data.to_displacements(pos) == 0)

    def test_constant_velocity_unit_steps(self):
        pos = np.stack([np.arange(20.0), np.zeros(20)], axis=-1)[:, None, :]
        disp = data.to_displacements(pos)
        assert np.all(disp[0, 1:, :] == 1.0)
        assert np.all(disp[:, 0, :] == 0.0)


class TestCache:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        windows = [
            data.SequenceWindow([3, 7], rng.uniform(-5, 5, (20, 2, 2)),
                                scene="eth", robot_index=1),
            data.SequenceWindow([1], rng.uniform(-5, 5, (20, 1, 2)),
                                scene="hotel"),
        ]
        path = tmp_path / "cache.stgw"
        data.save_windows(path, windows)
        loaded = data.load_windows(path)
        assert len(loaded) == 2
        assert loaded[0].agent_ids == [3, 7]
        assert loaded[0].robot_index == 1
        assert loaded[0].scene == "eth"
        assert loaded[1].scene == "hotel"
        # float32 storage
        np.testing.assert_allclose(loaded[0].positions, windows[0].positions,
                                   atol=1e-5)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.stgw"
        p.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(FormatError):
            data.load_windows(p)

    def test_failed_write_leaves_previous_cache(self, tmp_path):
        p = tmp_path / "cache.stgw"
        window = data.SequenceWindow([1], np.zeros((20, 1, 2)), scene="s")
        data.save_windows(p, [window])
        before = p.read_bytes()
        # a window built in code, past Scene's check of the name
        bad = data.SequenceWindow([2], np.ones((20, 1, 2)), scene="\udcff")
        with pytest.raises(UnicodeEncodeError):
            data.save_windows(p, [window, bad])
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["cache.stgw"]

    def test_truncated(self, tmp_path):
        p = tmp_path / "cache.stgw"
        data.save_windows(p, [data.SequenceWindow(
            [1], np.zeros((20, 1, 2)), scene="s")])
        p.write_bytes(p.read_bytes()[:-30])
        with pytest.raises(FormatError):
            data.load_windows(p)

    @staticmethod
    def small_cache(path):
        data.save_windows(path, [
            data.SequenceWindow([1, 2], np.zeros((3, 2, 2)), scene="é"),
            data.SequenceWindow([4], np.ones((2, 1, 2)), scene="s",
                                robot_index=0)])
        return path.read_bytes()

    def test_truncated_at_every_byte(self, tmp_path):
        p = tmp_path / "cache.stgw"
        blob = self.small_cache(p)
        assert len(data.load_windows(p)) == 2
        for cut in range(len(blob)):
            p.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                data.load_windows(p)

    def test_trailing_byte(self, tmp_path):
        p = tmp_path / "cache.stgw"
        p.write_bytes(self.small_cache(p) + b"\0")
        with pytest.raises(FormatError, match="cache.stgw: 1 bytes after"):
            data.load_windows(p)

    def test_scene_name_not_utf8_named(self, tmp_path):
        p = tmp_path / "cache.stgw"
        blob = bytearray(self.small_cache(p))
        blob[-1] = 0xff  # the last byte of window 1's name "s"
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"^\S*cache\.stgw: window 1: "
                                              "scene name is not UTF-8$"):
            data.load_windows(p)

    def test_window_count_one_short(self, tmp_path):
        p = tmp_path / "cache.stgw"
        blob = bytearray(self.small_cache(p))
        blob[5] -= 1  # little-endian window count
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="after the last window"):
            data.load_windows(p)


# ---------------------------------------------------------------------------
# property tests: the window cache and the displacement transform


float32s = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def windows(draw):
    t = draw(st.integers(1, 25))
    n = draw(st.integers(0, 5))
    positions = draw(arrays(np.float32, (t, n, 2), elements=float32s
                            | st.just(np.float32("nan"))))
    return data.SequenceWindow(
        draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n,
                      max_size=n)),
        positions.astype(np.float64),
        scene=draw(st.text(max_size=12)),
        robot_index=draw(st.integers(-1, max(n - 1, -1))))


@settings(max_examples=60, deadline=None)
@given(st.lists(windows(), max_size=4))
def test_window_cache_roundtrip(ws):
    """Any windows of float32-representable positions (NaN included, as in
    an infer-mode cache) read back as they were written."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.stgw"
        data.save_windows(path, ws)
        back = data.load_windows(path)
    assert len(back) == len(ws)
    for got, want in zip(back, ws):
        assert (got.agent_ids, got.scene, got.robot_index) == \
            (want.agent_ids, want.scene, want.robot_index)
        assert got.positions.dtype == np.float64
        np.testing.assert_array_equal(got.positions, want.positions)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 25), st.integers(0, 5),
                                    st.just(2)),
              elements=st.floats(-1e4, 1e4)))
def test_displacements_and_absolute_are_inverses(positions):
    """The first frame's displacement is zero, and the first positions plus
    a cumulative sum of the displacements give back the positions, up to
    its rounding."""
    disp = data.to_displacements(positions)
    assert disp.shape == (2,) + positions.shape[:2]
    assert np.all(disp[:, 0] == 0)
    back = positions[0] + np.cumsum(np.transpose(disp, (1, 2, 0)), axis=0)
    # each frame's position is the origin plus t rounded differences
    tol = 4 * np.finfo(float).eps * positions.shape[0] * 2e4
    np.testing.assert_allclose(back, positions, rtol=0, atol=tol)
    np.testing.assert_allclose(data.to_displacements(back), disp, rtol=0,
                               atol=2 * tol)

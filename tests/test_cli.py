import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from stgcvae import cli, data, model, synthetic, training


def run(argv):
    return cli.main(argv)


@pytest.fixture
def toy_dataset(tmp_path):
    d = tmp_path / "scenes"
    d.mkdir()
    lines = [f"{f} 1 {0.3 * f:.3f} 0.0" for f in range(25)]
    lines += [f"{f} 2 {0.3 * f:.3f} 1.5" for f in range(25)]
    (d / "alpha.txt").write_text("\n".join(lines) + "\n")
    (d / "beta.txt").write_text("\n".join(lines) + "\n")
    return d


class TestPreprocess:
    def test_toy_scene(self, toy_dataset, tmp_path, capsys):
        cache = tmp_path / "cache.stgw"
        assert run(["preprocess", "--input", str(toy_dataset),
                    "--output", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "windows" in out
        windows = data.load_windows(cache)
        assert len(windows) == 12  # (25-20+1) per scene, 2 scenes
        assert {w.scene for w in windows} == {"alpha", "beta"}

    def test_empty_directory_warns_exit_zero(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        cache = tmp_path / "cache.stgw"
        assert run(["preprocess", "--input", str(empty),
                    "--output", str(cache)]) == 0
        assert "no windows" in capsys.readouterr().err

    def test_bad_line_nonzero_named(self, tmp_path, capsys):
        d = tmp_path / "scenes"
        d.mkdir()
        (d / "bad.txt").write_text("0 1 0.0 0.0\nbogus line here\n")
        assert run(["preprocess", "--input", str(d),
                    "--output", str(tmp_path / "c.stgw")]) == 1
        err = capsys.readouterr().err
        assert "bad.txt:2" in err

    def test_missing_input_dir(self, tmp_path):
        assert run(["preprocess", "--input", str(tmp_path / "nope"),
                    "--output", str(tmp_path / "c.stgw")]) == 1

    def test_unencodable_scene_name_keeps_previous_cache(
            self, toy_dataset, tmp_path, capsys):
        cache = tmp_path / "cache.stgw"
        argv = ["preprocess", "--input", str(toy_dataset),
                "--output", str(cache)]
        assert run(argv) == 0
        before = cache.read_bytes()
        # a file name that is not UTF-8 becomes a scene name UTF-8 cannot
        # encode
        (toy_dataset / os.fsdecode(b"\xff.txt")).write_text(
            (toy_dataset / "alpha.txt").read_text())
        capsys.readouterr()
        assert run(argv) == 1
        assert "Scene name '\\udcff' cannot be encoded as UTF-8" \
            in capsys.readouterr().err
        assert cache.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()
                      if p.name.startswith(".")) == []

    @staticmethod
    def robot_log(tmp_path):
        robot = tmp_path / "robot.txt"
        lines = ["#robot_id=99"]
        lines += [f"{f} 99 {0.05 * f:.3f} 0.0" for f in range(0, 100, 4)]
        lines += [f"{f} 5 {0.05 * f:.3f} 2.0" for f in range(0, 100, 4)]
        robot.write_text("\n".join(lines) + "\n")
        return robot

    def test_robot_log_included(self, toy_dataset, tmp_path):
        cache = tmp_path / "cache.stgw"
        assert run(["preprocess", "--input", str(toy_dataset),
                    "--output", str(cache), "--robot-log",
                    str(self.robot_log(tmp_path)), "--robot-rate", "10"]) == 0
        windows = data.load_windows(cache)
        robot_windows = [w for w in windows if w.scene == "robot"]
        assert robot_windows
        assert all(w.robot_index >= 0 for w in robot_windows)

    @pytest.mark.parametrize("stride, digest", [
        ("1", "dc73eb51fb03d34e3ac1cbdaf47fb8dc0aa4767fb65f93389d429e468b067795"),
        ("3", "1faeba582adb21a1ed2729d3fcd24e7aa79b2ecb01858071ef90311b6d1aaf4e")])
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_cache_bytes_pinned(self, toy_dataset, tmp_path, mode, stride,
                                digest):
        """The toy scenes and the robot log give the cache bytes that the
        per-row preprocessing code wrote."""
        cache = tmp_path / "cache.stgw"
        assert run(["preprocess", "--input", str(toy_dataset),
                    "--output", str(cache), "--robot-log",
                    str(self.robot_log(tmp_path)), "--robot-rate", "10",
                    "--mode", mode, "--stride", stride]) == 0
        assert hashlib.sha256(cache.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("flag, value", [
        ("--stride", "0"), ("--stride", "-1"), ("--rate", "0"),
        ("--rate", "-2.5"), ("--rate", "inf"), ("--input-rate", "0"),
        ("--input-rate", "nan"), ("--robot-rate", "1e-320")])
    def test_bad_setting_exits_1_naming_flag(self, toy_dataset, tmp_path,
                                             capsys, flag, value):
        cache = tmp_path / "cache.stgw"
        assert run(["preprocess", "--input", str(toy_dataset),
                    "--output", str(cache), flag, value]) == 1
        assert f"error: {flag} must be " in capsys.readouterr().err
        assert not cache.exists()

    def test_fractional_frame_id_exits_1_naming_line(self, tmp_path, capsys):
        d = tmp_path / "scenes"
        d.mkdir()
        (d / "bad.txt").write_text("10 1 0.0 0.0\n10.5 1 1.0 0.0\n")
        assert run(["preprocess", "--input", str(d),
                    "--output", str(tmp_path / "c.stgw")]) == 1
        assert "bad.txt:2: ids must be integral numbers" in \
            capsys.readouterr().err


@pytest.fixture
def synth_cache(tmp_path):
    cache = tmp_path / "synth.stgw"
    assert run(["gen-synthetic", "--agents", "2", "--windows", "3",
                "--pattern", "const-velocity", "--seed", "1",
                "--out", str(cache)]) == 0
    return cache


@pytest.fixture
def small_config(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=3\nbatch_size=2\nlr_switch_epoch=2\n"
                   "latent_len=4\n")
    return cfg


def train_once(cache, cfg, out_dir, seed=0):
    assert run(["train", "--data", str(cache), "--config", str(cfg),
                "--out", str(out_dir), "--seed", str(seed)]) == 0
    return out_dir / "final.stgc"


class TestTrainCommand:
    def test_smoke_run_writes_metrics(self, synth_cache, small_config,
                                      tmp_path, capsys):
        ckpt = train_once(synth_cache, small_config, tmp_path / "run")
        assert ckpt.exists()
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,step,total,rec,kl,w_kl"
        assert {int(l.split(",")[0]) for l in lines[1:]} == {0, 1, 2}

    def test_seed_determinism_digest(self, synth_cache, small_config,
                                     tmp_path):
        c1 = train_once(synth_cache, small_config, tmp_path / "a", seed=3)
        c2 = train_once(synth_cache, small_config, tmp_path / "b", seed=3)
        d1 = hashlib.sha256(c1.read_bytes()).hexdigest()
        d2 = hashlib.sha256(c2.read_bytes()).hexdigest()
        assert d1 == d2

    def test_one_pass_per_window_and_batch_mean_rows(
            self, small_config, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "five.stgw"
        data.save_windows(cache, synthetic.make_corpus(
            "turn", 2, 5, seed=2))
        reports = []
        inner = training.chunk_gradients

        def counted(model_, windows, *args, **kwargs):
            grad, chunk_reports = inner(model_, windows, *args, **kwargs)
            assert len(chunk_reports) == len(windows)
            reports.extend(chunk_reports)
            return grad, chunk_reports

        monkeypatch.setattr(training, "chunk_gradients", counted)
        train_once(cache, small_config, tmp_path / "run")
        assert len(reports) == 5 * 3  # windows x epochs, nothing more

        # batch_size 2 over 5 windows: batches of 2, 2, 1 per epoch
        batches = [reports[e * 5:][a:b] for e in range(3)
                   for a, b in ((0, 2), (2, 4), (4, 5))]
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        rows = [[float(v) for v in l.split(",")] for l in lines[1:]]
        assert len(rows) == len(batches)
        for row, batch in zip(rows, batches):
            for col, field in ((3, "rec"), (4, "kl")):
                assert row[col] == pytest.approx(
                    np.mean([getattr(r, field) for r in batch]), rel=1e-12)
            assert row[2] == pytest.approx(row[3] + row[5] * row[4],
                                           rel=1e-12)

        # the printed line is the mean over the epoch's windows
        out = capsys.readouterr().out
        last = [l for l in out.splitlines() if l.startswith("epoch 2:")][0]
        rec = float(last.split("rec=")[1].split()[0])
        assert rec == pytest.approx(np.mean([r.rec for r in reports[10:]]),
                                    abs=1e-4)

    def test_non_finite_cache_rejected_before_training(
            self, synth_cache, small_config, tmp_path, capsys):
        # an unobserved future frame, as an infer-mode cache holds it
        windows = data.load_windows(synth_cache)
        windows[1].positions[15, 0] = np.nan
        cache = tmp_path / "gaps.stgw"
        data.save_windows(cache, windows)
        assert run(["train", "--data", str(cache), "--config",
                    str(small_config), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert "window 1 (scene 'const-velocity') has non-finite positions" \
            in captured.err
        assert "epoch" not in captured.out
        assert not (tmp_path / "o" / "final.stgc").exists()

    def test_held_out_window_without_agents_fails_before_training(
            self, small_config, tmp_path, capsys):
        # the empty window is the held-out scene's third, the cache's sixth
        cache = tmp_path / "mixed.stgw"
        data.save_windows(cache, synthetic.make_corpus(
            "const-velocity", 2, 3, seed=0) + synthetic.make_corpus(
            "stop", 2, 2, seed=1) + synthetic.make_corpus("stop", 0, 1,
                                                          seed=2))
        cfg = tmp_path / "val.cfg"
        cfg.write_text(small_config.read_text() + "val_every=1\n")
        assert run(["train", "--data", str(cache), "--config", str(cfg),
                    "--holdout", "stop", "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert "window 5 (scene 'stop') has no agents" in captured.err
        assert "epoch 0:" not in captured.out
        assert not (tmp_path / "o" / "final.stgc").exists()

    def test_missing_cache(self, small_config, tmp_path):
        assert run(["train", "--data", str(tmp_path / "nope.stgw"),
                    "--config", str(small_config),
                    "--out", str(tmp_path / "o")]) == 1

    def test_unknown_holdout(self, synth_cache, small_config, tmp_path):
        assert run(["train", "--data", str(synth_cache),
                    "--config", str(small_config), "--holdout", "mars",
                    "--out", str(tmp_path / "o")]) == 1

    def test_failed_run_keeps_the_previous_log(self, synth_cache,
                                               small_config, tmp_path):
        """A train that fails into an --out of an earlier run leaves that
        run's metrics.csv beside its final.stgc, byte for byte."""
        out = tmp_path / "run"
        train_once(synth_cache, small_config, out)
        kept = {p.name: p.read_bytes() for p in out.iterdir()}
        assert {"metrics.csv", "final.stgc"} <= set(kept)
        cache = tmp_path / "empty.stgw"
        data.save_windows(cache, synthetic.make_corpus(
            "const-velocity", 0, 3, seed=0))
        assert run(["train", "--data", str(cache), "--config",
                    str(small_config), "--out", str(out)]) == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == kept

    def test_cache_without_agents_exits_1(self, small_config, tmp_path,
                                          capsys):
        cache = tmp_path / "empty.stgw"
        data.save_windows(cache, synthetic.make_corpus(
            "const-velocity", 0, 3, seed=0))
        assert run(["train", "--data", str(cache), "--config",
                    str(small_config), "--out", str(tmp_path / "o")]) == 1
        assert "window 0 (scene 'const-velocity') has no agents" \
            in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_window_without_agents_among_others_exits_1(
            self, synth_cache, small_config, tmp_path, capsys):
        # training no longer skips such a window: it names it by its index
        windows = data.load_windows(synth_cache)
        windows.insert(2, data.SequenceWindow([], np.zeros((20, 0, 2)),
                                              scene="void"))
        cache = tmp_path / "void.stgw"
        data.save_windows(cache, windows)
        out = tmp_path / "o"
        assert run(["train", "--data", str(cache), "--config",
                    str(small_config), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: window 2 (scene 'void') has no agents" in captured.err
        assert "epoch" not in captured.out and not out.exists()


class TestUserErrors:
    """Bad flags and paths exit 1 with a typed error, before anything is
    written."""

    @pytest.mark.parametrize("command", ["train", "train-config", "evaluate",
                                         "predict", "gen-synthetic"])
    def test_negative_seed_exits_1(self, synth_cache, small_config, tmp_path,
                                   capsys, command):
        out = tmp_path / "out"
        ckpt = train_once(synth_cache, small_config, tmp_path / "run") \
            if command in ("evaluate", "predict") else None
        seeded = tmp_path / "seeded.cfg"
        seeded.write_text(small_config.read_text() + "seed = -3\n")
        argv = {
            "train": ["train", "--data", synth_cache, "--config",
                      small_config, "--out", out, "--seed", "-1"],
            "train-config": ["train", "--data", synth_cache, "--config",
                             seeded, "--out", out],
            "evaluate": ["evaluate", "--ckpt", ckpt, "--data", synth_cache,
                         "--seed", "-1"],
            "predict": ["predict", "--ckpt", ckpt, "--data", synth_cache,
                        "--out", out, "--seed", "-1"],
            "gen-synthetic": ["gen-synthetic", "--out", out, "--seed", "-1"],
        }[command]
        capsys.readouterr()
        assert run([str(a) for a in argv]) == 1
        captured = capsys.readouterr()
        assert ("error: seed must be >= 0" if command == "train-config"
                else "error: --seed must be >= 0, got -1") in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("evaluate", "--data"), ("evaluate", "--ckpt"), ("train", "--data"),
        ("train", "--config"), ("train", "--out"), ("predict", "--out"),
        ("gen-synthetic", "--out")])
    def test_directory_or_file_in_the_wrong_place_exits_1(
            self, synth_cache, small_config, tmp_path, capsys, command, flag):
        ckpt = train_once(synth_cache, small_config, tmp_path / "run") \
            if command in ("evaluate", "predict") else None
        argv = {
            "evaluate": {"--ckpt": ckpt, "--data": synth_cache},
            "train": {"--data": synth_cache, "--config": small_config,
                      "--out": tmp_path / "o"},
            "predict": {"--ckpt": ckpt, "--data": synth_cache,
                        "--out": tmp_path / "preds.csv"},
            "gen-synthetic": {"--out": tmp_path / "c.stgw"},
        }[command]
        # a directory where a file is expected; train's --out is a
        # directory, so there a file
        wrong = tmp_path / "wrong"
        if (command, flag) == ("train", "--out"):
            wrong.write_text("kept\n")
        else:
            wrong.mkdir()
        argv[flag] = wrong
        capsys.readouterr()
        assert run([command] + [str(a) for kv in argv.items()
                                for a in kv]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert wrong.is_dir() or wrong.read_text() == "kept\n"
        assert list(tmp_path.rglob(".*.tmp")) == []

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    def test_empty_cache_exits_1(self, synth_cache, small_config, tmp_path,
                                 capsys, command):
        ckpt = train_once(synth_cache, small_config, tmp_path / "run") \
            if command != "train" else None
        cache = tmp_path / "none.stgw"
        data.save_windows(cache, [])
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--data", cache, "--config", small_config,
                      "--out", out],
            "evaluate": ["evaluate", "--ckpt", ckpt, "--data", cache],
            "predict": ["predict", "--ckpt", ckpt, "--data", cache,
                        "--out", out],
        }[command]
        capsys.readouterr()
        assert run([str(a) for a in argv]) == 1
        assert capsys.readouterr() == ("", "error: no windows\n")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["annotations", "robot-log", "config",
                                        "sidecar"])
    def test_text_that_is_not_utf8_exits_1_naming_line(
            self, toy_dataset, synth_cache, small_config, tmp_path, capsys,
            source):
        bad = b"# caf\xe9 (Latin-1)\n"
        out = tmp_path / "out"
        if source in ("annotations", "robot-log"):
            text = tmp_path / "scenes" / "gamma.txt" if source == \
                "annotations" else tmp_path / "robot.txt"
            text.write_bytes(b"0 1 0.0 0.0\n" + bad + b"1 1 0.1 0.0\n")
            argv = ["preprocess", "--input", toy_dataset, "--output", out]
            if source == "robot-log":
                argv += ["--robot-log", text]
            line = 2
        elif source == "config":
            text = tmp_path / "bad.cfg"
            text.write_bytes(small_config.read_bytes() + bad)
            argv = ["train", "--data", synth_cache, "--config", text,
                    "--out", out]
            line = 5
        else:
            ckpt = train_once(synth_cache, small_config, tmp_path / "run")
            text = Path(f"{ckpt}.meta")
            line = text.read_bytes().count(b"\n") + 1
            text.write_bytes(text.read_bytes() + bad)
            argv = ["evaluate", "--ckpt", ckpt, "--data", synth_cache]
        capsys.readouterr()
        assert run([str(a) for a in argv]) == 1
        assert capsys.readouterr().err == \
            f"error: {text}:{line}: not UTF-8 text\n"
        assert not out.exists()

    @pytest.mark.parametrize("alone", [True, False])
    def test_train_window_of_the_wrong_length_exits_1(
            self, synth_cache, small_config, tmp_path, capsys, alone):
        # with three 2-agent windows the short one shares their chunk
        window = synthetic.make_window("turn", 2, np.random.default_rng(0))
        short = data.SequenceWindow(window.agent_ids, window.positions[:12],
                                    scene="short")
        before = [] if alone else data.load_windows(synth_cache)
        cache = tmp_path / "short.stgw"
        data.save_windows(cache, before + [short])
        out = tmp_path / "o"
        assert run(["train", "--data", str(cache), "--config",
                    str(small_config), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"error: window {len(before)} (scene 'short') has 12 " \
            "frames; the model reads seq_len = 20" in captured.err
        assert "epoch" not in captured.out and not out.exists()


class TestTrainConfigFile:
    def config(self, tmp_path, text, name="train.cfg"):
        cfg = tmp_path / name
        cfg.write_text(text)
        return cfg

    @pytest.mark.parametrize("line, named", [
        ("epochs=2.5", "train.cfg:2: epochs"),
        ("lr_initial=abc", "train.cfg:2: lr_initial"),
        ("val_every=0", "val_every must be >= 1"),
        ("dropout=-0.5", "dropout must be in [0, 1)"),
        ("dropout=1.0", "dropout must be in [0, 1)"),
        ("lr_initial=-0.01", "lr_initial must be positive"),
        ("lr_after=0", "lr_after must be positive"),
        ("lr_switch_epoch=-3", "lr_switch_epoch must be in [0, epochs)"),
        # fixed by the model's inputs and outputs, not configurable
        ("in_channels=2", "train.cfg:2: unknown key 'in_channels'"),
        ("out_channels=5", "train.cfg:2: unknown key 'out_channels'"),
        ("tcn_kernel=3", "train.cfg:2: unknown key 'tcn_kernel'"),
        # the 8 + 12 frame horizon is data.OBS_LEN and data.SEQ_LEN
        ("obs_len=8", "train.cfg:2: unknown key 'obs_len'"),
        ("seq_len=20", "train.cfg:2: unknown key 'seq_len'"),
    ])
    def test_bad_value_exits_1_naming_it(self, synth_cache, tmp_path, capsys,
                                         line, named):
        cfg = self.config(tmp_path, f"batch_size=2\n{line}\n")
        assert run(["train", "--data", str(synth_cache), "--config",
                    str(cfg), "--holdout", "const-velocity",
                    "--out", str(tmp_path / "o")]) == 1
        assert named in capsys.readouterr().err

    def test_epochs_alone_trains(self, synth_cache, tmp_path):
        cfg = self.config(tmp_path, "epochs=10\n")
        assert run(["train", "--data", str(synth_cache), "--config",
                    str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_file_seed_used_unless_flag_given(self, synth_cache, tmp_path):
        seeded = self.config(tmp_path, "epochs=2\nseed=7\n", "seeded.cfg")
        plain = self.config(tmp_path, "epochs=2\n", "plain.cfg")
        assert run(["train", "--data", str(synth_cache), "--config",
                    str(seeded), "--out", str(tmp_path / "file")]) == 0
        flag = train_once(synth_cache, plain, tmp_path / "flag", seed=7)
        from_file = tmp_path / "file" / "final.stgc"
        assert from_file.read_bytes() == flag.read_bytes()
        assert "seed=7\n" in Path(f"{from_file}.meta").read_text()
        # the flag wins over the file
        over = train_once(synth_cache, seeded, tmp_path / "over", seed=3)
        assert "seed=3\n" in Path(f"{over}.meta").read_text()

    def test_model_keys_reach_checkpoint_and_bench(self, synth_cache,
                                                   tmp_path, capsys):
        cfg = self.config(tmp_path, "feature_scale = 4\nlatent_len = 8\n"
                                    "epochs = 2\n")
        ckpt = train_once(synth_cache, cfg, tmp_path / "run")
        meta = Path(f"{ckpt}.meta").read_text().splitlines()
        assert "feature_scale=4.0" in meta and "latent_len=8" in meta
        capsys.readouterr()
        assert run(["bench", "--ckpt", str(ckpt), "--reps", "2"]) == 0
        want = model.TrajCvae(model.ModelConfig(latent_len=8)).params.count_params()
        assert f"param_count = {want}" in capsys.readouterr().out


class TestEvaluateCommand:
    def test_bad_sidecar_value_exits_1(self, synth_cache, small_config,
                                       tmp_path, capsys):
        ckpt = train_once(synth_cache, small_config, tmp_path / "run")
        meta = Path(f"{ckpt}.meta")
        meta.write_text(meta.read_text().replace("latent_len=4",
                                                 "latent_len=abc"))
        capsys.readouterr()
        assert run(["evaluate", "--ckpt", str(ckpt), "--data",
                    str(synth_cache), "--k", "2"]) == 1
        err = capsys.readouterr().err
        assert "final.stgc.meta: latent_len: expected a finite int" in err

    def test_missing_sidecar_exits_1(self, synth_cache, small_config,
                                     tmp_path, capsys):
        ckpt = train_once(synth_cache, small_config, tmp_path / "run")
        Path(f"{ckpt}.meta").unlink()
        capsys.readouterr()
        assert run(["evaluate", "--ckpt", str(ckpt), "--data",
                    str(synth_cache), "--k", "2"]) == 1
        assert f"error: {ckpt}.meta: missing" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", ["entry_count", "latent_len",
                                         "trailing_byte"])
    def test_bad_checkpoint_exits_1_naming_it(self, synth_cache, small_config,
                                              tmp_path, capsys, corrupt):
        ckpt = train_once(synth_cache, small_config, tmp_path / "run")
        blob = bytearray(ckpt.read_bytes())
        meta = Path(f"{ckpt}.meta")
        if corrupt == "entry_count":
            blob[5] -= 1  # little-endian entry count
        elif corrupt == "latent_len":
            meta.write_text(meta.read_text().replace("latent_len=4",
                                                     "latent_len=5"))
        else:
            blob += b"\0"
        ckpt.write_bytes(bytes(blob))
        capsys.readouterr()
        assert run(["evaluate", "--ckpt", str(ckpt), "--data",
                    str(synth_cache), "--k", "2"]) == 1
        assert f"error: {ckpt}: " in capsys.readouterr().err

    def test_report_is_deterministic(self, synth_cache, small_config,
                                     tmp_path, capsys):
        ckpt = train_once(synth_cache, small_config, tmp_path / "run")
        outs = []
        for _ in range(2):
            capsys.readouterr()
            assert run(["evaluate", "--ckpt", str(ckpt), "--data",
                        str(synth_cache), "--k", "3"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and "ade = " in outs[0]

    def test_report_and_export(self, synth_cache, small_config, tmp_path,
                               capsys):
        ckpt = train_once(synth_cache, small_config, tmp_path / "run")
        assert run(["evaluate", "--ckpt", str(ckpt), "--data",
                    str(synth_cache), "--k", "4", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "param_count" in out and "ade = " in out
        export = tmp_path / "preds.csv"
        assert run(["predict", "--ckpt", str(ckpt), "--data",
                    str(synth_cache), "--k", "4", "--seed", "0",
                    "--out", str(export)]) == 0
        lines = export.read_text().splitlines()
        assert lines[0] == "window_id,agent_id,frame,sample_id,x,y"
        ids = {int(l.split(",")[3]) for l in lines[1:]}
        assert ids == {-1, 0, 1, 2, 3}

    def test_infer_mode_cache_exits_1(self, toy_dataset, synth_cache,
                                      small_config, tmp_path, capsys):
        ckpt = train_once(synth_cache, small_config, tmp_path / "run")
        cache = tmp_path / "infer.stgw"
        (toy_dataset / "alpha.txt").write_text(
            "\n".join(f"{f} 1 {0.3 * f:.3f} 0.0" for f in range(25))
            + "\n" + "\n".join(f"{f} 2 {0.3 * f:.3f} 1.5" for f in range(12))
            + "\n")
        assert run(["preprocess", "--input", str(toy_dataset),
                    "--output", str(cache), "--mode", "infer"]) == 0
        capsys.readouterr()
        assert run(["evaluate", "--ckpt", str(ckpt), "--data", str(cache),
                    "--k", "2"]) == 1
        captured = capsys.readouterr()
        assert "window 0 " in captured.err and "non-finite" in captured.err
        assert "ade" not in captured.out

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_window_without_agents_exits_1(self, synth_cache, small_config,
                                           tmp_path, capsys, command):
        ckpt = train_once(synth_cache, small_config, tmp_path / "run")
        cache = tmp_path / "empty.stgw"
        windows = data.load_windows(synth_cache)
        windows.insert(1, data.SequenceWindow([], np.zeros((20, 0, 2)),
                                              scene="void"))
        data.save_windows(cache, windows)
        argv = [command, "--ckpt", str(ckpt), "--data", str(cache),
                "--k", "2"]
        if command == "predict":
            argv += ["--out", str(tmp_path / "preds.csv")]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "error: window 1 (scene 'void') has no agents" in err

    def test_predict_with_non_finite_observed_position_exits_1(
            self, synth_cache, small_config, tmp_path, capsys):
        # without the check, the NaN reaches every agent through the
        # adjacency and every sample row reads nan,nan
        ckpt = train_once(synth_cache, small_config, tmp_path / "run")
        window = synthetic.make_window("turn", 3, np.random.default_rng(0))
        window.positions[3, 1] = np.nan
        cache = tmp_path / "gap.stgw"
        data.save_windows(cache, [window])
        export = tmp_path / "preds.csv"
        capsys.readouterr()
        assert run(["predict", "--ckpt", str(ckpt), "--data", str(cache),
                    "--k", "2", "--out", str(export)]) == 1
        err = capsys.readouterr().err
        assert "error: window 0 (scene 'turn') has non-finite positions " \
            "in its first 8 frames" in err
        assert not export.exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_window_of_the_wrong_length_exits_1(self, synth_cache,
                                                small_config, tmp_path,
                                                capsys, command):
        ckpt = train_once(synth_cache, small_config, tmp_path / "run")
        window = synthetic.make_window("turn", 2, np.random.default_rng(0))
        cache = tmp_path / "short.stgw"
        data.save_windows(cache, [data.SequenceWindow(
            window.agent_ids, window.positions[:12], scene="short")])
        export = tmp_path / "preds.csv"
        argv = [command, "--ckpt", str(ckpt), "--data", str(cache),
                "--k", "2"]
        if command == "predict":
            argv += ["--out", str(export)]
        capsys.readouterr()
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert "error: window 0 (scene 'short') has 12 frames; the model " \
            "reads seq_len = 20" in captured.err
        assert "ade" not in captured.out and not export.exists()

    def test_rejected_predict_keeps_previous_file(self, synth_cache,
                                                  small_config, tmp_path,
                                                  capsys):
        ckpt = train_once(synth_cache, small_config, tmp_path / "run")
        export = tmp_path / "preds.csv"
        argv = ["predict", "--ckpt", str(ckpt), "--data", str(synth_cache),
                "--out", str(export)]
        assert run(argv + ["--k", "2"]) == 0
        before = export.read_bytes()
        capsys.readouterr()
        assert run(argv + ["--k", "0"]) == 1
        assert "k must be >= 1" in capsys.readouterr().err
        assert export.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()
                      if p.name.startswith(".")) == []

    def test_k1_vs_k20_statistical_ordering(self, small_config, tmp_path,
                                            capsys):
        cache = tmp_path / "big.stgw"
        data.save_windows(cache, synthetic.make_corpus(
            "const-velocity", 2, 100, seed=4))
        ckpt = train_once(cache, small_config, tmp_path / "run")

        def ade_of(k):
            assert run(["evaluate", "--ckpt", str(ckpt), "--data", str(cache),
                        "--k", str(k), "--seed", "0"]) == 0
            out = capsys.readouterr().out
            return float([l for l in out.splitlines()
                          if l.startswith("ade")][0].split("=")[1])

        assert ade_of(20) <= ade_of(1) * 1.05


class TestBenchCommand:
    def test_latency_and_param_count(self, synth_cache, small_config,
                                     tmp_path, capsys):
        ckpt = train_once(synth_cache, small_config, tmp_path / "run")
        assert run(["bench", "--ckpt", str(ckpt), "--agents", "3",
                    "--reps", "20"]) == 0
        out = capsys.readouterr().out
        assert "latency_mean_s" in out and "param_count" in out

    def test_variable_agent_counts(self, synth_cache, small_config, tmp_path):
        ckpt = train_once(synth_cache, small_config, tmp_path / "run")
        for agents in ("1", "12"):
            assert run(["bench", "--ckpt", str(ckpt), "--agents", agents,
                        "--reps", "5"]) == 0

    @pytest.mark.parametrize("flag", ["--agents", "--reps"])
    def test_count_below_one_exits_1(self, synth_cache, small_config,
                                     tmp_path, capsys, flag):
        ckpt = train_once(synth_cache, small_config, tmp_path / "run")
        argv = ["bench", "--ckpt", str(ckpt), "--agents", "3", "--reps", "3"]
        argv[argv.index(flag) + 1] = "0"
        capsys.readouterr()
        assert run(argv) == 1
        assert f"error: {flag} must be >= 1, got 0" in capsys.readouterr().err

    def test_latent_sweep_param_ordering(self, synth_cache, tmp_path, capsys):
        counts = {}
        for latent in (4, 8):
            cfg = tmp_path / f"cfg{latent}"
            cfg.write_text(f"epochs=2\nbatch_size=2\nlr_switch_epoch=1\n"
                           f"latent_len={latent}\n")
            ckpt = train_once(synth_cache, cfg, tmp_path / f"run{latent}")
            assert run(["bench", "--ckpt", str(ckpt), "--reps", "3"]) == 0
            out = capsys.readouterr().out
            counts[latent] = int([l for l in out.splitlines()
                                  if l.startswith("param_count")][0]
                                 .split("=")[1])
        assert counts[4] < counts[8]


class TestGenSynthetic:
    @pytest.mark.parametrize("flag,value", [
        ("--agents", "-1"), ("--agents", "0"), ("--windows", "0")])
    def test_count_below_one_exits_1(self, tmp_path, capsys, flag, value):
        cache = tmp_path / "c.stgw"
        assert run(["gen-synthetic", flag, value, "--out", str(cache)]) == 1
        assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err
        assert not cache.exists()

    def test_const_velocity_displacements(self, tmp_path):
        cache = tmp_path / "c.stgw"
        assert run(["gen-synthetic", "--pattern", "const-velocity",
                    "--agents", "1", "--windows", "1", "--seed", "2",
                    "--out", str(cache)]) == 0
        w = data.load_windows(cache)[0]
        steps = np.diff(w.positions[:, 0, :], axis=0)
        # constant displacement up to jitter (std 0.02 per coordinate)
        assert np.std(steps, axis=0).max() < 0.1

    def test_seed_determinism(self, tmp_path):
        caches = []
        for name in ("a", "b"):
            cache = tmp_path / f"{name}.stgw"
            run(["gen-synthetic", "--pattern", "turn", "--seed", "5",
                 "--out", str(cache)])
            caches.append(cache.read_bytes())
        assert caches[0] == caches[1]

    def test_turn_geometry(self, tmp_path):
        cache = tmp_path / "t.stgw"
        run(["gen-synthetic", "--pattern", "turn", "--agents", "1",
             "--windows", "5", "--seed", "3", "--out", str(cache)])
        for w in data.load_windows(cache):
            p = w.positions[:, 0, :]
            before = p[9] - p[8]
            after = p[11] - p[10]
            cosang = np.dot(before, after) / (
                np.linalg.norm(before) * np.linalg.norm(after))
            angle = np.degrees(np.arccos(np.clip(cosang, -1, 1)))
            assert angle == pytest.approx(90, abs=25)  # jitter slack

    def test_stop_pattern(self, tmp_path):
        cache = tmp_path / "s.stgw"
        run(["gen-synthetic", "--pattern", "stop", "--agents", "1",
             "--windows", "1", "--seed", "1", "--out", str(cache)])
        w = data.load_windows(cache)[0]
        tail = np.diff(w.positions[12:, 0, :], axis=0)
        assert np.abs(tail).max() < 0.1

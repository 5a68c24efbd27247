import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from polydrive import bench, cli, dataset, model
from polydrive.cli import config_hash, load_config, main, parse_config_text


class _Stop(Exception):
    """Raised by a stub to end a command once it has seen its arguments."""


class TestConfigParsing:
    def test_key_value_and_comments(self):
        cfg = parse_config_text(
            """
            # comment line
            town = train        # trailing comment
            episodes = 4
            duration = 20.5
            expert = true
            kinds = "straight,one_turn"
            """
        )
        assert cfg == {
            "town": "train",
            "episodes": 4,
            "duration": 20.5,
            "expert": True,
            "kinds": "straight,one_turn",
        }

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("no equals sign here")

    def test_overrides_win(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("episodes = 4\ntown = train\n")
        cfg = load_config(str(p), ["episodes = 9"], seed=7)
        assert cfg["episodes"] == 9
        assert cfg["town"] == "train"
        assert cfg["seed"] == 7

    def test_hash_is_order_insensitive(self):
        a = config_hash({"x": 1, "y": 2})
        b = config_hash({"y": 2, "x": 1})
        assert a == b and len(a) == 12


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main([]) == 1

    def test_missing_out_is_1(self, capsys):
        assert main(["record"]) == 1

    def test_missing_input_file_is_2(self, tmp_path, capsys):
        rc = main(
            ["train", "--out", str(tmp_path / "m.npz"),
             f"train = \"{tmp_path}/missing.jsonl\"",
             f"val = \"{tmp_path}/missing.jsonl\""]
        )
        assert rc == 2

    def test_missing_required_key_is_1(self, tmp_path, capsys):
        rc = main(["augment", "--out", str(tmp_path / "a.jsonl")])
        assert rc == 1

    def test_bad_config_file_is_1(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("not a key value line")
        rc = main(["record", "--config", str(p), "--out", str(tmp_path / "d")])
        assert rc == 1

    @pytest.mark.parametrize(
        "command, setting",
        [
            ("record", "episodes = abc"),
            ("record", "episodes = 0"),
            ("record", "episodes = Infinity"),
            ("record", "duration = -5"),
            ("record", "duration = NaN"),
            ("train", "batch_size = 0"),
            ("train", "batch_size = 1e999"),
            ("train", "epochs = x"),
            ("train", "epochs = -1"),
            ("augment", "fraction = abc"),
            ("augment", "mode = bogus"),
            # Booleans are JSON true or false only: bool("False") is True.
            ("train", "neighbor_loss = False"),
            ("train", "neighbor_loss = no"),
            ("train", 'neighbor_loss = "false"'),
            ("train", "neighbor_loss = 0"),
            ("eval-closedloop", "expert = no"),
            ("eval-closedloop", "expert = False"),
            ("eval-closedloop", "expert = 1"),
            ("augment", "fraction = 2"),
            ("augment", "fraction = -0.5"),
            ("augment", "p_remove = 1.5"),
            ("augment", "p_add = -1"),
            ("augment", "sigma_long = -1"),
            ("augment", "sigma_lat = -0.1"),
            ("eval-closedloop", "p_remove = 5"),
            ("eval-closedloop", "p_add = -1"),
            ("eval-closedloop", "sigma_long = -1"),
            ("eval-closedloop", "sigma_lat = NaN"),
            ("eval-closedloop", "kinds = 5"),
            ("eval-closedloop", "kinds = [1]"),
        ],
    )
    def test_bad_config_value_is_1(self, command, setting, tmp_path, capsys):
        # Checked before any input is read or output is written.
        inputs = [
            'train = "t.jsonl"', 'val = "v.jsonl"', 'input = "i.jsonl"', 'checkpoint = "c.npz"'
        ]
        rc = main([command, "--out", str(tmp_path / "out"), setting, *inputs])
        assert rc == 1
        err = capsys.readouterr().err
        key = setting.split()[0]
        assert err.startswith(f"polydrive {command}: config key {key!r} must be ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_kind_is_1(self, tmp_path, capsys):
        rc = main(
            ["eval-closedloop", "--out", str(tmp_path / "out"),
             'checkpoint = "c.npz"', "kinds = straight,warp_drive,bogus"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "polydrive eval-closedloop: unknown task kinds: ['bogus', 'warp_drive']\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting, value", [("false", False), ("true", True), (None, True)])
    def test_neighbor_loss_reaches_train_config(self, setting, value, monkeypatch, tmp_path):
        seen = []

        def fake_train(train_samples, val_samples, config, log_fn=None):
            seen.append(config)
            raise _Stop

        monkeypatch.setattr(dataset, "read_dataset", lambda path: ([], {}))
        monkeypatch.setattr(model, "train", fake_train)
        extra = [] if setting is None else [f"neighbor_loss = {setting}"]
        with pytest.raises(_Stop):
            main(["train", "--out", str(tmp_path / "m.npz"), 'train = "t"', 'val = "v"', *extra])
        assert seen[0].neighbor_loss is value

    @pytest.mark.parametrize("setting, value", [("false", False), ("true", True), (None, False)])
    def test_expert_reaches_drive_task(self, setting, value, monkeypatch, tmp_path):
        seen = []

        def fake_drive_task(*args, expert, **kwargs):
            seen.append(expert)
            raise _Stop

        monkeypatch.setattr(bench, "drive_task", fake_drive_task)
        model.save_checkpoint(model.init_params(0), tmp_path / "m.npz")
        extra = [] if setting is None else [f"expert = {setting}"]
        with pytest.raises(_Stop):
            main(
                ["eval-closedloop", "--out", str(tmp_path / "cl"), "kinds = straight",
                 f'checkpoint = "{tmp_path}/m.npz"', *extra]
            )
        assert seen[0] is value

    def test_unknown_town_is_2(self, tmp_path, capsys):
        rc = main(["record", "--out", str(tmp_path / "d"), "town = eval"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "polydrive record: unknown town 'eval'\n"


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(
        ["record", "--seed", "3", "--out", str(out),
         "episodes = 2", "duration = 8.0"]
    )
    assert rc == 0
    return out


class TestPipeline:
    def test_record_outputs(self, tiny_dataset):
        train, ht = dataset.read_dataset(tiny_dataset / "train.jsonl")
        val, hv = dataset.read_dataset(tiny_dataset / "val.jsonl")
        assert len(train) > 0 and len(val) > 0
        assert ht["split"] == "train" and hv["split"] == "val"
        assert ht["config_hash"] == hv["config_hash"]

    def test_record_deterministic(self, tiny_dataset, tmp_path):
        rc = main(
            ["record", "--seed", "3", "--out", str(tmp_path),
             "episodes = 2", "duration = 8.0"]
        )
        assert rc == 0
        for name in ("train.jsonl", "val.jsonl"):
            h1 = hashlib.sha256((tiny_dataset / name).read_bytes()).hexdigest()
            h2 = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert h1 == h2

    def test_augment_train_eval(self, tiny_dataset, tmp_path, capsys):
        aug = tmp_path / "aug.jsonl"
        rc = main(
            ["augment", "--seed", "1", "--out", str(aug),
             f'input = "{tiny_dataset}/train.jsonl"',
             "mode = full", "fraction = 0.5"]
        )
        assert rc == 0
        ckpt = tmp_path / "m.npz"
        rc = main(
            ["train", "--seed", "0", "--out", str(ckpt),
             f'train = "{aug}"', f'val = "{tiny_dataset}/val.jsonl"',
             "epochs = 1", "learning_rate = 0.0003"]
        )
        assert rc == 0
        assert ckpt.exists() and (tmp_path / "m.npz.history.json").exists()
        rc = main(
            ["eval-offline", "--out", str(tmp_path / "mae.json"),
             f'checkpoint = "{ckpt}"', f'data = "{tiny_dataset}/val.jsonl"']
        )
        assert rc == 0
        block = json.loads((tmp_path / "mae.json").read_text())
        assert set(block["mae"]) >= {"ego", "ego_2s", "neighbors", "neighbors_2s"}

    def test_one_episode_recording_trains(self, tmp_path, capsys):
        # One episode goes wholly to the train split, so val is empty.
        rc = main(
            ["record", "--seed", "4", "--out", str(tmp_path),
             "episodes = 1", "duration = 8.0"]
        )
        assert rc == 0
        val, _ = dataset.read_dataset(tmp_path / "val.jsonl")
        assert val == []
        capsys.readouterr()
        rc = main(
            ["train", "--seed", "0", "--out", str(tmp_path / "m.npz"),
             f'train = "{tmp_path}/train.jsonl"', f'val = "{tmp_path}/val.jsonl"',
             "epochs = 1"]
        )
        assert rc == 0
        assert (tmp_path / "m.npz").exists()
        assert "epoch   0  train" in capsys.readouterr().out

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        text = (tmp_path / "m.npz.history.json").read_text()
        (rec,) = json.loads(text, parse_constant=reject)["history"]
        assert rec["val_loss"] is None
        assert rec["train_loss"] > 0

    def test_corrupt_checkpoint_is_2(self, tiny_dataset, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not a checkpoint")
        rc = main(
            ["eval-offline", f'checkpoint = "{bad}"',
             f'data = "{tiny_dataset}/val.jsonl"']
        )
        assert rc == 2


@pytest.fixture(scope="module")
def expert_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cl")
    rc = main(
        ["eval-closedloop", "--seed", "2", "--out", str(out),
         "expert = true", "kinds = straight", "suite_seed = 2"]
    )
    assert rc == 0
    return out


class TestClosedLoopAndReport:
    def test_outputs_exist(self, expert_run):
        assert (expert_run / "report.json").exists()
        assert (expert_run / "report.txt").exists()
        traces = list((expert_run / "traces").glob("*.jsonl"))
        assert len(traces) == 25

    def test_report_recompute_matches(self, expert_run, tmp_path, capsys):
        rc = main(
            ["report", "--seed", "2", "--out", str(tmp_path),
             f'traces = "{expert_run}/traces"']
        )
        assert rc == 0
        a = json.loads((expert_run / "report.json").read_text())
        b = json.loads((tmp_path / "report.json").read_text())
        # recomputation from traces reproduces every number; only the
        # producing command's config hash differs
        a.pop("config_hash")
        b.pop("config_hash")
        assert a == b

    def test_neighbor_free_offline_mae_is_null(self, expert_run, tiny_dataset, tmp_path, capsys):
        # eval_mae has no neighbor error to report without neighbor windows;
        # mae.json and the report carry null there (JSON has no NaN).
        samples, _ = dataset.read_dataset(tiny_dataset / "val.jsonl")
        lone = [dataclasses.replace(s, v_mask=np.zeros_like(s.v_mask)) for s in samples]
        dataset.write_dataset(lone, tmp_path / "lone.jsonl")
        model.save_checkpoint(model.init_params(0), tmp_path / "m.npz")
        rc = main(
            ["eval-offline", "--out", str(tmp_path / "mae.json"),
             f'checkpoint = "{tmp_path}/m.npz"', f'data = "{tmp_path}/lone.jsonl"']
        )
        assert rc == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        mae = json.loads((tmp_path / "mae.json").read_text(), parse_constant=reject)["mae"]
        assert mae["neighbors"] is None and mae["neighbors_2s"] is None
        assert mae["ego"] > 0.0
        rc = main(
            ["report", "--out", str(tmp_path / "r"), f'traces = "{expert_run}/traces"',
             f'offline_eval = "{tmp_path}/mae.json"']
        )
        assert rc == 0
        report = json.loads((tmp_path / "r" / "report.json").read_text(), parse_constant=reject)
        assert report["offline_mae"] == mae
        text = (tmp_path / "r" / "report.txt").read_text()
        assert f"{'neighbors':<18} {'n/a':>8} {'n/a':>8}" in text.splitlines()

    def test_empty_trace_dir_is_2(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        rc = main(["report", "--out", str(tmp_path / "r"), f'traces = "{empty}"'])
        assert rc == 2

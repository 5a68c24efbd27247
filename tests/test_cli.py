import ast
import base64
import dataclasses
import hashlib
import json
import os
import pathlib
import random
import shutil
import struct
import zipfile

import numpy as np
import pytest

from polydrive import bench, cli, dataset, model, simworld
from polydrive.cli import config_hash, load_config, main, parse_config_text


def _drop_bytes(text: str, n: int) -> str:
    """A base64 field with its last n bytes cut off."""
    return base64.b64encode(base64.b64decode(text)[:-n]).decode()


def _set_float(text: str, index: int, value: float) -> str:
    """A base64 field of floats with one value replaced."""
    a = np.frombuffer(base64.b64decode(text), "<f8").copy()
    a[index] = value
    return base64.b64encode(a.tobytes()).decode()


# JSON nested deeper than the decoder's recursion limit.
DEEP = "[" * 200_000

# A config that sets every key, as one file for the whole pipeline.
FULL_CONFIG = """\
# every key
input = "d/train.jsonl"
train = "d/train.jsonl"
val = "d/val.jsonl"
checkpoint = "m.npz"
data = "d/val.jsonl"
offline_data = "d/val.jsonl"
traces = "cl/traces"
offline_eval = "mae.json"
town = "train"
episodes = 2
duration = 8.0
mode = "full"
fraction = 0.5
sigma_long = 0.1
sigma_lat = 0.05
p_remove = 0.1
p_add = 0.02
learning_rate = 1e-5
batch_size = 8
epochs = 2
neighbor_loss = true
suite_seed = 3
expert = false
kinds = straight, one_turn  # comma-separated
"""


class _Stop(Exception):
    """Raised by a stub to end a command once it has seen its arguments."""


def keys_read(tree: ast.AST) -> set[str]:
    """Literal keys of cfg[key], cfg.get(key), and helpers called as f(cfg, key, ...)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if getattr(node.value, "id", None) == "cfg":
                found.append(node.slice)
        elif isinstance(node, ast.Call):
            func, args = node.func, node.args
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "cfg":
                found += args[:1]
            elif len(args) > 1 and getattr(args[0], "id", None) == "cfg":
                found.append(args[1])
    return {k.value for k in found if isinstance(k, ast.Constant)}


# Per config key, values that its row refuses: of another kind, then out of
# range.  Paths and booleans have no range; town is checked by build_town.
BAD_VALUES = {
    "input": ["0"], "train": ["1.5"], "val": ["true"], "checkpoint": ["3"], "data": ["null"],
    "offline_data": ["[1]"], "traces": ["{}"], "offline_eval": ["0"],
    "town": [],
    "episodes": ["abc", "0", "1e300", "1000001"],
    "duration": ["NaN", "0", "1e308"],
    "mode": ["5", "bogus"],
    "fraction": ["abc", "1.5"],
    "sigma_long": ["true", "-1"],
    "sigma_lat": ["Infinity", "-0.1"],
    "p_remove": ["[0.5]", "1.5"],
    "p_add": ['"x"', "-1"],
    "learning_rate": ["true", "0"],
    "batch_size": ["8.7", "0", "1e300", "1000001"],
    "epochs": ["x", "-1", "1e300", "1000001"],
    "neighbor_loss": ["0", '"false"'],
    "suite_seed": ["1.5", "-1"],
    "expert": ["1", "False"],
    "kinds": ["5", "bogus"],
}


def valid(key: str):
    """A value that key's row accepts: its default, or one for a key without."""
    default = cli.KNOBS[key].default
    if default is not None:
        return default
    return 0 if key == "suite_seed" else "x"


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

    def test_config_keys_are_the_keys_the_commands_read(self):
        read = keys_read(ast.parse(pathlib.Path(cli.__file__).read_text()))
        assert "seed" in read  # set from --seed only
        assert read - {"seed"} == set(cli.KNOBS)

    def test_keys_of_every_command_are_accepted(self):
        # One config file can serve the whole pipeline.
        settings = [f"{key} = {json.dumps(valid(key))}" for key in sorted(cli.KNOBS)]
        cfg = load_config(None, settings, seed=3)
        assert set(cfg) == set(cli.KNOBS) | {"seed"}

    def test_every_row_has_examples(self):
        assert set(BAD_VALUES) == set(cli.KNOBS)

    @pytest.mark.parametrize(
        "key, raw", [(key, raw) for key, bad in BAD_VALUES.items() for raw in bad]
    )
    def test_every_row_refuses_bad_values_up_front(self, key, raw, tmp_path, capsys):
        # report reads none of these keys but traces and offline_eval, so the
        # refusal comes from the table, before the command runs.
        rc = main(["report", "--out", str(tmp_path / "out"), f"{key} = {raw}"])
        assert rc == 1
        captured = capsys.readouterr()
        value = parse_config_text(f"{key} = {raw}")[key]
        message = f"config key {key!r} must be {cli.KNOBS[key].need}, got {value!r}"
        if key == "kinds" and raw == "bogus":
            message = "unknown task kinds: ['bogus']"
        assert captured.err == f"polydrive report: bad config: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["episodes", "epochs", "batch_size"])
    def test_counts_are_bounded_above(self, key):
        # A count of 1e300 is a whole number, but a run over it would not end.
        assert load_config(None, [f"{key} = 1000000"], seed=0)[key] == 1000000
        for raw in ("1000001", "1e300"):
            with pytest.raises(ValueError, match=f"config key '{key}' must be a whole number in"):
                load_config(None, [f"{key} = {raw}"], seed=0)

    def test_readme_table_matches_knobs(self):
        # Rows of the README's knob table: | `key` | read by | default | allowed values |
        rows = {}
        readme = (pathlib.Path(cli.__file__).parents[2] / "README.md").read_text()
        for line in readme.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 4 and cells[0].startswith("`") and cells[0].strip("`") in cli.KNOBS:
                rows[cells[0].strip("`")] = cells
        assert list(rows) == list(cli.KNOBS)
        tree = ast.parse(pathlib.Path(cli.__file__).read_text())
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for key, (_, commands, default, allowed) in rows.items():
            readers = [
                name for name, (func, _) in cli.COMMANDS.items()
                if key in keys_read(defs[func.__name__])
            ]
            assert commands == ", ".join(readers), key
            assert allowed == cli.KNOBS[key].need, key
            want = cli.KNOBS[key].default
            if want is None:
                assert default.startswith("—"), key
            else:
                # The default's code span, as a config line would read it.
                got = parse_config_text(f"x = {default.split('`')[1]}")["x"]
                assert got == want and type(got) is type(want), key


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

    def test_deeply_nested_config_is_1(self, tmp_path, capsys):
        (tmp_path / "deep.cfg").write_text(f"episodes = {DEEP}\n")
        for args in (["--config", str(tmp_path / "deep.cfg")], [f"duration = {DEEP}"]):
            assert main(["record", "--out", str(tmp_path / "d"), *args]) == 1
            assert capsys.readouterr().err == (
                "polydrive record: bad config: JSON nested too deeply to decode\n"
            )
        assert not (tmp_path / "d").exists()

    def test_mutated_configs_never_trace_back(self, monkeypatch, tmp_path, capsys):
        # Seeded mutants of a config that sets every key.  On its bytes:
        # truncations, changed bytes and deleted runs of 1-64 bytes.  On one
        # value: a number set to NaN, +-inf or 1e300, a value of another
        # type, or one nested too deeply.  The command reads every key as
        # the commands read it.
        def read_every_key(cfg, out):
            for key in cli.KNOBS:
                cli._get(cfg, key)
            config_hash(cfg)

        monkeypatch.setitem(cli.COMMANDS, "record", (read_every_key, True))
        text = FULL_CONFIG.encode()
        path = tmp_path / "c.cfg"
        numeric = [k for k, knob in cli.KNOBS.items() if knob.kind in (int, float)]
        args = ["record", "--config", str(path), "--out", str(tmp_path / "d")]
        path.write_bytes(text)
        assert main(args) == 0
        rng = random.Random(29)
        codes = {}
        for _ in range(60):
            kind = rng.choice(("truncate", "change", "delete", "value"))
            if kind == "value":
                kind = rng.choice(("nan", "inf", "-inf", "1e300", "type", "deep"))
                if kind == "type":  # of another type than every key's but town's
                    key, value = rng.choice(sorted(set(cli.KNOBS) - {"town"})), rng.choice(
                        ("[1]", '{"a": 1}', "null"))
                else:
                    key = rng.choice(numeric)
                    value = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity",
                             "1e300": "1e300", "deep": DEEP}[kind]
                lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
                         for line in FULL_CONFIG.splitlines()]
                path.write_text("\n".join(lines) + "\n")
            else:
                path.write_bytes(_mutated_bytes(text, kind, rng))
            rc = main(args)
            err = capsys.readouterr().err
            assert rc in (0, 1), (kind, rc, err)
            assert err.count("\n") == (rc == 1) and "Traceback" not in err, err
            codes.setdefault(kind, []).append(rc)
        refused = [rc for k in ("nan", "inf", "-inf", "type", "deep") for rc in codes.get(k, [])]
        assert len(refused) >= 8 and set(refused) == {1}
        assert codes["change"].count(1) >= 5

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
            # int() and float() would cut 8.7 to 8 and take true as 1.
            ("train", "batch_size = 8.7"),
            ("record", "episodes = true"),
            ("train", "learning_rate = true"),
            ("train", "learning_rate = 0"),
            ("train", "learning_rate = -0.001"),
            ("eval-closedloop", "suite_seed = 1.5"),
            ("eval-closedloop", "suite_seed = -1"),
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
        assert err.startswith(f"polydrive {command}: bad config: config key {key!r} must be ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, setting, others",
        [
            ("augment", "input = 0", []),
            ("train", "train = 1.5", ['val = "v.jsonl"']),
            ("train", "val = true", ['train = "t.jsonl"']),
            ("eval-offline", "checkpoint = 3", ['data = "d.jsonl"']),
            ("eval-offline", "data = null", ['checkpoint = "c.npz"']),
            ("eval-closedloop", "checkpoint = 3", ["kinds = straight"]),
            ("eval-closedloop", "offline_data = [1]", ['checkpoint = "c.npz"']),
            ("report", "traces = 0", []),
            ("report", "offline_eval = {}", ['traces = "traces"']),
        ],
    )
    def test_path_key_must_be_a_string(self, command, setting, others, tmp_path, capsys):
        # A number would reach open() as a file descriptor (input = 0 is stdin).
        rc = main([command, "--out", str(tmp_path / "out"), *others, setting])
        assert rc == 1
        captured = capsys.readouterr()
        key, _, value = setting.partition(" = ")
        assert captured.err == (
            f"polydrive {command}: bad config: config key {key!r} must be a path string, "
            f"got {json.loads(value)!r}\n"
        )
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_negative_seed_is_1(self, command, tmp_path, capsys):
        # numpy's default_rng refuses negative seeds with a traceback.
        rc = main([command, "--seed", "-1", "--out", str(tmp_path / "out")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"polydrive {command}: --seed must be 0 or more, got -1\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_unknown_key_is_1(self, tmp_path, capsys):
        # A typo must not leave the run on the knob's default without a word.
        rc = main(["record", "--out", str(tmp_path / "d"), "epsiodes = 3"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "polydrive record: bad config: unknown config key 'epsiodes'\n"
        )
        assert not (tmp_path / "d").exists()

    def test_seed_in_config_is_1(self, tmp_path, capsys):
        # --seed's default 0 would overwrite it without a word.
        p = tmp_path / "c.cfg"
        p.write_text("seed = 5\nepisodes = 1\n")
        rc = main(["record", "--config", str(p), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "polydrive record: bad config: config key 'seed' is not accepted; pass --seed instead\n"
        )
        assert not (tmp_path / "d").exists()

    def test_unknown_kind_is_1(self, tmp_path, capsys):
        rc = main(
            ["eval-closedloop", "--out", str(tmp_path / "out"),
             'checkpoint = "c.npz"', "kinds = straight,warp_drive,bogus"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (
            "polydrive eval-closedloop: bad config: unknown task kinds: ['bogus', 'warp_drive']\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "setting, field, value",
        [("batch_size = 8.0", "batch_size", 8), ("epochs = 2", "epochs", 2),
         ("learning_rate = 1", "learning_rate", 1.0)],
    )
    def test_whole_numbers_reach_train_config(self, setting, field, value, monkeypatch, tmp_path):
        seen = []

        def fake_train(train_samples, val_samples, config, log_fn=None):
            seen.append(config)
            raise _Stop

        monkeypatch.setattr(dataset, "read_dataset", lambda path: ([], {}))
        monkeypatch.setattr(model, "train", fake_train)
        with pytest.raises(_Stop):
            main(["train", "--out", str(tmp_path / "m.npz"), 'train = "t"', 'val = "v"', setting])
        got = getattr(seen[0], field)
        assert got == value and type(got) is type(value)

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

    def test_config_hash_is_of_the_config_as_written(self, tiny_dataset):
        # No default is filled in, and 8.0 stays 8.0.
        _, header = dataset.read_dataset(tiny_dataset / "train.jsonl")
        canon = b'{"duration":8.0,"episodes":2,"seed":3}'
        assert header["config_hash"] == hashlib.sha256(canon).hexdigest()[:12] == "31b2822c3378"

    def test_fraction_is_read_as_a_float(self, tiny_dataset, tmp_path):
        rc = main(
            ["augment", "--out", str(tmp_path / "a.jsonl"),
             f'input = "{tiny_dataset}/val.jsonl"', "mode = none", "fraction = 1"]
        )
        assert rc == 0
        header = json.loads((tmp_path / "a.jsonl").read_text().splitlines()[0])
        assert header["fraction"] == 1.0 and type(header["fraction"]) is float

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

    def test_augment_golden_bytes(self, tmp_path, monkeypatch, capsys):
        # One recorded 30 s episode, augmented with every operator on: 213 of
        # its 261 windows deviated, the others skipped as near-stationary.
        # The recovery reads the window's grid fit, PINV @ ego_future.  The
        # paths are relative, as the header's config hash covers the input's.
        monkeypatch.chdir(tmp_path)
        src, out = tmp_path / "train.jsonl", tmp_path / "aug.jsonl"
        assert main(["record", "--seed", "5", "--out", ".", "episodes = 1", "duration = 30.0"]) == 0
        rc = main(["augment", "--seed", "1", "--out", "aug.jsonl", 'input = "train.jsonl"',
                   "mode = full", "fraction = 1.0", "sigma_long = 0.1", "sigma_lat = 0.05",
                   "p_remove = 0.1", "p_add = 0.02"])
        assert rc == 0
        samples, _ = dataset.read_dataset(out)
        assert (len(samples), sum(s.deviated for s in samples)) == (261, 213)
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (src, out)]
        assert digests == [
            "984a3b326060d6b20aeeb2c3a5c523f04c15b14e8c7b31d2eb5a0de74fac448f",
            "5b4d6a1ff14b4d84e23a5758b11c3b8632a0a37e70729d334cc0b4b0776f3f30",
        ]

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

    def test_checkpoint_path_without_suffix(self, tiny_dataset, tmp_path, capsys):
        # np.savez appends ".npz" to a path that lacks it; the checkpoint must
        # land at the path given, next to its history, where eval-offline
        # reads it.
        ckpt = tmp_path / "ck"
        rc = main(
            ["train", "--seed", "0", "--out", str(ckpt),
             f'train = "{tiny_dataset}/train.jsonl"', f'val = "{tiny_dataset}/val.jsonl"',
             "epochs = 1"]
        )
        assert rc == 0
        assert ckpt.exists() and (tmp_path / "ck.history.json").exists()
        assert not (tmp_path / "ck.npz").exists()
        rc = main(
            ["eval-offline", "--out", str(tmp_path / "mae.json"),
             f'checkpoint = "{ckpt}"', f'data = "{tiny_dataset}/val.jsonl"']
        )
        assert rc == 0

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

    def test_deeply_nested_checkpoint_metadata_is_2(self, tiny_dataset, tmp_path, capsys):
        np.savez(tmp_path / "m.npz", __meta__=np.frombuffer(DEEP.encode(), dtype=np.uint8))
        rc, err = self._eval_bad_checkpoint(
            (tmp_path / "m.npz").read_bytes(), tiny_dataset, tmp_path, capsys
        )
        assert (rc, err) == (2, f"polydrive eval-offline: {tmp_path}/bad.npz: unreadable "
                                "checkpoint (JSON nested too deeply to decode)\n")

    def test_corrupt_checkpoint_is_2(self, tiny_dataset, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not a checkpoint")
        rc = main(
            ["eval-offline", f'checkpoint = "{bad}"',
             f'data = "{tiny_dataset}/val.jsonl"']
        )
        assert rc == 2

    def _eval_bad_checkpoint(self, data, tiny_dataset, tmp_path, capsys):
        """eval-offline on a checkpoint of the given bytes: exit code, stderr."""
        ckpt, out = tmp_path / "bad.npz", tmp_path / "mae.json"
        ckpt.write_bytes(data)
        out.unlink(missing_ok=True)
        capsys.readouterr()
        rc = main(
            ["eval-offline", "--out", str(out),
             f'checkpoint = "{ckpt}"', f'data = "{tiny_dataset}/val.jsonl"']
        )
        err = capsys.readouterr().err
        assert rc in (0, 2), (rc, err)
        assert err.count("\n") == (rc == 2) and "Traceback" not in err, err
        assert out.exists() == (rc == 0)
        return rc, err

    def test_halved_checkpoint_is_2(self, tiny_dataset, tmp_path, capsys):
        model.save_checkpoint(model.init_params(0), tmp_path / "m.npz")
        data = (tmp_path / "m.npz").read_bytes()
        rc, err = self._eval_bad_checkpoint(data[: len(data) // 2], tiny_dataset, tmp_path, capsys)
        assert rc == 2
        assert err == (
            f"polydrive eval-offline: {tmp_path}/bad.npz: unreadable checkpoint "
            "(File is not a zip file)\n"
        )

    def test_changed_weight_byte_is_2(self, tiny_dataset, tmp_path, capsys):
        path = tmp_path / "m.npz"
        model.save_checkpoint(model.init_params(0), path)
        data = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("map_enc__W0.npy")
        # the member's data follows its local header and the .npy header
        head = info.header_offset
        name_len, extra_len = struct.unpack("<HH", data[head + 26 : head + 30])
        start = head + 30 + name_len + extra_len
        assert data[start : start + 6] == b"\x93NUMPY"
        data[start + info.file_size // 2] ^= 0x40
        rc, err = self._eval_bad_checkpoint(bytes(data), tiny_dataset, tmp_path, capsys)
        assert rc == 2
        assert err == (
            f"polydrive eval-offline: {tmp_path}/bad.npz: unreadable checkpoint "
            "(Bad CRC-32 for file 'map_enc__W0.npy')\n"
        )

    def test_npy_file_as_checkpoint_is_2(self, tiny_dataset, tmp_path, capsys):
        np.save(tmp_path / "w.npy", np.zeros(3))
        data = (tmp_path / "w.npy").read_bytes()
        rc, err = self._eval_bad_checkpoint(data, tiny_dataset, tmp_path, capsys)
        assert rc == 2
        assert err == (
            f"polydrive eval-offline: {tmp_path}/bad.npz: not a checkpoint (an .npz archive)\n"
        )

    @pytest.mark.parametrize("flag, method", [(1, 0), (0, 8), (0, 99)])
    def test_encrypted_or_compressed_member_is_2(self, flag, method, tiny_dataset, tmp_path,
                                                 capsys):
        path = tmp_path / "m.npz"
        model.save_checkpoint(model.init_params(0), path)
        data = bytearray(path.read_bytes())
        entry = data.rfind(b"PK\x01\x02")  # the last central directory entry
        data[entry + 8 : entry + 12] = struct.pack("<HH", flag, method)
        rc, err = self._eval_bad_checkpoint(bytes(data), tiny_dataset, tmp_path, capsys)
        assert rc == 2 and err.startswith(f"polydrive eval-offline: {tmp_path}/bad.npz: "), err

    @pytest.mark.parametrize("key, value, message", [
        ("head0.W1", np.nan, "array head0.W1 holds nan"),
        ("ego_enc.b0", -np.inf, "array ego_enc.b0 holds -inf"),
        ("map_enc.b0", np.float32, "array map_enc.b0 has dtype float32, expected float64"),
    ])
    def test_bad_checkpoint_value_is_2(self, key, value, message, tiny_dataset, tmp_path, capsys):
        # A NaN weight once ended eval-offline with exit 3, naming a layer,
        # and a float32 array was taken.
        path = tmp_path / "m.npz"
        model.save_checkpoint(_checkpoint_value(model.init_params(0), key, 7, value), path)
        rc, err = self._eval_bad_checkpoint(path.read_bytes(), tiny_dataset, tmp_path, capsys)
        assert (rc, err) == (2, f"polydrive eval-offline: {tmp_path}/bad.npz: {message}\n")

    def test_mutated_checkpoints_never_trace_back(self, tiny_dataset, tmp_path, capsys):
        # Seeded mutants of one checkpoint: truncations, changed bytes and
        # deleted runs of up to 64 bytes, placed anywhere in the file or in
        # its first or last 4 KB (zip headers, small arrays, the directory),
        # and one weight of one array set to NaN or +-inf.
        params = model.init_params(0)
        model.save_checkpoint(params, tmp_path / "m.npz")
        data = (tmp_path / "m.npz").read_bytes()
        rng = random.Random(22)
        codes = {}
        for _ in range(48):
            mutant = bytearray(data)
            where = rng.choice(("anywhere", "head", "tail"))
            at = {"anywhere": rng.randrange(len(data)), "head": rng.randrange(4096),
                  "tail": len(data) - 1 - rng.randrange(4096)}[where]
            kind = rng.choice(("truncate", "change", "delete", "value"))
            if kind == "truncate":
                del mutant[at:]
            elif kind == "change":
                mutant[at] ^= rng.randrange(1, 256)
            elif kind == "delete":
                del mutant[at : at + rng.randint(1, 64)]
            else:
                key = rng.choice(sorted(params))
                value = rng.choice((np.nan, np.inf, -np.inf))
                model.save_checkpoint(_checkpoint_value(params, key, at, value), tmp_path / "v.npz")
                mutant = (tmp_path / "v.npz").read_bytes()
            rc, _ = self._eval_bad_checkpoint(bytes(mutant), tiny_dataset, tmp_path, capsys)
            codes.setdefault(kind == "value", []).append(rc)
        assert codes[False].count(2) >= 30 and len(codes[True]) >= 5 and set(codes[True]) == {2}

    def test_empty_dataset_eval_offline_is_2(self, tmp_path, capsys):
        dataset.write_dataset([], tmp_path / "empty.jsonl")
        model.save_checkpoint(model.init_params(0), tmp_path / "m.npz")
        rc = main(
            ["eval-offline", "--out", str(tmp_path / "mae.json"),
             f'checkpoint = "{tmp_path}/m.npz"', f'data = "{tmp_path}/empty.jsonl"']
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"polydrive eval-offline: {tmp_path}/empty.jsonl: no samples to evaluate\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "mae.json").exists()

    def test_wrong_checkpoint_shape_is_2(self, tiny_dataset, tmp_path, capsys):
        params = model.init_params(0)
        params["map_enc.W0"] = params["map_enc.W0"][:, :64]
        model.save_checkpoint(params, tmp_path / "m.npz")
        rc = main(
            ["eval-offline", f'checkpoint = "{tmp_path}/m.npz"',
             f'data = "{tiny_dataset}/val.jsonl"']
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (
            f"polydrive eval-offline: {tmp_path}/m.npz: array map_enc.W0 has shape (4680, 64), "
            "expected (4680, 128)\n"
        )


def _checkpoint_value(params, key, at, value):
    """A copy of params with one weight of params[key] set to value, or with
    that array cast to value's type."""
    params = dict(params)
    if isinstance(value, type):
        params[key] = params[key].astype(value)
    else:
        params[key] = params[key].copy()
        params[key].flat[at % params[key].size] = value
    return params


def _mutated_bytes(data: bytes, kind: str, rng) -> bytes:
    """data cut at a random offset ("truncate"), with the byte there changed
    ("change"), or with a run of 1-64 bytes deleted from there ("delete")."""
    mutant = bytearray(data)
    at = rng.randrange(len(mutant))
    if kind == "truncate":
        del mutant[at:]
    elif kind == "change":
        mutant[at] ^= rng.randrange(1, 256)
    else:
        del mutant[at : at + rng.randint(1, 64)]
    return bytes(mutant)


def edit_record(src, dst, lineno, edit):
    """A copy of the JSONL file src at dst, with edit applied to the record
    on line lineno."""
    lines = src.read_text().splitlines()
    rec = json.loads(lines[lineno - 1])
    edit(rec)
    lines[lineno - 1] = json.dumps(rec)
    dst.write_text("\n".join(lines) + "\n")


def edit_array(key, dtype, edit):
    """A record edit on the decoded array of one base64 field."""
    def apply(rec):
        a = np.frombuffer(base64.b64decode(rec[key]), dtype).copy()
        edit(a)
        rec[key] = base64.b64encode(a.tobytes()).decode()
    return apply


def _set(index, value, field=None):
    """An array edit that sets one item, of one field of a structured array."""
    def apply(a):
        (a if field is None else a[field])[index] = value
    return apply


def _swap_cells(m):
    m["cell"][[2, 5]] = m["cell"][[5, 2]]


def _mutate_value(rng, kind, field=None):
    """An array edit that sets one float to NaN, +-inf or 1e300 (kind), or
    flips the top bit of its exponent ("flip")."""
    def apply(a):
        values = a if field is None else a[field]
        i = np.unravel_index(rng.randrange(values.size), values.shape)
        bits = np.array(values[i]).view("<u8") ^ (1 << 62)
        values[i] = bits.view("<f8") if kind == "flip" else float(kind)
    return apply


class TestDatasetValues:
    """The dataset reader refuses values that no recording writes."""

    def test_deeply_nested_dataset_is_2(self, tiny_dataset, tmp_path, capsys):
        header = (tiny_dataset / "val.jsonl").read_text().splitlines()[0]
        (tmp_path / "deep.jsonl").write_text(f"{header}\n{DEEP}\n")
        rc = main(["augment", "--out", str(tmp_path / "a.jsonl"), f'input = "{tmp_path}/deep.jsonl"'])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"polydrive augment: {tmp_path}/deep.jsonl: line 2: JSON nested too deeply to decode\n"
        )
        assert not (tmp_path / "a.jsonl").exists()

    @pytest.mark.parametrize("edit, message", [
        pytest.param(_set(4, -5, "label"), "map label -5 is negative", id="negative-label"),
        pytest.param(_swap_cells, "map cells are not strictly increasing", id="swapped-cells"),
        pytest.param(lambda m: _set(4, m["cell"][3], "cell")(m),
                     "map cells are not strictly increasing", id="repeated-cell"),
    ])
    def test_bad_map_entry_is_2(self, tiny_dataset, tmp_path, capsys, edit, message):
        # A label below 0 once read as an empty cell that kept its payload,
        # which reached the model; of two entries for one cell the last won.
        # (A cell beyond the grid is one of test_dataset's CORRUPTIONS.)
        path, out = tmp_path / "d.jsonl", tmp_path / "a.jsonl"
        edit_record(tiny_dataset / "val.jsonl", path, 3, edit_array("m", dataset.MAP_ENTRY, edit))
        assert main(["augment", "--out", str(out), f'input = "{path}"']) == 2
        assert capsys.readouterr().err == f"polydrive augment: {path}: line 3: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("-inf"), 1e300])
    def test_absurd_context_value_is_2(self, tiny_dataset, tmp_path, capsys, value):
        # A NaN context once ended training with exit 3, naming a layer.
        path, out = tmp_path / "d.jsonl", tmp_path / "m.npz"
        edit_record(tiny_dataset / "val.jsonl", path, 3, edit_array("ctx", "<f8", _set(2, value)))
        rc = main(["train", "--out", str(out), f'train = "{path}"', f'val = "{path}"',
                   "epochs = 1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"polydrive train: {path}: line 3: field 'ctx' holds {value}, "
            "not a number of size at most 1e+06\n"
        )
        assert not out.exists()

    def test_overflowing_noise_is_3(self, tiny_dataset, tmp_path, capsys):
        # Position noise of sigma 1e308 overflows: once two RuntimeWarnings
        # and a dataset of non-finite samples, now one line and no output.
        out = tmp_path / "a.jsonl"
        rc = main(["augment", "--out", str(out), f'input = "{tiny_dataset}/val.jsonl"',
                   "fraction = 1.0", "sigma_long = 1e308", "sigma_lat = 1e308"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == "polydrive augment: numerical failure: overflow encountered in multiply\n"
        assert not out.exists()

    def test_noise_beyond_the_reader_bound_is_3(self, tiny_dataset, tmp_path, capsys):
        # Position noise of sigma 1e6 once wrote a dataset whose values its
        # own reader refuses (exit 2 on the next read).
        out = tmp_path / "a.jsonl"
        rc = main(["augment", "--out", str(out), f'input = "{tiny_dataset}/val.jsonl"',
                   "sigma_long = 1e6", "sigma_lat = 1e6"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("polydrive augment: numerical failure: episode 300001 tick 19: "
                              "field 'e' holds ")
        assert err.endswith(", not a number of size at most 1e+06\n") and err.count("\n") == 1
        assert not out.exists()

    def test_mutated_datasets_never_trace_back(self, tiny_dataset, tmp_path, capsys):
        # Seeded mutants of a three-sample dataset.  On its bytes: truncations,
        # changed bytes and deleted runs of 1-64 bytes.  On one decoded field
        # of one sample: a float set to NaN, +-inf or 1e300 or with the top
        # bit of its exponent flipped, a map label set negative, or two map
        # cells swapped.
        base, path, out = tmp_path / "base.jsonl", tmp_path / "d.jsonl", tmp_path / "mae.json"
        lines = (tiny_dataset / "val.jsonl").read_text().splitlines()
        text = "".join(line + "\n" for line in lines[:4])
        base.write_text(text)
        model.save_checkpoint(model.init_params(0), tmp_path / "m.npz")
        rng = random.Random(30)
        codes = {}
        for _ in range(40):
            kind = rng.choice(("truncate", "change", "delete", "value", "label", "swap"))
            if kind in ("truncate", "change", "delete"):
                path.write_bytes(_mutated_bytes(text.encode(), kind, rng))
            else:
                key, dtype, edit = "m", dataset.MAP_ENTRY, _swap_cells
                if kind == "value":
                    key = rng.choice(("e", "ctx", "ef", "m"))
                    kind = rng.choice(("nan", "inf", "-inf", "1e300", "flip"))
                    dtype = dataset.MAP_ENTRY if key == "m" else "<f8"
                    edit = _mutate_value(rng, kind, "xy" if key == "m" else None)
                elif kind == "label":
                    edit = _set(rng.randrange(20), -rng.randint(1, 9), "label")
                edit_record(base, path, rng.randrange(2, 5), edit_array(key, dtype, edit))
            out.unlink(missing_ok=True)
            rc = main(["eval-offline", "--out", str(out), f'checkpoint = "{tmp_path}/m.npz"',
                       f'data = "{path}"'])
            err = capsys.readouterr().err
            assert rc in (0, 2), (kind, rc, err)
            assert err.count("\n") == (rc == 2) and "Traceback" not in err, err
            assert out.exists() == (rc == 0)
            codes.setdefault(kind, []).append(rc)
        # Every decoded mutant is refused but a flipped exponent bit, which
        # may leave a value in range.
        refused = [rc for k in ("nan", "inf", "-inf", "1e300", "label", "swap") for rc in codes[k]]
        assert len(refused) >= 10 and set(refused) == {2} and set(codes["flip"]) == {0, 2}


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
        # report counts the lights from the states, as eval-closedloop does
        assert a["red_lights"]["encountered"] > 0

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

    def test_missing_offline_data_fails_before_driving(self, monkeypatch, tmp_path, capsys):
        # 25 straight tasks take most of a minute to drive; a bad file must not wait for them.
        def drive_task(*args, **kwargs):
            raise AssertionError("the suite drove before offline_data was read")

        monkeypatch.setattr(bench, "drive_task", drive_task)
        model.save_checkpoint(model.init_params(0), tmp_path / "m.npz")
        out = tmp_path / "cl"
        rc = main(
            ["eval-closedloop", "--out", str(out), "kinds = straight",
             f'checkpoint = "{tmp_path}/m.npz"', f'offline_data = "{tmp_path}/missing.jsonl"']
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "missing.jsonl" in err
        assert not (out / "traces").exists()

    def test_empty_offline_data_is_2(self, monkeypatch, tmp_path, capsys):
        def drive_task(*args, **kwargs):
            raise AssertionError("the suite drove before offline_data was read")

        monkeypatch.setattr(bench, "drive_task", drive_task)
        dataset.write_dataset([], tmp_path / "empty.jsonl")
        model.save_checkpoint(model.init_params(0), tmp_path / "m.npz")
        out = tmp_path / "cl"
        rc = main(
            ["eval-closedloop", "--out", str(out), "kinds = straight",
             f'checkpoint = "{tmp_path}/m.npz"', f'offline_data = "{tmp_path}/empty.jsonl"']
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"polydrive eval-closedloop: {tmp_path}/empty.jsonl: no samples to evaluate\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda h, r: (["a list"], r), "line 1: not a JSON object",
                         id="header-list"),
            pytest.param(lambda h, r: (h, r[:2] + [[1, 2]] + r[3:]),
                         "line 4: not a JSON object", id="record-list"),
            pytest.param(
                lambda h, r: (h, r[:1] + [{**r[1], "s": _drop_bytes(r[1]["s"], 8)}] + r[2:]),
                "line 3: field 's' has 24 bytes, which do not fit rows of (4,)", id="ragged-s",
            ),
            # A coordinate of 1e300 once ended report in an OverflowError, and
            # a NaN state was scored.
            pytest.param(lambda h, r: (h, r[:1] + [{**r[1], "s": _set_float(r[1]["s"], 0, 1e300)}]
                                       + r[2:]),
                         "line 3: field 's' holds 1e+300, not a number of size at most 1e+06",
                         id="state-1e300"),
            pytest.param(lambda h, r: (h, r[:1] + [{**r[1], "s": _set_float(r[1]["s"], 3, np.nan)}]
                                       + r[2:]),
                         "line 3: field 's' holds nan, not a number", id="state-nan"),
            pytest.param(lambda h, r: (h, []), "trace has no ticks or no car", id="no-ticks"),
            pytest.param(lambda h, r: ({**h, "kinds": ["pedestrian"] * len(h["kinds"])}, r),
                         "trace has no ticks or no car", id="no-car"),
            pytest.param(lambda h, r: ({**h, "task_seed": "abc"}, r),
                         "trace metadata 'task_seed' must be int, got 'abc'", id="seed-string"),
            pytest.param(lambda h, r: ({**h, "reached_goal": 1}, r),
                         "trace metadata 'reached_goal' must be bool, got 1", id="goal-int"),
            pytest.param(lambda h, r: ({**h, "distance_m": float("nan")}, r),
                         "trace metadata 'distance_m' must be float, got nan", id="distance-nan"),
            # String node ids and axes once matched no light, so every light
            # scored as green.
            pytest.param(lambda h, r: ({**h, "groups": [[str(g[0]), str(g[1]), *g[2:]]
                                                        for g in h["groups"]]}, r),
                         "line 1: light group ['", id="group-strings"),
            pytest.param(lambda h, r: ({**h, "kinds": ["bus"] * len(h["kinds"])}, r),
                         "line 1: kind 'bus' is neither 'car' nor 'pedestrian'", id="kind-bus"),
        ],
    )
    def test_malformed_trace_is_2(self, expert_run, edit, message, tmp_path, capsys):
        lines = sorted((expert_run / "traces").glob("*.jsonl"))[0].read_text().splitlines()
        header, records = edit(json.loads(lines[0]), [json.loads(x) for x in lines[1:]])
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "task_1.jsonl").write_text(
            "".join(json.dumps(x) + "\n" for x in [header, *records])
        )
        rc = main(["report", "--out", str(tmp_path / "r"), f'traces = "{traces}"'])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"polydrive report: {traces}/task_1.jsonl: {message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    def test_mutated_traces_never_trace_back(self, expert_run, tmp_path, capsys):
        # Seeded mutants of one trace.  On its bytes: truncations, changed
        # bytes and deleted runs of 1-64 bytes.  On one tick's states: a
        # float set to NaN, +-inf or 1e300, or with the top bit of its
        # exponent flipped.
        src = sorted((expert_run / "traces").glob("*.jsonl"))[0]
        text = src.read_bytes()
        traces, out = tmp_path / "traces", tmp_path / "r"
        traces.mkdir()
        path = traces / "task_1.jsonl"
        rng = random.Random(28)
        codes = {}
        for _ in range(40):
            kind = rng.choice(("truncate", "change", "delete", "value"))
            if kind == "value":
                kind = rng.choice(("nan", "inf", "-inf", "1e300", "flip"))
                edit = edit_array("s", "<f8", _mutate_value(rng, kind))
                edit_record(src, path, rng.randrange(2, text.count(b"\n") + 1), edit)
            else:
                path.write_bytes(_mutated_bytes(text, kind, rng))
            shutil.rmtree(out, ignore_errors=True)
            rc = main(["report", "--out", str(out), f'traces = "{traces}"'])
            err = capsys.readouterr().err
            assert rc in (0, 2), (kind, rc, err)
            assert err.count("\n") == (rc == 2) and "Traceback" not in err, err
            assert out.exists() == (rc == 0)
            codes.setdefault(kind, []).append(rc)
        # Every state set out of range is refused; a flipped exponent bit
        # may leave a value in range.
        refused = [rc for k in ("nan", "inf", "-inf", "1e300") for rc in codes.get(k, [])]
        assert len(refused) >= 5 and set(refused) == {2}

    def test_format_1_trace_is_2(self, expert_run, tmp_path, capsys):
        # Format 1 stored the clock, states, every agent's commands and the
        # lights as JSON numbers.
        trace = simworld.EpisodeLog.read_jsonl(sorted((expert_run / "traces").glob("*.jsonl"))[0])
        header = {"format_version": 1, **trace.meta, "kinds": trace.kinds,
                  "agent_ids": trace.agent_ids, "groups": [list(g) for g in trace.groups]}
        records = [{"t": float(trace.clock[i]), "s": trace.states[i].tolist(),
                    "c": [[0.0, 0.0]] * trace.n_agents, "l": trace.lights[i].tolist()}
                   for i in range(len(trace))]
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "task_1.jsonl").write_text(
            "".join(json.dumps(x) + "\n" for x in [header, *records])
        )
        rc = main(["report", "--out", str(tmp_path / "r"), f'traces = "{traces}"'])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"polydrive report: {traces}/task_1.jsonl: line 1: format_version 1 unsupported, "
            "expected 2 (re-record older files)\n"
        )
        assert not (tmp_path / "r").exists()

    def test_bad_offline_eval_fails_before_traces(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "task_1.jsonl").write_text("{not json\n")
        (tmp_path / "mae.json").write_text('{"mae": [1]}')
        rc = main(["report", "--out", str(tmp_path / "r"), f'traces = "{traces}"',
                   f'offline_eval = "{tmp_path}/mae.json"'])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"polydrive report: {tmp_path}/mae.json: not an eval-offline output")
        assert err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "text",
        ["[1]", '{"mae": [1]}', '{"mae": {"ego": "0.5"}}', '{"mae": {"ego": true}}',
         '{"n_samples": 3}', "{not json"],
    )
    def test_malformed_offline_eval_is_2(self, expert_run, text, tmp_path, capsys):
        (tmp_path / "mae.json").write_text(text)
        rc = main(
            ["report", "--out", str(tmp_path / "r"), f'traces = "{expert_run}/traces"',
             f'offline_eval = "{tmp_path}/mae.json"']
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"polydrive report: {tmp_path}/mae.json: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    def test_deeply_nested_trace_is_2(self, expert_run, tmp_path, capsys):
        src = sorted((expert_run / "traces").glob("*.jsonl"))[0]
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "task_1.jsonl").write_text(src.read_text().splitlines()[0] + f"\n{DEEP}\n")
        rc = main(["report", "--out", str(tmp_path / "r"), f'traces = "{traces}"'])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"polydrive report: {traces}/task_1.jsonl: line 2: JSON nested too deeply to decode\n"
        )
        assert not (tmp_path / "r").exists()

    def test_deeply_nested_offline_eval_is_2(self, tmp_path, capsys):
        (tmp_path / "mae.json").write_text(f'{{"mae": {{"ego": {DEEP}')
        rc = main(["report", "--out", str(tmp_path / "r"), f'traces = "{tmp_path}"',
                   f'offline_eval = "{tmp_path}/mae.json"'])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"polydrive report: {tmp_path}/mae.json: JSON nested too deeply to decode\n"
        )
        assert not (tmp_path / "r").exists()

    def test_mutated_offline_evals_never_trace_back(self, expert_run, tiny_dataset, tmp_path,
                                                    capsys):
        # Seeded mutants of an eval-offline output, which report reads.  On
        # its bytes: truncations, changed bytes and deleted runs of 1-64
        # bytes.  On one mae value: NaN, +-inf or 1e300, which pass (NaN and
        # inf as null), or a 400-digit integer, a value of another type or
        # one nested too deeply, which are refused.
        model.save_checkpoint(model.init_params(0), tmp_path / "m.npz")
        src = tmp_path / "mae.json"
        assert main(["eval-offline", "--out", str(src), f'checkpoint = "{tmp_path}/m.npz"',
                     f'data = "{tiny_dataset}/val.jsonl"']) == 0
        text = src.read_bytes()
        block = json.loads(text)
        traces = tmp_path / "traces"
        traces.mkdir()
        shutil.copy(sorted((expert_run / "traces").glob("*.jsonl"))[0], traces)
        path, out = tmp_path / "bad.json", tmp_path / "r"
        rng = random.Random(29)
        codes = {}
        for _ in range(40):
            kind = rng.choice(("truncate", "change", "delete", "value"))
            if kind == "value":
                kind = rng.choice(("nan", "inf", "-inf", "1e300", "int", "type", "deep"))
                value = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "1e300": "1e300",
                         "int": "9" * 400, "deep": DEEP}.get(kind) or rng.choice(
                             ('"0.5"', "true", "[1]", "{}"))
                key = rng.choice(sorted(block["mae"]))
                path.write_text(
                    json.dumps({**block, "mae": {**block["mae"], key: "@"}}).replace('"@"', value)
                )
            else:
                path.write_bytes(_mutated_bytes(text, kind, rng))
            shutil.rmtree(out, ignore_errors=True)
            rc = main(["report", "--out", str(out), f'traces = "{traces}"',
                       f'offline_eval = "{path}"'])
            err = capsys.readouterr().err
            assert rc in (0, 2), (kind, rc, err)
            assert err.count("\n") == (rc == 2) and "Traceback" not in err, err
            assert out.exists() == (rc == 0)
            codes.setdefault(kind, []).append(rc)
        passed = [rc for k in ("nan", "inf", "-inf", "1e300") for rc in codes.get(k, [])]
        refused = [rc for k in ("int", "type", "deep") for rc in codes.get(k, [])]
        assert len(passed) >= 3 and set(passed) == {0}
        assert len(refused) >= 3 and set(refused) == {2}

    def test_empty_trace_dir_is_2(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        rc = main(["report", "--out", str(tmp_path / "r"), f'traces = "{empty}"'])
        assert rc == 2

"""Config resolution, exit codes, artifacts, and rerun determinism."""

import errno
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from faim.cli import _write, main
from faim.config import REGISTRY, format_echo, model_config, parse_config_file, resolve_config
from faim.errors import ConfigError
from faim.model import CONFIG_SECTION, MAGIC, FaimConfig, build_model, load_checkpoint, save_checkpoint

SMALL = [
    "--model.patch_len", "4",
    "--model.embed_dim", "8",
    "--model.n_layers", "1",
    "--imb.ssm_state", "4",
    "--train.pretrain_epochs", "1",
    "--train.finetune_epochs", "2",
    "--train.batch_size", "8",
    "--train.lr", "0.01",
]


def synth_args(root, name):
    return [
        "synth",
        "--run.dir", str(root), "--run.name", name,
        "--synth.n_per_class", "3", "--synth.t", "16",
        "--synth.freqs", "2,5", "--synth.sigma", "0.3",
    ]


class TestConfigResolution:
    def test_defaults(self):
        cfg = resolve_config()
        assert cfg["model.patch_len"] == 8
        assert cfg["data.normalize"] is True
        assert cfg["noise.sigmas"] == [0.0, 0.2, 0.5, 1.0]
        assert cfg["ablate.variants"][0] == "full"

    def test_file_then_flag_precedence(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\ntrain.lr = 0.5\ntrain.seed=3\n")
        cfg = resolve_config(str(path), [("train.lr", "0.25")])
        assert cfg["train.lr"] == 0.25
        assert cfg["train.seed"] == 3

    def test_unknown_key_lists_valid_ones(self):
        with pytest.raises(ConfigError, match="unknown config key 'nope'.*model.patch_len"):
            resolve_config(None, [("nope", "1")])

    def test_unknown_key_in_file_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("model.patch_length=8\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config(str(path))

    def test_malformed_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("train.lr=0.1\njust words\n")
        with pytest.raises(ConfigError, match="line 2: expected key=value"):
            parse_config_file(str(path))

    def test_unreadable_file_rejected(self):
        with pytest.raises(ConfigError, match="cannot read config file"):
            resolve_config("/does/not/exist.cfg")

    def test_typed_value_errors_name_key_and_kind(self):
        with pytest.raises(ConfigError, match="train.seed expects a int value, got 'x'"):
            resolve_config(None, [("train.seed", "x")])
        with pytest.raises(ConfigError, match="afb.tau expects a float"):
            resolve_config(None, [("afb.tau", "tiny")])

    def test_bools_are_strict(self):
        for bad in ("yes", "True", "1"):
            with pytest.raises(ConfigError, match="bool"):
                resolve_config(None, [("data.normalize", bad)])
        assert resolve_config(None, [("data.normalize", "false")])["data.normalize"] is False
        assert resolve_config(None, [("data.normalize", "true")])["data.normalize"] is True

    def test_list_values_tolerate_spaces_and_trailing_commas(self):
        cfg = resolve_config(None, [("noise.sigmas", "0.1, 0.2,"), ("ablate.variants", "full, no_afb")])
        assert cfg["noise.sigmas"] == [0.1, 0.2]
        assert cfg["ablate.variants"] == ["full", "no_afb"]

    def test_aliases(self):
        cfg = resolve_config(
            None,
            [("seed", "7"), ("variant", "no_afb"), ("sigmas", "0.3"), ("variants", "full,no_imb")],
        )
        assert cfg["train.seed"] == 7
        assert cfg["model.variant"] == "no_afb"
        assert cfg["noise.sigmas"] == [0.3]
        assert cfg["ablate.variants"] == ["full", "no_imb"]

    def test_echo_round_trips_bit_identically(self, tmp_path):
        cfg = resolve_config(None, [("train.lr", "0.007"), ("synth.freqs", "2,5.5")])
        echo = format_echo(cfg)
        path = tmp_path / "echo.cfg"
        path.write_text(echo)
        replayed = resolve_config(str(path))
        assert replayed == cfg
        assert format_echo(replayed) == echo

    def test_echo_is_sorted_and_full_precision(self):
        echo = format_echo(resolve_config())
        lines = echo.splitlines()
        assert lines == sorted(lines)
        assert "train.lr=0.001" in lines
        assert "data.normalize=true" in lines
        assert "noise.sigmas=0.0,0.2,0.5,1.0" in lines

    def test_model_config_mapping(self):
        cfg = resolve_config(None, [("variant", "no_hf"), ("afb.tau", "0.05")])
        mc = model_config(cfg)
        assert (mc.patch_len, mc.embed_dim, mc.ssm_state) == (8, 64, 16)
        assert mc.variant == "no_hf"
        assert mc.tau == 0.05

    def test_model_and_training_keys_are_the_faim_config_fields(self):
        derived = {k for k in REGISTRY if k.split(".")[0] in ("model", "afb", "imb", "train")}
        assert derived == {f"{CONFIG_SECTION[f.name]}.{f.name}" for f in fields(FaimConfig)}
        assert set(CONFIG_SECTION) == {f.name for f in fields(FaimConfig)}

    def test_every_derived_key_reaches_its_field(self):
        flags = {
            "model.patch_len": "5", "model.patch_stride": "3", "model.embed_dim": "12",
            "model.n_layers": "3", "model.variant": "no_lf",
            "afb.theta_high": "0.3", "afb.theta_low": "0.1", "afb.tau": "0.05",
            "imb.ssm_state": "6", "imb.conv_k1": "3", "imb.conv_k2": "5", "imb.conv_k3": "2",
            "train.mask_ratio": "0.5", "train.label_smooth_eps": "0.2", "train.lr": "0.002",
            "train.weight_decay": "0.001", "train.pretrain_epochs": "7",
            "train.finetune_epochs": "9", "train.batch_size": "17", "train.seed": "4",
        }
        assert set(flags) == {f"{sec}.{name}" for name, sec in CONFIG_SECTION.items()}
        mc = model_config(resolve_config(None, list(flags.items())))
        default = FaimConfig()
        for name, sec in CONFIG_SECTION.items():
            value = getattr(mc, name)
            assert str(value) == flags[f"{sec}.{name}"], name
            assert value != getattr(default, name), name

    def test_default_resolution_is_the_default_model_config(self):
        assert model_config(resolve_config()) == FaimConfig()

    def test_default_echo_keeps_every_model_and_training_line(self):
        lines = [
            l for l in format_echo(resolve_config()).splitlines()
            if l.split(".")[0] in ("model", "afb", "imb", "train")
        ]
        assert lines == [
            "afb.tau=0.02", "afb.theta_high=0.4", "afb.theta_low=0.05",
            "imb.conv_k1=2", "imb.conv_k2=4", "imb.conv_k3=1", "imb.ssm_state=16",
            "model.embed_dim=64", "model.n_layers=2", "model.patch_len=8",
            "model.patch_stride=0", "model.variant=full",
            "train.batch_size=256", "train.finetune_epochs=300", "train.label_smooth_eps=0.1",
            "train.lr=0.001", "train.mask_ratio=0.4", "train.pretrain_epochs=100",
            "train.seed=0", "train.weight_decay=0.0001",
        ]


class TestExitCodes:
    def test_help(self, capsys):
        assert main([]) == 0
        assert main(["--help"]) == 0
        assert "usage: faim" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "unknown command" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["synth", "--bogus.key", "1"]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_positional_argument_rejected(self, capsys):
        assert main(["synth", "train.tsv"]) == 1
        assert "expected --key" in capsys.readouterr().err

    def test_flag_missing_value(self, capsys):
        assert main(["synth", "--synth.t"]) == 1
        assert "missing its value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value",
        [("finetune", "imb.ssm_state", "0"), ("finetune", "afb.tau", "0"), ("pretrain", "train.pretrain_epochs", "-3")],
    )
    def test_out_of_range_model_setting_exits_1_before_loading(self, tmp_path, capsys, command, key, value):
        rc = main([command, "--run.dir", str(tmp_path), "--run.name", "r",
                   "--data.train", str(tmp_path / "absent.tsv"), f"--{key}", value])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{key} must be" in err and "absent.tsv" not in err

    def test_out_of_range_setting_is_named_by_its_key(self, tmp_path, capsys):
        rc = main(["finetune", "--run.dir", str(tmp_path), "--run.name", "r",
                   "--data.train", str(tmp_path / "absent.tsv"), "--imb.ssm_state", "0"])
        assert rc == 1
        assert "imb.ssm_state must be >= 1, got 0" in capsys.readouterr().err

    def test_eval_without_checkpoint(self, tmp_path, capsys):
        rc = main(["eval", "--run.dir", str(tmp_path), "--run.name", "e"])
        assert rc == 1
        assert "eval needs" in capsys.readouterr().err

    @pytest.mark.parametrize("keep", [10, 40, -8])
    def test_truncated_checkpoint_is_an_input_error(self, tmp_path, capsys, keep):
        # cut inside the length prefix, inside the JSON header, inside the blob
        path = tmp_path / "model.ckpt"
        model = build_model(FaimConfig(patch_len=4, embed_dim=8, n_layers=1, ssm_state=4), 2, 1, 16)
        save_checkpoint(model, str(path))
        path.write_bytes(path.read_bytes()[:keep])
        rc = main(["eval", "--run.dir", str(tmp_path), "--run.name", "e",
                   "--eval.checkpoint", str(path), "--data.test", str(tmp_path / "test.tsv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(path) in err and "internal error" not in err

    def test_checkpoint_with_a_retired_setting_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "old.ckpt"
        model = build_model(FaimConfig(patch_len=4, embed_dim=8, n_layers=1, ssm_state=4), 2, 1, 16)
        save_checkpoint(model, str(path))
        raw = path.read_bytes()
        start = len(MAGIC) + 8
        end = start + int.from_bytes(raw[len(MAGIC) : start], "little")
        header = json.loads(raw[start:end])
        header["config"]["literal_cross_pairing"] = False
        encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(MAGIC + len(encoded).to_bytes(8, "little") + encoded + raw[end:])
        rc = main(["eval", "--run.dir", str(tmp_path), "--run.name", "e",
                   "--eval.checkpoint", str(path), "--data.test", str(tmp_path / "test.tsv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{path} has an unreadable header" in err and "literal_cross_pairing" in err

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("finetune", ["--data.train"]),
            ("finetune", ["--data.format", "multivariate", "--data.train"]),
            ("eval", ["--eval.checkpoint"]),
        ],
        ids=["tsv", "jsonl", "checkpoint"],
    )
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_input_file_is_an_input_error(self, tmp_path, capsys, command, flags, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        rc = main([command, "--run.dir", str(tmp_path), "--run.name", "r", *flags, str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"cannot read {path}" in err and "internal error" not in err

    @pytest.mark.parametrize(
        "name, text, fmt, where",
        [
            ("u.tsv", "0\t1.0\t2.0\n1\t3.0\tInfinity\n", "univariate", "line 2, column 3: 'Infinity' is not finite"),
            (
                "m.jsonl",
                '{"label": "a", "series": [[1.0, 2.0]]}\n{"label": "b", "series": [[3.0, NaN]]}\n',
                "multivariate",
                "record 2, channel 0, index 1: nan is not finite",
            ),
            (
                "m.jsonl",
                '{"label": "a", "series": [[1.0, 2.0], [3.0, 4.0]]}\n{"label": "b", "series": [[1.0, 2.0], [3.0, "x"]]}\n',
                "multivariate",
                "record 2, channel 1, index 1: 'x' is not numeric",
            ),
        ],
        ids=["tsv-infinity", "jsonl-nan", "jsonl-string"],
    )
    def test_bad_values_in_data_are_input_errors(self, tmp_path, capsys, name, text, fmt, where):
        path = tmp_path / name
        path.write_text(text)
        rc = main(["finetune", "--run.dir", str(tmp_path), "--run.name", "f",
                   "--data.train", str(path), "--data.format", fmt])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{path} {where}" in err and "internal error" not in err

    @pytest.mark.parametrize(
        "name, payload, fmt, where",
        [
            ("u.tsv", b"\xff\xfe0\t1.0\t2.0\n", "univariate", "is not UTF-8 text"),
            ("m.jsonl", b'{"label": "a", "series": [[1.0, 2.0]]}\n\xff\n', "multivariate", "record 2: not UTF-8 text"),
        ],
        ids=["tsv", "jsonl"],
    )
    def test_non_utf8_data_is_an_input_error(self, tmp_path, capsys, name, payload, fmt, where):
        path = tmp_path / name
        path.write_bytes(payload)
        rc = main(["finetune", "--run.dir", str(tmp_path), "--run.name", "f",
                   "--data.train", str(path), "--data.format", fmt])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{path} {where}" in err and "internal error" not in err

    @pytest.mark.parametrize("writer", ["checkpoint", "artifact"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "out"
        path.write_bytes(b"previous contents")
        model = build_model(FaimConfig(patch_len=4, embed_dim=8, n_layers=1, ssm_state=4), 2, 1, 16)

        def disk_full(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError, match="No space left"):
            if writer == "checkpoint":
                save_checkpoint(model, str(path))
            else:
                _write(path, "new contents\n")
        assert path.read_bytes() == b"previous contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_non_finite_training_exits_1_before_writing_results(self, tmp_path, capsys):
        assert main(synth_args(tmp_path, "synth")) == 0
        model = build_model(FaimConfig(patch_len=4, embed_dim=8, n_layers=1, ssm_state=4), 2, 1, 16)
        model.cls_w.data[0] = np.nan
        init = str(tmp_path / "nan.ckpt")
        save_checkpoint(model, init)
        capsys.readouterr()
        rc = main(["finetune", "--run.dir", str(tmp_path), "--run.name", "f",
                   "--data.train", str(tmp_path / "synth" / "train.tsv"),
                   "--finetune.init", init, *SMALL])
        assert rc == 1
        err = capsys.readouterr().err
        assert "finetune epoch 1 step 1: the training loss is nan" in err
        assert not {"checkpoint", "report.csv", "summary"} & {p.name for p in (tmp_path / "f").iterdir()}

    @pytest.mark.parametrize("command", ["eval", "noise-bench"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_out_of_range_eval_batch_size_exits_1(self, tmp_path, capsys, command, value):
        assert main(synth_args(tmp_path, "synth")) == 0
        path = tmp_path / "model.ckpt"
        model = build_model(FaimConfig(patch_len=4, embed_dim=8, n_layers=1, ssm_state=4), 2, 1, 16)
        save_checkpoint(model, str(path))
        capsys.readouterr()
        rc = main([command, "--run.dir", str(tmp_path), "--run.name", "e", "--eval.checkpoint", str(path),
                   "--data.test", str(tmp_path / "synth" / "test.tsv"), "--train.batch_size", value])
        assert rc == 1
        assert f"train.batch_size must be in [1, 256], got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--synth.n_per_class", "-1"], "synth.n_per_class"),
            (["--synth.n_per_class", "0"], "synth.n_per_class"),
            (["--synth.kind", "motion", "--synth.channels", "0"], "synth.channels"),
            (["--synth.kind", "motion", "--synth.t", "0"], "synth.t"),
        ],
        ids=["negative-count", "zero-count", "zero-channels", "zero-length"],
    )
    def test_synth_rejects_an_empty_corpus_before_writing_it(self, tmp_path, capsys, flags, key):
        rc = main(synth_args(tmp_path, "s") + flags)
        assert rc == 1
        assert f"{key} must be >= 1, got {flags[-1]}" in capsys.readouterr().err
        written = {p.name for p in (tmp_path / "s").iterdir()}
        assert not {"train.tsv", "test.tsv", "train.jsonl", "test.jsonl"} & written

    def test_synth_rejects_a_one_class_corpus(self, tmp_path, capsys):
        rc = main(synth_args(tmp_path, "s") + ["--synth.freqs", "0.5"])
        assert rc == 1
        assert "need at least 2 classes, got 1" in capsys.readouterr().err
        assert not {"train.tsv", "test.tsv"} & {p.name for p in (tmp_path / "s").iterdir()}

    def test_finetune_rejects_a_one_class_training_set(self, tmp_path, capsys):
        path = tmp_path / "one.tsv"
        path.write_text("".join("a\t" + "\t".join(str(np.sin(i + k)) for k in range(16)) + "\n" for i in range(6)))
        rc = main(["finetune", "--run.dir", str(tmp_path), "--run.name", "f", "--data.train", str(path), *SMALL])
        assert rc == 1
        assert "finetune needs at least 2 classes, got 1" in capsys.readouterr().err
        assert not {"checkpoint", "report.csv", "summary"} & {p.name for p in (tmp_path / "f").iterdir()}

    def test_finetune_rejects_one_present_class_under_a_two_class_init_map(self, tmp_path, capsys):
        # The init model's label map gives the set 2 classes; its labels hold 1.
        path = tmp_path / "one.tsv"
        path.write_text("".join("a\t" + "\t".join(str(np.sin(i + k)) for k in range(16)) + "\n" for i in range(6)))
        init = str(tmp_path / "init.ckpt")
        model = build_model(FaimConfig(patch_len=4, embed_dim=8, n_layers=1, ssm_state=4), 2, 1, 16)
        save_checkpoint(model, init, meta={"label_map": {"a": 0, "b": 1}})
        rc = main(["finetune", "--run.dir", str(tmp_path), "--run.name", "f", "--data.train", str(path),
                   "--finetune.init", init, *SMALL])
        assert rc == 1
        assert "finetune needs at least 2 classes, got 1: ['a']" in capsys.readouterr().err
        assert not {"checkpoint", "report.csv", "summary"} & {p.name for p in (tmp_path / "f").iterdir()}

    def test_synth_rejects_a_negative_sigma_before_writing(self, tmp_path, capsys):
        rc = main(synth_args(tmp_path, "s") + ["--synth.sigma", "-1"])
        assert rc == 1
        assert "noise sigma must be >= 0, got -1.0" in capsys.readouterr().err
        assert not {"train.tsv", "test.tsv"} & {p.name for p in (tmp_path / "s").iterdir()}

    def test_noise_bench_rejects_a_nan_sigma(self, tmp_path, capsys):
        assert main(synth_args(tmp_path, "synth")) == 0
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(FaimConfig(patch_len=4, embed_dim=8, n_layers=1, ssm_state=4), 2, 1, 16), str(path))
        capsys.readouterr()
        rc = main(["noise-bench", "--run.dir", str(tmp_path), "--run.name", "nb", "--eval.checkpoint", str(path),
                   "--data.test", str(tmp_path / "synth" / "test.tsv"), "--noise.sigmas", "0.0,nan"])
        assert rc == 1
        assert "noise sigma must be >= 0, got nan" in capsys.readouterr().err
        assert not {"report.csv", "summary"} & {p.name for p in (tmp_path / "nb").iterdir()}

    def test_lockfile_contention(self, tmp_path, capsys):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".lock").touch()
        rc = main(synth_args(tmp_path, "locked"))
        assert rc == 1
        assert "already claimed" in capsys.readouterr().err

    def test_internal_errors_exit_2(self, tmp_path, capsys, monkeypatch):
        # an exception that is not a FaimError is a defect of the program
        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("faim.cli.data_io.make_synthetic_freq_dataset", fail)
        assert main(synth_args(tmp_path, "s")) == 2
        assert "internal error: RuntimeError: boom" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> pretrain -> finetune, shared by the artifact tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(synth_args(root, "synth")) == 0
    train = str(root / "synth" / "train.tsv")
    test = str(root / "synth" / "test.tsv")
    assert main(
        ["pretrain", "--run.dir", str(root), "--run.name", "pre",
         "--data.train", train, *SMALL]
    ) == 0
    assert main(
        ["finetune", "--run.dir", str(root), "--run.name", "ft",
         "--data.train", train, "--data.test", test,
         "--finetune.init", str(root / "pre" / "checkpoint"), *SMALL]
    ) == 0
    return root, train, test


class TestPipeline:
    def test_synth_artifacts(self, pipeline):
        root, train, test = pipeline
        out = root / "synth"
        assert (out / "config.echo").exists()
        assert not (out / ".lock").exists()
        summary = (out / "summary").read_text()
        assert "kind=freq" in summary
        from faim.data import load_univariate

        ds = load_univariate(train)
        assert (len(ds), ds.series_len) == (6, 16)
        assert load_univariate(test).label_map == ds.label_map

    def test_synth_is_deterministic(self, pipeline, tmp_path):
        root, train, _ = pipeline
        assert main(synth_args(tmp_path, "again")) == 0
        a = open(train, "rb").read()
        b = open(tmp_path / "again" / "train.tsv", "rb").read()
        assert a == b

    def test_pretrain_artifacts(self, pipeline):
        root, _, _ = pipeline
        out = root / "pre"
        report = (out / "report.csv").read_text()
        assert report.splitlines()[0] == "epoch,split,loss,accuracy,macro_f1"
        assert ",pretrain," in report
        model, meta = load_checkpoint(str(out / "checkpoint"))
        assert meta["label_map"] == {"0": 0, "1": 1}
        assert "best_loss" in (out / "summary").read_text()

    def test_finetune_artifacts_include_test_row(self, pipeline):
        root, _, _ = pipeline
        out = root / "ft"
        report = (out / "report.csv").read_text()
        assert any(line.split(",")[1] == "test" for line in report.splitlines()[1:])
        # no wall-clock column, so reruns can be compared byte for byte
        assert all(len(line.split(",")) == 5 for line in report.splitlines())
        assert "test_accuracy=" in (out / "summary").read_text()
        assert (out / "checkpoint").exists()

    def test_eval_command(self, pipeline, capsys):
        root, _, test = pipeline
        rc = main(
            ["eval", "--run.dir", str(root), "--run.name", "ev",
             "--eval.checkpoint", str(root / "ft" / "checkpoint"),
             "--data.test", test, "--train.batch_size", "8"]
        )
        assert rc == 0
        lines = (root / "ev" / "report.csv").read_text().splitlines()
        assert lines[0] == "epoch,split,loss,accuracy,macro_f1"
        assert lines[1].startswith("0,test,")
        summary = (root / "ev" / "summary").read_text()
        assert "test_accuracy=" in summary and "test_loss=" in summary

    def test_noise_bench_keeps_sigma_order(self, pipeline):
        root, _, test = pipeline
        rc = main(
            ["noise-bench", "--run.dir", str(root), "--run.name", "nb",
             "--eval.checkpoint", str(root / "ft" / "checkpoint"),
             "--data.test", test, "--sigmas", "0.5,0.0,0.2"]
        )
        assert rc == 0
        lines = (root / "nb" / "report.csv").read_text().splitlines()
        assert lines[0] == "sigma,accuracy,macro_f1"
        assert [line.split(",")[0] for line in lines[1:]] == ["0.5", "0.0", "0.2"]

    def test_ablate_labels_rows(self, pipeline):
        root, train, test = pipeline
        rc = main(
            ["ablate", "--run.dir", str(root), "--run.name", "ab",
             "--data.train", train, "--data.test", test,
             "--variants", "full,no_afb",
             *SMALL, "--train.finetune_epochs", "1"]
        )
        assert rc == 0
        lines = (root / "ab" / "report.csv").read_text().splitlines()
        assert lines[0] == "variant,label,accuracy,macro_f1"
        assert lines[1].startswith("full,FAIM,")
        assert lines[2].startswith("no_afb,w/o AFB,")

    def test_ablate_rejects_an_unknown_variant_before_training(self, pipeline, capsys, monkeypatch):
        root, train, test = pipeline
        trained = []
        for stage in ("pretrain", "finetune"):
            monkeypatch.setattr(f"faim.cli.{stage}", lambda *a, stage=stage, **k: trained.append(stage))
        rc = main(
            ["ablate", "--run.dir", str(root), "--run.name", "ab3",
             "--data.train", train, "--data.test", test,
             "--variants", "full,bogus", *SMALL]
        )
        assert rc == 1
        assert "unknown variant 'bogus'" in capsys.readouterr().err
        assert trained == []
        assert not (root / "ab3" / "report.csv").exists()

    def test_ablate_rejects_a_bad_test_split_before_training(self, pipeline, capsys, monkeypatch):
        root, train, _ = pipeline
        trained = []
        for stage in ("pretrain", "finetune"):
            monkeypatch.setattr(f"faim.cli.{stage}", lambda *a, stage=stage, **k: trained.append(stage))
        bad = root / "bad-test.tsv"
        bad.write_text("a\t1.0\tnot-a-number\n")
        rc = main(
            ["ablate", "--run.dir", str(root), "--run.name", "ab4",
             "--data.train", train, "--data.test", str(bad), *SMALL]
        )
        assert rc == 1
        assert f"{bad} line 1" in capsys.readouterr().err
        assert trained == []

    def test_ablate_reads_the_test_split_once(self, pipeline, monkeypatch):
        root, train, test = pipeline
        from faim import data

        reads = []
        load = data.load_univariate
        monkeypatch.setattr(data, "load_univariate", lambda path: reads.append(path) or load(path))
        rc = main(
            ["ablate", "--run.dir", str(root), "--run.name", "ab5",
             "--data.train", train, "--data.test", test,
             "--variants", "full,no_afb,no_imb",
             *SMALL, "--train.finetune_epochs", "1"]
        )
        assert rc == 0
        assert reads.count(test) == 1

    def test_finetune_init_rejects_a_different_model_setting(self, pipeline, capsys):
        root, train, _ = pipeline
        rc = main(
            ["finetune", "--run.dir", str(root), "--run.name", "ft-mismatch",
             "--data.train", train, "--finetune.init", str(root / "pre" / "checkpoint"),
             *SMALL, "--model.embed_dim", "16", "--variant", "no_afb",
             "--train.label_smooth_eps", "0.3"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "model.embed_dim is 16, but the init model was built with 8" in err
        assert not (root / "ft-mismatch" / "checkpoint").exists()

    def test_finetune_init_honours_training_settings(self, pipeline):
        root, train, _ = pipeline
        rc = main(
            ["finetune", "--run.dir", str(root), "--run.name", "ft-train",
             "--data.train", train, "--finetune.init", str(root / "pre" / "checkpoint"),
             *SMALL, "--train.label_smooth_eps", "0.3", "--train.finetune_epochs", "1"]
        )
        assert rc == 0
        model, _ = load_checkpoint(str(root / "ft-train" / "checkpoint"))
        assert (model.config.label_smooth_eps, model.config.finetune_epochs) == (0.3, 1)
        assert "epochs=1" in (root / "ft-train" / "summary").read_text().splitlines()

    def test_ablate_requires_test_split(self, pipeline, capsys):
        root, train, _ = pipeline
        rc = main(
            ["ablate", "--run.dir", str(root), "--run.name", "ab2",
             "--data.train", train, *SMALL]
        )
        assert rc == 1
        assert "needs --data.test" in capsys.readouterr().err

    def test_rerun_from_echo_is_bit_identical(self, pipeline):
        root, _, _ = pipeline
        echo = root / "ft" / "config.echo"
        rc = main(["finetune", "--config", str(echo), "--run.name", "ft2"])
        assert rc == 0
        for artifact in ("report.csv", "checkpoint"):
            a = (root / "ft" / artifact).read_bytes()
            b = (root / "ft2" / artifact).read_bytes()
            assert a == b, f"{artifact} differs on rerun"
        replay = (root / "ft2" / "config.echo").read_text().splitlines()
        original = echo.read_text().splitlines()
        assert [l for l in replay if not l.startswith("run.name=")] == [
            l for l in original if not l.startswith("run.name=")
        ]

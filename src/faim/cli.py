"""Command-line surface: pretrain, finetune, eval, noise-bench, ablate, synth.

Every run claims an output directory ``<run.dir>/<run.name>/`` via a
lockfile, echoes its fully-resolved config there first, then writes its
artifacts (report.csv, summary, checkpoint).  Exit codes: 0 success, 1 input
or config error, 2 internal error.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import data as data_io
from .config import format_echo, model_config, resolve_config
from .errors import FaimError, InputError
from .metrics import accuracy_and_macro_f1
from .model import VARIANT_LABELS, load_checkpoint
from .training import TrainReport, dataset_meta, evaluate, finetune, predict_dataset, pretrain

USAGE = """usage: faim <command> [--config FILE] [--key value ...]

commands:
  pretrain     masked-reconstruction stage; writes checkpoint + report
  finetune     supervised stage (optionally from a pretrained checkpoint)
  eval         score a checkpoint on a test file
  noise-bench  accuracy under additive Gaussian noise, one row per sigma
  ablate       train and score the named model variants
  synth        emit a synthetic corpus (train + test files)

Keys are the flat dotted names from the config registry, e.g.
  faim finetune --data.train train.tsv --train.finetune_epochs 50
"""


def _load_dataset(path: str, fmt: str) -> data_io.SeriesDataset:
    if not path:
        raise InputError("no dataset path configured (set data.train / data.test)")
    if fmt == "univariate":
        return data_io.load_univariate(path)
    if fmt == "multivariate":
        return data_io.load_multivariate(path)
    raise InputError(f"data.format must be 'univariate' or 'multivariate', got {fmt!r}")


def _load_train(cfg: dict) -> data_io.SeriesDataset:
    dataset = _load_dataset(cfg["data.train"], cfg["data.format"])
    if cfg["data.normalize"]:
        dataset = data_io.znormalize(dataset)
    return dataset


def _load_test_like(cfg: dict, meta: dict) -> data_io.SeriesDataset:
    """Test split aligned to a training run: its label map, its statistics."""
    dataset = _load_dataset(cfg["data.test"], cfg["data.format"])
    label_map = meta.get("label_map")
    if label_map:
        dataset = data_io.align_labels(dataset, label_map)
    if meta.get("norm_mean") is not None:
        stats = (np.asarray(meta["norm_mean"]), np.asarray(meta["norm_std"]))
        dataset = data_io.znormalize(dataset, stats=stats)
    return dataset


def _write(path: Path, text: str) -> None:
    data_io.write_atomic(path, text.encode())


class _RunDirectory:
    """Exclusive claim on an output directory for the duration of a command."""

    def __init__(self, cfg: dict, command: str):
        name = cfg["run.name"] or f"{command}-{time.strftime('%Y%m%d-%H%M%S')}"
        self.path = Path(cfg["run.dir"]) / name
        self.lock = self.path / ".lock"

    def __enter__(self) -> Path:
        self.path.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise InputError(
                f"{self.path} is already claimed by a running command "
                f"(remove {self.lock} if that run is dead)"
            ) from None
        os.close(fd)
        return self.path

    def __exit__(self, *exc):
        try:
            os.unlink(self.lock)
        except FileNotFoundError:
            pass
        return False


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_synth(cfg: dict, out_dir: Path) -> None:
    kind = cfg["synth.kind"]
    for key in ["synth.n_per_class", "synth.t"] + (["synth.channels"] if kind == "motion" else []):
        if cfg[key] < 1:
            raise InputError(f"{key} must be >= 1, got {cfg[key]}")
    if kind == "freq":
        ext = "tsv"
        make = lambda seed: data_io.make_synthetic_freq_dataset(
            cfg["synth.n_per_class"], cfg["synth.t"], cfg["synth.freqs"], cfg["synth.sigma"], seed
        )
        save = data_io.save_univariate
    elif kind == "motion":
        ext = "jsonl"
        make = lambda seed: data_io.make_synthetic_motion_dataset(
            cfg["synth.n_per_class"],
            cfg["synth.channels"],
            cfg["synth.t"],
            cfg["synth.classes"],
            cfg["synth.sigma"],
            seed,
        )
        save = data_io.save_multivariate
    else:
        raise InputError(f"synth.kind must be 'freq' or 'motion', got {kind!r}")
    train_path = cfg["synth.train_out"] or str(out_dir / f"train.{ext}")
    test_path = cfg["synth.test_out"] or str(out_dir / f"test.{ext}")
    save(make(cfg["synth.seed"]), train_path)
    save(make(cfg["synth.seed"] + 1), test_path)
    summary = f"kind={kind}\ntest={test_path}\ntrain={train_path}\n"
    _write(out_dir / "summary", summary)


def _batch_size(cfg: dict, model) -> int:
    """train.batch_size, checked as FaimConfig checks it for training."""
    return dataclasses.replace(model.config, batch_size=cfg["train.batch_size"]).batch_size


def _score_test(cfg: dict, model, meta: dict, report: TrainReport) -> float:
    """Add the test split's row and metrics to ``report``; returns the test loss."""
    batch_size = _batch_size(cfg, model)
    test = _load_test_like(cfg, meta)
    loss, acc, f1 = evaluate(model, test, batch_size)
    report.add(0, "test", loss, acc, f1)
    report.summary["test_accuracy"] = repr(acc)
    report.summary["test_macro_f1"] = repr(f1)
    return loss


def _cmd_pretrain(cfg: dict, out_dir: Path) -> None:
    started = time.perf_counter()
    model_cfg = model_config(cfg)
    dataset = _load_train(cfg)
    _, report = pretrain(dataset, model_cfg, checkpoint_path=str(out_dir / "checkpoint"))
    report.summary["wall_seconds"] = f"{time.perf_counter() - started:.3f}"
    _write(out_dir / "report.csv", report.to_csv())
    _write(out_dir / "summary", report.summary_text())


def _cmd_finetune(cfg: dict, out_dir: Path) -> None:
    started = time.perf_counter()
    model_cfg = model_config(cfg)
    dataset = _load_train(cfg)
    init = None
    meta = {}
    if cfg["finetune.init"]:
        init, meta = load_checkpoint(cfg["finetune.init"])
        if meta.get("label_map"):
            dataset = data_io.align_labels(dataset, meta["label_map"])
    model, report = finetune(
        dataset, model_cfg, init=init, checkpoint_path=str(out_dir / "checkpoint")
    )
    if cfg["data.test"]:
        _score_test(cfg, model, dataset_meta(dataset, model_cfg), report)
    report.summary["wall_seconds"] = f"{time.perf_counter() - started:.3f}"
    _write(out_dir / "report.csv", report.to_csv())
    _write(out_dir / "summary", report.summary_text())


def _cmd_eval(cfg: dict, out_dir: Path) -> None:
    if not cfg["eval.checkpoint"]:
        raise InputError("eval needs --eval.checkpoint pointing at a trained model")
    model, meta = load_checkpoint(cfg["eval.checkpoint"])
    report = TrainReport()
    report.summary["test_loss"] = repr(_score_test(cfg, model, meta, report))
    _write(out_dir / "report.csv", report.to_csv())
    _write(out_dir / "summary", report.summary_text())


def _cmd_noise_bench(cfg: dict, out_dir: Path) -> None:
    if not cfg["eval.checkpoint"]:
        raise InputError("noise-bench needs --eval.checkpoint pointing at a trained model")
    model, meta = load_checkpoint(cfg["eval.checkpoint"])
    batch_size = _batch_size(cfg, model)
    test = _load_test_like(cfg, meta)
    lines = ["sigma,accuracy,macro_f1"]
    report = TrainReport()
    for sigma in cfg["noise.sigmas"]:
        noisy = data_io.add_gaussian_noise(test, sigma, cfg["train.seed"])
        preds = predict_dataset(model, noisy, batch_size)
        acc, f1 = accuracy_and_macro_f1(preds, noisy.y, noisy.n_classes)
        lines.append(f"{repr(float(sigma))},{repr(acc)},{repr(f1)}")
        report.summary[f"accuracy_at_{format(sigma, 'g')}"] = repr(acc)
    _write(out_dir / "report.csv", "\n".join(lines) + "\n")
    _write(out_dir / "summary", report.summary_text())


def _cmd_ablate(cfg: dict, out_dir: Path) -> None:
    if not cfg["data.test"]:
        raise InputError("ablate needs --data.test to score the variants")
    base = model_config(cfg)
    variant_cfgs = [dataclasses.replace(base, variant=v) for v in cfg["ablate.variants"]]
    dataset = _load_train(cfg)
    test = _load_test_like(cfg, dataset_meta(dataset, base))
    lines = ["variant,label,accuracy,macro_f1"]
    report = TrainReport()
    for model_cfg in variant_cfgs:
        variant = model_cfg.variant
        init = None
        if variant != "no_pretrain" and model_cfg.pretrain_epochs > 0:
            init, _ = pretrain(dataset, model_cfg)
        model, _ = finetune(dataset, model_cfg, init=init)
        _, acc, f1 = evaluate(model, test, cfg["train.batch_size"])
        lines.append(f"{variant},{VARIANT_LABELS[variant]},{repr(acc)},{repr(f1)}")
        report.summary[f"accuracy_{variant}"] = repr(acc)
    _write(out_dir / "report.csv", "\n".join(lines) + "\n")
    _write(out_dir / "summary", report.summary_text())


_DISPATCH = {
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "eval": _cmd_eval,
    "noise-bench": _cmd_noise_bench,
    "ablate": _cmd_ablate,
    "synth": _cmd_synth,
}


def run(command: str, cfg: dict) -> int:
    """Execute one command against a resolved config; returns the exit code."""
    if command not in _DISPATCH:
        raise InputError(f"unknown command {command!r}; choose one of {', '.join(_DISPATCH)}")
    with _RunDirectory(cfg, command) as out_dir:
        _write(out_dir / "config.echo", format_echo(cfg))
        _DISPATCH[command](cfg, out_dir)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if not argv or argv[0] in ("-h", "--help"):
            print(USAGE)
            return 0
        command = argv[0]
        config_path = None
        overrides: list[tuple[str, str]] = []
        i = 1
        while i < len(argv):
            arg = argv[i]
            if not arg.startswith("--"):
                raise InputError(f"expected --key, got {arg!r}")
            key = arg[2:]
            if "=" in key:
                key, value = key.split("=", 1)
                i += 1
            else:
                if i + 1 >= len(argv):
                    raise InputError(f"flag --{key} is missing its value")
                value = argv[i + 1]
                i += 2
            if key == "config":
                config_path = value
            else:
                overrides.append((key, value))
        cfg = resolve_config(config_path, overrides)
        return run(command, cfg)
    except FaimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything unforeseen is an internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

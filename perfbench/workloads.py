"""The three faim workloads: their inputs, and one repetition of each.

All three are closed loops with a single caller, because training and
evaluation are batch jobs.  ``generate`` writes a workload's inputs (corpus
files, and for inference a checkpoint) from the seed, untimed; a repetition
sees only those files and drives faim through the functions the CLI calls.

Each repetition is kept to a few seconds, with the per-step geometry of the
full job, so that one run of the benchmark fits several repetitions.  Every
training step and evaluated batch is a full batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from faim import data as data_io
from faim import training
from faim.model import FaimConfig, build_model, load_checkpoint, save_checkpoint

MOTION = dict(n_channels=6, t=128, n_classes=4, snr_sigma=0.5)
FREQS = [3.0, 12.0]


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json."""

    name: str
    kind: str  # "finetune", "pretrain" or "infer"
    config: dict = field(default_factory=dict)
    n_per_class: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "finetune-motion",
            "finetune",
            config=dict(batch_size=32, finetune_epochs=3),
            n_per_class=10,  # 40 samples: 8 held out for validation, one full batch of 32 per epoch
        ),
        Workload(
            "pretrain-tiny",
            "pretrain",
            config=dict(embed_dim=16, ssm_state=4, n_layers=2, batch_size=8, pretrain_epochs=12),
            n_per_class=64,  # 128 samples, 16 steps per epoch
        ),
        Workload(
            "infer-motion",
            "infer",
            config=dict(batch_size=256),
            n_per_class=64,  # 256 test samples: one batch at the CLI's default batch size
        ),
    )
}


def model_config(workload: Workload, seed: int) -> FaimConfig:
    return FaimConfig(seed=seed, **workload.config)


def generate(workload: Workload, seed: int, out_dir: Path) -> None:
    """Write the workload's input files into ``out_dir`` (untimed)."""
    if workload.kind == "pretrain":
        corpus = data_io.make_synthetic_freq_dataset(workload.n_per_class, 128, FREQS, 0.5, seed)
        data_io.save_univariate(corpus, str(out_dir / "train.tsv"))
    elif workload.kind == "finetune":
        corpus = data_io.make_synthetic_motion_dataset(workload.n_per_class, seed=seed, **MOTION)
        data_io.save_multivariate(corpus, str(out_dir / "train.jsonl"))
    else:
        # The checkpoint carries the label map and normalisation statistics of a
        # training split, as one written by `faim finetune` does.
        train = data_io.znormalize(data_io.make_synthetic_motion_dataset(10, seed=seed, **MOTION))
        model = build_model(model_config(workload, seed), train.n_classes, train.n_channels, train.series_len)
        meta = {
            "label_map": train.label_map,
            "norm_mean": list(train.norm_mean),
            "norm_std": list(train.norm_std),
            "seed": seed,
        }
        save_checkpoint(model, str(out_dir / "checkpoint"), meta)
        test = data_io.make_synthetic_motion_dataset(workload.n_per_class, seed=seed + 1, **MOTION)
        data_io.save_multivariate(test, str(out_dir / "test.jsonl"))


def setup(workload: Workload, seed: int, in_dir: Path, timed) -> dict:
    """Parse the inputs and normalise, as the CLI does before its call; load
    the model for inference and build it for finetuning (pretrain builds
    its own).

    ``timed(name, fn, *args)`` calls ``fn``; the traced run records a span.
    """
    if workload.kind == "infer":
        model, meta = timed("model.load_checkpoint", load_checkpoint, str(in_dir / "checkpoint"))
        test = timed("data.load", data_io.load_multivariate, str(in_dir / "test.jsonl"))
        test = timed("data.align_labels", data_io.align_labels, test, meta["label_map"])
        stats = (meta["norm_mean"], meta["norm_std"])
        test = timed("data.znormalize", data_io.znormalize, test, stats=stats)
        return {"model": model, "dataset": test}
    if workload.kind == "pretrain":
        dataset = timed("data.load", data_io.load_univariate, str(in_dir / "train.tsv"))
    else:
        dataset = timed("data.load", data_io.load_multivariate, str(in_dir / "train.jsonl"))
    dataset = timed("data.znormalize", data_io.znormalize, dataset)
    config = model_config(workload, seed)
    if workload.kind == "pretrain":
        return {"dataset": dataset, "config": config}
    model = timed(
        "model.build", build_model, config, dataset.n_classes, dataset.n_channels, dataset.series_len
    )
    return {"model": model, "dataset": dataset, "config": config}


def run(workload: Workload, state: dict) -> dict:
    """The timed call; returns the losses and scores the checks look at."""
    dataset = state["dataset"]
    if workload.kind == "infer":
        loss, accuracy, macro_f1 = training.evaluate(state["model"], dataset, workload.config["batch_size"])
        return {"samples": len(dataset), "losses": [loss], "final_loss": loss, "scores": [accuracy, macro_f1]}
    config = state["config"]
    if workload.kind == "pretrain":
        _, report = training.pretrain(dataset, config)
        samples = len(dataset) * config.pretrain_epochs
    else:
        _, report = training.finetune(dataset, config, init=state["model"])
        held_out = max(1, int(round(0.2 * len(dataset))))  # finetune's validation split
        samples = (len(dataset) - held_out) * config.finetune_epochs
    train_rows = [r for r in report.rows if r.split in ("pretrain", "train")]
    return {
        "samples": samples,
        "losses": [r.loss for r in report.rows],
        "final_loss": train_rows[-1].loss,
        "epochs": len(train_rows),
        "scores": [s for r in report.rows for s in (r.accuracy, r.macro_f1) if s is not None],
    }

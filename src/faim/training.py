"""Masking, losses, and the two-stage training procedure.

Stage one reconstructs randomly masked patches under a mean-squared loss
restricted to the masked positions; stage two trains the classifier with
label-smoothed cross-entropy, tracking the best validation accuracy.  Both
stages are deterministic functions of (dataset, config.seed).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .data import SeriesDataset, split_dataset
from .errors import ConfigError, InputError, NonFiniteError, ShapeError
from .metrics import accuracy_and_macro_f1
from .model import (
    CONFIG_SECTION,
    FaimConfig,
    FaimModel,
    build_model,
    classify_batch,
    patchify,
    reconstruct_forward,
    save_checkpoint,
)
from .optim import AdamWState, adamw_step
from .rng import CounterRng, derive_seed
from .tensor import Tape, Tensor, backward, record, reshape


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------


def make_mask(shape: tuple[int, ...], ratio: float, seed: int) -> np.ndarray:
    """Binary per-(channel, patch) mask: exactly round(ratio * Z) ones per
    row, chosen by seeded shuffle.

    ``shape`` is (..., Z); every leading index gets its own row draw, all
    derived from (seed, shape) so the mask is reproducible.
    """
    if not 0 <= ratio < 1:
        raise InputError(f"mask ratio must be in [0, 1), got {ratio}")
    z = shape[-1]
    n_masked = int(round(ratio * z))
    lam = np.zeros(shape)
    flat = lam.reshape(-1, z)
    chosen = CounterRng(derive_seed(seed, "mask", *shape)).permutations(flat.shape[0], z)
    np.put_along_axis(flat, chosen[:, :n_masked], 1.0, axis=-1)
    return lam


# ---------------------------------------------------------------------------
# losses: each one tape node, whose rule repeats the rules of the primitive
# chain it replaced in the same order, so gradients are bitwise equal to it
# ---------------------------------------------------------------------------


def masked_mse(x_true, x_hat: Tensor, lam) -> Tensor:
    """Mean over masked patches of the per-patch mean squared error.

    Unmasked patches contribute nothing; their gradient is exactly zero.
    Returns a constant 0 when nothing is masked.
    """
    lam = np.asarray(lam, dtype=np.float64)
    x_true = np.asarray(x_true, dtype=np.float64)
    if x_hat.shape != x_true.shape or lam.shape != x_true.shape[:-1]:
        raise ShapeError(
            f"masked_mse shapes disagree: x {x_true.shape}, x_hat {x_hat.shape}, mask {lam.shape}"
        )
    total = float(lam.sum())
    if total == 0.0:
        return Tensor(0.0)
    diff = x_hat.data - x_true
    per_patch = (diff * diff).mean(axis=-1)
    weight = 1.0 / total
    out = Tensor((per_patch * lam).sum() * weight)
    # The gradient of the mean over a patch spreads this share to each entry.
    share = per_patch.size / max(diff.size, 1)

    def rule(gs):
        g_patch = np.broadcast_to(gs[0] * weight, lam.shape) * lam
        g_diff = np.broadcast_to(g_patch[..., None], diff.shape) * share * diff
        # diff·diff: one contribution per factor.
        return (g_diff + g_diff,)

    record((x_hat,), (out,), rule)
    return out


def smooth_targets(y: int, n_classes: int, eps: float) -> np.ndarray:
    """(1 - eps) * onehot(y) + eps / k."""
    if not 0 <= eps < 1:
        raise InputError(f"smoothing eps must be in [0, 1), got {eps}")
    if not 0 <= y < n_classes:
        raise InputError(f"label {y} outside [0, {n_classes})")
    targets = np.full(n_classes, eps / n_classes)
    targets[y] += 1.0 - eps
    return targets


def label_smoothed_ce(logits: Tensor, y: int, eps: float) -> Tensor:
    """Cross-entropy of one logit vector against smoothed targets."""
    if logits.ndim != 1:
        raise ShapeError(f"expected a logit vector, got shape {logits.shape}")
    if logits.shape[0] < 2:
        raise InputError(f"need at least 2 classes, got {logits.shape[0]}")
    return batch_label_smoothed_ce(reshape(logits, (1, -1)), np.array([y]), eps)


def batch_label_smoothed_ce(logits: Tensor, labels: np.ndarray, eps: float) -> Tensor:
    """Mean smoothed cross-entropy over a batch of logit rows."""
    n_batch, n_classes = logits.shape
    targets = np.stack([smooth_targets(int(y), n_classes, eps) for y in labels])
    z = logits.data
    # The max shift is a constant offset: gradients of log-softmax are exact
    # regardless of the shift chosen.
    shift = z - z.max(axis=-1, keepdims=True)
    exp_shift = np.exp(shift)
    total = exp_shift.sum(axis=-1, keepdims=True)
    weight = 1.0 / n_batch
    out = Tensor(-((shift - np.log(total)) * targets).sum() * weight)

    def rule(gs):
        g_log_probs = np.broadcast_to(-(gs[0] * weight), z.shape) * targets
        g_total = (-g_log_probs).sum(axis=-1, keepdims=True) / total
        return (g_log_probs + g_total * exp_shift,)

    record((logits,), (out,), rule)
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

REPORT_COLUMNS = ("epoch", "split", "loss", "accuracy", "macro_f1")


@dataclass
class EpochRow:
    epoch: int
    split: str
    loss: float | None
    accuracy: float | None
    macro_f1: float | None


@dataclass
class TrainReport:
    rows: list[EpochRow] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def add(self, epoch, split, loss, accuracy, macro_f1) -> None:
        self.rows.append(EpochRow(epoch, split, loss, accuracy, macro_f1))

    def to_csv(self) -> str:
        """CSV rows, byte-identical across re-runs: wall time lives only in
        the summary."""

        def cell(v):
            return "" if v is None else repr(float(v))

        lines = [",".join(REPORT_COLUMNS)]
        for r in self.rows:
            lines.append(f"{r.epoch},{r.split},{cell(r.loss)},{cell(r.accuracy)},{cell(r.macro_f1)}")
        return "\n".join(lines) + "\n"

    def summary_text(self) -> str:
        lines = [f"{key}={self.summary[key]}" for key in sorted(self.summary)]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------


def row_block(model: FaimModel) -> int:
    """Samples per tape-free forward that keep the working set cache-sized:
    a sample costs 16 bytes per (channel, patch, dim), the complex128
    spectrum of its tokens, against ``tensor.ROW_BLOCK_BYTES``."""
    per_sample = model.n_channels * model.n_patches * model.config.embed_dim * 16
    return max(1, tensor.ROW_BLOCK_BYTES // per_sample)


def _logits(model: FaimModel, x: np.ndarray, batch_size: int) -> np.ndarray:
    """Logits of every sample, from forwards over blocks of at most
    ``min(batch_size, row_block(model))`` samples."""
    step = min(batch_size, row_block(model))
    return np.concatenate(
        [classify_batch(model, x[start : start + step])[0].data for start in range(0, len(x), step)]
    )


def predict_dataset(model: FaimModel, dataset: SeriesDataset, batch_size: int = 256) -> np.ndarray:
    """Predicted class per sample.  ``batch_size`` bounds the rows of one
    forward from above; the forward runs over smaller cache-sized blocks
    when the model geometry calls for them."""
    return np.argmax(_logits(model, dataset.x, batch_size), axis=-1)


def evaluate(model: FaimModel, dataset: SeriesDataset, batch_size: int = 256):
    """(mean CE loss, accuracy, macro F1) on a dataset, no gradients.

    ``batch_size`` bounds the rows of one forward from above, as in
    ``predict_dataset``; memory is bounded by the row block, not by it.
    """
    logits = _logits(model, dataset.x, batch_size)
    loss = batch_label_smoothed_ce(Tensor(logits), dataset.y, model.config.label_smooth_eps)
    accuracy, macro_f1 = accuracy_and_macro_f1(
        np.argmax(logits, axis=-1), dataset.y, dataset.n_classes
    )
    return loss.item(), accuracy, macro_f1


def _check_loss(loss: float, stage: str, epoch: int, step: int) -> None:
    if not math.isfinite(loss):
        raise NonFiniteError(f"{stage} epoch {epoch} step {step}: the training loss is {loss!r}")


def _check_parameters(model: FaimModel, stage: str, epoch: int, step: int) -> None:
    """Raise if any parameter holds a non-finite value after ``step``."""
    finite = np.isfinite(model.values)
    if not finite.all():
        name = next(name for name, _, part in model.layout if not finite[part].all())
        raise NonFiniteError(
            f"{stage} epoch {epoch} step {step}: parameter {name} holds a non-finite value"
        )


# ---------------------------------------------------------------------------
# training stages
# ---------------------------------------------------------------------------


def _epochs(model: FaimModel, config: FaimConfig, stage: str, n_samples: int, epochs: int, batch_loss):
    """Train ``model`` with AdamW and yield (epoch, mean training loss)
    after each epoch: ``n_samples`` samples in a seeded shuffle, batch by
    batch; ``batch_loss(epoch, step, idx)`` records the loss of samples
    ``idx`` on the step's tape.  A non-finite step loss, or a parameter left
    non-finite at the end of an epoch, raises NonFiniteError."""
    opt = AdamWState(lr=config.lr, weight_decay=config.weight_decay)
    shuffle_rng = CounterRng(derive_seed(config.seed, f"{stage}-shuffle"))
    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(n_samples)
        epoch_loss = 0.0
        for step, start in enumerate(range(0, n_samples, config.batch_size)):
            idx = order[start : start + config.batch_size]
            with Tape() as tape:
                loss = batch_loss(epoch, step, idx)
            _check_loss(loss.item(), stage, epoch, step + 1)
            grads = backward(tape, loss)
            adamw_step(model.values, *model.gradient(grads), opt)
            epoch_loss += loss.item() * len(idx)
        _check_parameters(model, stage, epoch, step + 1)
        yield epoch, epoch_loss / n_samples


def pretrain(
    dataset: SeriesDataset, config: FaimConfig, checkpoint_path: str | None = None
) -> tuple[FaimModel, TrainReport]:
    """Masked-reconstruction stage; returns the best-loss parameter state.

    Non-finite losses and parameters raise NonFiniteError (see ``_epochs``)
    before any checkpoint is written.
    """
    if config.variant == "no_pretrain":
        raise ConfigError("variant no_pretrain is never pretrained; finetune it without an init model")
    if len(dataset) == 0:
        raise InputError("cannot pretrain on an empty dataset")
    x = dataset.x
    model = build_model(config, dataset.n_classes, dataset.n_channels, dataset.series_len)

    def batch_loss(epoch, step, idx):
        xb = x[idx]
        seed = derive_seed(config.seed, "pretrain-mask", epoch, step)
        lam = make_mask((len(xb), dataset.n_channels, model.n_patches), config.mask_ratio, seed)
        recon = reconstruct_forward(xb, lam, model)
        return masked_mse(patchify(xb, config.patch_len, config.patch_stride), recon, lam)

    report = TrainReport()
    best_loss, best_state = np.inf, model.values.copy()
    for epoch, epoch_loss in _epochs(model, config, "pretrain", len(x), config.pretrain_epochs, batch_loss):
        if epoch_loss < best_loss:
            best_loss, best_state = epoch_loss, model.values.copy()
        report.add(epoch, "pretrain", epoch_loss, None, None)
    model.values[...] = best_state
    report.summary.update(stage="pretrain", best_loss=repr(best_loss), epochs=config.pretrain_epochs)
    if checkpoint_path is not None:
        save_checkpoint(model, checkpoint_path, dataset_meta(dataset, config))
    return model, report


def finetune(
    dataset: SeriesDataset,
    config: FaimConfig,
    init: FaimModel | None = None,
    val_dataset: SeriesDataset | None = None,
    checkpoint_path: str | None = None,
) -> tuple[FaimModel, TrainReport]:
    """Supervised stage; returns the best-validation-accuracy state.

    An ``init`` model must match ``config`` in every setting outside the
    ``train`` section, or ConfigError names the first that differs; it then
    trains and is saved under ``config``.  Non-finite losses and parameters
    raise NonFiniteError, as in ``pretrain``.
    """
    if len(dataset) == 0:
        raise InputError("cannot finetune on an empty dataset")
    # The label map can name classes the labels never use (an init model's
    # map), so count the classes present.
    present = sorted(set(dataset.y.tolist()))
    if len(present) < 2:
        names = {index: label for label, index in dataset.label_map.items()}
        raise InputError(
            f"finetune needs at least 2 classes, got {len(present)}: "
            f"{[names.get(c, c) for c in present]}"
        )
    missing = set(range(dataset.n_classes)) - set(present)
    if missing:
        warnings.warn(f"classes {sorted(missing)} absent from the training labels")
    if val_dataset is None:
        train_set, val_set = split_dataset(dataset, 0.2, derive_seed(config.seed, "val"))
    else:
        train_set, val_set = dataset, val_dataset
    if init is None:
        model = build_model(config, dataset.n_classes, dataset.n_channels, dataset.series_len)
    else:
        for name, section in CONFIG_SECTION.items():
            wanted, built = getattr(config, name), getattr(init.config, name)
            if section != "train" and wanted != built:
                raise ConfigError(
                    f"{section}.{name} is {wanted!r}, but the init model was built with "
                    f"{built!r}; only train.* settings may differ"
                )
        model = init
        model.config = config
    x, y = train_set.x, train_set.y

    def batch_loss(epoch, step, idx):
        logits, _ = classify_batch(model, x[idx])
        return batch_label_smoothed_ce(logits, y[idx], config.label_smooth_eps)

    report = TrainReport()
    best_acc, best_epoch, best_state = -1.0, 0, model.values.copy()
    for epoch, epoch_loss in _epochs(model, config, "finetune", len(x), config.finetune_epochs, batch_loss):
        val_loss, val_acc, val_f1 = evaluate(model, val_set, config.batch_size)
        if val_acc >= best_acc:
            best_acc, best_epoch, best_state = val_acc, epoch, model.values.copy()
        report.add(epoch, "train", epoch_loss, None, None)
        report.add(epoch, "val", val_loss, val_acc, val_f1)
    model.values[...] = best_state
    report.summary.update(
        stage="finetune", best_val_accuracy=repr(best_acc), best_epoch=best_epoch,
        epochs=config.finetune_epochs,
    )
    if checkpoint_path is not None:
        save_checkpoint(model, checkpoint_path, dataset_meta(dataset, config))
    return model, report


def dataset_meta(dataset: SeriesDataset, config: FaimConfig) -> dict:
    """Checkpoint metadata: label map, normalisation statistics and seed."""
    return {
        "label_map": dataset.label_map,
        "norm_mean": None if dataset.norm_mean is None else list(dataset.norm_mean),
        "norm_std": None if dataset.norm_std is None else list(dataset.norm_std),
        "seed": config.seed,
    }

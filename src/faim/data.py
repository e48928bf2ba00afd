"""Dataset ingestion, normalization, synthetic corpora, and the
Gaussian-noise robustness harness.

A dataset is two arrays: ``x`` of shape [samples, channels, T] (float64)
and ``y``, the class index of each sample (int64).

Two on-disk formats, both UTF-8 text (any other bytes are an input error):

* univariate: delimited text, one sample per line, label first, then the
  series values; tab or comma, auto-detected from the first line.
* multivariate: one JSON object per line with fields "label" and "series"
  (a list of equal-length per-channel value lists).

Short rows and short records are padded by replicating their last value, the
same rule patchify uses, so padding never injects step discontinuities.
"""

from __future__ import annotations

import contextlib
import json
import os
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError
from .rng import CounterRng, derive_seed


@dataclass
class SeriesDataset:
    """Labeled series of one shape: ``x`` is [samples, channels, T], ``y``
    the class of each sample.  Derived datasets never share ``x``."""

    x: np.ndarray
    y: np.ndarray
    n_classes: int
    label_map: dict[str, int] = field(default_factory=dict)
    norm_mean: np.ndarray | None = None
    norm_std: np.ndarray | None = None

    @property
    def n_channels(self) -> int:
        return self.x.shape[1]

    @property
    def series_len(self) -> int:
        return self.x.shape[2]

    def __len__(self) -> int:
        return len(self.x)

    def take(self, indices) -> "SeriesDataset":
        return replace(self, x=self.x.take(indices, axis=0), y=self.y.take(indices))


def pad_tail(values: np.ndarray, target: int) -> np.ndarray:
    if values.shape[-1] == target:
        return values
    fill = np.repeat(values[..., -1:], target - values.shape[-1], axis=-1)
    return np.concatenate([values, fill], axis=-1)


def open_input(path: str, mode: str = "r"):
    """``open(path, mode)``, as UTF-8 in text mode; a file that cannot be
    opened is an InputError naming it."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _remap_labels(raw_labels: list[str]) -> tuple[np.ndarray, dict[str, int]]:
    mapping: dict[str, int] = {}
    out = []
    for raw in raw_labels:
        if raw not in mapping:
            mapping[raw] = len(mapping)
        out.append(mapping[raw])
    return np.array(out, dtype=np.int64), mapping


# ---------------------------------------------------------------------------
# loading and saving
# ---------------------------------------------------------------------------


def load_univariate(path: str) -> SeriesDataset:
    """Delimited text, one line per sample: label, then T values."""
    with open_input(path) as fh:
        try:
            lines = [(no, line.rstrip("\n")) for no, line in enumerate(fh, start=1) if line.strip()]
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text ({exc.reason})") from None
    if not lines:
        raise InputError(f"{path} contains no samples")
    delimiter = "\t" if "\t" in lines[0][1] else ","
    raw_labels: list[str] = []
    rows: list[np.ndarray] = []
    for line_no, line in lines:
        tokens = [tok.strip() for tok in line.split(delimiter)]
        if len(tokens) < 2:
            raise InputError(f"{path} line {line_no}: need a label and at least one value")
        raw_labels.append(tokens[0])
        values = np.empty(len(tokens) - 1)
        for col, tok in enumerate(tokens[1:], start=2):
            try:
                values[col - 2] = float(tok)
            except ValueError:
                raise InputError(
                    f"{path} line {line_no}, column {col}: {tok!r} is not numeric"
                ) from None
        finite = np.isfinite(values)
        if not finite.all():
            col = int(np.argmin(finite)) + 2
            raise InputError(f"{path} line {line_no}, column {col}: {tokens[col - 1]!r} is not finite")
        rows.append(values)
    t_max = max(row.shape[0] for row in rows)
    if any(row.shape[0] != t_max for row in rows):
        warnings.warn(f"{path}: ragged rows padded to length {t_max} by last-value replication")
        rows = [pad_tail(row, t_max) for row in rows]
    labels, mapping = _remap_labels(raw_labels)
    return SeriesDataset(np.stack(rows)[:, None, :], labels, len(mapping), mapping)


def write_atomic(path, payload: bytes) -> None:
    """Write ``payload`` to a temporary file beside ``path``, then rename it
    over ``path``: a write that fails leaves any previous file as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_univariate(dataset: SeriesDataset, path: str, delimiter: str = "\t") -> None:
    inverse = {v: k for k, v in dataset.label_map.items()}
    lines = []
    for series, label in zip(dataset.x, dataset.y):
        values = delimiter.join(repr(float(v)) for v in series[0])
        lines.append(f"{inverse.get(label, label)}{delimiter}{values}\n")
    write_atomic(path, "".join(lines).encode())


def load_multivariate(path: str) -> SeriesDataset:
    """JSON lines with fields "label" and "series" (per-channel lists)."""
    raw_labels: list[str] = []
    series_list: list[np.ndarray] = []
    # Lines are split on b"\n" and decoded one at a time, so an undecodable
    # byte is charged to its own record.
    with open_input(path, "rb") as fh:
        for rec_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InputError(f"{path} record {rec_no}: not UTF-8 text ({exc.reason})") from None
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path} record {rec_no}: invalid JSON ({exc})") from None
            if "label" not in record or "series" not in record:
                raise InputError(f"{path} record {rec_no}: needs 'label' and 'series' fields")
            channels = record["series"]
            if not isinstance(channels, list) or not all(isinstance(ch, list) for ch in channels):
                raise InputError(f"{path} record {rec_no}: 'series' must be a list of per-channel lists")
            lengths = {len(ch) for ch in channels}
            if len(lengths) > 1:
                raise InputError(
                    f"{path} record {rec_no}: channels have unequal lengths {sorted(lengths)}"
                )
            if lengths in (set(), {0}):
                raise InputError(f"{path} record {rec_no}: 'series' holds no values")
            try:
                series = np.asarray(channels, dtype=np.float64)
            except (TypeError, ValueError):
                raise InputError(f"{path} record {rec_no}, {_non_numeric(channels)}") from None
            finite = np.isfinite(series)
            if not finite.all():
                channel, index = np.argwhere(~finite)[0]
                if channels[channel][index] is None:
                    problem = "missing value (null)"
                else:
                    problem = f"{float(series[channel, index])!r} is not finite"
                raise InputError(f"{path} record {rec_no}, channel {channel}, index {index}: {problem}")
            raw_labels.append(str(record["label"]))
            series_list.append(series)
    if not series_list:
        raise InputError(f"{path} contains no samples")
    n_channels = series_list[0].shape[0]
    for rec_no, series in enumerate(series_list, start=1):
        if series.shape[0] != n_channels:
            raise InputError(
                f"{path} record {rec_no}: has {series.shape[0]} channels, expected {n_channels}"
            )
    t_max = max(series.shape[1] for series in series_list)
    x = np.stack([pad_tail(series, t_max) for series in series_list])
    labels, mapping = _remap_labels(raw_labels)
    return SeriesDataset(x, labels, len(mapping), mapping)


def _non_numeric(channels) -> str:
    """Where a record's series first holds a value float64 cannot take."""
    for channel, values in enumerate(channels):
        for index, value in enumerate(values):
            try:
                float(value)
            except (TypeError, ValueError):
                return f"channel {channel}, index {index}: {value!r} is not numeric"
    return "series: a value is not numeric"


def save_multivariate(dataset: SeriesDataset, path: str) -> None:
    inverse = {v: k for k, v in dataset.label_map.items()}
    lines = []
    for series, label in zip(dataset.x, dataset.y):
        record = {
            "label": inverse.get(label, str(label)),
            "series": [[float(v) for v in channel] for channel in series],
        }
        lines.append(json.dumps(record) + "\n")
    write_atomic(path, "".join(lines).encode())


# ---------------------------------------------------------------------------
# normalization and noise
# ---------------------------------------------------------------------------

STD_FLOOR = 1e-8


def channel_stats(dataset: SeriesDataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and floored std pooled over samples and time."""
    mean = dataset.x.mean(axis=(0, 2))
    std = np.maximum(dataset.x.std(axis=(0, 2)), STD_FLOOR)
    return mean, std


def znormalize(
    dataset: SeriesDataset, stats: tuple[np.ndarray, np.ndarray] | None = None
) -> SeriesDataset:
    """Per-channel (x - mean) / std; pass training stats for a test split."""
    mean, std = channel_stats(dataset) if stats is None else stats
    mean = np.array(mean, dtype=np.float64)
    std = np.array(std, dtype=np.float64)
    x = (dataset.x - mean[:, None]) / std[:, None]
    return replace(dataset, x=x, norm_mean=mean, norm_std=std)


def add_gaussian_noise(dataset: SeriesDataset, sigma: float, seed: int) -> SeriesDataset:
    """Additive seeded Gaussian noise; the source dataset is never mutated."""
    if sigma < 0:
        raise InputError(f"noise sigma must be >= 0, got {sigma}")
    x = dataset.x.copy()
    if sigma > 0:
        for i, c in np.ndindex(x.shape[:2]):
            x[i, c] += sigma * CounterRng(derive_seed(seed, "noise", i, c)).normal((x.shape[2],))
    return replace(dataset, x=x)


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------


def make_synthetic_freq_dataset(
    n_per_class: int, t: int, freqs: list[float], snr_sigma: float, seed: int
) -> SeriesDataset:
    """Univariate corpus: class c is a random-phase sinusoid at freqs[c]
    cycles per window, plus Gaussian noise of std snr_sigma."""
    if len(set(freqs)) != len(freqs):
        raise InputError(f"class frequencies must be distinct, got {freqs}")
    for f in freqs:
        if not 0 < f < t / 2:
            raise InputError(f"frequency {f} is outside (0, {t / 2})")
    if len(freqs) < 2:
        raise InputError(f"need at least 2 classes, got {len(freqs)}")
    rng = CounterRng(derive_seed(seed, "synth-freq"))
    grid = np.arange(t) / t
    y = np.repeat(np.arange(len(freqs)), n_per_class)
    x = np.empty((len(y), 1, t))
    for i, c in enumerate(y):
        phase = rng.uniform((), 0.0, 2.0 * np.pi)
        x[i, 0] = np.sin(2.0 * np.pi * freqs[c] * grid + phase)
        if snr_sigma > 0:
            x[i, 0] += snr_sigma * rng.normal((t,))
    return SeriesDataset(x, y, len(freqs), {str(c): c for c in range(len(freqs))})


def make_synthetic_motion_dataset(
    n_per_class: int,
    n_channels: int,
    t: int,
    n_classes: int,
    snr_sigma: float,
    seed: int,
) -> SeriesDataset:
    """Multichannel corpus shaped like a small motion-capture benchmark.

    Each class is a fixed per-channel mixture of two sinusoids (frequencies
    and amplitude pattern depend only on class and channel, never on the
    dataset seed, so train and test splits drawn with different seeds share
    class structure); samples vary by phase and additive noise.
    """
    if n_classes < 2:
        raise InputError(f"need at least 2 classes, got {n_classes}")
    grid = np.arange(t) / t
    base_freqs = 2.0 + 3.0 * np.arange(n_classes)
    structure = CounterRng(derive_seed("motion-structure"))
    amp = structure.uniform((n_classes, n_channels), 0.5, 1.5)
    detail_freq = structure.uniform((n_classes, n_channels), 8.0, 16.0)
    detail_amp = structure.uniform((n_classes, n_channels), 0.1, 0.5)
    rng = CounterRng(derive_seed(seed, "synth-motion"))
    y = np.repeat(np.arange(n_classes), n_per_class)
    x = np.empty((len(y), n_channels, t))
    for i, c in enumerate(y):
        phase = rng.uniform((n_channels,), 0.0, 2.0 * np.pi)
        phase2 = rng.uniform((n_channels,), 0.0, 2.0 * np.pi)
        x[i] = amp[c][:, None] * np.sin(
            2.0 * np.pi * base_freqs[c] * grid[None, :] + phase[:, None]
        )
        x[i] += detail_amp[c][:, None] * np.sin(
            2.0 * np.pi * detail_freq[c][:, None] * grid[None, :] + phase2[:, None]
        )
        if snr_sigma > 0:
            x[i] += snr_sigma * rng.normal((n_channels, t))
    return SeriesDataset(x, y, n_classes, {str(c): c for c in range(n_classes)})


def align_labels(dataset: SeriesDataset, reference_map: dict[str, int]) -> SeriesDataset:
    """Re-index labels to match a reference mapping (e.g. the training split's).

    Raises if the dataset contains a raw label the reference never saw.
    """
    inverse = {v: k for k, v in dataset.label_map.items()}
    present, where = np.unique(dataset.y, return_inverse=True)
    for label in present:
        if inverse[label] not in reference_map:
            raise InputError(f"label {inverse[label]!r} does not appear in the reference label map")
    relabel = np.array([reference_map[inverse[label]] for label in present], dtype=np.int64)
    return replace(
        dataset,
        x=dataset.x.copy(),
        y=relabel[where],
        n_classes=max(len(reference_map), dataset.n_classes),
        label_map=dict(reference_map),
    )


def split_dataset(
    dataset: SeriesDataset, holdout_fraction: float, seed: int
) -> tuple[SeriesDataset, SeriesDataset]:
    """Seeded shuffle split into (kept, holdout)."""
    n = len(dataset)
    if not 0 < holdout_fraction < 1:
        raise InputError(f"holdout fraction must be in (0, 1), got {holdout_fraction}")
    n_holdout = max(1, int(round(holdout_fraction * n)))
    if n_holdout >= n:
        raise InputError(f"holdout of {n_holdout} leaves no training samples from {n}")
    perm = CounterRng(derive_seed(seed, "split")).permutation(n)
    return dataset.take(perm[n_holdout:]), dataset.take(perm[:n_holdout])

"""End-to-end model assembly: patch embedding, stacked
(filter block -> interactive block -> residual layer-norm) layers, and the
classification / reconstruction heads.

Channels are processed independently with shared weights: a batch
[B, channels, T] folds to [B*channels, tokens, dim] through the trunk and
features pool by mean over tokens and channels before the class head.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .afb import AfbParams, afb_forward, init_afb_params
from .data import open_input, pad_tail, write_atomic
from .errors import ConfigError, InputError, ShapeError
from .imb import ImbParams, imb_forward, init_imb_params
from .nn import layer_norm, linear
from .rng import CounterRng, derive_seed
from .tensor import Tensor, add, mul, narrow, parameter, reshape, tmean

# Every model variant, with its label in ablation reports.
VARIANT_LABELS = {
    "full": "FAIM",
    "no_afb": "w/o AFB",
    "no_hf": "w/o HF",
    "no_lf": "w/o LF",
    "no_hf_lf": "w/o HF+LF",
    "no_imb": "w/o IMB",
    "no_pretrain": "w/o Pretrain",
}
VARIANTS = tuple(VARIANT_LABELS)


@dataclass
class FaimConfig:
    """Model and training settings; every field is a config key (CONFIG_SECTION)."""

    patch_len: int = 8
    patch_stride: int = 0  # 0 means "same as patch_len" (non-overlapping)
    embed_dim: int = 64
    n_layers: int = 2
    ssm_state: int = 16
    conv_k1: int = 2
    conv_k2: int = 4
    conv_k3: int = 1
    theta_high: float = 0.4
    theta_low: float = 0.05
    tau: float = 0.02
    mask_ratio: float = 0.4
    label_smooth_eps: float = 0.1
    lr: float = 1e-3
    weight_decay: float = 1e-4
    pretrain_epochs: int = 100
    finetune_epochs: int = 300
    batch_size: int = 256
    seed: int = 0
    variant: str = "full"

    def __post_init__(self):
        if self.patch_len < 1:
            raise ConfigError(f"{_key('patch_len')} must be >= 1, got {self.patch_len}")
        if self.patch_stride == 0:
            self.patch_stride = self.patch_len
        for name in ("patch_stride", "embed_dim", "n_layers", "ssm_state", "conv_k1", "conv_k2", "conv_k3"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{_key(name)} must be >= 1, got {getattr(self, name)}")
        if not self.tau > 0:
            raise ConfigError(f"{_key('tau')} must be > 0, got {self.tau}")
        for name in ("mask_ratio", "label_smooth_eps"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{_key(name)} must be in [0, 1), got {getattr(self, name)}")
        for name in ("pretrain_epochs", "finetune_epochs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{_key(name)} must be >= 0, got {getattr(self, name)}")
        if self.batch_size < 1 or self.batch_size > 256:
            raise ConfigError(f"{_key('batch_size')} must be in [1, 256], got {self.batch_size}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; choose one of {VARIANTS}")


# The config-registry section of every FaimConfig field.  Field ``lr`` is the
# key ``train.lr``; the key's type tag and default are the field's annotation
# and default.
CONFIG_SECTION = {
    **dict.fromkeys(("patch_len", "patch_stride", "embed_dim", "n_layers", "variant"), "model"),
    **dict.fromkeys(("theta_high", "theta_low", "tau"), "afb"),
    **dict.fromkeys(("ssm_state", "conv_k1", "conv_k2", "conv_k3"), "imb"),
    **dict.fromkeys(
        ("mask_ratio", "label_smooth_eps", "lr", "weight_decay", "pretrain_epochs",
         "finetune_epochs", "batch_size", "seed"),
        "train",
    ),
}


def _key(name: str) -> str:
    """The config key of a FaimConfig field, as a user types it."""
    return f"{CONFIG_SECTION[name]}.{name}"


@dataclass
class FaimLayer:
    afb: AfbParams
    imb: ImbParams
    ln_gamma: Tensor
    ln_beta: Tensor


@dataclass
class FaimModel:
    config: FaimConfig
    n_classes: int
    n_channels: int
    series_len: int
    n_patches: int
    embed_w: Tensor = None
    embed_b: Tensor = None
    pos_emb: Tensor = None
    mask_token: Tensor = None
    layers: list[FaimLayer] = field(default_factory=list)
    cls_w: Tensor = None
    cls_b: Tensor = None
    recon_w: Tensor = None
    recon_b: Tensor = None
    # Every parameter's values, end to end in declaration order; each
    # parameter's ``data`` is a view into it.
    values: np.ndarray = None
    # (attribute path, tensor, slice of ``values``) of every parameter, in
    # declaration order; built once with the model.
    layout: list[tuple[str, Tensor, slice]] = field(default_factory=list)

    def gradient(self, grads: dict[Tensor, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """``backward``'s gradients laid out like ``values``, and the mask of
        the values whose parameter received one; the rest are zero.

        Both arrays belong to the model and are refilled by the next call.
        """
        grad, touched = self._gradient_buffers
        grad.fill(0.0)
        touched.fill(False)
        for _, tensor, part in self.layout:
            if tensor in grads:
                grad[part] = grads[tensor].ravel()
                touched[part] = True
        return grad, touched

    @functools.cached_property
    def _gradient_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        return np.empty_like(self.values), np.empty(self.values.shape, dtype=bool)


def _named_tensors(value, prefix: str = ""):
    """Every Tensor reachable from ``value`` through dataclass fields and list
    items, in declaration order, named by its path of field names and list
    indices (``layers.0.afb.theta_high``).  Other values are skipped."""
    if isinstance(value, Tensor):
        yield prefix[:-1], value
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _named_tensors(item, f"{prefix}{i}.")
    elif is_dataclass(value):
        for f in fields(value):
            yield from _named_tensors(getattr(value, f.name), f"{prefix}{f.name}.")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def padded_length(t: int, b: int, stride: int) -> int:
    if t < b:
        return b
    rem = (t - b) % stride
    return t if rem == 0 else t + (stride - rem)


def n_patches_for(t: int, b: int, stride: int) -> int:
    return (padded_length(t, b, stride) - b) // stride + 1


def build_model(config: FaimConfig, n_classes: int, n_channels: int, series_len: int) -> FaimModel:
    if n_classes < 1:
        raise ConfigError(f"n_classes must be >= 1, got {n_classes}")
    if series_len < 1:
        raise InputError(f"series length must be >= 1, got {series_len}")
    b, stride, dim = config.patch_len, config.patch_stride, config.embed_dim
    z = n_patches_for(series_len, b, stride)
    rng = CounterRng(derive_seed(config.seed, "model-init"))
    model = FaimModel(
        config=config,
        n_classes=n_classes,
        n_channels=n_channels,
        series_len=series_len,
        n_patches=z,
        embed_w=parameter(rng.normal((b, dim), std=1.0 / np.sqrt(b))),
        embed_b=parameter(np.zeros(dim)),
        pos_emb=parameter(rng.normal((z, dim), std=0.02)),
        mask_token=parameter(rng.normal((b,), std=0.02)),
        cls_w=parameter(rng.normal((dim, n_classes), std=1.0 / np.sqrt(dim))),
        cls_b=parameter(np.zeros(n_classes)),
        recon_w=parameter(rng.normal((dim, b), std=1.0 / np.sqrt(dim))),
        recon_b=parameter(np.zeros(b)),
    )
    for i in range(config.n_layers):
        layer_rng = rng.spawn("layer", i)
        model.layers.append(
            FaimLayer(
                afb=init_afb_params(
                    dim,
                    layer_rng.spawn("afb"),
                    theta_high=config.theta_high,
                    theta_low=config.theta_low,
                    tau=config.tau,
                ),
                imb=init_imb_params(
                    dim,
                    config.ssm_state,
                    layer_rng.spawn("imb"),
                    k1=config.conv_k1,
                    k2=config.conv_k2,
                    k3=config.conv_k3,
                ),
                ln_gamma=parameter(np.ones(dim)),
                ln_beta=parameter(np.zeros(dim)),
            )
        )
    named = list(_named_tensors(model))
    model.values = np.concatenate([t.data.ravel() for _, t in named])
    start = 0
    for name, tensor in named:
        part = slice(start, start + tensor.size)
        tensor.data = model.values[part].reshape(tensor.shape)
        model.layout.append((name, tensor, part))
        start = part.stop
    return model


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------


def patchify(x, b: int, stride: int) -> np.ndarray:
    """Window the last axis into patches [..., Z, b], padding the tail by
    replicating the final value so every patch is full."""
    x = np.asarray(x, dtype=np.float64)
    t = x.shape[-1]
    if t < 1:
        raise InputError("cannot patchify an empty series")
    padded = padded_length(t, b, stride)
    x = pad_tail(x, padded)
    z = (padded - b) // stride + 1
    starts = np.arange(z) * stride
    return x[..., starts[:, None] + np.arange(b)]


def embed(patches, model: FaimModel) -> Tensor:
    """Shared linear projection of each patch plus its position row."""
    tokens = patches if isinstance(patches, Tensor) else Tensor(patches)
    z = tokens.shape[-2]
    if z > model.n_patches:
        raise ConfigError(f"{z} patches exceed the {model.n_patches} position rows built")
    projected = linear(tokens, model.embed_w, model.embed_b)
    return add(projected, narrow(model.pos_emb, 0, 0, z))


def _run_layers(tokens: Tensor, model: FaimModel) -> Tensor:
    variant = model.config.variant
    for layer in model.layers:
        if variant == "no_afb":
            u = tokens
        else:
            u, _ = afb_forward(
                tokens,
                layer.afb,
                use_high=variant not in ("no_hf", "no_hf_lf"),
                use_low=variant not in ("no_lf", "no_hf_lf"),
            )
        v = u if variant == "no_imb" else imb_forward(u, layer.imb)
        tokens = layer_norm(add(v, tokens), layer.ln_gamma, layer.ln_beta)
    return tokens


def _check_batch(x: np.ndarray, model: FaimModel):
    if x.ndim != 3 or x.shape[1] != model.n_channels:
        raise ShapeError(
            f"the model expects [B, channels, T] with {model.n_channels} channels, got shape {x.shape}"
        )


def classify_batch(model: FaimModel, x) -> tuple[Tensor, None]:
    """Logits for a batch [B, channels, T] -> Tensor[B, n_classes].

    The second element is always None, so callers that unpack a pair keep
    working.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_batch(x, model)
    n_batch, n_chan = x.shape[0], x.shape[1]
    patches = patchify(x, model.config.patch_len, model.config.patch_stride)
    z = patches.shape[-2]
    folded = patches.reshape(n_batch * n_chan, z, model.config.patch_len)
    tokens = embed(folded, model)
    tokens = _run_layers(tokens, model)
    pooled = tmean(tokens, axis=1)
    pooled = tmean(reshape(pooled, (n_batch, n_chan, model.config.embed_dim)), axis=1)
    return linear(pooled, model.cls_w, model.cls_b), None


def faim_forward(x, model: FaimModel) -> Tensor:
    """Logits for one sample [channels, T] -> Tensor[n_classes]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"faim_forward expects [channels, T], got shape {x.shape}")
    logits, _ = classify_batch(model, x[None])
    return reshape(logits, (model.n_classes,))


def reconstruct_forward(x, mask, model: FaimModel) -> Tensor:
    """Reconstructed patches [B, channels, Z, patch_len] from a masked batch
    [B, channels, T].

    ``mask`` is 0/1 per (sample, channel, patch); masked patches are
    replaced by the learnable mask token before embedding.  All patches are
    returned; the loss applies the mask weights.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_batch(x, model)
    mask = np.asarray(mask, dtype=np.float64)
    b = model.config.patch_len
    patches = patchify(x, b, model.config.patch_stride)
    if mask.shape != patches.shape[:-1]:
        raise ShapeError(f"mask shape {mask.shape} does not match patch grid {patches.shape[:-1]}")
    lam = mask[..., None]
    kept = Tensor(patches * (1.0 - lam))
    replaced = mul(model.mask_token, Tensor(lam))
    masked = add(kept, replaced)
    n_batch, n_chan, z = patches.shape[0], patches.shape[1], patches.shape[2]
    tokens = embed(reshape(masked, (n_batch * n_chan, z, b)), model)
    tokens = _run_layers(tokens, model)
    recon = linear(tokens, model.recon_w, model.recon_b)
    return reshape(recon, (n_batch, n_chan, z, b))


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

MAGIC = b"FAIM1\n"


def save_checkpoint(model: FaimModel, path: str, meta: dict | None = None) -> None:
    """Binary checkpoint: magic, length-prefixed JSON header, float64 blob.

    The header stores the config, a parameter manifest (name, shape, offset
    in values), and caller metadata (label map, normalization stats, seed).
    The blob is ``model.values``.  Byte output is deterministic for identical
    model state.
    """
    manifest = [
        {"name": name, "shape": list(tensor.shape), "offset": part.start}
        for name, tensor, part in model.layout
    ]
    header = {
        "config": asdict(model.config),
        "n_classes": model.n_classes,
        "n_channels": model.n_channels,
        "series_len": model.series_len,
        "n_patches": model.n_patches,
        "meta": meta or {},
        "params": manifest,
    }
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    write_atomic(path, MAGIC + len(encoded).to_bytes(8, "little") + encoded + model.values.tobytes())


def load_checkpoint(path: str) -> tuple[FaimModel, dict]:
    """Rebuild a model from a checkpoint; a damaged file raises InputError naming it."""
    with open_input(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MAGIC)] != MAGIC:
        raise InputError(f"{path} is not a model checkpoint (bad magic)")
    header_start = len(MAGIC) + 8
    blob_start = header_start + int.from_bytes(raw[len(MAGIC) : header_start], "little")
    if blob_start > len(raw):
        raise InputError(f"{path} is truncated: its header ends at byte {blob_start} of {len(raw)}")
    try:
        header = json.loads(raw[header_start:blob_start].decode())
        config = FaimConfig(**header["config"])
        geometry = (header["n_classes"], header["n_channels"], header["series_len"])
        manifest = [(e["name"], tuple(e["shape"]), int(e["offset"])) for e in header["params"]]
        meta = header["meta"]
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path} has an unreadable header: {type(exc).__name__}: {exc}") from exc
    model = build_model(config, *geometry)
    expected = [(name, tensor.shape, part.start) for name, tensor, part in model.layout]
    if len(manifest) != len(expected):
        raise InputError(
            f"{path} lists {len(manifest)} parameters; the rebuilt model has {len(expected)}"
        )
    for i, (entry, want) in enumerate(zip(manifest, expected)):
        if entry != want:
            raise InputError(
                f"{path} parameter manifest entry {i} is (name, shape, offset) {entry}; "
                f"the rebuilt model expects {want}"
            )
    n_values = model.values.size
    if len(raw) - blob_start != 8 * n_values:
        raise InputError(
            f"{path} holds {len(raw) - blob_start} parameter bytes; its manifest needs {8 * n_values}"
        )
    model.values[...] = np.frombuffer(raw, dtype=np.float64, offset=blob_start)
    return model, meta
